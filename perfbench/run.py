"""engelcf benchmark: CLI subcommands on fixed paper inputs, one fresh
interpreter per call, closed loop with one client.

    python3 perfbench/run.py --workload asymp-affine --seed 1 --seconds 55 --trace 0

Prints a JSON record line, then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones (wall_s, the fastest call of the run; setup_s;
peak_rss_mb); with --trace 1 they are the per-layer split of traced
calls. perfbench/README.md gives the workloads, the metrics and what each
layer metric should move.

The inputs are fixed paper inputs, so --seed changes no input; it is
recorded in the record line.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from spans import layer_metrics, self_time_gap  # noqa: E402

AFFINE = ["--d1", "3", "--G", "1,2"]

# argv at full and tiny size, each with the sha256 of its stdout as the
# parent commit of the benchmark printed it. A call whose stdout differs
# has failed.
WORKLOADS = {
    "stream-powersum": (
        (["stream", "--u", "3", "--K", "15000"],
         "c3ffade15e6f7869f8928bccb92fe3f87f4953507435d4aa6e09a6f160ce41a8"),
        (["stream", "--u", "3", "--K", "500"],
         "7b3a8cfd6f732a03fab895a5892de580533e9e0823103f1fe04a83128af51659"),
    ),
    "asymp-affine": (
        (["asymp", *AFFINE, "--n", "11"],
         "61908265e8420856bc22f514c10956c19f5bf7733bcf2fe60ba52ff41a329464"),
        (["asymp", *AFFINE, "--n", "6"],
         "2da5e2971a75d3f69ecec3b4a84405f0ad7688c0c75eb5bb590c0c22e90a8501"),
    ),
}

# Valid input that exits 2 at CPython's default int/str digit limit
# (ROADMAP item 3). They run untimed at the default limit on every
# invocation; the timed calls lift it with sys.set_int_max_str_digits(0).
DIGIT_LIMIT_REPROS = (
    ["gen", *AFFINE, "--n", "10"],
    ["stream", *AFFINE, "--K", "400"],
)

SETUP_SAMPLES = 16
DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s
BACKEND = "python"  # the mpmath backend every recorded result was taken on

# Units of the per-layer metrics. Those not in seconds are counts, which
# must repeat exactly across traced calls.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    LAYER_UNITS = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


class Bench:
    def __init__(self, start: float):
        self.start = start
        self.env = dict(os.environ)
        # Cached bytecode, as after an install: set-up then times the
        # import users pay on every call, not a compile.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def child(self, *args) -> dict:
        """Run child.py and return its JSON line. A child that crashed or
        timed out reads {"exit": None}; ``elapsed_s`` is its whole life."""
        left = DEADLINE_S - (time.perf_counter() - self.start)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, *args], env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=max(left, 1.0),
            )
        except subprocess.TimeoutExpired:
            print(f"child {args[0]} timed out", file=sys.stderr)
            return {"exit": None, "elapsed_s": time.perf_counter() - t0}
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return {"exit": None, "elapsed_s": elapsed}
        out = json.loads(proc.stdout.splitlines()[-1])
        out["elapsed_s"] = elapsed
        out["stderr"] = proc.stderr.strip()[-300:]
        return out

    def call(self, argv, lift_limit=True, trace=False) -> dict:
        spec = {"argv": argv, "lift_limit": lift_limit, "trace": trace}
        return self.child("run", json.dumps(spec))


def tail_percentile(values: list[float]) -> dict | None:
    """The highest of the usual percentiles with at least ten samples above
    it, or None while there are too few samples for any."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) >= 1000:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return {"percentile": p, "value": cut}
    return None


def traced_metrics(traced: list[dict], plain_walls: list[float], checks: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced calls: medians of times, counts
    checked to repeat exactly."""
    layers = [layer_metrics(r["trace"]) | {"cli.output_bytes": r["output_bytes"]} for r in traced]
    counts = [{k: v for k, v in layer.items() if LAYER_UNITS[k] != "s"} for layer in layers]
    checks["counts_repeat"] = bool(counts) and all(c == counts[0] for c in counts)
    gaps = [self_time_gap(r["trace"]) for r in traced]
    checks["self_times_sum_to_main"] = bool(gaps) and all(
        abs(g) <= 1e-6 * r["wall_s"] + 1e-6 for g, r in zip(gaps, traced))
    metrics = {}
    for name in layers[0] if layers else ():
        unit = LAYER_UNITS[name]
        value = statistics.median(layer[name] for layer in layers) if unit == "s" else layers[0][name]
        metrics[name] = (value, unit)
    traced_walls = [r["wall_s"] for r in traced]
    if traced_walls:
        metrics["trace.overhead_s"] = (min(traced_walls) - min(plain_walls), "s")
    record = {
        "traced_wall_s_samples": traced_walls,
        "self_time_gap_s": gaps,
        "hook_s": [r["trace"]["hook_s"] for r in traced],
        "spans": traced[0]["trace"]["spans"] if traced else None,
    }
    return metrics, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small K and n, for the benchmark's own tests")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    # A terminated run raises SystemExit, so subprocess.run kills and
    # reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "engelcf", "cli.py")):
        print(f"no engelcf sources under {ROOT}/src", file=sys.stderr)
        return 1
    bench = Bench(start)
    full, tiny = WORKLOADS[args.workload]
    argv_w, digest = tiny if args.tiny else full

    # The repros run first, which also fills the bytecode cache.
    repros = [{"argv": a, **bench.call(a, lift_limit=False)} for a in DIGIT_LIMIT_REPROS]
    digit_limit_failures = sum(r["exit"] != 0 for r in repros)

    def set_up(count):
        samples = [bench.child("setup") for _ in range(count)]
        if any("setup_s" not in s for s in samples):
            sys.exit("set-up child failed")
        return samples

    # Half the set-up samples run before the timed loop and half after it,
    # so that their median spans the run rather than a two-second window.
    setups = set_up(SETUP_SAMPLES // 2)
    backend = setups[0]["backend"]
    if backend != BACKEND:
        print(f"mpmath backend is {backend!r}, not {BACKEND!r}: results are not comparable",
              file=sys.stderr)
        return 1

    def ok(r):
        return r["exit"] == 0 and r["sha256"] == digest

    # Closed loop, one client: the next call starts when the previous one
    # has ended, while the mean so far predicts that the loop then ends
    # nearer to --seconds than it would without that call. A traced run
    # alternates an untraced and a traced call.
    plain, traced = [], []
    loop_start = time.perf_counter()
    while True:
        plain.append(bench.call(argv_w))
        if args.trace:
            traced.append(bench.call(argv_w, trace=True))
        spent = time.perf_counter() - loop_start
        per_round = spent / len(plain)
        if spent + per_round / 2 > args.seconds or time.perf_counter() - start + 2 * per_round > DEADLINE_S:
            break
    setups += set_up(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    calls = plain + traced
    failed = sum(not ok(r) for r in calls)
    good = [r for r in plain if ok(r)]
    walls = [r["wall_s"] for r in good] or [r["elapsed_s"] for r in plain]
    checks = {"outputs_match": failed == 0}
    record = {
        "workload": args.workload,
        "argv": argv_w,
        "seed": args.seed,
        "tiny": args.tiny,
        "python": setups[0]["python"],
        "mpmath_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": {"timed_calls": 0,
                               "digit_limit_repros": setups[0]["default_int_max_str_digits"]},
        "digit_limit_repros": [{k: r.get(k) for k in ("argv", "exit", "stderr")} for r in repros],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "wall_s_samples": walls,
        "wall_s_median": statistics.median(walls),
        "wall_s_tail": tail_percentile(walls),
        "failed_share": failed / len(calls),
    }

    if args.trace:
        metrics, record["trace"] = traced_metrics([r for r in traced if ok(r)], walls, checks)
        metrics["cli.digit_limit_failures"] = (digit_limit_failures, "count")
    else:
        # The fastest call: the shared host slows every call for up to
        # minutes at a time, which shifts a run's median more than its
        # minimum (perfbench/README.md). The median is in the record.
        metrics = {
            "wall_s": (min(walls), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in good) / 1024 if good else 0.0,
                            "MB"),
        }
    record["checks"] = checks
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
