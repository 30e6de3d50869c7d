#!/usr/bin/env python3
"""Benchmark the working tree against a base commit and write a record.

    python3 scripts/bench.py --base HEAD~1 --out BENCH_6.json

The base commit (``HEAD`` while the change is uncommitted, ``HEAD~1`` once
it is committed) is exported with ``git archive`` into a temporary
directory, so an interrupted run leaves nothing in the repository. The
script stops if the base's files equal the working tree's. For every
workload of the working tree's BENCHMARK.json, it runs
``perfbench/run.py --trace 0`` of each side in 10 pairs, alternating
which side goes first, and then one ``--trace 1`` run per side; every run
lasts the ``run_seconds`` of that BENCHMARK.json. Each side measures its
own ``src/`` with its own perfbench.

The record holds the interpreter, every run's end-to-end metrics, each
side's median and quartiles per metric, how many pairs the working tree
won (strictly better), and the traced per-layer split of each side.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # a gain claim needs a win in at least 9 of 10 pairs


def export(rev: str, dest: str) -> str:
    """Extract the files of ``rev`` into ``dest``; return the full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, **safe)
    return sha


def run(tree: str, workload: str, seconds: float, trace: int) -> dict:
    """One perfbench run of ``tree``; its result object plus the record."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench failed in {tree} on {workload}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    if not result["correct"]:
        sys.exit(f"perfbench reported a wrong result in {tree} on {workload}: "
                 f"{result['record']['checks']}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(workload: str, sides: dict, pairs: int, seconds: float) -> dict:
    runs = {name: [] for name in sides}
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for name in order:
            res = run(sides[name], workload, seconds, trace=0)
            runs[name].append({k: v["value"] for k, v in res["metrics"].items()}
                              | {"attempted": res["attempted"], "failed": res["failed"]})
        print(f"{workload} pair {i + 1}/{pairs}: "
              + ", ".join(f"{n} {runs[n][-1]['wall_s']:.4f} s" for n in sides),
              file=sys.stderr, flush=True)
    metrics = [k for k in runs["base"][0] if k not in ("attempted", "failed")]
    out = {"runs": runs, "summary": {}, "wins": {}}
    for name in sides:
        out["summary"][name] = {m: summary([r[m] for r in runs[name]]) for m in metrics}
    for m in metrics:  # every end-to-end metric is lower-is-better
        out["wins"][m] = sum(t[m] < b[m] for t, b in zip(runs["tree"], runs["base"]))
    out["traced"] = {}
    for name, tree in sides.items():
        res = run(tree, workload, seconds, trace=1)
        out["traced"][name] = {k: v["value"] for k, v in res["metrics"].items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="path of the JSON record to write")
    ap.add_argument("--base", required=True, help="commit to compare against")
    args = ap.parse_args(argv)
    if subprocess.run(["git", "diff", "--quiet", args.base, "--"], cwd=ROOT).returncode == 0:
        ap.error(f"the working tree's tracked files equal {args.base}'s; "
                 "pass the commit the change sits on")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="engelcf-base-") as base_dir:
        base_sha = export(args.base, base_dir)
        sides = {"base": base_dir, "tree": ROOT}
        results = {w: compare(w, sides, PAIRS, seconds) for w in workloads}
    record = {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "base": base_sha,
        "pairs": PAIRS,
        "seconds_per_run": seconds,
        "workloads": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for w, res in results.items():
        b, t = res["summary"]["base"]["wall_s"], res["summary"]["tree"]["wall_s"]
        print(f"{w}: wall_s median {b['median']:.4f} -> {t['median']:.4f} s, "
              f"tree won {res['wins']['wall_s']}/{PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
