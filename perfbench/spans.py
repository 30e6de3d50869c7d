"""Spans around the public functions of each engelcf layer.

A traced child wraps every function named in ``TARGETS`` under each name a
caller looks it up by: the defining module, every engelcf module that
imported it, and the class for ``SeriesSource`` methods. A span's self time
is its duration minus the time covered by the spans it caused, so the self
times of all spans plus the hook time add up to the root span exactly.

Nothing here imports engelcf; ``Tracer.install`` takes the loaded modules.
"""

import functools
import time

# (layer, owner, attribute). The owner is a module name or "module:Class".
TARGETS = (
    ("sequences", "engelcf.sequences", "generate_recurrence"),
    ("sequences", "engelcf.sequences", "from_factors"),
    ("source", "engelcf.expansion:SeriesSource", "x"),
    ("source", "engelcf.expansion:SeriesSource", "factor"),
    ("source", "engelcf.expansion:SeriesSource", "partial_sum"),
    ("stream", "engelcf.expansion", "stream"),
    ("cf", "engelcf.cf", "expand_rational"),
    ("asymptotics", "engelcf.asymptotics", "full_report"),
    ("asymptotics", "engelcf.asymptotics", "log_big"),
)

ROOT = "cli.main"


class Tracer:
    """Span stack and per-function totals for one traced ``cli.main`` call."""

    def __init__(self):
        self._open: list[list[float]] = []  # child time covered, per open span
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.hook_s = 0.0
        self.counters = {
            "term_bits": 0,
            "fresh_bits": 0,
            "euclid_steps": 0,
            "operand_bits": 0,
            "n_used": 0,
            "certified": 0,
        }
        self._seen_terms: set[int] = set()

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered = [0.0]
            self._open.append(covered)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._open.pop()
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur - covered[0]
                rec[2] += dur
                if self._open:
                    self._open[-1][0] += dur
            if hook is not None:
                # Bookkeeping is charged to no layer: the caller's span sees
                # it as covered time, and it is reported as hook_s.
                h0 = time.perf_counter()
                hook(result, args)
                spent = time.perf_counter() - h0
                self.hook_s += spent
                if self._open:
                    self._open[-1][0] += spent
            return result

        return traced

    def _on_terms(self, result, args):
        terms = result if isinstance(result, list) else result.x
        for t in terms:
            bits = t.bit_length()
            self.counters["term_bits"] += bits
            if t not in self._seen_terms:
                self._seen_terms.add(t)
                self.counters["fresh_bits"] += bits

    def _on_expand(self, result, args):
        r = args[0]
        self.counters["euclid_steps"] += len(result)
        self.counters["operand_bits"] += r.numerator.bit_length() + r.denominator.bit_length()

    def _on_stream(self, result, args):
        self.counters["n_used"] += result.n_used
        self.counters["certified"] += len(result.certified)

    def install(self, modules: dict):
        """Wrap every target in the loaded ``engelcf`` modules of ``modules``
        (normally ``sys.modules``) and return the wrapped ``cli.main``."""
        hooks = {
            "generate_recurrence": self._on_terms,
            "from_factors": self._on_terms,
            "expand_rational": self._on_expand,
            "stream": self._on_stream,
        }
        engel = [m for k, m in modules.items() if k == "engelcf" or k.startswith("engelcf.")]
        for layer, owner, attr in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            name = f"{layer}:{cls_name + '.' if cls_name else ''}{attr}"
            if cls_name:
                cls = getattr(modules[mod_name], cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
                continue
            original = getattr(modules[mod_name], attr)
            wrapped = self.wrap(name, original, hooks.get(attr))
            for mod in engel:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        return self.wrap(f"cli:{ROOT}", modules["engelcf.cli"].main)

    def report(self) -> dict:
        return {
            "spans": {
                k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                for k, v in sorted(self.spans.items())
            },
            "hook_s": self.hook_s,
            "counters": dict(self.counters),
        }


def _self(spans: dict, layer: str) -> float:
    return sum((v["self_s"] for k, v in spans.items() if k.startswith(layer + ":")), 0.0)


def _calls(spans: dict, name: str) -> int:
    return spans.get(name, {"calls": 0})["calls"]


def layer_metrics(report: dict) -> dict:
    """Per-layer metrics of one traced call, keyed as in BENCHMARK.json.

    A ratio whose base is zero (the layer did no work) reads 0.
    """
    spans, c = report["spans"], report["counters"]
    steps = c["euclid_steps"]
    return {
        "sequences.generate_s": _self(spans, "sequences"),
        "sequences.generate_calls": _calls(spans, "sequences:generate_recurrence")
        + _calls(spans, "sequences:from_factors"),
        "sequences.term_bits": c["term_bits"],
        "sequences.fresh_ratio": c["fresh_bits"] / c["term_bits"] if c["term_bits"] else 0.0,
        "expansion.source_s": _self(spans, "source"),
        "expansion.factor_calls": _calls(spans, "source:SeriesSource.factor"),
        "expansion.stream_s": _self(spans, "stream"),
        "expansion.n_used": c["n_used"],
        "expansion.certified": c["certified"],
        "cf.expand_s": _self(spans, "cf"),
        "cf.expand_calls": _calls(spans, "cf:expand_rational"),
        "cf.euclid_steps": steps,
        "cf.operand_bits": c["operand_bits"],
        "cf.certified_per_step": c["certified"] / steps if steps else 0.0,
        "asymptotics.self_s": _self(spans, "asymptotics"),
        "asymptotics.log_big_calls": _calls(spans, "asymptotics:log_big"),
        "cli.self_s": _self(spans, "cli"),
    }


def self_time_gap(report: dict) -> float:
    """Root span duration minus the sum of all self times and hook time;
    zero up to rounding when every span closed inside its parent."""
    spans = report["spans"]
    total = sum(v["self_s"] for v in spans.values()) + report["hook_s"]
    return spans[f"cli:{ROOT}"]["total_s"] - total
