"""Tests of the benchmark itself, on the tiny workloads.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS, tail_percentile  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    record, result = parsed(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert record["failed_share"] == 0
    assert record["mpmath_backend"] == "python"
    assert record["seed"] == 7
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert metrics["wall_s"]["value"] == min(record["wall_s_samples"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_split(workload):
    runs = [parsed(bench(workload, 1)) for _ in range(2)]
    names = [m["name"] for m in SPEC["per_layer"]]
    counts = []
    for record, result in runs:
        assert result["correct"] is True, record["checks"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert sorted(metrics) == sorted(names)
        for m in SPEC["per_layer"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert 0 <= metrics["cli.digit_limit_failures"] <= 2
        if metrics["sequences.generate_calls"]:
            assert 0 < metrics["sequences.fresh_ratio"] <= 1
        if record["argv"][0] == "stream":
            k = int(record["argv"][record["argv"].index("--K") + 1])
            assert metrics["expansion.certified"] >= k
        if workload == "stream-powersum":
            assert metrics["cf.euclid_steps"] >= metrics["expansion.certified"]
        counts.append({m["name"]: metrics[m["name"]] for m in SPEC["per_layer"]
                       if m["unit"] != "s"})
    assert counts[0] == counts[1]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("asymp-affine", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile([1.0] * 39) is None
    assert tail_percentile(list(range(40)))["percentile"] == 75
    assert tail_percentile(list(range(200)))["percentile"] == 95
    assert tail_percentile(list(range(1000)))["percentile"] == 99
