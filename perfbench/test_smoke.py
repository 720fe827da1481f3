"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload, untraced and traced, must print each metric BENCHMARK.json
names, with its unit, pass all of its correctness checks, and end with the
result line the benchmark contract fixes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(root, workload, trace):
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(workload, trace, kind):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}") for line in lines
        ), name
    assert any(line.startswith("env {") for line in lines)

    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # Self times of the spans plus the benchmark's own time make up the
        # traced wall time of an operation.
        assert metrics["trace.spans_s"] + metrics["trace.harness_s"] == pytest.approx(metrics["trace.wall_s"])
        assert metrics["trace.spans_s"] > 0.5 * metrics["trace.wall_s"]
    else:
        assert all(value > 0 for value in metrics.values())


def test_fails_without_sources(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run must fail
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
