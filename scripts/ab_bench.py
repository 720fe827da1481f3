#!/usr/bin/env python3
"""A/B timing of this checkout against a parent revision on one workload.

    python3 scripts/ab_bench.py HEAD~1 erm_fit --pairs 10 --seconds 20 --seed 1

The committed files of PARENT_REV are extracted with ``git archive`` into a
temporary directory, which is removed on exit; the repository itself is not
touched. Each pair then runs ``perfbench/run.py --workload WORKLOAD`` once in
the parent's copy and once in this checkout, with the same ``--seed``,
alternating which side goes first so that neither always finds the machine
in the same state. The last stdout line of each run is its JSON result.

For every end-to-end metric that ``BENCHMARK.json`` lists, the script prints
the first quartile, median and third quartile of both sides and in how many
pairs this checkout did better, with "better" as ``BENCHMARK.json`` defines
it. ``clear`` marks a metric on which this checkout won at least 9 pairs in
10 and whose median moved the right way by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(end_to_end: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per ``BENCHMARK.json`` end-to-end metric present in the runs.

    ``parent[i]`` and ``change[i]`` are the ``metrics`` of pair i's two
    runs, each mapping a metric name to ``{"value": ..., "unit": ...}``.
    """
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        if not all(name in run for run in parent + change):
            continue
        a = [run[name]["value"] for run in parent]
        b = [run[name]["value"] for run in change]
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        pa, pb = quartiles(a), quartiles(b)
        gain = pa[1] - pb[1] if lower else pb[1] - pa[1]
        rows.append({
            "name": name,
            "better": spec["better"],
            "parent": pa,
            "change": pb,
            "wins": wins,
            "pairs": len(a),
            "clear": wins >= 0.9 * len(a) and gain > pa[2] - pa[0],
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"

    lines = [f"{'metric':<12} {'better':<6} {'parent median [q1, q3]':<34} "
             f"{'change median [q1, q3]':<34} wins   clear"]
    for r in rows:
        lines.append(
            f"{r['name']:<12} {r['better']:<6} {q(r['parent']):<34} {q(r['change']):<34} "
            f"{r['wins']:>2}/{r['pairs']:<3} {'yes' if r['clear'] else 'no'}"
        )
    return "\n".join(lines)


def run_bench(checkout: str, workload: str, seconds: float, seed: int) -> dict:
    """The JSON result line of one benchmark run in ``checkout``."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"no result line from {checkout} (exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def extract(rev: str, dest: str) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_rev")
    ap.add_argument("workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]

    parent_dir = tempfile.mkdtemp(prefix="ab_bench_parent_")
    try:
        extract(args.parent_rev, parent_dir)
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        checkouts = {"parent": parent_dir, "change": ROOT}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run_bench(checkouts[side], args.workload, args.seconds, args.seed)
                runs[side].append(result["metrics"])
                failed[side] += result["failed"]
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)

    print(f"{args.workload}: {args.parent_rev} (parent) vs this checkout, "
          f"{args.pairs} pairs, --seconds {args.seconds:g} --seed {args.seed}")
    print(format_rows(summarize(end_to_end, runs["parent"], runs["change"])))
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
    return 0 if not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
