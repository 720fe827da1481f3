#!/usr/bin/env python3
"""A/B timing of this checkout against a parent revision, per workload.

    python3 scripts/ab_bench.py HEAD~1 erm_fit --pairs 10 --seconds 20 --seed 1
    python3 scripts/ab_bench.py HEAD~1 global_sweep cli_artifacts emg_mask erm_fit
    python3 scripts/ab_bench.py HEAD~1 emg_mask --json-out BENCH_ab_emg_mask.json

The committed files of PARENT_REV are extracted with ``git archive`` into a
temporary directory, and this checkout's files that git does not ignore
(tracked, edited or untracked) are copied into a sibling one of the same
name length; both are removed on exit, and the repository itself is not
touched. So neither side runs from a directory with its own ``__pycache__``,
``.bench_out`` or path length, whose heap layout could pass for a result.
For each workload in turn, each pair then runs ``perfbench/run.py
--workload WORKLOAD`` once in each copy, with the same ``--seed``,
alternating which side goes first so that neither always finds the machine
in the same state. The last stdout line of each run is its JSON result.

For every end-to-end metric that ``BENCHMARK.json`` lists, the script prints
one table per workload: the first quartile, median and third quartile of
both sides and in how many pairs this checkout did better, with "better" as
``BENCHMARK.json`` defines it. ``clear`` marks a metric on which this
checkout won at least 9 pairs in 10 and whose median moved the right way by
more than the parent's interquartile range. ``worse`` marks a metric whose
median moved the wrong way by more than its ``BENCHMARK.json`` bound, taken
as a fraction of the parent's median. ``unresolved`` marks a metric whose
parent interquartile range is itself wider than that bound, so that the
runs are too spread to tell a move within the bound from noise. The exit
status is 1 if any run of any workload had a failed operation.

``--json-out PATH`` also writes what the tables show as JSON: the parent
revision as given and the commit it resolved to, ``--seed``, ``--seconds``
and ``--pairs``, and per workload each metric's bound, quartiles, wins,
pairs, ``clear``, ``worse`` and ``unresolved``, with the failed-operation
counts of both sides.
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
        allowed = spec["bound"] * abs(pa[1])
        rows.append({
            "name": name,
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": pa,
            "change": pb,
            "wins": wins,
            "pairs": len(a),
            "clear": wins >= 0.9 * len(a) and gain > pa[2] - pa[0],
            "worse": -gain > allowed,
            "unresolved": pa[2] - pa[0] > allowed,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"

    def flag(r, key):
        return "yes" if r[key] else "no"

    lines = [f"{'metric':<12} {'better':<6} {'parent median [q1, q3]':<34} "
             f"{'change median [q1, q3]':<34} wins   clear worse unresolved"]
    for r in rows:
        lines.append(
            f"{r['name']:<12} {r['better']:<6} {q(r['parent']):<34} {q(r['change']):<34} "
            f"{r['wins']:>2}/{r['pairs']:<3} {flag(r, 'clear'):<5} {flag(r, 'worse'):<5} "
            f"{flag(r, 'unresolved')}"
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


def resolve(rev: str) -> str:
    """The full hash of the commit ``rev`` names."""
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def as_json(row: dict) -> dict:
    """A ``summarize`` row with each side's quartiles named."""
    named = {side: dict(zip(("q1", "median", "q3"), row[side])) for side in ("parent", "change")}
    return {**row, **named}


def extract(rev: str, dest: str) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def copy_checkout(dest: str) -> None:
    """This checkout's files that git does not ignore under ``dest``, as they
    are on disk; tracked files deleted from disk are skipped."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True,
    ).stdout
    for rel in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        src, dst = os.path.join(ROOT, rel), os.path.join(dest, rel)
        if os.path.lexists(src):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst, follow_symlinks=False)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_rev")
    ap.add_argument("workloads", nargs="+", metavar="workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-out", metavar="PATH", help="also write the tables as JSON to PATH")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]

    commit = resolve(args.parent_rev)
    report = {"parent_rev": args.parent_rev, "parent_commit": commit, "seed": args.seed,
              "seconds": args.seconds, "pairs": args.pairs, "workloads": {}}
    # Sibling directories whose names are equally long: "parent", "change".
    checkouts = {side: tempfile.mkdtemp(prefix=f"ab_bench_{side}_") for side in ("parent", "change")}
    any_failed = False
    try:
        extract(commit, checkouts["parent"])
        copy_checkout(checkouts["change"])
        for workload in args.workloads:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            failed = {"parent": 0, "change": 0}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = run_bench(checkouts[side], workload, args.seconds, args.seed)
                    runs[side].append(result["metrics"])
                    failed[side] += result["failed"]
                print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
            print(f"{workload}: {args.parent_rev} (parent) vs this checkout, "
                  f"{args.pairs} pairs, --seconds {args.seconds:g} --seed {args.seed}")
            rows = summarize(end_to_end, runs["parent"], runs["change"])
            print(format_rows(rows))
            print(f"failed operations: parent {failed['parent']}, change {failed['change']}\n")
            report["workloads"][workload] = {"metrics": [as_json(r) for r in rows], "failed": failed}
            any_failed = any_failed or any(failed.values())
    finally:
        for path in checkouts.values():
            shutil.rmtree(path, ignore_errors=True)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
