#!/usr/bin/env python3
"""Benchmark of embmask: one workload per process, closed loop.

    python3 perfbench/run.py --workload erm_fit --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports embmask from its
``src/``. Set-up (import, data, fixed base models) is timed as ``setup_s``.
The timed body then runs operations one after another: at least the
workload's result operations, and more until ``--seconds`` have passed. Each
operation's outputs are checked; a failed check is a failed operation and
makes the exit code 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` every operation runs twice, untraced and traced, and the last
line holds the per-layer metrics of the traced twins. ``--workload all`` runs
the four workloads, each in its own process, and prints all their metrics.
The metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("erm_fit", "emg_mask", "global_sweep", "cli_artifacts")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 3
# The speed probe's median time on the 2-core Xeon (2.0 GHz) the benchmark
# was tuned on, in its uncontended state. Timings are reported at this speed.
PROBE_REF_S = 0.016
# A run stops starting operations after this long, so that it always ends
# well inside three minutes.
MAX_BODY_S = 140.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
    "unseen_acc": "fraction",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def import_seconds() -> float:
    """Median wall time of ``import embmask`` in fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import embmask; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code, SRC], capture_output=True, text=True, timeout=60, check=True
        )
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def environment(size: str) -> dict:
    import numpy as np

    from tracing import sloc

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "size": size,
        "sloc": sloc(os.path.join(SRC, "embmask")),
    }


def run_op(workload, i, tracer=None):
    from workloads import Clock, Op

    clock = Clock(tracer, run=i)
    try:
        op = workload.op(i, clock)
    except Exception:  # an operation that raises is a failed operation
        traceback.print_exc()
        op = Op("", failures=["raised " + traceback.format_exc().strip().splitlines()[-1]])
    op.sections = clock.sections
    return op


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "embmask", "__init__.py")):
        print(f"error: no embmask sources under {SRC}", file=sys.stderr)
        return 2
    import_s = import_seconds()
    sys.path.insert(0, SRC)
    import embmask

    if os.path.dirname(os.path.abspath(embmask.__file__)) != os.path.join(SRC, "embmask"):
        print(f"error: embmask imported from {embmask.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import SIZES, WORKLOADS, SpeedProbe

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], work_dir)
    probe = SpeedProbe()
    try:
        probe()
        start = time.perf_counter()
        workload.setup()
        setup_s = import_s + time.perf_counter() - start
        ops, traced, tracer = run_body(args, workload, tracing, probe)
    finally:
        workload.close()
    for i, op in enumerate(ops + traced):
        for message in op.failures:
            print(f"check failed: operation {i % len(ops)}: {message}", file=sys.stderr)

    env = environment(args.size)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = layer_metrics(tracer, traced, ops, import_s, env, tracing)
        attempted = len(ops) + len(traced)
    else:
        metrics = end_to_end(workload, ops, setup_s, speed_scales(probe, len(ops)))
        attempted = len(ops)
        for name, (value, unit) in workload_view(workload, ops, setup_s, probe).items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, entry in metrics.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    failed = sum(1 for op in ops + traced if op.failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_body(args, workload, tracing, probe):
    """Closed loop over operations; returns (ops, traced twins, tracer)."""
    from workloads import Op

    ops, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    min_ops = 2 if args.trace else workload.result_ops
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < args.seconds:
        if time.perf_counter() - start > MAX_BODY_S:
            ops.append(Op("", failures=[f"time limit reached after {i} operations"]))
            break
        probe()
        if tracer is None:
            ops.append(run_op(workload, i))
        else:
            # Alternate which twin runs first, so neither always finds warm caches.
            pair = {}
            for twin in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
                if twin == "traced":
                    tracer.install()
                    pair[twin] = run_op(workload, i, tracer)
                    tracer.uninstall()
                else:
                    pair[twin] = run_op(workload, i)
            ops.append(pair["plain"])
            traced.append(pair["traced"])
            if pair["plain"].digest != pair["traced"].digest:
                pair["traced"].failures.append("traced outputs differ from untraced")
        i += 1
    probe()
    if tracer is not None:
        tracer.write(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.csv"))
    return ops, traced, tracer


def _rate(ops, section, scales):
    rows = sum(op.rows.get(section, 0) for op in ops)
    seconds = sum(op.sections.get(section, 0.0) * k for op, k in zip(ops, scales))
    return rows / seconds if seconds else 0.0


def _result_mean(workload, ops, key):
    values = [op.quality[key] for op in ops[: workload.result_ops] if key in op.quality]
    return statistics.fmean(values) if values else 0.0


def speed_scales(probe, n_ops) -> list[float]:
    """Reference speed over the speed measured by the probes on either side
    of the set-up (first entry) and of each operation (the rest)."""
    s = probe.samples  # before set-up, before each operation, after the last
    last = len(s) - 1
    return [2 * PROBE_REF_S / (s[min(i, last)] + s[min(i + 1, last)]) for i in range(n_ops + 1)]


def _times(workload, ops, setup_s, scales) -> dict:
    per_op = [op.time * k for op, k in zip(ops, scales[1:])]
    return {
        "setup_s": setup_s * scales[0],
        "wall_s": sum(per_op[: workload.result_ops]),
        "op_s": statistics.median(per_op),
    }


def end_to_end(workload, ops, setup_s, scales) -> dict:
    values = _times(workload, ops, setup_s, scales)
    values.update({
        "rows_per_s": _rate(ops, workload.throughput_section, scales[1:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unseen_acc": _result_mean(workload, ops, "unseen_acc"),
    })
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def workload_view(workload, ops, setup_s, probe) -> dict:
    """The workload's own figures under their descriptive names, and the
    times as measured, before scaling to the reference speed."""
    failed = sum(1 for op in ops if op.failures)
    view = {"error_rate": (failed / len(ops), "fraction"), "ops": (len(ops), "count")}
    view["probe_s"] = (statistics.median(probe.samples), "s")
    unscaled = [1.0] * (len(ops) + 1)
    for name, t in _times(workload, ops, setup_s, unscaled).items():
        view[f"measured_{name}"] = (t, "s")
    for name, (section, unit) in workload.rates.items():
        view[name] = (_rate(ops, section, unscaled), unit)
    if workload.op_name:
        view[workload.op_name] = (statistics.median(op.time for op in ops), "s")
    if any("unseen_gain" in op.quality for op in ops):
        view["unseen_gain"] = (_result_mean(workload, ops, "unseen_gain"), "fraction")
    return view


def layer_metrics(tracer, traced, ops, import_s, env, tracing) -> dict:
    n = len(traced)
    values = tracer.layer_metrics(n)
    traced_s = statistics.fmean(op.time for op in traced)
    plain_s = statistics.fmean(op.time for op in ops)
    spans_s = tracer.root_span_s() / n
    values.update({
        "import.s": import_s,
        "trace.ops": float(n),
        "trace.wall_s": traced_s,
        "trace.untraced_wall_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.spans_s": spans_s,
        "trace.harness_s": traced_s - spans_s,
    })
    values.update(env["sloc"])
    units = dict(tracing.LAYER_METRICS + tracing.SLOC_METRICS)
    return {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        ]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if done.returncode != 0 and not lines:
            return done.returncode
        result = json.loads(lines[-1])
        code = code or done.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread unless the caller chose otherwise: the benchmark is a
    # single-threaded closed loop, and on a small shared machine a second
    # BLAS thread mostly adds run-to-run noise. The env line records it.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
