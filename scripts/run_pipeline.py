#!/usr/bin/env python3
"""Full experiment: ERM base model, per-sample masking, global-mask baseline.

Runs the synthetic benchmark at its default seed, trains the frozen base
model and the mask generator for each training seed, and prints unseen- and
train-domain accuracy for the unmasked model, the per-sample masks, and the
best bottom-p% global mask. Writes a JSON summary when --out is given.
"""

import argparse
import json

from embmask import BenchmarkSpec, MaskGenConfig, aggregate_runs, generate_benchmark
from embmask.experiment import ExperimentSpec, run_seed
from embmask.mask import INFERENCE_MODES

SPEC = ExperimentSpec()


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-seed", type=int, default=0, help="benchmark generation seed")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], help="training seeds")
    ap.add_argument("--hidden", type=int, nargs="+", default=SPEC.hidden, help="base hidden widths")
    ap.add_argument("--erm-epochs", type=int, default=SPEC.erm_epochs)
    ap.add_argument("--emg-epochs", type=int, default=SPEC.emg_epochs)
    ap.add_argument("--emg-hidden", type=int, nargs="+", default=SPEC.emg_hidden)
    ap.add_argument("--tau", type=float, default=SPEC.mask.tau)
    ap.add_argument("--inference-mode", default=SPEC.mask.inference_mode, choices=INFERENCE_MODES)
    ap.add_argument("--out", default="", help="optional JSON summary path")
    return ap.parse_args()


def main():
    args = parse_args()
    train, unseen, _ = generate_benchmark(BenchmarkSpec(seed=args.bench_seed))
    mask = MaskGenConfig(tau=args.tau, inference_mode=args.inference_mode)
    spec = ExperimentSpec(hidden=tuple(args.hidden), erm_epochs=args.erm_epochs,
                          emg_hidden=tuple(args.emg_hidden), emg_epochs=args.emg_epochs, mask=mask)

    reports = []
    for seed in args.seeds:
        row = run_seed(spec, train, unseen, seed)
        reports.append(row)
        print(
            f"seed {seed}: unmasked un {row['unmasked_unseen']:.3f} tr {row['unmasked_train']:.3f} | "
            f"masked un {row['masked_unseen']:.3f} tr {row['masked_train']:.3f} | "
            f"global p={row['global_best_percent']:g} un {row['global_unseen']:.3f}"
        )

    mean, stderr = aggregate_runs(reports)
    print("\nmean +- stderr over seeds:")
    for key in sorted(mean):
        print(f"  {key:22s} {mean[key]:.4f} +- {stderr[key]:.4f}")
    gain = mean["masked_unseen"] - mean["unmasked_unseen"]
    print(f"\nper-sample masking unseen-domain gain: {gain:+.4f}")

    if args.out:
        summary = {"per_seed": reports, "mean": mean, "stderr": stderr, "seeds": list(args.seeds)}
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
