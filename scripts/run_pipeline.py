#!/usr/bin/env python3
"""Full experiment: ERM base model, per-sample masking, global-mask baseline.

Runs the synthetic benchmark at its default seed, trains the frozen base
model and the mask generator for each training seed, and prints unseen- and
train-domain accuracy for the unmasked model, the per-sample masks, and the
best bottom-p% global mask. Writes a JSON summary when --out is given.
"""

import argparse
import json

import numpy as np

from embmask import (
    BenchmarkSpec,
    MaskGenConfig,
    Mlp,
    TrainConfig,
    accuracy,
    aggregate_runs,
    generate_benchmark,
    split_model,
    sweep_mask_percent,
    train_emg,
    train_erm,
)
from embmask.evaluate import emg_masks
from embmask.mask import INFERENCE_MODES
from embmask.synthbench import pool_domains


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-seed", type=int, default=0, help="benchmark generation seed")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], help="training seeds")
    ap.add_argument("--hidden", type=int, default=64, help="base model hidden width")
    ap.add_argument("--erm-epochs", type=int, default=80)
    ap.add_argument("--emg-epochs", type=int, default=3)
    ap.add_argument("--emg-hidden", type=int, default=32)
    ap.add_argument("--tau", type=float, default=0.1)
    ap.add_argument("--inference-mode", default="noise_free", choices=INFERENCE_MODES)
    ap.add_argument("--out", default="", help="optional JSON summary path")
    return ap.parse_args()


def main():
    args = parse_args()
    train, unseen, _ = generate_benchmark(BenchmarkSpec(seed=args.bench_seed))
    pooled = pool_domains(train)
    dim = train[0].dim
    n_classes = int(max(d.labels.max() for d in train)) + 1
    mask_cfg = MaskGenConfig(tau=args.tau, inference_mode=args.inference_mode)

    reports = []
    for seed in args.seeds:
        model, _ = train_erm(
            TrainConfig(seed=seed, max_epochs=args.erm_epochs),
            train,
            [dim, args.hidden, n_classes],
        )
        split = split_model(model)
        row = {
            "unmasked_train": accuracy(split, pooled),
            "unmasked_unseen": accuracy(split, unseen),
        }

        model.store.freeze()
        gen = Mlp([dim, args.emg_hidden, split.embedding_dim], prefix="g.", seed=seed + 1)
        gen, _ = train_emg(split, gen, train, mask_cfg, TrainConfig(seed=seed, max_epochs=args.emg_epochs))
        row["masked_train"] = accuracy(split, pooled, emg_masks(gen, pooled.features, mask_cfg, seed))
        row["masked_unseen"] = accuracy(split, unseen, emg_masks(gen, unseen.features, mask_cfg, seed))

        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x6B)))
        table = sweep_mask_percent(split, train, unseen, rng=rng)
        best = next(r for r in table.rows if r.percent == table.best_percent)
        row["global_best_percent"] = best.percent
        row["global_unseen"] = best.unseen_accuracy

        reports.append(row)
        print(
            f"seed {seed}: unmasked un {row['unmasked_unseen']:.3f} tr {row['unmasked_train']:.3f} | "
            f"masked un {row['masked_unseen']:.3f} tr {row['masked_train']:.3f} | "
            f"global p={best.percent:g} un {best.unseen_accuracy:.3f}"
        )

    mean, stderr = aggregate_runs(reports)
    print("\nmean +- stderr over seeds:")
    for key in sorted(mean):
        print(f"  {key:22s} {mean[key]:.4f} +- {stderr[key]:.4f}")
    gain = mean["masked_unseen"] - mean["unmasked_unseen"]
    print(f"\nper-sample masking unseen-domain gain: {gain:+.4f}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "per_seed": reports,
                    "mean": mean,
                    "stderr": stderr,
                    "seeds": list(args.seeds),
                },
                fh,
                indent=1,
                sort_keys=True,
            )
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
