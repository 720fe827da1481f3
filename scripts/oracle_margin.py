#!/usr/bin/env python3
"""Headroom estimate: how much unseen-domain accuracy is available in principle.

Uses the benchmark's ground-truth feature decomposition (normally hidden from
every model) to train one classifier on the shared coordinates only and one on
the full input, then compares unseen-domain accuracy. The difference is the
ceiling any masking method could hope to recover.
"""

import argparse

import numpy as np

from embmask import (
    BenchmarkSpec,
    DomainDataset,
    TrainConfig,
    accuracy,
    generate_benchmark,
    split_model,
    train_erm,
)
from embmask.experiment import ExperimentSpec, base_layers

SPEC = ExperimentSpec()


def keep_dims(data: DomainDataset, dims) -> DomainDataset:
    x = np.zeros_like(data.features)
    x[:, dims] = data.features[:, dims]
    return DomainDataset(x, data.labels, data.domain_index)


def fit_and_score(train, unseen, seed, epochs, hidden):
    model, _ = train_erm(TrainConfig(seed=seed, max_epochs=epochs), train, base_layers(train, hidden))
    return accuracy(split_model(model), unseen)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-seed", type=int, default=0)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=SPEC.erm_epochs)
    ap.add_argument("--hidden", type=int, nargs="*", default=SPEC.hidden,
                    help="hidden widths; none = linear classifier")
    args = ap.parse_args()

    train, unseen, oracle = generate_benchmark(BenchmarkSpec(seed=args.bench_seed))
    shared_train = [keep_dims(d, oracle.shared_dims) for d in train]
    shared_unseen = keep_dims(unseen, oracle.shared_dims)

    full, shared = [], []
    for seed in args.seeds:
        a_full = fit_and_score(train, unseen, seed, args.epochs, args.hidden)
        a_shared = fit_and_score(shared_train, shared_unseen, seed, args.epochs, args.hidden)
        full.append(a_full)
        shared.append(a_shared)
        print(f"seed {seed}: full-input unseen {a_full:.3f} | shared-only unseen {a_shared:.3f}")

    mf, ms = float(np.mean(full)), float(np.mean(shared))
    print(f"\nmean full-input unseen accuracy:  {mf:.3f}")
    print(f"mean shared-only unseen accuracy: {ms:.3f}")
    print(f"available headroom:               {ms - mf:+.3f}")


if __name__ == "__main__":
    main()
