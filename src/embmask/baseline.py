"""Global-mask baseline: permutation importance + bottom-p% masking sweep.

A single binary mask shared by every sample: rank embedding dimensions by
the accuracy drop when that dimension's values are permuted across the
pooled training data, then zero the bottom p% (least important dimensions
are taken to be the most domain-specific ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .evaluate import masked_accuracy
from .nn import SplitModel
from .synthbench import DomainDataset, pool_domains

Array = np.ndarray


@dataclass
class ImportanceReport:
    scores: Array  # per-dimension accuracy drop, in [-1, 1]
    repeats: int
    baseline_accuracy: float


@dataclass
class SweepRow:
    percent: float
    unseen_accuracy: float
    train_accuracy: float


@dataclass
class SweepTable:
    rows: list[SweepRow] = field(default_factory=list)
    best_percent: float = 0.0

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("percent,unseen_acc,train_acc\n")
            for row in self.rows:
                fh.write(
                    f"{row.percent:g},{row.unseen_accuracy:.17g},"
                    f"{row.train_accuracy:.17g}\n"
                )
            fh.write(f"# best_percent={self.best_percent:g}\n")


def permutation_importance(
    split: SplitModel,
    datasets: list[DomainDataset],
    repeats: int = 5,
    rng: np.random.Generator | None = None,
) -> ImportanceReport:
    """Accuracy drop per embedding dimension, averaged over fresh permutations.

    Evaluated on the pooled training domains; deterministic given the rng.
    """
    if repeats < 1:
        raise UsageError("repeats must be >= 1")
    pooled = pool_domains(datasets)
    if pooled.n == 0:
        raise UsageError("permutation importance needs non-empty data")
    rng = rng if rng is not None else np.random.default_rng(0)
    z = split.encode_np(pooled.features)
    base = masked_accuracy(split, z, pooled.labels)
    d = z.shape[1]
    scores = np.zeros(d)
    for k in range(d):
        drops = []
        for _ in range(repeats):
            zp = z.copy()
            zp[:, k] = zp[rng.permutation(len(zp)), k]
            drops.append(base - masked_accuracy(split, zp, pooled.labels))
        scores[k] = np.mean(drops)
    return ImportanceReport(scores=scores, repeats=repeats, baseline_accuracy=base)


def global_mask_from_scores(scores: Array, percent: float) -> Array:
    """Binary mask zeroing floor(percent/100 * d) lowest-scoring dimensions.

    Ties broken toward the lower dimension index (stable sort).
    """
    if not (0.0 <= percent <= 100.0):
        raise UsageError(f"percent out of range: {percent}")
    scores = np.asarray(scores, dtype=np.float64)
    d = len(scores)
    k = int(np.floor(percent / 100.0 * d))
    mask = np.ones(d)
    order = np.argsort(scores, kind="stable")
    mask[order[:k]] = 0.0
    return mask


def sweep_mask_percent(
    split: SplitModel,
    train_data: list[DomainDataset],
    unseen_data: DomainDataset,
    percent_grid: list[float] | None = None,
    repeats: int = 5,
    rng: np.random.Generator | None = None,
) -> SweepTable:
    """Evaluate each bottom-p% global mask on train and unseen domains.

    The p = 0 row is the unmasked evaluation bit for bit (the all-ones mask
    is skipped entirely rather than multiplied through).
    """
    grid = percent_grid if percent_grid is not None else [float(p) for p in range(0, 95, 5)]
    if 0.0 not in grid:
        raise UsageError("percent grid must include 0")
    report = permutation_importance(split, train_data, repeats=repeats, rng=rng)

    pooled = pool_domains(train_data)
    z_tr = split.encode_np(pooled.features)
    z_un = split.encode_np(unseen_data.features)

    table = SweepTable()
    for p in sorted(set(grid)):
        mask = None if p == 0.0 else global_mask_from_scores(report.scores, p)
        table.rows.append(
            SweepRow(
                percent=p,
                unseen_accuracy=masked_accuracy(split, z_un, unseen_data.labels, mask),
                train_accuracy=masked_accuracy(split, z_tr, pooled.labels, mask),
            )
        )
    best = max(table.rows, key=lambda r: (r.unseen_accuracy, -r.percent))
    table.best_percent = best.percent
    return table
