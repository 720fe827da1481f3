"""Global-mask baseline: permutation importance + bottom-p% masking sweep.

A single binary mask shared by every sample: rank embedding dimensions by
the accuracy drop when that dimension's values are permuted across the
pooled training data, then zero the bottom p% (least important dimensions
are taken to be the most domain-specific ones).

The predictor, the base model's last linear layer, is affine: c(z) = zW + b.
Inside the overflow guard, 2 * max|z| * max_j sum_k |W[k, j]| + max|b| +
max|W| < 1e300, the score is the exact expected drop under a uniformly random
permutation, and nothing is drawn; input past it (NaN or inf included) raises
``NumericError`` before any prediction. Permuting column k gives row i, labelled y,
the logits L_i + t * W[k] with t = v - z[i, k] for the value v it receives. It
stays correct while every class j has L_iy - L_ij + t * (W[k, y] - W[k, j]) >
0, or >= 0 for j > y (ties go to the lowest class, as in ``np.argmax``). A
class with W[k, j] = W[k, y] is decided by the sign of L_iy - L_ij alone and
any other bounds t on one side, so the values that keep row i correct form one
interval (lo_i, hi_i). Row i gets each of the n column values with probability
1/n, so its expected hit rate is the count of column values in that interval
over n: two ``searchsorted`` calls on the sorted column. A value within 1e-9 *
(|z[i, k]| + |t|) of a finite end, far above the end's rounding, is scored by
those margins at that value. Row i needs no interval if
span_i * (s_k + 1e-6 * a_k) < m_i - 1e-6 * (1 + L_i), with
span_i = max(max z[:, k] - z[i, k], z[i, k] - min z[:, k]) bounding |t|, m_i
its top-two logit margin, L_i its largest |logit|, s_k = max W[k] - min W[k]
and a_k = max |W[k]|: its lead drops by at most s_k * |t| for every v
(1.2-1.5% of the rows per k need one on the benchmark's models).

The columns of z are walked in chunks of ``_CHUNK_DIMS`` (8, one 64-byte
line of each float64 row), each copied in ``ROW_BLOCK``-row tiles into the
rows of one reused (8, n) buffer; z itself is only read. Within a chunk,
consecutive dimensions are scored in groups whose candidate rows stay within
``_GROUP_ROWS`` (a dimension past it alone is a group). A group's margins,
interval ends, tolerances, base-correct and in-interval counts each take one
call over all of its rows, in class-major (c, rows) arrays, and one in-place
call sorts its columns; only the ``searchsorted`` calls run per dimension,
and the rounding-band scoring per row. So the pass holds one chunk, the
(n, c) logits, per-row scratch and one group: a traced peak of 0.43-0.60
units of z on the benchmark's bases. Every step is elementwise, per row or
an exact count, so the chunk width and the cap set how many columns and rows
go together, not the bits.

The sweep predicts each domain set's embedding once for its p = 0 row and
scores every p > 0 mask in one stacked product (``_stacked_accuracies``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, UsageError
from .evaluate import _check_rows, _hit_rate
from .nn import SplitModel
from .synthbench import DomainDataset, pool_domains, save_table

Array = np.ndarray

PERCENT_GRID = tuple(float(p) for p in range(0, 95, 5))  # the default sweep
_GROUP_ROWS = 1024  # candidate rows scored together, over consecutive dimensions of a chunk
_CHUNK_DIMS = 8  # embedding columns copied out per chunk: one 64-byte line of a float64 row
ROW_BLOCK = 512  # embedding rows per transpose tile and per block of the stacked product


@dataclass
class SweepRow:
    percent: float
    unseen_accuracy: float
    train_accuracy: float


@dataclass
class SweepTable:
    rows: list[SweepRow] = field(default_factory=list)
    unseen_best_percent: float = 0.0

    def to_csv(self, path: str) -> None:
        """One row per percent; ``unseen_best`` is 1 on ``unseen_best_percent``."""
        cols = np.array([(r.percent, r.unseen_accuracy, r.train_accuracy) for r in self.rows]).reshape(-1, 3)
        save_table(path, ["percent", "unseen_acc", "train_acc", "unseen_best"], cols, cols[:, 0] == self.unseen_best_percent)


def permutation_importance(split: SplitModel, z: Array, labels: Array) -> Array:
    """The exact expected accuracy drop per dimension of the embeddings ``z``
    under a uniformly random permutation of its values, in [-1, 1]. Input
    past the overflow guard raises ``NumericError``. ``z`` is left unchanged."""
    z = _check_rows(split, z, labels)
    w, b = split.predictor_affine_params()
    # The overflow guard, in Python floats (no warning); NaN or inf fails it.
    # Its max|W| term keeps every difference of two weights finite.
    z_max, w_abs = float(np.abs([z.min(initial=0.0), z.max(initial=0.0)]).max()), np.abs(w)
    bound = 2 * z_max * float(w_abs.sum(axis=0).max()) + float(w_abs.max()) + float(np.abs(b).max())
    if not bound < 1e300:
        raise NumericError(f"permutation importance: overflow bound {bound:.3g} is not below 1e300")
    logits = split.predict_np(z)
    base_ok = np.argmax(logits, axis=1) == labels
    return _expected_drops(z, logits, np.asarray(labels), base_ok, w)


def _expected_drops(z: Array, logits: Array, labels: Array, base_ok: Array, w: Array) -> Array:
    """The module docstring's exact expected drops; ``z`` is only read."""
    (n, d), c = z.shape, logits.shape[1]
    logits_t = np.ascontiguousarray(logits.T)
    top, second = logits_t[0].copy(), np.full(n, -np.inf)
    for row in logits_t[1:]:
        np.maximum(second, np.minimum(top, row), out=second)
        np.maximum(top, row, out=top)
    safe = top - second - 1e-6 * (1.0 + np.maximum(top, -logits.min(axis=1)))
    reach = np.ptp(w, axis=1) + 1e-6 * np.abs(w).max(axis=1)
    safe[~np.isin(labels, np.arange(c))] = np.inf  # a row labelled with no class never hits
    # A group's arrays are class-major, (c, rows): a reduction over the
    # classes runs elementwise along the rows.
    scores, w_t, classes = np.zeros(d), np.ascontiguousarray(w.T), np.arange(c)[:, None]
    for k0, cols, group in _candidate_groups(z, reach, safe):
        k1, sizes = k0 + len(group), [len(rows) for rows in group]
        rows, dim = np.concatenate(group), np.repeat(np.arange(len(group)), sizes)
        x, y, w_g = cols[dim, rows], labels[rows].astype(np.intp), w_t[:, k0:k1]
        g, s = logits_t.take(rows, axis=1), w_g.take(dim, axis=1)
        np.subtract(g[y, np.arange(len(rows))], g, out=g)  # y's lead over each class
        np.subtract(w_g[y, dim], s, out=s)  # and its slope in v
        strict = classes < y  # ties go to the lowest class
        with np.errstate(all="ignore"):
            root = -g / s
        dead = ((s == 0) & ((g < 0) | (strict & (g == 0)))).any(axis=0)
        t = np.stack([np.where(s > 0, root, -np.inf).max(axis=0), np.where(s < 0, root, np.inf).min(axis=0)])
        ends = x + t  # lo_i and hi_i, each with a rounding band [first, past) of sorted values
        tol = np.where(np.isfinite(ends), 1e-9 * np.abs(x) + 1e-9 * np.abs(t), 0.0)
        below, above = ends - tol, ends + tol
        cols.sort(axis=1)
        first, past = np.empty(ends.shape, np.intp), np.empty(ends.shape, np.intp)
        lo = 0
        for col, size in zip(cols, sizes):
            first[:, lo:lo + size] = col.searchsorted(below[:, lo:lo + size])
            past[:, lo:lo + size] = col.searchsorted(above[:, lo:lo + size], "right")
            lo += size
        # Whole counts per dimension, exact in float64 while n * n < 2**53.
        ok = np.bincount(dim, base_ok[rows], len(group))
        hits = np.bincount(dim, np.where(dead, 0, np.maximum(first[1] - past[0], 0)), len(group))
        for i in np.flatnonzero((past > first).any(axis=0)):
            col = cols[dim[i]]
            v = col[np.union1d(np.arange(first[0, i], past[0, i]), np.arange(first[1, i], past[1, i]))]
            margins = g[:, i] + (v - x[i])[:, None] * s[:, i]
            hits[dim[i]] += np.count_nonzero(np.where(strict[:, i], margins > 0, margins >= 0).all(axis=1))
        scores[k0:k1] = (n * ok - hits) / (n * n)
    return scores


def _candidate_groups(z: Array, reach: Array, safe: Array):
    """(k0, a copy of z's columns k0, k0 + 1, ... as contiguous rows, their
    candidate rows) for runs of consecutive dimensions within one chunk of
    ``_CHUNK_DIMS`` columns, each run as long as its rows stay within
    ``_GROUP_ROWS``; a dimension past it alone is a run. A chunk is copied in
    ``ROW_BLOCK``-row tiles into one reused buffer, and each column's rows
    are found before its run is yielded, so before the caller sorts it."""
    n, d = z.shape
    buf = np.empty((min(_CHUNK_DIMS, d), n), dtype=z.dtype)
    for c0 in range(0, d, _CHUNK_DIMS):
        z_t = buf[:min(_CHUNK_DIMS, d - c0)]
        for lo in range(0, n, ROW_BLOCK):
            z_t[:, lo:lo + ROW_BLOCK] = z[lo:lo + ROW_BLOCK, c0:c0 + len(z_t)].T
        k0, group, total = 0, [], 0
        for k, col in enumerate(z_t):
            rows = _maybe_rows(col, reach[c0 + k], safe)
            if group and total + len(rows) > _GROUP_ROWS:
                yield c0 + k0, z_t[k0:k], group
                k0, group, total = k, [], 0
            group.append(rows)
            total += len(rows)
        yield c0 + k0, z_t[k0:], group


def _maybe_rows(col: Array, reach_k: float, safe: Array) -> Array:
    """Every row whose prediction some value of ``col`` can change."""
    span = np.maximum(col.max() - col, col - col.min())
    return np.flatnonzero(~(span * reach_k < safe))


def _check_percent(percent: float) -> None:
    if not (0.0 <= percent <= 100.0):
        raise UsageError(f"percent out of range: {percent}")


def global_mask_from_scores(scores: Array, percent: float) -> Array:
    """Binary mask zeroing floor(percent/100 * d) lowest-scoring dimensions.

    Ties broken toward the lower dimension index (stable sort).
    """
    _check_percent(percent)
    scores = np.asarray(scores, dtype=np.float64)
    d = len(scores)
    k = int(np.floor(percent / 100.0 * d))
    mask = np.ones(d)
    order = np.argsort(scores, kind="stable")
    mask[order[:k]] = 0.0
    return mask


def _stacked_accuracies(split: SplitModel, z: Array, labels: Array, masks: Array) -> list[float]:
    """The hit rate of the sweep's checked z under each row of its (g, d)
    float64 0/1 mask stack, unchecked here. Each ``ROW_BLOCK``-row block of z
    (a lone last row joins it) meets every mask's weight rows in one product
    z [m_1 W | ... | m_g W], with no masked copy of z. It is (z m) W bitwise
    for m in {0, 1} where BLAS runs each logit as one k-ordered FMA chain
    whatever the other sizes: OpenBLAS 0.3.31's general dgemm kernel does
    (pinned at the benchmark's shapes); its small-matrix kernels (2-3 classes
    or few rows, 16+ dims) may move a last bit, and so a near-tied row. The
    bias, tiled once per mask, is added once over each block's logits."""
    n, z = len(z), np.ascontiguousarray(z)  # a base without hidden layers embeds non-C features as is
    if n == 1:  # NumPy sends a one-row product to gemv, whose bits may differ
        return [_hit_rate(split.predict_np(z * m), labels) for m in masks]
    w, b = split.predictor_affine_params()
    labels, (g, c) = np.asarray(labels), (len(masks), w.shape[1])
    wide = (masks[:, :, None] * w).transpose(1, 0, 2).reshape(len(w), g * c)
    wide_b = np.tile(b, g)  # b after each mask's c logits
    hits = np.zeros(g, dtype=np.intp)
    for lo in range(0, n - 1, ROW_BLOCK):
        hi = lo + ROW_BLOCK if n - lo > ROW_BLOCK + 1 else n
        logits = z[lo:hi] @ wide
        logits += wide_b
        hits += np.count_nonzero(np.argmax(logits.reshape(hi - lo, g, c), axis=2) == labels[lo:hi, None], axis=0)
    # Exact counts divided once: bitwise np.mean of the hits.
    return [h / n for h in hits.tolist()]


def sweep_mask_percent(
    split: SplitModel,
    train_data: list[DomainDataset],
    unseen_data: DomainDataset,
    percent_grid: tuple[float, ...] | list[float] = PERCENT_GRID,
    *,
    repeats=None,
    rng=None,
) -> SweepTable:
    """Evaluate each bottom-p% global mask on train and unseen domains.

    The p = 0 row is the unmasked evaluation bit for bit (the all-ones mask
    is skipped entirely rather than multiplied through). ``repeats`` and ``rng``
    are never read: ``perfbench/workloads.py`` is the only caller that passes them.
    """
    grid = sorted(set(percent_grid))
    if 0.0 not in grid:
        raise UsageError("percent grid must include 0")
    for p in grid:
        _check_percent(p)
    pooled = pool_domains(train_data)
    z_tr, labels = split.encode_np(pooled.features), pooled.labels
    del pooled  # the pooled features are freed before the importance pass
    scores = permutation_importance(split, z_tr, labels)
    z_un = split.encode_np(unseen_data.features)

    masks = np.array([global_mask_from_scores(scores, p) for p in grid[1:]]).reshape(-1, len(scores))
    # grid[0] is the zero: the unmasked evaluation, unseen then train. The
    # importance pass checked the pooled labels; the unseen ones are checked here.
    unseen = [_hit_rate(split.predict_np(_check_rows(split, z_un, unseen_data.labels)), unseen_data.labels)]
    train = [_hit_rate(split.predict_np(z_tr), labels)]
    unseen += _stacked_accuracies(split, z_un, unseen_data.labels, masks)
    train += _stacked_accuracies(split, z_tr, labels, masks)
    table = SweepTable([SweepRow(*row) for row in zip(grid, unseen, train)])
    best = max(table.rows, key=lambda r: (r.unseen_accuracy, -r.percent))
    table.unseen_best_percent = best.percent
    return table
