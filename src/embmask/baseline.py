"""Global-mask baseline: permutation importance + bottom-p% masking sweep.

A single binary mask shared by every sample: rank embedding dimensions by
the accuracy drop when that dimension's values are permuted across the
pooled training data, then zero the bottom p% (least important dimensions
are taken to be the most domain-specific ones).

For an affine predictor (the default split) clear of overflow, 2 * max|z|
* max_j sum_k |W[k, j]| + max|b| < 1e300 (near the float limit the rank-1
update and the full product overflow differently), permuting dimension k
adds delta[i] * W[k] to row i of the base logits, delta = z[perm, k] -
z[:, k]. Only candidate rows need the update; row i is one unless

    |delta[i]| * (s_k + 1e-6 * a_k) < m_i - 1e-6 * (1 + L_i),

with m_i its top-two logit margin, L_i its largest |logit|, s_k = max W[k] -
min W[k] and a_k = max |W[k]|. On other rows the top class's lead drops by at
most s_k * |delta| and rounding moves a logit by at most 2^-52 * (L_i + a_k *
|delta|), so the computed lead exceeds 1e-6 * (1 + L_i + a_k * |delta|) -
2^-51 * (L_i + a_k * |delta|): far above the tie tolerance 1e-9 * (1 + |top|),
as |top| <= L_i + a_k * |delta|, and the test's own rounding. Such a row keeps
its base prediction and cannot trigger the fallback below. Rounding is
monotone, so |delta[i]| <= span_i = max(max z[:, k] - z[i, k], z[i, k] - min
z[:, k]) for every perm: the test on span_i, once per k, flags every row any
permutation can (1.2-1.5% per k on the benchmark's base models, 16.6% at
most), and all of k's repeats send their candidates to one rank-1 kernel call.

Any permutation under another predictor or past the overflow guard, or that
leaves a candidate's top two logits within 1e-9 * (1 + |top|) of a tie, is
predicted in full (column k permuted in place in one working copy, made on
first use), bitwise as a permuted copy would. The sweep scores all p > 0
masks of a domain set in one stacked ``evaluate.ROW_BLOCK``-blocked product
(``evaluate.global_mask_accuracies``, with its BLAS caveat).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, UsageError
from .evaluate import ROW_BLOCK, global_mask_accuracies, masked_accuracy
from .nn import SplitModel
from .synthbench import DomainDataset, pool_domains

Array = np.ndarray

PERCENT_GRID = tuple(float(p) for p in range(0, 95, 5))  # the default sweep


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
                    f"{row.percent:.17g},{row.unseen_accuracy:.17g},"
                    f"{row.train_accuracy:.17g}\n"
                )
            fh.write(f"# best_percent={self.best_percent:.17g}\n")


def permutation_importance(
    split: SplitModel,
    z: Array,
    labels: Array,
    repeats: int = 5,
    rng: np.random.Generator | None = None,
) -> Array:
    """Accuracy drop per dimension of the embeddings ``z``, in [-1, 1],
    averaged over ``repeats`` fresh permutations; deterministic given the
    rng. ``z`` itself is left unchanged."""
    if repeats < 1:
        raise UsageError("repeats must be >= 1")
    n, d = z.shape
    if n == 0:
        raise UsageError("permutation importance needs non-empty data")
    if np.shape(labels) != (n,):
        raise ShapeMismatchError(f"labels shape {np.shape(labels)} != ({n},)")
    rng = rng if rng is not None else np.random.default_rng(0)
    logits = split.predict_np(z)
    base_ok = np.argmax(logits, axis=1) == labels
    n_ok = np.count_nonzero(base_ok)
    rank1 = split.predictor_is_affine
    if rank1:
        w, b = split.predictor_affine_params()
        # The overflow guard, in Python floats (no warning); NaN or inf fails it.
        z_max = float(np.abs([z.min(initial=0.0), z.max(initial=0.0)]).max())
        rank1 = 2 * z_max * float(np.abs(w).sum(axis=0).max()) + float(np.abs(b).max()) < 1e300
    if rank1:
        logits_t = np.ascontiguousarray(logits.T)
        # The candidate test of the module docstring, per row and per k.
        top, second = logits_t[0].copy(), np.full(n, -np.inf)
        for row in logits_t[1:]:
            np.maximum(second, np.minimum(top, row), out=second)
            np.maximum(top, row, out=top)
        safe = top - second - 1e-6 * (1.0 + np.maximum(top, -logits.min(axis=1)))
        reach = np.ptp(w, axis=1) + 1e-6 * np.abs(w).max(axis=1)
    # Column k of z is the contiguous row z_t[k], copied in cache-sized tiles.
    z_t = np.empty((d, n), dtype=z.dtype)
    for lo in range(0, n, ROW_BLOCK):
        z_t[:, lo:lo + ROW_BLOCK] = z[lo:lo + ROW_BLOCK].T
    work = None  # the full path's working copy, made on first use
    scores, perms = np.zeros(d), np.empty((repeats, n), dtype=np.intp)
    for k, col in enumerate(z_t):
        for perm in perms:
            perm[:] = rng.permutation(n)
        ok, full = np.zeros(repeats, dtype=np.intp), np.ones(repeats, dtype=bool)
        if rank1:
            maybe = _maybe_rows(col, reach[k], safe)
            delta = col[perms[:, maybe]] - col[maybe]
            rep, at = np.nonzero(~(np.abs(delta) * reach[k] < safe[maybe]))
            cand = maybe[at]
            preds, clear = _rank1_argmax(logits_t[:, cand], w[k], delta[rep, at])
            full = np.bincount(rep[~clear], minlength=repeats) > 0
            ok += n_ok - np.bincount(rep[base_ok[cand]], minlength=repeats)
            ok += np.bincount(rep[preds == labels[cand]], minlength=repeats)
        for r in np.flatnonzero(full):
            work = z.copy() if work is None else work
            work[:, k] = col[perms[r]]
            ok[r] = np.count_nonzero(np.argmax(split.predict_np(work), axis=1) == labels)
            work[:, k] = col
        # Exact counts divided once: bitwise np.mean of the hits.
        scores[k] = np.mean(n_ok / n - ok / n)
    return scores


def _maybe_rows(col: Array, reach_k: float, safe: Array) -> Array:
    """Every row the candidate test can flag under some permutation of ``col``."""
    span = np.maximum(col.max() - col, col - col.min())
    return np.flatnonzero(~(span * reach_k < safe))


def _rank1_argmax(logits_t: Array, w_k: Array, delta: Array) -> tuple[Array, Array]:
    """Argmax (ties to the lowest class) of the c x n logits after adding
    ``delta`` to column k, whose weights are ``w_k``, and whether each
    column is clear of a tie."""
    top = logits_t[0] + w_k[0] * delta
    second = np.full(len(delta), -np.inf)
    preds = np.zeros(len(delta), dtype=np.intp)
    for j in range(1, len(w_k)):
        row = logits_t[j] + w_k[j] * delta
        preds[row > top] = j
        second = np.maximum(second, np.minimum(top, row))
        top = np.maximum(top, row)
    # "Not greater" also catches NaN margins.
    return preds, top - second > 1e-9 * (1.0 + np.abs(top))


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


def sweep_mask_percent(
    split: SplitModel,
    train_data: list[DomainDataset],
    unseen_data: DomainDataset,
    percent_grid: tuple[float, ...] | list[float] = PERCENT_GRID,
    repeats: int = 5,
    rng: np.random.Generator | None = None,
) -> SweepTable:
    """Evaluate each bottom-p% global mask on train and unseen domains.

    The p = 0 row is the unmasked evaluation bit for bit (the all-ones mask
    is skipped entirely rather than multiplied through).
    """
    grid = sorted(set(percent_grid))
    if 0.0 not in grid:
        raise UsageError("percent grid must include 0")
    for p in grid:
        _check_percent(p)
    pooled = pool_domains(train_data)
    z_tr = split.encode_np(pooled.features)
    scores = permutation_importance(split, z_tr, pooled.labels, repeats, rng)
    z_un = split.encode_np(unseen_data.features)

    # grid[0] is the zero: the unmasked evaluation, unseen then train.
    masks = np.array([global_mask_from_scores(scores, p) for p in grid[1:]]).reshape(-1, len(scores))
    unseen = [masked_accuracy(split, z_un, unseen_data.labels)]
    train = [masked_accuracy(split, z_tr, pooled.labels)]
    unseen += global_mask_accuracies(split, z_un, unseen_data.labels, masks)
    train += global_mask_accuracies(split, z_tr, pooled.labels, masks)
    table = SweepTable([SweepRow(*row) for row in zip(grid, unseen, train)])
    best = max(table.rows, key=lambda r: (r.unseen_accuracy, -r.percent))
    table.best_percent = best.percent
    return table
