"""Accuracy evaluation, generalization-bound diagnostics, and CSV export.

``emg_masks`` passes the generator's drop probabilities and the run seed to
``mask.inference_mask``, which alone decides whether and what noise it draws
and writes the mask into those probabilities. ``accuracy`` and
``export_embeddings`` scale the embedding they just encoded in place by a
(d,) or (n, d) mask; ``global_mask_accuracies`` is the sweep's stacked
product. ``_check_rows``, on ``nn.as_batch`` (the batch contract's one
owner), checks every scored z.

The bound check is the empirical counterpart of the triangle-inequality
argument for linear predictors: with the embedding split additively into
zero-padded shared and specific parts (z = z_sh + z_sp) and W the
predictor's linear part,

    d(Wz + b, W(m*z) + b) <= d(W z_sh, W(m*z_sh)) + d(W z_sp, W(m*z_sp))

must hold per sample for any metric d. The per-part terms use W without the
bias: linearity c(a+b) = c(a) + c(b) only holds for the strictly linear map,
and including the bias would double-count it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeMismatchError, UsageError
from .mask import MaskGenConfig, drop_probabilities, inference_mask
from .nn import Mlp, SplitModel, as_batch
from .synthbench import DomainDataset, Oracle, save_table

Array = np.ndarray

ROW_BLOCK = 512  # embedding rows per block of a stacked or tiled pass


def _checked_mask(masks: Array, z: Array) -> Array:
    """``masks`` as an array if it is (d,) or ``z``'s shape, else ``ShapeMismatchError``."""
    masks = np.asarray(masks)
    if masks.shape not in (z.shape[1:], z.shape):
        raise ShapeMismatchError(f"masks shape {masks.shape} is neither (d,) nor embeddings {z.shape}")
    return masks


def emg_masks(generator: Mlp, x: Array, cfg: MaskGenConfig, seed: int = 0) -> Array:
    """Per-sample inference masks from the trained generator, written into
    the drop probabilities they are computed from."""
    p = drop_probabilities(generator, x)
    return inference_mask(p, cfg, seed, out=p)


def global_mask_accuracies(split: SplitModel, z: Array, labels: Array, masks: Array) -> list[float]:
    """The hit rate of embeddings ``z`` under each row of a (g, d) stack of global masks.

    0/1 masks, C-ordered float64 ``z`` of 2+ rows: each ``ROW_BLOCK``-row block
    (a lone last row joins it) meets every mask's weight rows in one product
    z [m_1 W | ... | m_g W], with no masked copy of ``z``. z (m W) = (z m) W
    bitwise for m in {0, 1}, so this is the per-mask product where BLAS
    computes each logit as one k-ordered FMA chain whatever the other sizes:
    OpenBLAS 0.3.31's general dgemm kernel does (pinned at the benchmark's
    shapes); its small-matrix kernels may not (2-3 classes or few rows, 16+
    dims), moving a last bit and so only a near-tied row. Otherwise z * m is
    predicted per mask. The bias, tiled once per mask, is added once over
    each block's stacked logits, the same sums as one add per mask."""
    z = _check_rows(split, z, labels)
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[1:] != z.shape[1:]:
        raise ShapeMismatchError(f"masks shape {masks.shape} is not (g, {z.shape[1]})")
    n = len(z)
    if not (z.dtype == np.float64 and z.flags.c_contiguous and n > 1
            and np.isin(masks, (0.0, 1.0)).all()):
        return [_hit_rate(split.predict_np(z * m), labels) for m in masks]
    w, b = split.predictor_affine_params()
    labels, (g, c) = np.asarray(labels), (len(masks), w.shape[1])
    wide = (masks[:, :, None] * w).transpose(1, 0, 2).reshape(len(w), g * c)
    wide_b = np.tile(b, g)  # b after each mask's c logits
    hits = np.zeros(g, dtype=np.intp)
    for lo in range(0, n - 1, ROW_BLOCK):
        # A lone last row joins its block: NumPy sends 1-row products to gemv.
        hi = lo + ROW_BLOCK if n - lo > ROW_BLOCK + 1 else n
        logits = z[lo:hi] @ wide
        logits += wide_b
        hits += np.count_nonzero(np.argmax(logits.reshape(hi - lo, g, c), axis=2) == labels[lo:hi, None], axis=0)
    # Exact counts divided once: bitwise np.mean of the hits.
    return [h / n for h in hits.tolist()]


def _check_rows(split: SplitModel, z: Array, labels: Array | None = None) -> Array:
    """``z`` as ``split``'s embedding batch (``as_batch``) of 1+ rows, ``labels`` (if given) one per row."""
    z = as_batch(z, split.embedding_dim, "embedding", "predictor input width")
    if len(z) == 0:
        raise UsageError("scores of empty data are undefined")
    if labels is not None and np.shape(labels) != (len(z),):
        raise ShapeMismatchError(f"labels shape {np.shape(labels)} != ({len(z)},)")
    return z


def _hit_rate(logits: Array, labels: Array) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def _encoded(split: SplitModel, x: Array) -> Array:
    """``split.encode_np(x)`` in an array of its own, which the caller may
    scale in place: a model without hidden layers embeds a float64 x as is."""
    z = split.encode_np(x)
    return z.copy() if np.may_share_memory(z, x) else z


def accuracy(split: SplitModel, data: DomainDataset, masks: Array | None = None) -> float:
    """Fraction of argmax-correct predictions (ties to the lowest class) on
    the encoded dataset, scaled in place by a (d,) or (n, d) ``masks``;
    rejects empty data, other mask shapes and labels not one per row."""
    z = _check_rows(split, _encoded(split, data.features), data.labels)
    if masks is not None:
        z *= _checked_mask(masks, z)
    return _hit_rate(split.predict_np(z), data.labels)


@dataclass
class BoundReport:
    distance_kind: str
    ge: float
    term_sh: float
    term_sp: float
    violation_count: int
    n: int

    # Expectations over the unseen domain are estimated by the sample mean
    # over its finite sample; the integral itself is not computable.


def bound_terms(split: SplitModel, oracle: Oracle, z: Array, masks: Array) -> dict[str, BoundReport]:
    """Empirical generalization-error bound terms of the affine predictor,
    one report per row distance: ``{"L2": ..., "L1": ...}``.

    Requires every oracle dimension inside the embedding (a model without
    hidden layers embeds its input), or ``ContractError``; ``z`` is checked
    by ``_check_rows``, and a mask not shaped like it raises
    ``ShapeMismatchError``.
    """
    w, _ = split.predictor_affine_params()
    z = np.asarray(_check_rows(split, z), dtype=np.float64)
    masks = np.asarray(masks, dtype=np.float64)
    if masks.shape != z.shape:
        raise ShapeMismatchError(f"masks shape {masks.shape} != embeddings {z.shape}")
    width = split.embedding_dim
    if any(not 0 <= d < width for d in oracle.shared_dims + oracle.specific_dims):
        raise ContractError(f"an oracle dimension is outside the {width}-wide embedding")
    ge_diff = split.predict_np(z) - split.predict_np(masks * z)

    sh = np.zeros_like(z)
    sh[:, oracle.shared_dims] = z[:, oracle.shared_dims]
    sp = np.zeros_like(z)
    sp[:, oracle.specific_dims] = z[:, oracle.specific_dims]
    diffs = (ge_diff, sh @ w - (masks * sh) @ w, sp @ w - (masks * sp) @ w)

    reports = {}
    for kind, order in (("L2", 2), ("L1", 1)):
        ge, t_sh, t_sp = (np.linalg.norm(d, ord=order, axis=1) for d in diffs)
        reports[kind] = BoundReport(
            distance_kind=kind,
            ge=float(ge.mean()),
            term_sh=float(t_sh.mean()),
            term_sp=float(t_sp.mean()),
            violation_count=int(np.sum(ge > t_sh + t_sp + 1e-9)),
            n=len(z),
        )
    return reports


def export_embeddings(
    split: SplitModel,
    data: DomainDataset,
    path: str,
    masks: Array | None = None,
) -> None:
    """CSV rows: sample id, label, domain index, then the (masked) embedding."""
    z = _encoded(split, data.features)
    if masks is not None:
        z *= _checked_mask(masks, z)
        z += 0.0  # normalizes -0.0 in the text output
    header = ["id", "label", "domain"] + [f"e{i}" for i in range(z.shape[1])]
    ids, domains = np.arange(data.n), np.full(data.n, data.domain_index)
    save_table(path, header, ids, data.labels, domains, z)


def export_masks(masks: Array, path: str) -> None:
    """One row per sample: sample id followed by the d mask values; ``masks``
    is an (n, d) batch, or ``ShapeMismatchError``."""
    masks = np.asarray(masks)
    if masks.ndim != 2:
        raise ShapeMismatchError(f"mask batch of shape {masks.shape} is not 2-D (n, d)")
    header = ["id"] + [f"m{i}" for i in range(masks.shape[1])]
    save_table(path, header, np.arange(len(masks)), masks)


def aggregate_runs(reports: list[dict[str, float]]) -> tuple[dict[str, float], dict[str, float]]:
    """Per key of the reports, the mean and the standard error (sample
    stddev / sqrt(#reports)), as two dicts."""
    if not reports:
        raise UsageError("need at least one report")
    keys = set(reports[0])
    for r in reports[1:]:
        if set(r) != keys:
            raise UsageError(f"reports have different keys: {sorted(keys ^ set(r))} are not in both")
    mean, stderr = {}, {}
    n = len(reports)
    for key in sorted(keys):
        vals = np.array([r[key] for r in reports])
        mean[key] = float(vals.mean())
        stderr[key] = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr
