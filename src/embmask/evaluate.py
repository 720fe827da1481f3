"""Accuracy evaluation, generalization-bound diagnostics, and CSV export.

``emg_masks`` passes the generator's drop probabilities and the run seed to
``mask.inference_mask``, which alone decides whether and what noise it draws.

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
from .nn import Mlp, SplitModel
from .synthbench import DomainDataset, Oracle, save_table

Array = np.ndarray

DISTANCE_KINDS = ("L2", "L1")

ROW_BLOCK = 512  # embedding rows per block of a stacked or tiled pass


def _rowdist(a: Array, b: Array, kind: str) -> Array:
    if kind == "L2":
        return np.linalg.norm(a - b, axis=1)
    if kind == "L1":
        return np.abs(a - b).sum(axis=1)


def _checked_mask(masks: Array, z: Array) -> Array:
    """``masks`` as an array if it is (d,) or ``z``'s shape, else ``ShapeMismatchError``."""
    masks = np.asarray(masks)
    if masks.shape not in (z.shape[1:], z.shape):
        raise ShapeMismatchError(f"masks shape {masks.shape} is neither (d,) nor embeddings {z.shape}")
    return masks


def emg_masks(generator: Mlp, x: Array, cfg: MaskGenConfig, seed: int = 0) -> Array:
    """Per-sample inference masks from the trained generator."""
    return inference_mask(drop_probabilities(generator, x), cfg, seed)


def masked_accuracy(
    split: SplitModel, z: Array, labels: Array, masks: Array | None = None
) -> float:
    """Fraction of argmax-correct predictions on embeddings ``z``; argmax
    ties resolve to the lowest class index. ``masks`` is per-sample (n x d),
    a single global mask (d,) broadcast over the rows, or None. Rejects
    empty data, other mask shapes and ``labels`` that are not one entry per
    row. A global mask is a stack of one for ``global_mask_accuracies``: a
    0/1 mask scales the predictor's weight rows, ``ROW_BLOCK`` rows of ``z``
    at a time, not ``z`` (see there for when that is bitwise)."""
    _check_rows(z, labels)
    masks = None if masks is None else _checked_mask(masks, z)
    if masks is not None and masks.ndim == 1:
        return global_mask_accuracies(split, z, labels, masks[None])[0]
    return _hit_rate(split.predict_np(z if masks is None else z * masks), labels)


def global_mask_accuracies(split: SplitModel, z: Array, labels: Array, masks: Array) -> list[float]:
    """``masked_accuracy`` under each row of a (g, d) stack of global masks.

    0/1 masks, C-ordered float64 ``z`` of 2+ rows: each ``ROW_BLOCK``-row block
    (a lone last row joins it) meets every mask's weight rows in one product
    z [m_1 W | ... | m_g W], with no masked copy of ``z``. z (m W) = (z m) W
    bitwise for m in {0, 1}, so this is the per-mask product where BLAS
    computes each logit as one k-ordered FMA chain whatever the other sizes:
    OpenBLAS 0.3.31's general dgemm kernel does (pinned at the benchmark's
    shapes); its small-matrix kernels may not (2-3 classes or few rows, 16+
    dims), moving a last bit and so only a near-tied row. Otherwise z * m is
    predicted per mask."""
    _check_rows(z, labels)
    masks = np.asarray(masks)
    if masks.ndim != 2 or masks.shape[1:] != z.shape[1:]:
        raise ShapeMismatchError(f"masks shape {masks.shape} is not (g, {z.shape[1]})")
    if z.shape[1] != split.embedding_dim:
        raise ShapeMismatchError(f"embedding width {z.shape[1]} != predictor input width {split.embedding_dim}")
    n = len(z)
    if not (z.dtype == np.float64 and z.flags.c_contiguous and n > 1
            and np.isin(masks, (0.0, 1.0)).all()):
        return [_hit_rate(split.predict_np(z * m), labels) for m in masks]
    w, b = split.predictor_affine_params()
    labels, (g, c) = np.asarray(labels), (len(masks), w.shape[1])
    wide = (masks[:, :, None] * w).transpose(1, 0, 2).reshape(len(w), g * c)
    hits = np.zeros(g, dtype=np.intp)
    for lo in range(0, n - 1, ROW_BLOCK):
        # A lone last row joins its block: NumPy sends 1-row products to gemv.
        hi = lo + ROW_BLOCK if n - lo > ROW_BLOCK + 1 else n
        logits = (z[lo:hi] @ wide).reshape(hi - lo, g, c)
        logits += b
        hits += np.count_nonzero(np.argmax(logits, axis=2) == labels[lo:hi, None], axis=0)
    # Exact counts divided once: bitwise np.mean of the hits.
    return [h / n for h in hits.tolist()]


def _check_rows(z: Array, labels: Array) -> None:
    if len(z) == 0:
        raise UsageError("accuracy of empty data is undefined")
    if np.shape(labels) != (len(z),):
        raise ShapeMismatchError(f"labels shape {np.shape(labels)} != ({len(z)},)")


def _hit_rate(logits: Array, labels: Array) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def accuracy(split: SplitModel, data: DomainDataset, masks: Array | None = None) -> float:
    """``masked_accuracy`` of the encoded dataset."""
    return masked_accuracy(split, split.encode_np(data.features), data.labels, masks)


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


def bound_terms(
    split: SplitModel,
    oracle: Oracle,
    z: Array,
    masks: Array,
    distance_kind: str = "L2",
) -> BoundReport:
    """Empirical generalization-error bound terms of the affine predictor.

    Requires every oracle dimension inside the embedding (a model without
    hidden layers embeds its input), or ``ContractError``; a mask not
    shaped like ``z`` raises ``ShapeMismatchError``.
    """
    if distance_kind not in DISTANCE_KINDS:
        raise UsageError(f"unknown distance kind {distance_kind!r}")
    w, b = split.predictor_affine_params()
    z = np.asarray(z, dtype=np.float64)
    masks = np.asarray(masks, dtype=np.float64)
    if masks.shape != z.shape:
        raise ShapeMismatchError(f"masks shape {masks.shape} != embeddings {z.shape}")
    if len(z) == 0:
        raise UsageError("bound terms of empty data are undefined")
    width = z.shape[1]
    if any(not 0 <= d < width for d in oracle.shared_dims + oracle.specific_dims):
        raise ContractError(f"an oracle dimension is outside the {width}-wide embedding")

    sh = np.zeros_like(z)
    sh[:, oracle.shared_dims] = z[:, oracle.shared_dims]
    sp = np.zeros_like(z)
    sp[:, oracle.specific_dims] = z[:, oracle.specific_dims]

    ge = _rowdist(z @ w + b, (masks * z) @ w + b, distance_kind)
    t_sh = _rowdist(sh @ w, (masks * sh) @ w, distance_kind)
    t_sp = _rowdist(sp @ w, (masks * sp) @ w, distance_kind)
    violations = int(np.sum(ge > t_sh + t_sp + 1e-9))
    return BoundReport(
        distance_kind=distance_kind,
        ge=float(ge.mean()),
        term_sh=float(t_sh.mean()),
        term_sp=float(t_sp.mean()),
        violation_count=violations,
        n=len(z),
    )


def export_embeddings(
    split: SplitModel,
    data: DomainDataset,
    path: str,
    masks: Array | None = None,
) -> None:
    """CSV rows: sample id, label, domain index, then the (masked) embedding."""
    z = split.encode_np(data.features)
    if masks is not None:
        z = z * _checked_mask(masks, z) + 0.0  # + 0.0 normalizes -0.0 in the text output
    header = ["id", "label", "domain"] + [f"e{i}" for i in range(z.shape[1])]
    ids, domains = np.arange(data.n), np.full(data.n, data.domain_index)
    save_table(path, header, ids, data.labels, domains, z)


def export_masks(masks: Array, path: str) -> None:
    """One row per sample: sample id followed by the d mask values."""
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
            raise UsageError("reports cover different domain sets")
    mean, stderr = {}, {}
    n = len(reports)
    for key in sorted(keys):
        vals = np.array([r[key] for r in reports])
        mean[key] = float(vals.mean())
        stderr[key] = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr
