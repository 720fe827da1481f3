"""Accuracy evaluation, generalization-bound diagnostics, and CSV export.

``emg_masks`` passes the generator's drop probabilities and the run seed to
``mask.inference_mask``, which alone decides whether and what noise it draws
and writes the mask into those probabilities. ``accuracy`` and
``export_embeddings`` scale the embedding they just encoded in place by a
(d,) or (n, d) mask. ``_check_rows``, on ``nn.as_batch`` (the batch
contract's one owner), checks every scored z.

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


def emg_masks(generator: Mlp, x: Array, cfg: MaskGenConfig, seed: int = 0) -> Array:
    """Per-sample inference masks from the trained generator, written into
    the drop probabilities they are computed from."""
    p = drop_probabilities(generator, x)
    return inference_mask(p, cfg, seed, out=p)


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


def _masked(z: Array, x: Array, masks: Array) -> Array:
    """``z`` scaled by a (d,) or (n, d) ``masks`` (other shapes raise
    ``ShapeMismatchError``) in place, or in a copy where a model without
    hidden layers embedded a float64 ``x`` as ``z``."""
    masks = np.asarray(masks)
    if masks.shape not in (z.shape[1:], z.shape):
        raise ShapeMismatchError(f"masks shape {masks.shape} is neither (d,) nor embeddings {z.shape}")
    if np.may_share_memory(z, x):
        z = z.copy()
    z *= masks
    return z


def accuracy(split: SplitModel, data: DomainDataset, masks: Array | None = None) -> float:
    """Fraction of argmax-correct predictions (ties to the lowest class) on
    the encoded dataset, scaled in place by a (d,) or (n, d) ``masks``;
    rejects empty data, other mask shapes and labels not one per row."""
    z = _check_rows(split, split.encode_np(data.features), data.labels)
    if masks is not None:
        z = _masked(z, data.features, masks)
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
    z = split.encode_np(data.features)
    if masks is not None:
        z = _masked(z, data.features, masks)
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
