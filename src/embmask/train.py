"""Losses, the Adam optimizer, ERM fine-tuning, and mask-generator training.

A fit is per-row arrays computed once, plus a step over batches of them:
``(x, q)`` for ERM, ``(x, z, q)`` for EMG. Each epoch ``_fit`` gathers every
array once in that epoch's shuffled row order, into buffers allocated once
per fit, and hands each step contiguous slices of them. Both graphs are
cross entropy against a fixed per-row target distribution q: for ERM, the
one-hot labels; for EMG, the frozen encoder/predictor pair's softmax(c(z))
on the embedding z = g(x), computed once with z since the base model cannot
change. Each EMG step draws a stochastic mask m from G(x) and updates
theta_G to minimize the cross entropy between q and the predictor's
distribution on the masked embedding c(m * z). Domain labels are never used.

"Until convergence" is concretized as patience-based early stopping on a
training-domain validation split; the returned parameters are those of the
best-validation epoch.

Each step is fused NumPy (``erm_forward``, ``emg_forward``): a forward that
keeps its intermediates and a hand-derived backward that writes into views of
one flat gradient vector, followed by one in-place Adam step over the store's
flat parameter vector. ``erm_forward`` takes one-hot q only, as ``_onehot``
builds it, so its cross-entropy gradient scales by a scalar where the general
one reduces every row. ``hard_ce`` and ``soft_ce`` are the same losses on the
tape. Targets are checked once per fit, where they are built (``_onehot``
rejects out-of-range labels, ``_softmax_target`` non-finite target logits);
the per-batch cross entropy scans only the logits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import tensor as T
from .errors import (
    ConfigError,
    ContractError,
    DegenerateDataError,
    NumericError,
    ShapeMismatchError,
    UsageError,
)
from .mask import MaskGenConfig, logistic_noise, relaxed_mask_grad, relaxed_mask_np
from .nn import Mlp, ParamStore, SplitModel
from .synthbench import DomainDataset, pool_domains, save_table

Array = np.ndarray


@dataclass
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 10
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError("val_fraction must be in (0, 1)")
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size, patience, max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )


@dataclass
class TrainTrace:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    wall_clock: list[float] = field(default_factory=list)
    selected_epoch: int = -1

    def to_csv(self, path: str) -> None:
        """One row per epoch; ``selected`` is 1 on ``selected_epoch``."""
        # Wall-clock deliberately excluded: metrics files must be
        # byte-identical across reruns of the same config+seed.
        epochs = np.arange(len(self.train_loss))
        header = ["epoch", "train_loss", "val_loss", "selected"]
        save_table(path, header, epochs, self.train_loss, self.val_loss, epochs == self.selected_epoch)


# -- losses -------------------------------------------------------------------


def _onehot(labels: Array, c: int) -> Array:
    """Width-c one-hot targets for integer class labels (``cross_entropy``
    checks them against the logits' shape)."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= c:
        raise UsageError(f"label out of range [0, {c})")
    return np.eye(c)[labels]


def _softmax_target(target_logits, shape: tuple[int, ...]) -> Array:
    """softmax(target_logits) row-wise, checked against the shape of the
    predicted logits."""
    target = np.asarray(target_logits, dtype=np.float64)
    if target.shape != shape:
        raise ShapeMismatchError(f"soft_ce: shapes {target.shape} and {shape}")
    if not np.isfinite(target).all():
        raise NumericError("soft_ce: non-finite target logits")
    q = np.exp(target - target.max(axis=1, keepdims=True))
    q /= q.sum(axis=1, keepdims=True)
    return q


def hard_ce(labels: Array, logits: T.Tensor) -> T.Tensor:
    """Mean cross entropy against integer class labels, via log-sum-exp."""
    return T.cross_entropy(_onehot(labels, logits.shape[1]), logits)


def soft_ce(target_logits, pred_logits: T.Tensor) -> T.Tensor:
    """Mean cross entropy between softmax(target) and softmax(pred).

    The target distribution is a constant: gradients flow only through the
    prediction side.
    """
    return T.cross_entropy(_softmax_target(target_logits, pred_logits.shape), pred_logits)


# -- fused training steps -------------------------------------------------------
#
# Each returns the batch loss and a ``backward(grads)`` that writes the
# gradient wrt the trainable parameters into ``grads``, the views
# ``ParamStore.views`` gives of a flat gradient vector. They call the array
# functions of ``tensor`` and ``mask`` in the tape's order, so their gradients
# equal ``backward_grads`` on the tape bit for bit; ``erm_forward``'s
# ``_onehot_ce_grad`` equals ``cross_entropy_grad`` bit for bit on the one-hot
# q it takes. The batches are slices of ``_fit``'s per-epoch buffers, so a step
# must not write into x, z or q.

Backward = Callable[[Mapping[str, Array]], None]


def erm_forward(model: Mlp, x: Array, q: Array) -> tuple[float, Backward]:
    """``hard_ce`` on ``model.forward(x)``, fused, for the one-hot targets q
    that ``_onehot`` builds; the backward relies on q being one-hot."""
    acts = model.forward_train(x)
    loss, lsm = T.cross_entropy_np(q, acts[-1])

    def backward(grads: Mapping[str, Array]) -> None:
        model.backward_train(acts, _onehot_ce_grad(q, lsm), grads)

    return float(loss), backward


def _onehot_ce_grad(q: Array, lsm: Array) -> Array:
    """``T.cross_entropy_grad(1.0, q, lsm)`` for one-hot q, bit for bit.

    Every row of d = (-1/n) q holds one -1/n and zeros, so it sums to
    exactly -1/n: the row sums ``cross_entropy_grad`` reduces are that scalar.
    """
    scale = -1.0 / q.shape[0]
    d = q * scale
    p = np.exp(lsm)
    p *= scale
    return np.subtract(d, p, out=d)


def emg_forward(
    split: SplitModel,
    generator: Mlp,
    x: Array,
    z: Array,
    q: Array,
    mask_cfg: MaskGenConfig,
    rng: np.random.Generator,
) -> tuple[float, Backward]:
    """The EMG objective, fused: cross entropy between the target
    distribution q and the frozen predictor on m * z, with m the training
    mask the generator gives x under fresh logistic noise from rng."""
    gen_acts = generator.forward_train(x)
    logits = gen_acts[-1]
    m, mask_cache = relaxed_mask_np(logits, logistic_noise(rng, logits.shape), mask_cfg.tau)
    if m.shape != z.shape or z.shape[1] != split.embedding_dim:
        raise ShapeMismatchError(f"mask {m.shape} and embedding {z.shape}, predictor input width {split.embedding_dim}")
    w, b = split.predictor_affine_params()
    loss, lsm = T.cross_entropy_np(q, T.linear_np(m * z, w, b))

    def backward(grads: Mapping[str, Array]) -> None:
        g = T.linear_grad_x(T.cross_entropy_grad(1.0, q, lsm), w)
        generator.backward_train(gen_acts, relaxed_mask_grad(g * z, mask_cache), grads)

    return float(loss), backward


# -- optimizer ----------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """The moment estimates, the step count, and two scratch vectors that
    ``optimizer_step`` reuses on every step."""

    m: Array | None = None
    v: Array | None = None
    t: int = 0
    scratch: tuple[Array, Array] | None = None


def optimizer_step(
    store: ParamStore, grad: Array, state: AdamState, lr: float
) -> AdamState:
    """One bias-corrected adaptive-moment update of ``store.flat`` by the
    flat gradient ``grad``, in place.

    The ufuncs run in the order of the expression

        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        params -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    so the update equals it bit for bit without allocating a vector.
    """
    if store.frozen:
        raise ContractError("cannot update a frozen parameter store")
    params = store.flat
    if np.shape(grad) != params.shape:
        raise ContractError(
            f"gradient of shape {np.shape(grad)} for {params.size} parameter values"
        )
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
        state.scratch = (np.empty_like(params), np.empty_like(params))
    m, v, (num, den) = state.m, state.v, state.scratch
    state.t += 1
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=num)
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=num)
    v += np.multiply(num, grad, out=num)
    np.divide(m, 1.0 - ADAM_BETA1**state.t, out=num)
    num *= lr
    np.divide(v, 1.0 - ADAM_BETA2**state.t, out=den)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    num /= den
    params -= num
    return state


# -- data plumbing -----------------------------------------------------------


def pooled_split(
    datasets: list[DomainDataset], val_fraction: float, seed: int
) -> tuple[Array, Array, Array, Array]:
    """Pool domains and hold out a stratified validation share per domain.

    Each class of each domain, of n rows, holds out round(val_fraction * n)
    of them clamped to [1, n - 1], so none for a one-row class; both shares
    keep the pooled row order. Only sample indices are used for the split;
    domain identity never leaks into features or targets. Raises
    DegenerateDataError when the pooled validation split would be empty.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    pool = pool_domains(datasets)
    is_val = np.zeros(pool.n, dtype=bool)
    offset = 0
    for data in datasets:
        for cls in np.unique(data.labels):
            idx = rng.permutation(np.flatnonzero(data.labels == cls))
            n_val = min(max(round(len(idx) * val_fraction), 1), len(idx) - 1)
            is_val[offset + idx[:n_val]] = True
        offset += data.n
    if not is_val.any():
        raise DegenerateDataError("the pooled validation split is empty")
    return pool.features[~is_val], pool.labels[~is_val], pool.features[is_val], pool.labels[is_val]


# -- ERM fine-tuning ------------------------------------------------------------


def train_erm(
    config: TrainConfig,
    datasets: list[DomainDataset],
    layer_sizes: list[int],
) -> tuple[Mlp, TrainTrace]:
    """Pooled-domain ERM training of the base model with hard-label cross
    entropy; returns the best-validation-epoch parameters."""
    x_tr, y_tr, x_va, y_va = pooled_split(datasets, config.val_fraction, config.seed)
    classes = np.unique(np.concatenate([y_tr, y_va]))
    if len(classes) < 2:
        raise DegenerateDataError("ERM training needs at least 2 classes")
    n_classes = int(classes.max()) + 1
    dim = x_tr.shape[1]
    if layer_sizes[0] != dim or layer_sizes[-1] < n_classes:
        raise ConfigError(
            f"layer sizes {layer_sizes} incompatible with data ({dim} -> {n_classes})"
        )

    model = Mlp(layer_sizes, seed=config.seed)
    q_tr = _onehot(y_tr, layer_sizes[-1])
    q_va = _onehot(y_va, layer_sizes[-1])
    trace = _fit(
        model.store,
        config,
        (x_tr, q_tr),
        step=lambda x, q: erm_forward(model, x, q),
        val_loss=lambda: erm_forward(model, x_va, q_va)[0],
    )
    return model, trace


# -- EMG training ------------------------------------------------------------------


def train_emg(
    split: SplitModel,
    generator: Mlp,
    datasets: list[DomainDataset],
    mask_cfg: MaskGenConfig,
    train_cfg: TrainConfig,
) -> tuple[Mlp, TrainTrace]:
    """Train the mask generator against the frozen encoder/predictor.

    z = g(x) and the target q come from ``_emg_target`` once per row. Per
    batch: draw m from G(x) with fresh logistic noise and update theta_G to
    minimize the cross entropy between q and c(m * z). Raises if the base
    model is not frozen, and verifies by checksum that it stayed bitwise
    intact.
    """
    base_store = split.model.store
    if not base_store.frozen:
        raise ContractError("base model must be frozen before EMG training")
    if generator.layer_sizes[-1] != split.embedding_dim:
        raise ConfigError(
            f"generator head width {generator.layer_sizes[-1]} != "
            f"embedding dim {split.embedding_dim}"
        )
    checksum_before = base_store.checksum()

    # EMG training is label- and domain-free.
    x_tr, _, x_va, _ = pooled_split(datasets, train_cfg.val_fraction, train_cfg.seed)
    z_tr, q_tr = _emg_target(split, x_tr)
    z_va, q_va = _emg_target(split, x_va)
    noise_rng = np.random.default_rng(np.random.SeedSequence((train_cfg.seed, 0xB2)))

    def val_loss():
        # The same noise draw every epoch, so epochs are comparable and the
        # selection rule is deterministic.
        rng = np.random.default_rng(np.random.SeedSequence((train_cfg.seed, 0xA1)))
        return emg_forward(split, generator, x_va, z_va, q_va, mask_cfg, rng)[0]

    # Base-model parameters are not in the generator's store, so _fit can
    # only ever touch theta_G.
    trace = _fit(
        generator.store,
        train_cfg,
        (x_tr, z_tr, q_tr),
        step=lambda x, z, q: emg_forward(split, generator, x, z, q, mask_cfg, noise_rng),
        val_loss=val_loss,
    )

    if base_store.checksum() != checksum_before:
        raise ContractError("frozen base model changed during EMG training")
    return generator, trace


def _emg_target(split: SplitModel, x: Array) -> tuple[Array, Array]:
    """The per-row constants of an EMG fit: the embedding z = g(x) and the
    target distribution softmax(c(z))."""
    z = split.encode_np(x)
    logits = split.predict_np(z)
    return z, _softmax_target(logits, logits.shape)


# -- shared epoch loop ---------------------------------------------------------------


def _fit(
    store: ParamStore,
    config: TrainConfig,
    rows: tuple[Array, ...],
    step: Callable[..., tuple[float, Backward]],
    val_loss: Callable[[], float],
) -> TrainTrace:
    """Adam over shuffled minibatches of the training rows with
    patience-based early stopping; ``val_loss()`` is the validation loss.

    ``rows`` holds the per-row arrays of the fit, row i of each belonging to
    training row i. Each epoch gathers them once, in that epoch's shuffled
    order, into buffers allocated once per fit, and ``step(*batch)`` is the
    fused step on one contiguous slice of each buffer. The caller's arrays
    are only read.
    """
    if store.frozen:
        raise ContractError("cannot train a frozen parameter store")
    params = store.flat
    grad = np.zeros_like(params)
    grads = store.views(grad)
    state = AdamState()
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xC3)))
    trace = TrainTrace()
    best_val = np.inf
    best_params = params.copy()
    best_epoch = -1
    n = len(rows[0])
    shuffled = tuple(np.empty(a.shape, a.dtype) for a in rows)
    bs = config.batch_size

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        for a, buf in zip(rows, shuffled):
            # "clip" never clips a permutation; "raise" would copy through
            # a temporary.
            np.take(a, order, axis=0, out=buf, mode="clip")
        epoch_losses = []
        for start in range(0, n, bs):
            loss, backward = step(*[buf[start : start + bs] for buf in shuffled])
            backward(grads)
            optimizer_step(store, grad, state, config.learning_rate)
            epoch_losses.append(loss)

        val = val_loss()
        trace.train_loss.append(float(np.mean(epoch_losses)))
        trace.val_loss.append(val)
        trace.wall_clock.append(time.perf_counter() - t0)

        if val < best_val:
            best_val = val
            best_params = params.copy()
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break

    params[...] = best_params
    trace.selected_epoch = best_epoch
    return trace
