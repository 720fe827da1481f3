"""Losses, the Adam optimizer, ERM fine-tuning, and mask-generator training.

A fit is per-row constants computed once, plus a step over row indices.
Both graphs are cross entropy against a fixed per-row target distribution q:
for ERM, the one-hot labels; for EMG, the frozen encoder/predictor pair's
softmax(c(z)) on the embedding z = g(x), computed once with z since the base
model cannot change. Each EMG step draws a stochastic mask m from G(x) and
updates theta_G to minimize the cross entropy between q and the predictor's
distribution on the masked embedding c(m * z). Domain labels are never used.

"Until convergence" is concretized as patience-based early stopping on a
training-domain validation split; the returned parameters are those of the
best-validation epoch.

Each step is fused NumPy (``erm_forward``, ``emg_forward``): a forward that
keeps its intermediates and a hand-derived backward that writes into views of
one flat gradient vector, followed by one in-place Adam step over the store's
flat parameter vector. ``hard_ce`` and ``soft_ce`` are the same losses on the
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
from .synthbench import DomainDataset

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
        # Wall-clock deliberately excluded: metrics files must be
        # byte-identical across reruns of the same config+seed.
        with open(path, "w") as fh:
            fh.write("epoch,train_loss,val_loss\n")
            for i, (tr, va) in enumerate(zip(self.train_loss, self.val_loss)):
                fh.write(f"{i},{tr:.17g},{va:.17g}\n")
            fh.write(f"# selected_epoch={self.selected_epoch}\n")


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
# equal ``backward_grads`` on the tape bit for bit.

Backward = Callable[[Mapping[str, Array]], None]


def erm_forward(model: Mlp, x: Array, q: Array) -> tuple[float, Backward]:
    """``cross_entropy(q, model.forward(x))``, fused; ``hard_ce`` when q is
    one-hot."""
    acts = model.forward_train(x)
    loss, lsm = T.cross_entropy_np(q, acts[-1])

    def backward(grads: Mapping[str, Array]) -> None:
        model.backward_train(acts, T.cross_entropy_grad(1.0, q, lsm), grads)

    return float(loss), backward


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


def _stratified_split(
    labels: Array, val_fraction: float, rng: np.random.Generator
) -> tuple[Array, Array]:
    """Per-class index split; at least one validation sample per class when
    the class has >= 2 members."""
    train_idx: list[int] = []
    val_idx: list[int] = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = rng.permutation(idx)
        n_val = int(round(len(idx) * val_fraction))
        if len(idx) >= 2:
            n_val = min(max(n_val, 1), len(idx) - 1)
        else:
            n_val = 0
        val_idx.extend(idx[:n_val])
        train_idx.extend(idx[n_val:])
    return (
        np.sort(np.array(train_idx, dtype=np.int64)),
        np.sort(np.array(val_idx, dtype=np.int64)),
    )


def pooled_split(
    datasets: list[DomainDataset], val_fraction: float, seed: int
) -> tuple[Array, Array, Array, Array]:
    """Pool domains and hold out a stratified validation share per domain.

    Only sample indices are used for the split; domain identity never leaks
    into features or targets. Raises DegenerateDataError when no domain has
    a class with two members to hold one out, so the pooled validation
    split would be empty.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    xs_tr, ys_tr, xs_va, ys_va = [], [], [], []
    for data in datasets:
        tr, va = _stratified_split(data.labels, val_fraction, rng)
        xs_tr.append(data.features[tr])
        ys_tr.append(data.labels[tr])
        xs_va.append(data.features[va])
        ys_va.append(data.labels[va])
    if not sum(len(y) for y in ys_va):
        raise DegenerateDataError("the pooled validation split is empty")
    return (
        np.concatenate(xs_tr),
        np.concatenate(ys_tr),
        np.concatenate(xs_va),
        np.concatenate(ys_va),
    )


# -- ERM fine-tuning ------------------------------------------------------------


def train_erm(
    config: TrainConfig,
    datasets: list[DomainDataset],
    layer_sizes: list[int] | None = None,
) -> tuple[Mlp, TrainTrace]:
    """Pooled-domain ERM training of the base model with hard-label cross
    entropy; returns the best-validation-epoch parameters."""
    x_tr, y_tr, x_va, y_va = pooled_split(datasets, config.val_fraction, config.seed)
    classes = np.unique(np.concatenate([y_tr, y_va]))
    if len(classes) < 2:
        raise DegenerateDataError("ERM training needs at least 2 classes")
    n_classes = int(classes.max()) + 1
    dim = x_tr.shape[1]
    if layer_sizes is None:
        layer_sizes = [dim, n_classes]
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
        step=lambda idx: erm_forward(model, x_tr[idx], q_tr[idx]),
        val_loss=lambda: erm_forward(model, x_va, q_va)[0],
        n=len(x_tr),
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
        step=lambda idx: emg_forward(
            split, generator, x_tr[idx], z_tr[idx], q_tr[idx], mask_cfg, noise_rng
        ),
        val_loss=val_loss,
        n=len(x_tr),
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
    step: Callable[[Array], tuple[float, Backward]],
    val_loss: Callable[[], float],
    n: int,
) -> TrainTrace:
    """Adam over shuffled minibatches of the n training rows with
    patience-based early stopping; ``step(idx)`` is the fused step on the
    rows ``idx``, ``val_loss()`` the validation loss."""
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
    epochs_since_best = 0

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            loss, backward = step(order[start : start + config.batch_size])
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
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    params[...] = best_params
    trace.selected_epoch = best_epoch
    return trace
