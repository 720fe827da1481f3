"""Losses, the Adam optimizer, ERM fine-tuning, and mask-generator training.

The mask generator is trained against a frozen encoder/predictor pair: for
each batch, z = g(x), a stochastic mask m is drawn from G(x), and theta_G is
updated to minimize the cross entropy between the predictor's distribution on
the masked embedding c(m * z) and its distribution on the original embedding
c(z). The target distribution is detached -- the base model is frozen, so no
gradient could reach theta_G through it anyway. Domain labels are never used.

"Until convergence" is concretized as patience-based early stopping on a
training-domain validation split; the returned parameters are those of the
best-validation epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import (
    ConfigError,
    ContractError,
    DegenerateDataError,
    ShapeMismatchError,
    UsageError,
)
from .mask import MaskGenConfig, training_mask
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
    hard_target: bool = False  # EMG ablation: argmax target instead of soft

    def __post_init__(self):
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError("val_fraction must be in (0, 1)")
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size, patience, max_epochs must be >= 1")


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


def hard_ce(labels: Array, logits: T.Tensor) -> T.Tensor:
    """Mean cross entropy against integer class labels, via log-sum-exp."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatchError(f"labels shape {labels.shape} vs batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise UsageError(f"label out of range [0, {c})")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return T.cross_entropy(onehot, logits)


def soft_ce(target_logits, pred_logits: T.Tensor) -> T.Tensor:
    """Mean cross entropy between softmax(target) and softmax(pred).

    The target distribution is a constant: gradients flow only through the
    prediction side.
    """
    target = np.asarray(target_logits, dtype=np.float64)
    if target.shape != pred_logits.shape:
        raise ShapeMismatchError(
            f"soft_ce: shapes {target.shape} and {pred_logits.shape}"
        )
    q = np.exp(target - target.max(axis=1, keepdims=True))
    q /= q.sum(axis=1, keepdims=True)
    return T.cross_entropy(q, pred_logits)


# -- optimizer ----------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)
    t: int = 0


def optimizer_step(
    store: ParamStore, grads: dict[str, Array], state: AdamState, lr: float
) -> AdamState:
    """One bias-corrected adaptive-moment update on the trainable parameters."""
    for name in grads:
        if name not in store:
            raise ContractError(f"gradient for unknown parameter {name!r}")
        if not store.is_trainable(name):
            raise ContractError(f"gradient for frozen parameter {name!r}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        store.set_value(name, store[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
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
    return np.sort(np.array(train_idx)), np.sort(np.array(val_idx))


def pooled_split(
    datasets: list[DomainDataset], val_fraction: float, seed: int
) -> tuple[Array, Array, Array, Array]:
    """Pool domains and hold out a stratified validation share per domain.

    Only sample indices are used for the split; domain identity never leaks
    into features or targets.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    xs_tr, ys_tr, xs_va, ys_va = [], [], [], []
    for data in datasets:
        tr, va = _stratified_split(data.labels, val_fraction, rng)
        xs_tr.append(data.features[tr])
        ys_tr.append(data.labels[tr])
        xs_va.append(data.features[va])
        ys_va.append(data.labels[va])
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
    trace = _fit(
        model,
        config,
        forward_loss=lambda leaves, xb, yb: hard_ce(
            yb, model.forward(T.Tensor(xb), leaves)
        ),
        x_tr=x_tr,
        y_tr=y_tr,
        x_va=x_va,
        y_va=y_va,
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

    Per batch: z = g(x); draw m from G(x) with fresh Gumbel noise; update
    theta_G to minimize the cross entropy between c(m * z) and the detached
    c(z). Raises if the base model is not frozen, and verifies by checksum
    that it stayed bitwise intact.
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

    x_tr, y_tr, x_va, y_va = pooled_split(
        datasets, train_cfg.val_fraction, train_cfg.seed
    )
    del y_tr, y_va  # EMG training is label- and domain-free

    z_va = split.encode_np(x_va)
    target_va = split.predict_np(z_va)
    # Fixed noise realization for validation so epochs are comparable and
    # the selection rule is deterministic.
    val_rng = np.random.default_rng(np.random.SeedSequence((train_cfg.seed, 0xA1)))
    noise_rng = np.random.default_rng(np.random.SeedSequence((train_cfg.seed, 0xB2)))

    def val_loss_fn(_):
        leaves = generator.store.leaves()
        rng = _clone_rng(val_rng)
        return _emg_loss(split, generator, leaves, x_va, z_va, target_va, mask_cfg, rng).item()

    # Base-model parameters are not in the generator's store, so _fit can
    # only ever touch theta_G. Leaves for the frozen model enter as constants.
    trace = _fit(
        generator,
        train_cfg,
        forward_loss=_emg_forward(split, generator, mask_cfg, noise_rng, train_cfg),
        x_tr=x_tr,
        y_tr=np.zeros(len(x_tr), dtype=np.int64),
        x_va=x_va,
        y_va=np.zeros(len(x_va), dtype=np.int64),
        val_loss_fn=val_loss_fn,
    )

    if base_store.checksum() != checksum_before:
        raise ContractError("frozen base model changed during EMG training")
    return generator, trace


def _clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """Copy so the fixed validation noise stream is reused, not consumed."""
    out = np.random.default_rng()
    out.bit_generator.state = rng.bit_generator.state
    return out


def _emg_forward(split, generator, mask_cfg, noise_rng, train_cfg):
    def forward_loss(leaves, xb, _yb):
        z = split.encode_np(xb)
        target = split.predict_np(z)
        if train_cfg.hard_target:
            hard = np.argmax(target, axis=1)
            target = np.where(
                np.arange(target.shape[1])[None, :] == hard[:, None], 1e3, 0.0
            )
        return _emg_loss(split, generator, leaves, xb, z, target, mask_cfg, noise_rng)

    return forward_loss


def _emg_loss(split, gen, leaves, x, z, target, mask_cfg, rng) -> T.Tensor:
    """Soft cross entropy between ``target`` logits and the frozen predictor
    on the masked embedding m * z, with m drawn from the generator under rng."""
    m = training_mask(gen, x, leaves, mask_cfg, rng)
    return soft_ce(target, split.predict_t(T.mul(m, z)))


# -- shared epoch loop ---------------------------------------------------------------


def _fit(
    model: Mlp,
    config: TrainConfig,
    forward_loss,
    x_tr: Array,
    y_tr: Array,
    x_va: Array,
    y_va: Array,
    val_loss_fn=None,
) -> TrainTrace:
    store = model.store
    state = AdamState()
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xC3)))
    trace = TrainTrace()
    best_val = np.inf
    best_state = store.state_copy()
    best_epoch = -1
    epochs_since_best = 0
    n = len(x_tr)

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            leaves = store.leaves()
            loss = forward_loss(leaves, x_tr[idx], y_tr[idx])
            grads = T.backward_grads(loss, leaves)
            optimizer_step(store, grads, state, config.learning_rate)
            epoch_losses.append(loss.item())

        if val_loss_fn is not None:
            val = val_loss_fn(None)
        else:
            leaves = store.leaves()
            val = forward_loss(leaves, x_va, y_va).item()
        trace.train_loss.append(float(np.mean(epoch_losses)))
        trace.val_loss.append(val)
        trace.wall_clock.append(time.perf_counter() - t0)

        if val < best_val:
            best_val = val
            best_state = store.state_copy()
            best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    store.load_state(best_state)
    trace.selected_epoch = best_epoch
    return trace
