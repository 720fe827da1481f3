"""Losses, optimizer, data splits, and the two training loops."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embmask import (
    BenchmarkSpec,
    DomainDataset,
    MaskGenConfig,
    Mlp,
    TrainConfig,
    TrainTrace,
    generate_benchmark,
    split_model,
    train_emg,
    train_erm,
)
from embmask import tensor as T
from embmask import train as train_module
from embmask.errors import (
    ConfigError,
    ContractError,
    DegenerateDataError,
    NumericError,
    ShapeMismatchError,
    UsageError,
)
from embmask.experiment import ExperimentSpec, base_layers
from embmask.mask import TAU_MIN, TRAIN_TAU_MIN, logistic_noise, training_mask
from embmask.nn import ParamStore
from embmask.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    VAL_FRACTION,
    AdamState,
    _emg_target,
    _fit,
    _onehot,
    _onehot_ce_grad,
    emg_forward,
    erm_forward,
    hard_ce,
    optimizer_step,
    pooled_split,
    soft_ce,
)
from finite_diff import fused_grad_error
from memory_budget import traced_peak


def _small_benchmark(seed=0):
    return generate_benchmark(
        BenchmarkSpec(
            num_classes=3,
            d_shared=4,
            d_specific=4,
            samples_per_domain=80,
            unseen_samples=80,
            seed=seed,
        )
    )


# -- losses ---------------------------------------------------------------------


def test_hard_ce_uniform_logits():
    logits = T.Tensor(np.zeros((6, 4)))
    loss = hard_ce(np.arange(6) % 4, logits)
    np.testing.assert_allclose(loss.item(), math.log(4.0), atol=1e-12)


def test_hard_ce_confident_correct_near_zero():
    logits = np.zeros((3, 5))
    labels = np.array([0, 2, 4])
    logits[np.arange(3), labels] = 1e3
    assert hard_ce(labels, T.Tensor(logits)).item() < 1e-9


def test_hard_ce_hand_oracle():
    loss = hard_ce(np.array([0]), T.Tensor([[1.0, 2.0]]))
    np.testing.assert_allclose(loss.item(), math.log(1.0 + math.e), atol=1e-12)
    np.testing.assert_allclose(loss.item(), 1.3132616875182228, atol=1e-12)


def test_hard_ce_rejects_out_of_range_label():
    with pytest.raises(UsageError):
        hard_ce(np.array([2]), T.Tensor([[0.0, 0.0]]))


def test_soft_ce_equal_distributions_gives_entropy():
    logits = np.array([[0.3, -1.0, 2.0]])
    q = np.exp(logits - logits.max())
    q /= q.sum()
    entropy = -(q * np.log(q)).sum()
    loss = soft_ce(logits, T.Tensor(logits))
    np.testing.assert_allclose(loss.item(), entropy, atol=1e-12)


def test_soft_ce_one_hot_target_reduces_to_hard_ce():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    target = np.where(np.arange(3)[None, :] == labels[:, None], 1e3, 0.0)
    soft = soft_ce(target, T.Tensor(pred)).item()
    hard = hard_ce(labels, T.Tensor(pred)).item()
    assert abs(soft - hard) < 1e-9


def test_soft_ce_hand_oracle():
    loss = soft_ce(np.array([[0.0, 0.0]]), T.Tensor([[0.0, math.log(3.0)]]))
    np.testing.assert_allclose(loss.item(), 0.5 * math.log(16.0 / 3.0), atol=1e-12)
    np.testing.assert_allclose(loss.item(), 0.8369882167858358, atol=1e-12)


@pytest.mark.parametrize(
    "loss",
    [
        lambda: hard_ce(np.array([0, 1]), T.Tensor([[np.inf, 0.0], [0.0, 1.0]])),
        lambda: hard_ce(np.array([0]), T.Tensor([[np.nan, 0.0]])),
        lambda: soft_ce(np.array([[np.inf, 0.0]]), T.Tensor([[0.0, 0.0]])),
        lambda: soft_ce(np.array([[0.0, 0.0]]), T.Tensor([[0.0, -np.inf]])),
    ],
    ids=["hard_inf_logit", "hard_nan_logit", "soft_inf_target", "soft_neg_inf_logit"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_loss_input_raises(loss):
    with pytest.raises(NumericError):
        loss()


def test_soft_ce_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        soft_ce(np.zeros((2, 3)), T.Tensor(np.zeros((2, 2))))


@settings(deadline=None, max_examples=60)
@given(
    arrays(np.float64, (3, 4), elements=st.floats(-20, 20)),
    arrays(np.float64, (3, 4), elements=st.floats(-20, 20)),
)
def test_soft_ce_gibbs_inequality(target, pred):
    shifted = target - target.max(axis=1, keepdims=True)
    q = np.exp(shifted)
    q /= q.sum(axis=1, keepdims=True)
    entropy = float(np.mean(-(q * np.log(np.maximum(q, 1e-300))).sum(axis=1)))
    assert soft_ce(target, T.Tensor(pred)).item() >= entropy - 1e-9


# -- optimizer --------------------------------------------------------------------


def test_optimizer_zero_gradient_leaves_params():
    model = Mlp([2, 2], seed=0)
    before = model.store.state_copy()
    optimizer_step(model.store, np.zeros_like(model.store.flat), AdamState(), 0.1)
    for n, v in before.items():
        assert (model.store[n] == v).all()


def test_optimizer_single_step_hand_oracle():
    store = Mlp([1, 1], seed=0).store
    store["w0"][...] = 1.0
    g = 0.5
    lr = 0.1
    grad = np.zeros_like(store.flat)
    store.views(grad)["w0"][...] = g
    optimizer_step(store, grad, AdamState(), lr)
    # t=1: bias-corrected m_hat = g, v_hat = g^2, step = lr*g/(|g|+eps)
    expected = 1.0 - lr * g / (abs(g) + 1e-8)
    np.testing.assert_allclose(store["w0"], [[expected]], atol=1e-15)


def test_in_place_adam_equals_the_expression_bitwise():
    rng = np.random.default_rng(0)
    store = Mlp([6, 7, 3], seed=4).store
    state, lr = AdamState(), 1e-3
    params = store.flat.copy()
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t in range(1, 2501):
        grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=params.shape)
        optimizer_step(store, grad, state, lr)
        # The reference: the same update as one out-of-place expression.
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        params -= (
            lr * (m / (1.0 - ADAM_BETA1**t))
            / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
        )
        assert store.flat.tobytes() == params.tobytes(), t
    assert state.t == 2500
    assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()


def test_optimizer_rejects_unknown_name():
    model = Mlp([2, 2])  # 6 trainable values: a 1-value gradient names none of them
    with pytest.raises(ContractError):
        optimizer_step(model.store, np.ones(1), AdamState(), 0.1)


# -- fused steps: the tape and finite differences ----------------------------------


def _randomize(store, rng):
    for name in store.views(store.flat):
        store[name][...] = rng.normal(size=store[name].shape)


def _fused(store, forward):
    """Loss and gradient of a fused step; the gradient vector starts as NaN,
    so an entry the backward never writes shows."""
    grads = store.views(np.full_like(store.flat, np.nan))
    loss, backward = forward()
    backward(grads)
    return loss, grads


def _assert_bitwise(loss, grads, tape_loss, tape_grads):
    assert loss == tape_loss.item()
    assert grads.keys() == tape_grads.keys()
    for name, g in tape_grads.items():
        assert grads[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize(
    "sizes", [[5, 3], [5, 7, 3], [5, 6, 4, 3], [5, 4, 6, 5, 3]], ids=lambda s: f"{len(s) - 1}_layers"
)
def test_fused_erm_gradient_equals_tape_bitwise(sizes):
    rng = np.random.default_rng(len(sizes))
    model = Mlp(sizes, seed=3)
    _randomize(model.store, rng)
    x = rng.normal(size=(9, 5))
    labels = rng.integers(3, size=9)
    leaves = model.store.leaves()
    tape_loss = hard_ce(labels, model.forward(T.Tensor(x), leaves))
    tape_grads = T.backward_grads(tape_loss, leaves)
    loss, grads = _fused(model.store, lambda: erm_forward(model, x, _onehot(labels, 3)))
    _assert_bitwise(loss, grads, tape_loss, tape_grads)


@st.composite
def _onehot_logits(draw):
    n, c = draw(st.integers(1, 70)), draw(st.integers(2, 12))
    # +-700 in one row: exp underflows to 0 in the softmax
    logits = draw(
        arrays(np.float64, (n, c), elements=st.floats(-1e3, 1e3) | st.sampled_from([-700.0, 700.0]))
    )
    return _onehot(draw(arrays(np.int64, n, elements=st.integers(0, c - 1))), c), logits


@settings(deadline=None, max_examples=200)
@given(_onehot_logits())
@example((_onehot(np.array([0, 1]), 2), np.array([[700.0, -700.0], [700.0, -700.0]])))
def test_onehot_gradient_equals_the_general_cross_entropy_gradient_bitwise(case):
    q, logits = case
    lsm = T.cross_entropy_np(q, logits)[1]
    # tobytes: a signed zero that differs counts
    assert _onehot_ce_grad(q, lsm).tobytes() == T.cross_entropy_grad(1.0, q, lsm).tobytes()


def _emg_case(split, x, one_hot):
    """z and the EMG target for ``x``; with ``one_hot``, the one-hot of the
    target's argmax, since ``emg_forward`` takes any target distribution."""
    z, q = _emg_target(split, x)
    return z, _onehot(np.argmax(q, axis=1), q.shape[1]) if one_hot else q


@pytest.mark.parametrize("tau", [0.1, 0.5])
@pytest.mark.parametrize("one_hot", [False, True], ids=["soft", "hard_target"])
@pytest.mark.parametrize("base_sizes", [[5, 6, 3]], ids=["affine_predictor"])
def test_fused_emg_gradient_matches_finite_differences(base_sizes, one_hot, tau):
    rng = np.random.default_rng(7)
    base = Mlp(base_sizes, seed=2)
    _randomize(base.store, rng)
    base.store.freeze()
    split = split_model(base)
    gen = Mlp([5, 4, split.embedding_dim], prefix="g.", seed=5)
    _randomize(gen.store, rng)
    x = rng.normal(size=(10, 5))
    z, q = _emg_case(split, x, one_hot)
    cfg = MaskGenConfig(tau=tau)
    # one draw, so every evaluation sees the same noise
    noise = logistic_noise(np.random.default_rng(11), z.shape)

    def forward():
        return emg_forward(split, gen, x, z, q, cfg, noise)

    _, grads = _fused(gen.store, forward)
    assert all(np.isfinite(g).all() for g in grads.values())
    assert any((g != 0.0).any() for g in grads.values())
    assert fused_grad_error(gen.store, forward) < 1e-4


def _tape_mul(a, b):
    """Elementwise product of two equal-shape tensors on the tape."""
    out = T.Tensor(a.data * b.data, _parents=(a, b))

    def bw(g):
        T.accumulate(a, lambda: g * b.data)
        T.accumulate(b, lambda: g * a.data)

    out._backward_fn = bw
    return out


def _tape_predict(split, z):
    """The frozen predictor on the tape; its parameters enter as constants."""
    return T.linear(z, *split.predictor_affine_params())


@pytest.mark.parametrize("tau", [0.1, 0.5])
@pytest.mark.parametrize("one_hot", [False, True], ids=["soft", "hard_target"])
@pytest.mark.parametrize("base_sizes", [[5, 6, 3]], ids=["affine_predictor"])
def test_fused_emg_gradient_equals_tape_bitwise(base_sizes, one_hot, tau):
    rng = np.random.default_rng(7)
    base = Mlp(base_sizes, seed=2)
    _randomize(base.store, rng)
    base.store.freeze()
    split = split_model(base)
    gen = Mlp([5, 4, split.embedding_dim], prefix="g.", seed=5)
    _randomize(gen.store, rng)
    x = rng.normal(size=(10, 5))
    z, q = _emg_case(split, x, one_hot)
    cfg = MaskGenConfig(tau=tau)
    leaves = gen.store.leaves()
    m = training_mask(gen, x, leaves, cfg, np.random.default_rng(11))
    tape_loss = T.cross_entropy(q, _tape_predict(split, _tape_mul(m, T.Tensor(z))))
    tape_grads = T.backward_grads(tape_loss, leaves)
    loss, grads = _fused(
        gen.store, lambda: emg_forward(split, gen, x, z, q, cfg, logistic_noise(np.random.default_rng(11), z.shape))
    )
    _assert_bitwise(loss, grads, tape_loss, tape_grads)


def test_finite_differences_catch_a_wrong_relu_gradient(monkeypatch):
    rng = np.random.default_rng(0)
    model = Mlp([4, 6, 3], seed=1)
    x = rng.normal(size=(8, 4))
    q = _onehot(rng.integers(3, size=8), 3)

    def forward():
        return erm_forward(model, x, q)

    assert fused_grad_error(model.store, forward) < 1e-4
    monkeypatch.setattr("embmask.tensor.relu_grad", lambda g, x: g)
    assert fused_grad_error(model.store, forward) > 1e-4


def test_finite_differences_catch_a_wrong_mask_gradient(monkeypatch):
    rng = np.random.default_rng(0)
    base = Mlp([4, 5, 3], seed=1)
    base.store.freeze()
    split = split_model(base)
    gen = Mlp([4, 5], prefix="g.", seed=2)
    x = rng.normal(size=(8, 4))
    z, q = _emg_target(split, x)
    noise = logistic_noise(np.random.default_rng(3), z.shape)

    def forward():
        return emg_forward(split, gen, x, z, q, MaskGenConfig(tau=0.5), noise)

    assert fused_grad_error(gen.store, forward) < 1e-4
    monkeypatch.setattr("embmask.train.relaxed_mask_grad", lambda g, cache: g)
    assert fused_grad_error(gen.store, forward) > 1e-4


# -- fused steps: memory and inputs -------------------------------------------------


def _recipe_step(kind, batch):
    """One fused step at the default recipe's shapes (16 features, a 64-wide
    embedding, 5 classes; the generator's hidden layer 32 wide): ``step()``
    runs its forward and backward into a gradient allocated here, as ``_fit``
    allocates one per fit; ``inputs`` are the arrays the step reads, the EMG
    step's logistic noise among them."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(batch, 16))
    if kind == "erm":
        model = Mlp([16, 64, 5], seed=0)
        q = _onehot(rng.integers(5, size=batch), 5)
        store, inputs, forward = model.store, (x, q), lambda: erm_forward(model, x, q)
    else:
        base = Mlp([16, 64, 5], seed=0)
        base.store.freeze()
        split, gen, cfg = split_model(base), Mlp([16, 32, 64], prefix="g.", seed=1), MaskGenConfig()
        z, q = _emg_target(split, x)
        noise = logistic_noise(rng, z.shape)
        store, inputs = gen.store, (x, z, q, noise)
        forward = lambda: emg_forward(split, gen, x, z, q, cfg, noise)
    grads = store.views(np.zeros_like(store.flat))

    def step():
        forward()[1](grads)

    return step, inputs


@pytest.mark.parametrize(
    "kind, batch, budget", [("erm", 64, 4.5), ("erm", 256, 4.0), ("emg", 64, 7.0), ("emg", 256, 6.25)]
)
def test_fused_step_allocates_within_its_budget(kind, batch, budget):
    """Traced peak of one step, forward and backward, in units of one
    (batch, 64) float64 array. ERM holds the hidden layer and, in the
    backward, two gradients of its width and the relu mask, plus fixed-size
    temporaries that weigh more at batch 64 (read 4.43, and 3.88 at 256).
    EMG holds the generator's logits, the mask and its unclipped m0, and in
    the backward the predictor's gradient, its product with z and the one
    buffer ``relaxed_mask_grad`` builds the gradient in (read 6.81 and 6.23;
    11.65 and 11.60 when the mask went through clamped drop probabilities)."""
    step, _ = _recipe_step(kind, batch)
    assert traced_peak(step) / (batch * 64 * 8) <= budget


@pytest.mark.parametrize("samples", [1000, 4000])
def test_erm_fit_epoch_allocates_within_its_budget(samples):
    """Traced peak of one whole ERM ``_fit`` epoch at the default recipe, in
    units of the per-epoch gather buffers (the training rows' x and one-hot
    q): the buffers, the steps' temporaries and the validation forward over
    the held-out quarter. Read 2.23 at 2399 training rows and 2.07 at 9599.
    One epoch runs before the traced one, so nothing imported or cached on
    a first call counts."""
    train, _, _ = generate_benchmark(BenchmarkSpec(samples_per_domain=samples))
    x_tr, y_tr, x_va, y_va = pooled_split(train, VAL_FRACTION, 0)
    layers = base_layers(train, ExperimentSpec().hidden)
    model = Mlp(layers, seed=0)
    rows = (x_tr, _onehot(y_tr, layers[-1]))
    q_va = _onehot(y_va, layers[-1])
    args = (model.store, TrainConfig(max_epochs=1), rows,
            lambda x, q: erm_forward(model, x, q), lambda: erm_forward(model, x_va, q_va)[0])
    _fit(*args)
    assert traced_peak(_fit, *args) / sum(a.nbytes for a in rows) <= 2.25


@pytest.mark.parametrize("kind", ["erm", "emg"])
def test_fused_step_leaves_its_inputs_unchanged(kind):
    """The batches are slices of ``_fit``'s per-epoch buffers and
    ``train_emg`` hands the same validation noise to every epoch, so neither
    the forward nor the backward may write into x, z, q or the noise."""
    step, inputs = _recipe_step(kind, 64)
    before = [a.tobytes() for a in inputs]
    step()
    assert [a.tobytes() for a in inputs] == before


# -- data splits --------------------------------------------------------------------


def test_pooled_split_is_stratified_and_deterministic():
    train, _, _ = _small_benchmark()
    x1, y1, xv1, yv1 = pooled_split(train, 0.2, seed=3)
    x2, y2, xv2, yv2 = pooled_split(train, 0.2, seed=3)
    assert (x1 == x2).all() and (y1 == y2).all()
    assert (xv1 == xv2).all() and (yv1 == yv2).all()
    total = sum(d.n for d in train)
    assert len(x1) + len(xv1) == total
    # every class appears in the validation share
    assert set(np.unique(yv1)) == set(np.unique(np.concatenate([d.labels for d in train])))


def test_split_indices_are_integers_even_when_a_domain_holds_none_back():
    rng = np.random.default_rng(0)
    big = DomainDataset(rng.normal(size=(10, 2)), np.arange(10) % 2, 0)
    # one row per class: nothing to hold out, so this domain adds no
    # validation row
    tiny = DomainDataset(rng.normal(size=(2, 2)), np.array([0, 1]), 1)
    x_tr, y_tr, x_va, y_va = pooled_split([tiny, big], 0.2, seed=0)
    assert len(x_tr) == 2 + 8 and len(x_va) == 2
    assert set(y_va) == {0, 1}


def test_empty_pooled_validation_split_is_degenerate():
    rng = np.random.default_rng(0)
    data = [DomainDataset(rng.normal(size=(2, 2)), np.array([0, 1]), i) for i in range(3)]
    with pytest.raises(DegenerateDataError):
        pooled_split(data, 0.2, seed=0)
    with pytest.raises(DegenerateDataError):
        train_erm(TrainConfig(seed=0), data, base_layers(data, []))


def _reference_pooled_split(datasets, val_fraction, seed):
    """Per-class index lists, sorted per domain, then pooled: the split as
    first written, kept as the oracle for ``pooled_split``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    xs_tr, ys_tr, xs_va, ys_va = [], [], [], []
    for data in datasets:
        train_idx, val_idx = [], []
        for cls in np.unique(data.labels):
            idx = rng.permutation(np.flatnonzero(data.labels == cls))
            n_val = int(round(len(idx) * val_fraction))
            n_val = min(max(n_val, 1), len(idx) - 1) if len(idx) >= 2 else 0
            val_idx.extend(idx[:n_val])
            train_idx.extend(idx[n_val:])
        tr = np.sort(np.array(train_idx, dtype=np.int64))
        va = np.sort(np.array(val_idx, dtype=np.int64))
        xs_tr.append(data.features[tr])
        ys_tr.append(data.labels[tr])
        xs_va.append(data.features[va])
        ys_va.append(data.labels[va])
    if not sum(len(y) for y in ys_va):
        raise DegenerateDataError("the pooled validation split is empty")
    return tuple(np.concatenate(part) for part in (xs_tr, ys_tr, xs_va, ys_va))


@st.composite
def _split_layouts(draw):
    n_classes = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    datasets = []
    for d in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 30))
        labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
        # distinct rows, so any reordering shows in the features
        features = (np.arange(n * 2).reshape(n, 2) + 100 * d).astype(dtype)
        datasets.append(DomainDataset(features, labels, d))
    # 1e-3 rounds to 0 and 0.999 to the size for every class of <= 30 rows
    val_fraction = draw(
        st.one_of(
            st.sampled_from([1e-3, 0.5, 0.999]),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        )
    )
    return datasets, val_fraction, draw(st.integers(0, 2**32 - 1))


_ONE_ROW_CLASSES = [DomainDataset(np.eye(2), np.array([0, 1]), d) for d in range(2)]
_MIXED = [
    DomainDataset(np.eye(2), np.array([0, 1]), 0),
    DomainDataset(np.arange(14.0).reshape(7, 2), np.array([2, 0, 2, 1, 0, 2, 0]), 1),
]


@settings(deadline=None, max_examples=200)
@given(_split_layouts())
@example((_ONE_ROW_CLASSES, 0.5, 0))  # nothing to hold out: both sides raise
@example((_MIXED, 0.2, 7))  # a one-row class next to larger ones
def test_pooled_split_matches_the_per_class_index_reference(layout):
    datasets, val_fraction, seed = layout
    try:
        expected = _reference_pooled_split(datasets, val_fraction, seed)
    except DegenerateDataError:
        with pytest.raises(DegenerateDataError):
            pooled_split(datasets, val_fraction, seed)
        return
    got = pooled_split(datasets, val_fraction, seed)
    assert len(got) == 4
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# -- ERM loop ------------------------------------------------------------------------


def test_erm_fits_separable_toy(monkeypatch):
    monkeypatch.setattr(train_module, "LEARNING_RATE", 0.05)
    rng = np.random.default_rng(0)
    n = 200
    y = rng.integers(2, size=n)
    x = rng.normal(size=(n, 2)) + np.where(y[:, None] == 1, 4.0, -4.0)
    data = [DomainDataset(x, y, 0)]
    model, _ = train_erm(TrainConfig(seed=0, max_epochs=60), data, base_layers(data, []))
    preds = np.argmax(model.forward_np(x), axis=1)
    assert (preds == y).mean() >= 0.99


def test_erm_shuffled_labels_stay_at_chance():
    rng = np.random.default_rng(1)
    n, c = 300, 3
    data = [DomainDataset(rng.normal(size=(n, 6)), rng.integers(c, size=n), 0)]
    _, trace = train_erm(TrainConfig(seed=0, max_epochs=15), data, base_layers(data, []))
    assert min(trace.val_loss) >= math.log(c) - 0.05


def test_erm_deterministic_given_seed():
    train, _, _ = _small_benchmark()
    m1, t1 = train_erm(TrainConfig(seed=4, max_epochs=6), train, [8, 6, 3])
    m2, t2 = train_erm(TrainConfig(seed=4, max_epochs=6), train, [8, 6, 3])
    assert t1.train_loss == t2.train_loss and t1.val_loss == t2.val_loss
    assert m1.store.checksum() == m2.store.checksum()


def test_erm_rejects_single_class():
    x = np.random.default_rng(0).normal(size=(40, 3))
    data = [DomainDataset(x, np.zeros(40, dtype=int), 0)]
    with pytest.raises(DegenerateDataError):
        train_erm(TrainConfig(seed=0), data, base_layers(data, []))


@pytest.mark.parametrize(
    "val_losses, patience, max_epochs, epochs, selected",
    [
        ([5, 4, 4, 4.5, 4, 3, 3, 3], 3, 8, 5, 1),
        ([5, 4, 4, 4.5, 4, 3, 3, 3], 1, 8, 3, 1),
        ([5, 4, 4, 3, 3.5, 2], 3, 6, 6, 5),
    ],
    ids=["patience_3", "patience_1", "runs_to_max_epochs"],
)
def test_fit_stops_after_patience_epochs_without_a_strictly_lower_val_loss(
    monkeypatch, val_losses, patience, max_epochs, epochs, selected
):
    monkeypatch.setattr(train_module, "PATIENCE", patience)
    store = ParamStore({"w": np.zeros(3)})
    after_epoch = []

    def step(x):
        def backward(grads):
            grads["w"][...] = 1.0  # a constant gradient: every step moves w

        return 0.0, backward

    def val_loss():
        after_epoch.append(store.flat.copy())
        return float(val_losses[len(after_epoch) - 1])

    config = TrainConfig(max_epochs=max_epochs)
    trace = _fit(store, config, (np.zeros((4, 1)),), step, val_loss)
    assert len(trace.val_loss) == len(trace.train_loss) == epochs
    assert trace.val_loss == val_losses[:epochs]
    assert trace.selected_epoch == selected  # an equal loss is no improvement
    assert len({p.tobytes() for p in after_epoch}) == epochs
    assert store.flat.tobytes() == after_epoch[selected].tobytes()


# -- EMG loop -------------------------------------------------------------------------


def _trained_split(train):
    model, _ = train_erm(TrainConfig(seed=0, max_epochs=10), train, [8, 8, 3])
    model.store.freeze()
    return split_model(model)


def test_emg_requires_frozen_base():
    train, _, _ = _small_benchmark()
    model, _ = train_erm(TrainConfig(seed=0, max_epochs=4), train, [8, 8, 3])
    split = split_model(model)
    gen = Mlp([8, 4, 8], prefix="g.", seed=1)
    with pytest.raises(ContractError):
        train_emg(split, gen, train, MaskGenConfig(), TrainConfig(seed=0, max_epochs=2))


def test_emg_rejects_frozen_generator():
    train, _, _ = _small_benchmark()
    split = _trained_split(train)
    gen = Mlp([8, 4, 8], prefix="g.", seed=1)
    gen.store.freeze()
    with pytest.raises(ContractError):
        train_emg(split, gen, train, MaskGenConfig(), TrainConfig(seed=0, max_epochs=2))


def test_emg_rejects_head_width_mismatch():
    train, _, _ = _small_benchmark()
    split = _trained_split(train)
    gen = Mlp([8, 4, 5], prefix="g.", seed=1)  # head 5 != embedding 8
    with pytest.raises(ConfigError):
        train_emg(split, gen, train, MaskGenConfig(), TrainConfig(seed=0, max_epochs=2))


def test_negative_seed_rejected_before_training():
    train, _, _ = _small_benchmark()
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        train_erm(TrainConfig(seed=-1, max_epochs=2), train)


def test_emg_step_rejects_an_embedding_the_predictor_does_not_take():
    base = Mlp([5, 6, 3], seed=0)
    base.store.freeze()
    split, rng = split_model(base), np.random.default_rng(0)
    x, q = rng.normal(size=(2, 5)), np.full((2, 3), 1 / 3)
    for gen_width, z_width in ((4, 4), (6, 4)):
        gen = Mlp([5, gen_width], prefix="g.", seed=1)
        with pytest.raises(ShapeMismatchError, match="predictor input width 6"):
            emg_forward(split, gen, x, np.ones((2, z_width)), q, MaskGenConfig(), logistic_noise(rng, (2, gen_width)))


def test_emg_keeps_base_bitwise_and_improves_val_loss():
    train, _, _ = _small_benchmark()
    split = _trained_split(train)
    before = split.model.store.checksum()
    gen = Mlp([8, 4, 8], prefix="g.", seed=1)
    gen, trace = train_emg(split, gen, train, MaskGenConfig(), TrainConfig(seed=0, max_epochs=5))
    assert split.model.store.checksum() == before
    assert trace.val_loss[trace.selected_epoch] <= trace.val_loss[0]
    assert trace.selected_epoch == int(np.argmin(trace.val_loss))


def test_emg_target_is_softmax_of_predictor():
    train, _, _ = _small_benchmark()
    split = _trained_split(train)
    x = train[0].features[:12]
    logits = split.predict_np(split.encode_np(x))
    z, q = _emg_target(split, x)
    assert (z == split.encode_np(x)).all()
    np.testing.assert_allclose(q, np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True))


def test_emg_selects_on_soft_validation_loss():
    train, _, _ = _small_benchmark()
    split = _trained_split(train)
    cfg = TrainConfig(seed=3, max_epochs=3)
    gen = Mlp([8, 4, 8], prefix="g.", seed=1)
    gen, trace = train_emg(split, gen, train, MaskGenConfig(), cfg)
    _, _, x_va, _ = pooled_split(train, VAL_FRACTION, cfg.seed)
    z, q = _emg_target(split, x_va)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xA1)))
    loss = emg_forward(split, gen, x_va, z, q, MaskGenConfig(), logistic_noise(rng, z.shape))[0]
    assert trace.val_loss[trace.selected_epoch] == loss


def test_emg_draws_one_validation_block_per_fit_and_one_block_per_batch(monkeypatch):
    """The step draws nothing: ``train_emg`` draws the validation noise once,
    from its own stream, and then each batch's noise, shaped like the batch's
    z, from one stream in batch order."""
    train, _, _ = _small_benchmark()
    split = _trained_split(train)
    monkeypatch.setattr(train_module, "BATCH_SIZE", 32)
    cfg = TrainConfig(seed=3, max_epochs=3)
    x_tr, _, x_va, _ = pooled_split(train, VAL_FRACTION, cfg.seed)
    draws = []

    def recording_noise(rng, shape):
        draws.append((rng, rng.bit_generator.state, shape))
        return logistic_noise(rng, shape)

    monkeypatch.setattr("embmask.train.logistic_noise", recording_noise)
    _, trace = train_emg(split, Mlp([8, 4, 8], prefix="g.", seed=1), train, MaskGenConfig(), cfg)

    def fresh(key):
        return np.random.default_rng(np.random.SeedSequence((cfg.seed, key))).bit_generator.state

    (val_rng, val_state, val_shape), *steps = draws
    assert val_state == fresh(0xA1) and val_shape == (len(x_va), 8)
    n, bs = len(x_tr), 32
    shapes = [(min(bs, n - start), 8) for start in range(0, n, bs)] * len(trace.train_loss)
    assert [shape for _, _, shape in steps] == shapes
    batch_rng = steps[0][0]
    assert steps[0][1] == fresh(0xB2) and batch_rng is not val_rng
    assert all(rng is batch_rng for rng, _, _ in steps)


def test_emg_deterministic_given_seed():
    train, _, _ = _small_benchmark()
    split = _trained_split(train)
    sums = []
    for _ in range(2):
        gen = Mlp([8, 4, 8], prefix="g.", seed=1)
        gen, _ = train_emg(split, gen, train, MaskGenConfig(), TrainConfig(seed=2, max_epochs=3))
        sums.append(gen.store.checksum())
    assert sums[0] == sums[1]


def test_emg_refuses_a_tau_below_the_training_floor_before_any_draw(monkeypatch):
    """``MaskGenConfig`` takes tau down to ``TAU_MIN``, but training refuses
    any tau below ``TRAIN_TAU_MIN`` with ``ConfigError`` before it splits the
    rows or draws noise; at the floor itself it trains without a warning."""
    train, _, _ = _small_benchmark()
    split = _trained_split(train)
    gen = Mlp([8, 4, 8], prefix="g.", seed=1)
    before = gen.store.checksum()

    def no_draw(*args):
        raise AssertionError("drew before checking tau")

    with monkeypatch.context() as mp:
        mp.setattr("embmask.train.pooled_split", no_draw)
        mp.setattr("embmask.train.logistic_noise", no_draw)
        for tau in (TAU_MIN, np.nextafter(TRAIN_TAU_MIN, 0.0)):
            with pytest.raises(ConfigError, match="training tau must be >= 2.781e-209"):
                train_emg(split, gen, train, MaskGenConfig(tau=tau), TrainConfig(seed=0, max_epochs=1))
    assert gen.store.checksum() == before
    train_emg(split, gen, train, MaskGenConfig(tau=TRAIN_TAU_MIN), TrainConfig(seed=0, max_epochs=1))


def test_emg_raises_when_the_frozen_base_changes_during_training(monkeypatch):
    train, _, _ = _small_benchmark()
    split = _trained_split(train)

    def leaky_forward(split, *args):
        loss, backward = emg_forward(split, *args)

        def leaky_backward(grads):
            backward(grads)
            split.model.store.flat[0] += 1.0

        return loss, leaky_backward

    monkeypatch.setattr("embmask.train.emg_forward", leaky_forward)
    gen = Mlp([8, 4, 8], prefix="g.", seed=1)
    with pytest.raises(ContractError, match="frozen base model changed"):
        train_emg(split, gen, train, MaskGenConfig(), TrainConfig(seed=0, max_epochs=1))


# -- the epoch loop against the per-step index loop ----------------------------------


def _fit_reference(store, config, step, val_loss, n):
    """``_fit`` as it was before the per-epoch gather: ``step(idx)`` is the
    fused step on the training rows ``idx``, each step gathering its own.
    It reads the recipe's constants from ``embmask.train`` when called, so a
    test's monkeypatched values reach both loops."""
    bs, lr, patience = train_module.BATCH_SIZE, train_module.LEARNING_RATE, train_module.PATIENCE
    params = store.flat
    grad = np.zeros_like(params)
    grads = store.views(grad)
    state = AdamState()
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xC3)))
    trace = TrainTrace()
    best_val = np.inf
    best_params = params.copy()
    best_epoch = -1

    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, bs):
            loss, backward = step(order[start : start + bs])
            backward(grads)
            optimizer_step(store, grad, state, lr)
            epoch_losses.append(loss)

        val = val_loss()
        trace.train_loss.append(float(np.mean(epoch_losses)))
        trace.val_loss.append(val)

        if val < best_val:
            best_val = val
            best_params = params.copy()
            best_epoch = epoch
        elif epoch - best_epoch >= patience:
            break

    params[...] = best_params
    trace.selected_epoch = best_epoch
    return trace


def _per_step_index_fit(store, config, rows, step, val_loss):
    return _fit_reference(
        store, config, lambda idx: step(*[a[idx] for a in rows]), val_loss, n=len(rows[0])
    )


@pytest.mark.parametrize("stop", ["patience", "max_epochs"])
@pytest.mark.parametrize("batch", [1, 7, 64, "n+3"])
@pytest.mark.parametrize("kind", ["erm", "emg"])
def test_fit_equals_the_per_step_index_loop_bitwise(monkeypatch, kind, batch, stop):
    train, _, _ = _small_benchmark()
    split = _trained_split(train) if kind == "emg" else None  # at the default recipe
    n = len(pooled_split(train, VAL_FRACTION, 4)[0])
    bs = n + 3 if batch == "n+3" else batch  # n + 3: one oversize batch
    monkeypatch.setattr(train_module, "BATCH_SIZE", bs)
    if stop == "patience":
        monkeypatch.setattr(train_module, "LEARNING_RATE", 0.2)
        monkeypatch.setattr(train_module, "PATIENCE", 1)
        cfg = TrainConfig(max_epochs=40, seed=4)
    else:
        cfg = TrainConfig(max_epochs=3, seed=4)

    def gather_fit(store, config, rows, step, val_loss):
        assert len(rows) == (2 if kind == "erm" else 3)  # (x, q) or (x, z, q)
        before = [a.tobytes() for a in rows]
        sizes = []

        def counted(*batch):
            sizes.append(len(batch[0]))
            return step(*batch)

        trace = _fit(store, config, rows, counted, val_loss)
        assert [a.tobytes() for a in rows] == before  # the caller's rows are only read
        assert sizes == [min(bs, n - start) for start in range(0, n, bs)] * len(trace.val_loss)
        return trace

    def run(fit):
        monkeypatch.setattr("embmask.train._fit", fit)
        if kind == "erm":
            model, trace = train_erm(cfg, train, [8, 6, 3])
        else:
            gen = Mlp([8, 4, 8], prefix="g.", seed=1)
            model, trace = train_emg(split, gen, train, MaskGenConfig(), cfg)
        return model.store.checksum(), trace.train_loss, trace.val_loss, trace.selected_epoch

    got = run(gather_fit)
    assert got == run(_per_step_index_fit)
    epochs = len(got[1])
    assert epochs < cfg.max_epochs if stop == "patience" else epochs == cfg.max_epochs


def test_train_trace_csv_excludes_wall_clock(tmp_path):
    train, _, _ = _small_benchmark()
    _, trace = train_erm(TrainConfig(seed=0, max_epochs=3), train, [8, 3])
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    text = path.read_text()
    assert text.startswith("epoch,train_loss,val_loss,selected\n")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.flatnonzero(rows[:, 3]).tolist() == [trace.selected_epoch]
    assert "wall" not in text
