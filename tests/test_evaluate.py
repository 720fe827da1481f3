"""Accuracy, bound diagnostics, exports, and multi-seed aggregation."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embmask import DomainDataset, MaskGenConfig, Mlp, accuracy, aggregate_runs, bound_terms, split_model
from embmask.baseline import permutation_importance
from embmask.errors import ContractError, ShapeMismatchError, UsageError
from embmask.evaluate import (
    ROW_BLOCK,
    BoundReport,
    emg_masks,
    export_embeddings,
    export_masks,
    global_mask_accuracies,
)
from embmask.mask import _BLOCK, drop_probabilities, inference_mask, sigmoid_np
from embmask.nn import SplitModel
from embmask.synthbench import Oracle, save_csv_dataset


def _affine_split(w, b):
    model = Mlp([w.shape[0], w.shape[1]], seed=0)
    model.store["w0"][...] = w
    model.store["b0"][...] = b
    return split_model(model)


def _oracle(shared, specific):
    return Oracle(shared_dims=list(shared), specific_dims=list(specific))


def _reference_accuracy(split, z, labels, m=None):
    """The per-mask definition: embeddings ``z`` (masked by ``m`` unless None) predicted in full."""
    return float(np.mean(np.argmax(split.predict_np(z if m is None else z * m), axis=1) == labels))


def test_accuracy_label_revealing_logits():
    rng = np.random.default_rng(0)
    labels = rng.integers(3, size=30)
    x = np.eye(3)[labels]  # identity predictor reads the label off directly
    split = _affine_split(np.eye(3), np.zeros(3))
    assert accuracy(split, DomainDataset(x, labels, 0)) == 1.0


def test_accuracy_constant_predictor_is_chance_level():
    rng = np.random.default_rng(1)
    n, c = 2000, 4
    labels = rng.integers(c, size=n)
    split = _affine_split(np.zeros((3, c)), np.array([9.0, 0.0, 0.0, 0.0]))
    acc = accuracy(split, DomainDataset(rng.normal(size=(n, 3)), labels, 0))
    assert abs(acc - 1.0 / c) <= 3.0 * np.sqrt((1 / c) * (1 - 1 / c) / n)


def test_accuracy_all_ones_mask_identical_to_none():
    rng = np.random.default_rng(2)
    split = _affine_split(rng.normal(size=(4, 3)), rng.normal(size=3))
    data = DomainDataset(rng.normal(size=(50, 4)), rng.integers(3, size=50), 0)
    assert accuracy(split, data) == accuracy(split, data, np.ones(4)) == accuracy(split, data, np.ones((50, 4)))


def test_global_mask_equals_its_broadcast_bitwise():
    rng = np.random.default_rng(11)
    split = split_model(Mlp([5, 6, 3], seed=3))
    data = DomainDataset(rng.normal(size=(200, 5)), rng.integers(3, size=200), 0)
    mask = rng.uniform(size=6)
    z = split.encode_np(data.features)
    per_sample = np.broadcast_to(mask, z.shape).copy()
    assert accuracy(split, data, mask) == accuracy(split, data, per_sample)
    assert accuracy(split, data, mask) == _reference_accuracy(split, z, data.labels, per_sample)


_SPECIAL = [-0.0, 0.0, 1.0, -2.5, 3e-310, 1e300, -1e300, np.inf, -np.inf, np.nan]


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_global_binary_mask_on_affine_split_equals_its_broadcast(seed):
    """A global 0/1 mask scaled into the encoded embedding in place predicts
    every row as the masked copy does, signed zeros, infinities, NaN and
    1e300 included."""
    gen = np.random.default_rng(seed)
    n, d, c = gen.integers(1, 12), gen.integers(1, 5), gen.integers(2, 4)
    z = gen.choice(_SPECIAL, size=(n, d))
    split = _affine_split(gen.choice([-1.0, 0.0, 0.5, 2.0, 1e10], size=(d, c)), gen.choice([0.0, -0.0, 1.0], size=c))
    mask = gen.choice([0.0, 1.0], size=d)
    with np.errstate(invalid="ignore", over="ignore"):
        preds = np.argmax(split.predict_np(z * mask), axis=1)
        # Labels equal to the masked copy's predictions pin each row's argmax.
        assert accuracy(split, DomainDataset(z, preds, 0), mask) == 1.0
        labels = gen.integers(c, size=n)
        per_sample = np.broadcast_to(mask, z.shape).copy()
        assert accuracy(split, DomainDataset(z, labels, 0), mask) == _reference_accuracy(split, z, labels, per_sample)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 511, 512, 513, 1025]),
    st.sampled_from([1, 18]),
    st.booleans(),
)
# inf + fma(-1e300, 1e10, .) is inf where a gemv leftover column without FMA
# gives NaN: one row alone, and a lone last row of the blocks.
@example(seed=59, n=1, g=18, fortran=False)
@example(seed=3149, n=1025, g=18, fortran=False)
def test_global_mask_accuracies_equal_each_broadcast_copy(seed, n, g, fortran):
    """Across the row-block edges, each mask of the stack scores every row
    as its broadcast copy predicted in full does, on the stacked product of
    a C-ordered embedding and on the per-mask fallback of a Fortran-ordered
    one."""
    gen = np.random.default_rng(seed)
    d, c = gen.integers(1, 5), gen.integers(2, 6)
    z = gen.choice(_SPECIAL, size=(n, d))
    if fortran:
        z = np.asfortranarray(z)
    split = _affine_split(gen.choice([-1.0, 0.0, 0.5, 2.0, 1e10], size=(d, c)), gen.choice([0.0, -0.0, 1.0], size=c))
    masks = gen.choice([0.0, 1.0], size=(g, d))
    with np.errstate(invalid="ignore", over="ignore"):
        preds = [np.argmax(split.predict_np(z * m), axis=1) for m in masks]
        for j, labels in enumerate(preds + [gen.integers(c, size=n)]):
            expected = [_reference_accuracy(split, z, labels, np.broadcast_to(m, z.shape)) for m in masks]
            scored = global_mask_accuracies(split, z, labels, masks)
            assert scored == expected
            # Labels equal to mask j's predictions pin each of its rows' argmax.
            assert j == g or scored[j] == 1.0


@pytest.mark.parametrize("n", [4000, 12000])
def test_stacked_product_equals_the_per_mask_products_at_the_benchmark_shape(n):
    """The stacked scoring is bitwise only where BLAS computes every logit as
    the same k-ordered chain whatever the product's other sizes are; pin it
    for the benchmark's 64-wide embedding, 5 classes and 18 masks."""
    rng = np.random.default_rng(n)
    z, w = rng.normal(size=(n, 64)), rng.normal(size=(64, 5))
    masks = rng.choice([0.0, 1.0], size=(18, 64))
    wide = (masks[:, :, None] * w).transpose(1, 0, 2).reshape(64, 90)
    stacked = np.concatenate([z[lo:lo + ROW_BLOCK] @ wide for lo in range(0, n, ROW_BLOCK)])
    for j, m in enumerate(masks):
        assert stacked[:, 5 * j:5 * j + 5].tobytes() == (z @ (m[:, None] * w)).tobytes()


@pytest.mark.parametrize("layers", [[4, 3], [4, 5, 3]], ids=["affine", "two_layer"])
def test_global_mask_accuracies_predict_only_on_the_fallback(layers, monkeypatch):
    rng = np.random.default_rng(4)
    split = split_model(Mlp(layers, seed=2))
    d = split.embedding_dim
    z, labels = rng.normal(size=(600, d)), rng.integers(3, size=600)
    calls = []
    predict = SplitModel.predict_np

    def counted(self, x):
        calls.append(len(x))
        return predict(self, x)

    monkeypatch.setattr(SplitModel, "predict_np", counted)
    masks = rng.choice([0.0, 1.0], size=(5, d))
    assert len(global_mask_accuracies(split, z, labels, masks)) == 5
    assert global_mask_accuracies(split, z, labels, np.ones((0, d))) == []
    assert calls == []
    # Masks other than 0/1 take the per-mask fallback.
    assert len(global_mask_accuracies(split, z, labels, 0.5 * masks)) == 5
    assert calls == [600] * 5


def test_global_mask_accuracies_reject_what_accuracy_rejects():
    split = _affine_split(np.ones((3, 2)), np.zeros(2))
    z, labels, masks = np.ones((4, 3)), np.zeros(4, dtype=int), np.ones((2, 3))
    with pytest.raises(UsageError, match="empty"):
        global_mask_accuracies(split, z[:0], labels[:0], masks)
    for bad in (np.zeros(3, dtype=int), np.zeros((4, 1), dtype=int)):
        with pytest.raises(ShapeMismatchError, match="labels shape"):
            global_mask_accuracies(split, z, bad, masks)
    for bad in (np.ones(3), np.ones((2, 2)), np.ones((1, 2, 3))):
        with pytest.raises(ShapeMismatchError, match=re.escape(f"masks shape {bad.shape}")):
            global_mask_accuracies(split, z, labels, bad)
    with pytest.raises(ShapeMismatchError, match="embedding width 2 != predictor input width 3"):
        global_mask_accuracies(split, z[:, :2], labels, np.ones((0, 2)))


def test_global_mask_keeps_the_width_check():
    split = _affine_split(np.ones((3, 2)), np.zeros(2))
    data = DomainDataset(np.ones((4, 2)), np.zeros(4, dtype=int), 0)
    with pytest.raises(ShapeMismatchError, match="input width 2 != model input dim 3"):
        accuracy(split, data, np.ones(2))


def test_mask_identity_zero_select_and_shape_mismatch(tmp_path):
    # A one-layer model has an identity encoder: the embedding is the input itself.
    split = _affine_split(np.eye(2), np.array([0.0, 0.5]))
    z = np.array([[3.0, 7.0], [2.0, -1.0]])
    labels = np.array([1, 0])
    data = DomainDataset(z, labels, 0)
    path = tmp_path / "emb.csv"
    for mask, acc, row in (
        (np.ones(2), 1.0, ["3", "7"]),
        (np.zeros(2), 0.5, ["0", "0"]),
        (np.array([1.0, 0.0]), 0.5, ["3", "0"]),
        (np.array([[0.0, 1.0], [1.0, 1.0]]), 1.0, ["0", "7"]),
    ):
        assert accuracy(split, data, mask) == acc  # masks an embedding of its own, not data's
        export_embeddings(split, data, str(path), mask)
        assert path.read_text().splitlines()[1].split(",")[3:] == row
    assert accuracy(split, data) == 1.0
    assert data.features is z and (z == [[3.0, 7.0], [2.0, -1.0]]).all()
    # Neither (d,) nor z's shape, though NumPy would broadcast the last four.
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)), np.ones(()), np.ones((1, 1))):
        message = re.escape(f"masks shape {bad.shape}") + r".*\(2, 2\)"
        with pytest.raises(ShapeMismatchError, match=message):
            accuracy(split, data, bad)
        with pytest.raises(ShapeMismatchError, match=message):
            export_embeddings(split, data, str(path), bad)


def test_accuracy_empty_data_rejected():
    split = _affine_split(np.ones((2, 2)), np.zeros(2))
    empty = DomainDataset(np.ones((0, 2)), np.zeros(0, dtype=int), 0)
    for mask in (None, np.ones(2), np.ones((0, 2))):
        with pytest.raises(UsageError):
            accuracy(split, empty, mask)


@pytest.mark.parametrize("shape", [(1,), (50, 1), (49,)], ids=["one", "column", "short"])
def test_accuracy_rejects_labels_not_one_per_row(shape):
    """A length-1 or (n, 1) label array would broadcast against the n
    predictions and score something meaningless."""
    split = _affine_split(np.ones((4, 2)), np.zeros(2))
    x = np.random.default_rng(0).normal(size=(50, 4))
    with pytest.raises(ShapeMismatchError, match="labels shape"):
        accuracy(split, DomainDataset(x, np.zeros(shape, dtype=int), 0))


def test_accuracy_sample_order_invariant():
    rng = np.random.default_rng(3)
    split = _affine_split(rng.normal(size=(3, 2)), rng.normal(size=2))
    x = rng.normal(size=(40, 3))
    y = rng.integers(2, size=40)
    perm = rng.permutation(40)
    assert accuracy(split, DomainDataset(x, y, 0)) == accuracy(split, DomainDataset(x[perm], y[perm], 0))


# -- bound diagnostics ------------------------------------------------------------


def _rowdist(a, b, kind):
    if kind == "L2":
        return np.linalg.norm(a - b, axis=1)
    if kind == "L1":
        return np.abs(a - b).sum(axis=1)


def _bound_terms_reference(split, oracle, z, masks, kind):
    """``bound_terms`` as it was with a ``distance_kind`` parameter, less its
    input checks: one report per call, the ge pair as ``z @ w + b``."""
    w, b = split.predictor_affine_params()
    z = np.asarray(z, dtype=np.float64)
    masks = np.asarray(masks, dtype=np.float64)
    sh = np.zeros_like(z)
    sh[:, oracle.shared_dims] = z[:, oracle.shared_dims]
    sp = np.zeros_like(z)
    sp[:, oracle.specific_dims] = z[:, oracle.specific_dims]

    ge = _rowdist(z @ w + b, (masks * z) @ w + b, kind)
    t_sh = _rowdist(sh @ w, (masks * sh) @ w, kind)
    t_sp = _rowdist(sp @ w, (masks * sp) @ w, kind)
    violations = int(np.sum(ge > t_sh + t_sp + 1e-9))
    return BoundReport(
        distance_kind=kind,
        ge=float(ge.mean()),
        term_sh=float(t_sh.mean()),
        term_sp=float(t_sp.mean()),
        violation_count=violations,
        n=len(z),
    )


def test_bound_all_ones_mask_is_zero():
    rng = np.random.default_rng(4)
    split = _affine_split(rng.normal(size=(6, 3)), rng.normal(size=3))
    z = rng.normal(size=(20, 6))
    reports = bound_terms(split, _oracle(range(3), range(3, 6)), z, np.ones_like(z))
    assert list(reports) == ["L2", "L1"]
    for kind, report in reports.items():
        assert report.distance_kind == kind
        assert report.ge == 0.0 and report.term_sh == 0.0 and report.term_sp == 0.0
        assert report.violation_count == 0


@pytest.mark.parametrize("kind", ["L2", "L1"])
def test_bound_holds_on_random_instances(kind):
    rng = np.random.default_rng(5)
    oracle = _oracle(range(3), range(3, 6))
    for _ in range(50):
        split = _affine_split(rng.normal(size=(6, 4)), rng.normal(size=4))
        z = rng.normal(size=(10, 6))
        masks = rng.uniform(size=(10, 6))
        report = bound_terms(split, oracle, z, masks)[kind]
        assert report.distance_kind == kind
        assert report.violation_count == 0


def test_bound_reports_equal_the_per_kind_reference():
    """Both reports of one call equal, field for field, those of the old
    one-distance-per-call computation, on seeded random affine splits whose
    masks hold exact 0s and 1s."""
    rng = np.random.default_rng(9)
    for _ in range(200):
        d, c, n = int(rng.integers(2, 9)), int(rng.integers(2, 6)), int(rng.integers(1, 40))
        perm = rng.permutation(d)
        k = int(rng.integers(1, d))
        oracle = _oracle(sorted(perm[:k].tolist()), sorted(perm[k:].tolist()))
        split = _affine_split(rng.normal(scale=2.0, size=(d, c)), rng.normal(size=c))
        z = rng.normal(scale=3.0, size=(n, d))
        masks = rng.uniform(size=(n, d))
        masks[rng.uniform(size=(n, d)) < 0.25] = 0.0
        masks[rng.uniform(size=(n, d)) < 0.25] = 1.0
        reports = bound_terms(split, oracle, z, masks)
        for kind in ("L2", "L1"):
            assert reports[kind] == _bound_terms_reference(split, oracle, z, masks, kind)


def test_bound_rejects_oracle_dims_outside_the_embedding():
    rng = np.random.default_rng(6)
    split = _affine_split(rng.normal(size=(4, 2)), rng.normal(size=2))
    for shared, specific in (([0, 1], [2, 4]), ([99], [0])):
        with pytest.raises(ContractError):
            bound_terms(split, _oracle(shared, specific), np.ones((2, 4)), np.ones((2, 4)))


def test_bound_rejects_bad_shapes_or_empty_data():
    rng = np.random.default_rng(7)
    split = _affine_split(rng.normal(size=(4, 2)), rng.normal(size=2))
    oracle = _oracle(range(2), range(2, 4))
    with pytest.raises(ShapeMismatchError):
        bound_terms(split, oracle, np.ones((2, 4)), np.ones((3, 4)))
    with pytest.raises(UsageError):
        bound_terms(split, oracle, np.ones((0, 4)), np.ones((0, 4)))
    z = np.ones((5, 4))
    with pytest.raises(ShapeMismatchError, match=r"embedding width 4 != predictor input width 3"):
        bound_terms(split_model(Mlp([4, 3, 2])), oracle, z, np.ones_like(z))
    # A mask shaped like a z that is not 2-D passes the mask check; z's own check refuses it.
    for z in (np.ones(4), np.ones((2, 4, 1))):
        with pytest.raises(ShapeMismatchError, match=re.escape(f"embedding batch of shape {z.shape} is not 2-D")):
            bound_terms(split, oracle, z, np.ones_like(z))


@pytest.mark.parametrize("mask_shape", [(3, 4), (2, 5), (4,), (2, 4, 1)])
def test_bound_rejects_a_mask_not_shaped_like_z_as_shape_mismatch(mask_shape):
    """The error class of accuracy and export_embeddings for the same
    kind of input; a global (d,) mask is no exception here."""
    rng = np.random.default_rng(7)
    split = _affine_split(rng.normal(size=(4, 2)), rng.normal(size=2))
    with pytest.raises(ShapeMismatchError, match=r"masks shape"):
        bound_terms(split, _oracle(range(2), range(2, 4)), np.ones((2, 4)), np.ones(mask_shape))


# -- the batch contract ----------------------------------------------------------------

_BASE = Mlp([3, 4, 2], seed=3)  # inputs x are 3 wide, embeddings z 4 wide
_GENERATOR = Mlp([3, 5, 4], prefix="g.", seed=4)
_SPLIT = split_model(_BASE)


def _labels(a):
    """Labels for the rows of ``a``: a list for a list, so a nested batch comes with list labels."""
    labels = np.arange(len(a)) % 2
    return labels.tolist() if isinstance(a, list) else labels


# Each entry point that takes a batch: (the batch's width, a call on the batch).
_BATCH_ENTRY_POINTS = {
    "forward_train": (3, lambda x: _BASE.forward_train(x)),
    "forward_np": (3, lambda x: _BASE.forward_np(x)),
    "encode_np": (3, lambda x: _SPLIT.encode_np(x)),
    "predict_np": (4, lambda z: _SPLIT.predict_np(z)),
    "accuracy": (3, lambda x: accuracy(_SPLIT, DomainDataset(x, _labels(x), 0))),
    "global_mask_accuracies": (
        4, lambda z: global_mask_accuracies(_SPLIT, z, _labels(z), np.array([[1.0, 0, 1, 1], [0, 1, 1, 0]]))
    ),
    "permutation_importance": (4, lambda z: permutation_importance(_SPLIT, z, _labels(z))),
    "bound_terms": (4, lambda z: bound_terms(_SPLIT, _oracle([0, 1], [2, 3]), z, np.full(np.shape(z), 0.5))),
    "emg_masks": (3, lambda x: emg_masks(_GENERATOR, x, MaskGenConfig())),
    "drop_probabilities": (3, lambda x: drop_probabilities(_GENERATOR, x)),
}


@pytest.mark.parametrize("entry", list(_BATCH_ENTRY_POINTS))
@pytest.mark.parametrize("case", ["1-D", "3-D", "wrong_width"])
def test_every_batch_entry_point_rejects_a_batch_that_is_not_n_by_width(entry, case):
    """x is (n, input width) and z is (n, embedding_dim), checked by
    ``nn.as_batch``; a 3-D batch is as wide as it should be in its axis 1."""
    width, call = _BATCH_ENTRY_POINTS[entry]
    batch = {"1-D": np.ones(width), "3-D": np.ones((2, width, 2)), "wrong_width": np.ones((2, width + 1))}[case]
    with pytest.raises(ShapeMismatchError):
        call(batch)


@pytest.mark.parametrize("entry", list(_BATCH_ENTRY_POINTS))
def test_every_batch_entry_point_takes_a_nested_list_as_its_array(entry):
    width, call = _BATCH_ENTRY_POINTS[entry]
    batch = np.random.default_rng(5).normal(size=(6, width))
    np.testing.assert_equal(call(batch.tolist()), call(batch))


# -- exports ------------------------------------------------------------------------


def test_export_embeddings_rows_and_zero_mask(tmp_path):
    rng = np.random.default_rng(8)
    split = _affine_split(rng.normal(size=(3, 2)), rng.normal(size=2))
    data = DomainDataset(rng.normal(size=(7, 3)), rng.integers(2, size=7), 4)
    path = tmp_path / "emb.csv"
    export_embeddings(split, data, str(path), masks=np.zeros(3))
    lines = path.read_text().splitlines()
    assert len(lines) == 8
    assert lines[0] == "id,label,domain,e0,e1,e2"
    for line in lines[1:]:
        assert line.split(",")[3:] == ["0", "0", "0"]


def test_export_embeddings_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(9)
    split = _affine_split(rng.normal(size=(3, 2)), rng.normal(size=2))
    data = DomainDataset(rng.normal(size=(5, 3)), rng.integers(2, size=5), 0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_embeddings(split, data, str(a))
    export_embeddings(split, data, str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("mode", ["noise_free", "expected", "sample_avg"])
def test_emg_masks_equal_the_mask_of_a_separate_p_bitwise(mode):
    """The blocked in-place sigmoid and the mask written over p give the
    bits of the out-of-place chain, over several ragged blocks."""
    gen = Mlp([3, 5, 64], prefix="g.", seed=4)
    x = np.random.default_rng(6).normal(scale=4.0, size=(2 * _BLOCK // 64 + 3, 3))
    cfg = MaskGenConfig(tau=0.1, inference_mode=mode)
    p = sigmoid_np(gen.forward_np(x))
    assert drop_probabilities(gen, x).tobytes() == p.tobytes()
    assert emg_masks(gen, x, cfg, 7).tobytes() == inference_mask(p, cfg, 7).tobytes()


@pytest.mark.parametrize("shape", [(3,), (2, 3, 2), ()], ids=["1-D", "3-D", "0-D"])
def test_export_masks_rejects_a_mask_batch_that_is_not_2d(tmp_path, shape):
    path = tmp_path / "masks.csv"
    with pytest.raises(ShapeMismatchError, match=re.escape(f"mask batch of shape {shape} is not 2-D")):
        export_masks(np.ones(shape), str(path))
    assert not path.exists()


def test_export_masks_takes_a_nested_list_as_its_array(tmp_path):
    masks = np.random.default_rng(10).uniform(size=(4, 3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_masks(masks, str(a))
    export_masks(masks.tolist(), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_export_masks_layout(tmp_path):
    masks = np.random.default_rng(10).uniform(size=(4, 3))
    path = tmp_path / "masks.csv"
    export_masks(masks, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "id,m0,m1,m2"
    assert len(lines) == 5


def test_per_sample_csv_bytes(tmp_path):
    """The exact bytes of the three per-sample CSVs: CRLF after the header
    and every row, integer id/label/domain columns, 17 significant digits,
    a masked -0.0 written as 0, and a header-only file for zero rows."""
    split = _affine_split(np.eye(2), np.zeros(2))  # identity encoder: z = x
    data = DomainDataset(np.array([[0.1, -2.5], [1 / 3, 1e-20]]), np.array([1, 0]), 7)
    masks = np.array([[1.0, 0.0], [0.0, 0.7]])
    empty = DomainDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 7)

    def written(write, *args):
        path = tmp_path / "out.csv"
        write(*args, str(path))
        return path.read_bytes()

    assert written(save_csv_dataset, data) == (
        b"f0,f1,label,domain\r\n"
        b"0.10000000000000001,-2.5,1,7\r\n"
        b"0.33333333333333331,9.9999999999999995e-21,0,7\r\n"
    )
    assert written(lambda path: export_embeddings(split, data, path, masks)) == (
        b"id,label,domain,e0,e1\r\n"
        b"0,1,7,0.10000000000000001,0\r\n"
        b"1,0,7,0,6.9999999999999992e-21\r\n"
    )
    assert written(export_masks, masks) == b"id,m0,m1\r\n0,1,0\r\n1,0,0.69999999999999996\r\n"
    assert written(save_csv_dataset, empty) == b"f0,f1,label,domain\r\n"
    assert written(lambda path: export_embeddings(split, empty, path)) == b"id,label,domain,e0,e1\r\n"
    assert written(export_masks, np.zeros((0, 2))) == b"id,m0,m1\r\n"


# -- aggregation -----------------------------------------------------------------------


def test_aggregate_single_run():
    mean, stderr = aggregate_runs([{"unseen": 0.7}])
    assert mean["unseen"] == 0.7
    assert stderr["unseen"] == 0.0


def test_aggregate_two_runs_hand_oracle():
    mean, stderr = aggregate_runs([{"unseen": 0.8}, {"unseen": 0.9}])
    np.testing.assert_allclose(mean["unseen"], 0.85, atol=1e-15)
    np.testing.assert_allclose(stderr["unseen"], 0.05, atol=1e-12)


def test_aggregate_identical_runs_zero_stderr():
    _mean, stderr = aggregate_runs([{"a": 0.5}] * 4)
    assert stderr["a"] == 0.0


def test_aggregate_mismatched_domains_rejected():
    with pytest.raises(UsageError, match=re.escape("different keys: ['a', 'c'] are not in both")):
        aggregate_runs([{"a": 0.5, "b": 0.5}, {"b": 0.5, "c": 0.5}])
    with pytest.raises(UsageError):
        aggregate_runs([])
