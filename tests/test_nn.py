"""Models, parameter store, encoder/predictor split, and serialization."""

import hashlib

import numpy as np
import pytest

from embmask import Mlp, ParamStore, load_params, save_params, split_model
from embmask import tensor as T
from embmask.errors import ContractError, CorruptFileError, ShapeMismatchError, UsageError
from embmask.train import AdamState, TrainConfig, _fit, optimizer_step

# sha256 of Mlp([4,3,2], seed=123).forward_np(linspace input), frozen at first run
GOLDEN_FORWARD_SHA = "65d07fe41994939cf434d4d8644d62e6bcf054279fd8c0e8c8457838c293cfe2"


def test_zero_weight_model_gives_zero_logits():
    model = Mlp([3, 2])
    for name in model.store.names():
        model.store.set_value(name, np.zeros_like(model.store[name]))
    out = model.forward_np(np.random.default_rng(0).normal(size=(4, 3)))
    np.testing.assert_array_equal(out, np.zeros((4, 2)))


def test_single_linear_layer_is_affine():
    model = Mlp([3, 2], seed=5)
    w, b = model.store["w0"], model.store["b0"]
    x = np.random.default_rng(1).normal(size=(6, 3))
    np.testing.assert_array_equal(model.forward_np(x), x @ w + b)


def test_forward_matches_golden_snapshot_bitwise():
    x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    out = Mlp([4, 3, 2], seed=123).forward_np(x)
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_FORWARD_SHA


def test_forward_tensor_matches_numpy_bitwise():
    model = Mlp([4, 5, 3], seed=9)
    x = np.random.default_rng(2).normal(size=(7, 4))
    out_t = model.forward(T.Tensor(x), model.store.leaves()).data
    assert (out_t == model.forward_np(x)).all()


def test_results_are_not_overwritten_by_a_later_call():
    model = Mlp([4, 5, 3], seed=9)
    split = split_model(model)
    rng = np.random.default_rng(3)
    x, z = rng.normal(size=(6, 4)), rng.normal(size=(6, 5))
    out, pred = model.forward_np(x), split.predict_np(z)
    keep = out.copy(), pred.copy()
    model.forward_np(2.0 * x)
    split.predict_np(2.0 * z)
    assert out.tobytes() == keep[0].tobytes() and pred.tobytes() == keep[1].tobytes()


def test_set_value_after_build_shows_in_the_next_forward():
    model = Mlp([4, 5, 3], seed=9)
    x = np.random.default_rng(2).normal(size=(7, 4))
    before = model.forward_np(x)
    model.store.set_value("b1", model.store["b1"] + 1.0)
    after = model.forward_np(x)
    assert not (after == before).any()
    assert (after == Mlp.from_store(model.store).forward_np(x)).all()


def test_forward_rejects_wrong_width():
    with pytest.raises(ShapeMismatchError):
        Mlp([4, 2]).forward_np(np.ones((3, 5)))
    for split in (split_model(Mlp([4, 2]), 0), split_model(Mlp([4, 6, 2]))):
        with pytest.raises(ShapeMismatchError):
            split.encode_np(np.ones((3, 5)))
        with pytest.raises(ShapeMismatchError):
            split.predict_np(np.ones((3, split.embedding_dim + 1)))


def test_bad_layer_sizes_rejected():
    with pytest.raises(UsageError):
        Mlp([4])
    with pytest.raises(UsageError):
        Mlp([4, 0, 2])


# -- ParamStore ---------------------------------------------------------------


def test_duplicate_param_name_rejected():
    store = ParamStore()
    store.add("w", np.ones(2))
    with pytest.raises(UsageError):
        store.add("w", np.ones(2))


def test_freeze_is_idempotent_and_total():
    model = Mlp([2, 2])
    assert not model.store.frozen
    model.store.freeze()
    model.store.freeze()
    assert model.store.frozen


def test_optimizer_step_rejects_frozen_params():
    model = Mlp([2, 2])
    grad = np.ones_like(model.store.flat)
    model.store.freeze()
    with pytest.raises(ContractError):
        optimizer_step(model.store, grad, AdamState(), 1e-3)


def test_trainable_values_are_views_of_flat():
    store = Mlp([3, 4, 2], seed=0).store
    before = store.state_copy()
    assert store.flat.size == sum(v.size for v in before.values())
    store.flat += 1.0
    for n, v in before.items():
        assert (store[n] == v + 1.0).all()
        assert (store.views(store.flat)[n] == store[n]).all()


def test_freeze_keeps_flat_bound_and_blocks_training():
    store = Mlp([3, 4, 2], seed=0).store
    flat = store.flat
    before = store.checksum()
    store.freeze()
    assert store.flat is flat and store.checksum() == before
    for name in store.names():
        assert np.shares_memory(store[name], flat)
    with pytest.raises(ContractError):
        optimizer_step(store, np.zeros_like(flat), AdamState(), 1e-3)
    with pytest.raises(ContractError):
        _fit(store, TrainConfig(), step=None, val_loss=None, n=1)
    assert store.checksum() == before


def test_checksum_tracks_values():
    model = Mlp([2, 2], seed=3)
    before = model.store.checksum()
    assert before == model.store.checksum()
    model.store.set_value("b0", np.array([1.0, 0.0]))
    assert model.store.checksum() != before


# -- split --------------------------------------------------------------------


def test_split_three_layer_at_two_has_affine_predictor():
    model = Mlp([4, 5, 6, 2], seed=0)
    split = split_model(model, 2)
    assert split.predictor_is_affine
    assert split.embedding_dim == 6


def test_default_split_keeps_last_layer_as_predictor():
    split = split_model(Mlp([4, 5, 2], seed=0))
    assert split.split_index == 1
    assert split.predictor_is_affine


def test_split_composition_identity_exact():
    model = Mlp([4, 6, 6, 3], seed=11)
    x = np.random.default_rng(4).normal(size=(100, 4))
    full = model.forward_np(x)
    for idx in range(model.n_layers):
        split = split_model(model, idx)
        assert (split.predict_np(split.encode_np(x)) == full).all()


def test_split_zero_is_identity_encoder():
    model = Mlp([4, 3], seed=2)
    split = split_model(model, 0)
    x = np.random.default_rng(5).normal(size=(8, 4))
    assert (split.encode_np(x) == x).all()


def test_split_out_of_range_rejected():
    model = Mlp([4, 3, 2])
    with pytest.raises(UsageError):
        split_model(model, 2)
    with pytest.raises(UsageError):
        split_model(model, -1)


def test_affine_params_only_for_single_layer_predictor():
    model = Mlp([4, 5, 3, 2], seed=0)
    with pytest.raises(ContractError):
        split_model(model, 1).predictor_affine_params()
    w, b = split_model(model, 2).predictor_affine_params()
    assert w.shape == (3, 2) and b.shape == (2,)


# -- serialization --------------------------------------------------------------


def test_save_load_round_trip_bitwise(tmp_path):
    model = Mlp([3, 4, 2], seed=7)
    model.store.freeze()
    path = str(tmp_path / "model")
    save_params(model.store, path)
    loaded = load_params(path)
    assert loaded.names() == model.store.names()
    assert loaded.frozen
    for name in model.store.names():
        assert (loaded[name] == model.store[name]).all()
    # save -> load -> save reproduces identical bytes
    save_params(loaded, str(tmp_path / "again"))
    for suffix in (".manifest", ".params"):
        a = (tmp_path / ("model" + suffix)).read_bytes()
        b = (tmp_path / ("again" + suffix)).read_bytes()
        assert a == b


def test_save_empty_store(tmp_path):
    path = str(tmp_path / "empty")
    save_params(ParamStore(), path)
    assert (tmp_path / "empty.params").read_bytes() == b""
    assert load_params(path).names() == []


def test_truncated_payload_raises(tmp_path):
    model = Mlp([3, 2], seed=1)
    path = str(tmp_path / "model")
    save_params(model.store, path)
    payload = (tmp_path / "model.params").read_bytes()
    (tmp_path / "model.params").write_bytes(payload[:-8])
    with pytest.raises(CorruptFileError):
        load_params(path)


@pytest.mark.parametrize(
    "old, new",
    [
        (" offset=0 ", " "),  # field missing
        ("offset=0", "offset=zero"),  # non-integer field
        ("shape=3x2", "shape=3xq"),
        ("shape=3x2", "shape=3x2 stray"),  # token without '='
        ("shape=3x2", "shape=-3x-2"),
        ("count=2", "count=two"),
        ("name=w0 shape=3x2 offset=0", "name=w0 shape=3x2 offset=16"),  # w0's last row is b0
        ("name=b0", "name=w0"),
        ("trainable=1", "trainable=0"),  # the one-flag store cannot hold both
    ],
    ids=[
        "missing-field",
        "non-integer",
        "bad-shape",
        "token-without-equals",
        "negative-dims",
        "bad-count",
        "not-end-to-end",
        "duplicate-name",
        "mixed-trainable-flags",
    ],
)
def test_malformed_manifest_raises_corrupt_file(tmp_path, old, new):
    path = str(tmp_path / "model")
    save_params(Mlp([3, 2], seed=1).store, path)
    manifest = tmp_path / "model.manifest"
    text = manifest.read_text()
    assert old in text
    manifest.write_text(text.replace(old, new, 1))
    with pytest.raises(CorruptFileError):
        load_params(path)


def test_trainable_store_loads_trainable(tmp_path):
    path = str(tmp_path / "model")
    save_params(Mlp([3, 2], seed=1).store, path)
    assert not load_params(path).frozen


def test_missing_files_raise(tmp_path):
    with pytest.raises(CorruptFileError):
        load_params(str(tmp_path / "nothing"))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_raises(tmp_path, value):
    path = str(tmp_path / "model")
    store = Mlp([3, 4, 2], seed=1).store
    store["w1"][2, 1] = value
    save_params(store, path)
    with pytest.raises(CorruptFileError):
        load_params(path)


def _store(**shapes):
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, np.ones(shape))
    return store


@pytest.mark.parametrize(
    "shapes",
    [
        {"w0": (3, 64), "b0": (64,), "w1": (32, 2), "b1": (2,)},  # fan-in 32 after width 64
        {"w0": (3, 4), "w1": (4, 2), "b1": (2,)},  # b0 missing
        {"w0": (3, 4), "b0": (3,)},  # b0 not shaped (fan_out,)
        {"w0": (12,), "b0": (4,)},  # w0 not a matrix
    ],
    ids=["fan-in", "missing-bias", "bias-width", "weight-rank"],
)
def test_layers_that_do_not_chain_raise(shapes):
    with pytest.raises(CorruptFileError):
        Mlp.from_store(_store(**shapes))
