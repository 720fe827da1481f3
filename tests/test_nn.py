"""Models, parameter store, encoder/predictor split, and serialization."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from embmask import Mlp, load_params, save_params, split_model
from embmask import tensor as T
from embmask.errors import ContractError, CorruptFileError, ShapeMismatchError, UsageError
from embmask.train import AdamState, TrainConfig, _fit, optimizer_step

# sha256 of Mlp([4,3,2], seed=123).forward_np(linspace input), frozen at first run
GOLDEN_FORWARD_SHA = "65d07fe41994939cf434d4d8644d62e6bcf054279fd8c0e8c8457838c293cfe2"


def test_zero_weight_model_gives_zero_logits():
    model = Mlp([3, 2])
    for name in model.store.views(model.store.flat):
        model.store[name][...] = 0.0
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


def test_set_value_after_build_shows_in_the_next_forward(tmp_path):
    model = Mlp([4, 5, 3], seed=9)
    x = np.random.default_rng(2).normal(size=(7, 4))
    before = model.forward_np(x)
    model.store["b1"][...] += 1.0
    after = model.forward_np(x)
    assert not (after == before).any()
    save_params(model, str(tmp_path / "model"))
    assert (after == load_params(str(tmp_path / "model")).forward_np(x)).all()


def test_forward_rejects_wrong_width():
    with pytest.raises(ShapeMismatchError):
        Mlp([4, 2]).forward_np(np.ones((3, 5)))
    for split in (split_model(Mlp([4, 2])), split_model(Mlp([4, 6, 2]))):
        with pytest.raises(ShapeMismatchError):
            split.encode_np(np.ones((3, 5)))
        wide = split.embedding_dim + 1
        with pytest.raises(ShapeMismatchError, match=f"embedding width {wide} != predictor input width {wide - 1}"):
            split.predict_np(np.ones((3, wide)))


def test_bad_layer_sizes_rejected():
    with pytest.raises(UsageError):
        Mlp([4])
    with pytest.raises(UsageError):
        Mlp([4, 0, 2])


# -- ParamStore ---------------------------------------------------------------


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
    for name in store.views(store.flat):
        assert np.shares_memory(store[name], flat)
    with pytest.raises(ContractError):
        optimizer_step(store, np.zeros_like(flat), AdamState(), 1e-3)
    with pytest.raises(ContractError):
        _fit(store, TrainConfig(), (np.zeros((1, 1)),), step=None, val_loss=None)
    assert store.checksum() == before


def test_checksum_tracks_values():
    model = Mlp([2, 2], seed=3)
    before = model.store.checksum()
    assert before == model.store.checksum()
    model.store["b0"][...] = [1.0, 0.0]
    assert model.store.checksum() != before


# -- split --------------------------------------------------------------------


def test_split_three_layer_at_two_has_affine_predictor():
    model = Mlp([4, 5, 6, 2], seed=0)
    split = split_model(model)
    assert split.embedding_dim == 6
    w, b = split.predictor_affine_params()
    assert w is model.layers[2][0] and b is model.layers[2][1]


def test_default_split_keeps_last_layer_as_predictor():
    for layers in ([4, 2], [4, 5, 2]):
        model = Mlp(layers, seed=0)
        split = split_model(model)
        assert split.embedding_dim == layers[-2]
        w, b = split.predictor_affine_params()
        assert w is model.layers[-1][0] and b is model.layers[-1][1]
        assert w.shape == (layers[-2], 2) and b.shape == (2,)


def test_split_composition_identity_exact():
    x = np.random.default_rng(4).normal(size=(100, 4))
    for layers in ([4, 3], [4, 6, 3], [4, 6, 6, 3]):
        model = Mlp(layers, seed=11)
        split = split_model(model)
        assert (split.predict_np(split.encode_np(x)) == model.forward_np(x)).all()


def test_split_zero_is_identity_encoder():
    model = Mlp([4, 3], seed=2)
    split = split_model(model)
    x = np.random.default_rng(5).normal(size=(8, 4))
    assert (split.encode_np(x) == x).all()


# -- serialization --------------------------------------------------------------


def test_save_load_round_trip_bitwise(tmp_path):
    model = Mlp([3, 4, 2], prefix="g.", seed=7)
    model.store.freeze()
    path = str(tmp_path / "model")
    save_params(model, path)
    assert (tmp_path / "model.manifest").read_text() == "layers=3,4,2 prefix=g. trainable=0\n"
    assert (tmp_path / "model.params").read_bytes() == model.store.flat.astype("<f8").tobytes()
    loaded = load_params(path)
    assert loaded.layer_sizes == [3, 4, 2] and loaded.prefix == "g."
    assert loaded.store.frozen
    assert list(loaded.store.views(loaded.store.flat)) == list(model.store.views(model.store.flat))
    assert loaded.store.flat.tobytes() == model.store.flat.tobytes()
    # save -> load -> save reproduces identical bytes
    save_params(loaded, str(tmp_path / "again"))
    for suffix in (".manifest", ".params"):
        a = (tmp_path / ("model" + suffix)).read_bytes()
        b = (tmp_path / ("again" + suffix)).read_bytes()
        assert a == b


@pytest.mark.parametrize("prefix", ["a b", "a\tb", "a\nb"])
def test_prefix_with_whitespace_rejected(prefix):
    # the manifest's prefix= value ends at the first whitespace
    with pytest.raises(UsageError):
        Mlp([2, 2], prefix=prefix)


@pytest.mark.parametrize("prefix", ["", "g."])
def test_prefix_survives_save_load_save(tmp_path, prefix):
    save_params(Mlp([2, 2], prefix=prefix), str(tmp_path / "model"))
    save_params(load_params(str(tmp_path / "model")), str(tmp_path / "again"))
    for suffix in (".manifest", ".params"):
        assert (tmp_path / ("model" + suffix)).read_bytes() == (tmp_path / ("again" + suffix)).read_bytes()


def test_truncated_payload_raises(tmp_path):
    model = Mlp([3, 2], seed=1)
    path = str(tmp_path / "model")
    save_params(model, path)
    payload = (tmp_path / "model.params").read_bytes()
    (tmp_path / "model.params").write_bytes(payload[:-8])
    with pytest.raises(CorruptFileError):
        load_params(path)


GOOD_MANIFEST = "layers=3,2 prefix= trainable=1\n"


@pytest.mark.parametrize(
    "manifest, payload_change",
    [
        ("layers=3,2 trainable=1\n", 0),
        ("layers=3,2 prefix= trainable=1 bias=1\n", 0),
        ("layers=3,two prefix= trainable=1\n", 0),
        ("layers=3x2 prefix= trainable=1\n", 0),  # a shape, not a size list
        ("layers=3,-2 prefix= trainable=1\n", 0),
        ("layers=3,0 prefix= trainable=1\n", 0),
        ("layers=6 prefix= trainable=1\n", 0),
        ("layers=3,2 stray prefix= trainable=1\n", 0),
        ("layers=3,2 layers=3,2 prefix= trainable=1\n", 0),
        ("layers=3,2 prefix= trainable=2\n", 0),
        (GOOD_MANIFEST, -8),
        (GOOD_MANIFEST, 8),
        # The per-entry format of earlier versions: there is no fallback reader.
        (
            "count=2\nname=w0 shape=3x2 offset=0 trainable=1\n"
            "name=b0 shape=2 offset=48 trainable=1\n",
            0,
        ),
        # 2**21 values (16 MiB) and 2**62 + 1 values: both refused on the
        # payload's size, before any array exists.
        ("layers=1,1048576 prefix= trainable=1\n", 0),
        ("layers=1,4611686018427387904 prefix= trainable=1\n", 0),
        (b"layers=3,2 prefix=\xff trainable=1\n", 0),
    ],
    ids=[
        "missing-field",
        "unknown-key",
        "non-integer",
        "bad-shape",
        "negative-dims",
        "size-zero",
        "single-size",
        "token-without-equals",
        "duplicate-name",
        "trainable-2",
        "payload-8-bytes-short",
        "payload-8-bytes-long",
        "old-format",
        "large-layers",
        "huge-layers",
        "not-utf8",
    ],
)
def test_malformed_manifest_raises_corrupt_file(tmp_path, manifest, payload_change):
    path = str(tmp_path / "model")
    save_params(Mlp([3, 2], seed=1), path)
    assert (tmp_path / "model.manifest").read_text() == GOOD_MANIFEST
    if isinstance(manifest, str):
        manifest = manifest.encode()
    (tmp_path / "model.manifest").write_bytes(manifest)
    payload = (tmp_path / "model.params").read_bytes()
    (tmp_path / "model.params").write_bytes(
        payload[:payload_change] if payload_change < 0 else payload + bytes(payload_change)
    )
    tracemalloc.start()
    try:
        with pytest.raises(CorruptFileError):
            load_params(path)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_trainable_store_loads_trainable(tmp_path):
    path = str(tmp_path / "model")
    save_params(Mlp([3, 2], seed=1), path)
    assert not load_params(path).store.frozen


def test_missing_files_raise(tmp_path):
    with pytest.raises(CorruptFileError):
        load_params(str(tmp_path / "nothing"))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_raises(tmp_path, value):
    path = str(tmp_path / "model")
    model = Mlp([3, 4, 2], seed=1)
    model.store["w1"][2, 1] = value
    save_params(model, path)
    with pytest.raises(CorruptFileError):
        load_params(path)


@pytest.mark.parametrize(
    "layers, shapes",
    [
        ("3,64,2", [(3, 64), (64,), (32, 2), (2,)]),  # fan-in 32 after width 64
        ("3,4,2", [(3, 4), (4, 2), (2,)]),  # b0 missing
        ("3,4", [(3, 4), (3,)]),  # b0 not shaped (fan_out,)
        ("12,4", [(12,), (4,)]),  # w0 not a matrix
    ],
    ids=["fan-in", "missing-bias", "bias-width", "weight-rank"],
)
def test_layers_that_do_not_chain_raise(tmp_path, layers, shapes):
    """Parameters that do not chain, laid end to end under the layer sizes
    they claim: the payload is not as long as those sizes need."""
    path = tmp_path / "model"
    path.with_suffix(".manifest").write_text(f"layers={layers} prefix= trainable=1\n")
    path.with_suffix(".params").write_bytes(np.ones(sum(np.prod(s) for s in shapes)).tobytes())
    with pytest.raises(CorruptFileError):
        load_params(str(path))
