"""Logistic and Gumbel sampling and the temperature-controlled soft mask."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embmask import DomainDataset, Mlp, MaskGenConfig, accuracy, emg_masks, inference_mask, split_model
from embmask import mask as mask_module
from embmask import tensor as T
from embmask.errors import ConfigError, NumericError, ShapeMismatchError
from embmask.mask import (
    TAU_MIN,
    gumbel_sample,
    keep_mask,
    logistic_noise,
    relaxed_mask,
    relaxed_mask_grad,
    relaxed_mask_np,
    sigmoid_np,
    training_mask,
)
from embmask.train import emg_forward
from finite_diff import finite_difference_error
from memory_budget import traced_peak

EULER_MASCHERONI = 0.5772156649015329
_P_EPS = 1e-12


def _total(t):
    """Sum of all entries of a 2-d tensor: ones(1, n) @ t @ ones(m, 1)."""
    n, m = t.shape
    return T.linear(T.linear(np.ones((1, n)), t, np.zeros(m)), np.ones((m, 1)), np.zeros(1))


class _FixedUniform:
    """rng stand-in returning a preset uniform value (closed-form checks)."""

    def __init__(self, value: float):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


def test_gumbel_closed_form_at_inverse_e():
    out = gumbel_sample(_FixedUniform(math.exp(-1.0)), (3,))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_gumbel_closed_form_at_half():
    out = gumbel_sample(_FixedUniform(0.5), (1,))
    np.testing.assert_allclose(out, -math.log(math.log(2.0)), atol=1e-15)
    np.testing.assert_allclose(out, 0.36651292058166435, atol=1e-12)


def test_gumbel_moments_monte_carlo():
    n = 1_000_000
    draws = gumbel_sample(np.random.default_rng(0), (n,))
    sigma = math.sqrt(math.pi**2 / 6.0)
    assert abs(draws.mean() - EULER_MASCHERONI) <= 3.0 * sigma / math.sqrt(n)
    assert abs(draws.var() - math.pi**2 / 6.0) <= 0.05


def test_logistic_noise_is_standard_logistic_over_a_million_draws():
    """Mean 0, variance pi^2/3 (excess kurtosis 6/5) and deciles log(q/(1-q)),
    each within 4 standard errors."""
    n = 1_000_000
    draws = logistic_noise(np.random.default_rng(0), (n,))
    var = math.pi**2 / 3.0
    assert abs(draws.mean()) <= 4.0 * math.sqrt(var / n)
    assert abs(draws.var() - var) <= 4.0 * var * math.sqrt((4.2 - 1.0) / n)
    # a sample q-quantile has standard error 1/sqrt(n q (1-q)) under the
    # logistic density q(1-q) at its q-quantile
    q = np.arange(1, 10) / 10.0
    err = np.abs(np.quantile(draws, q) - np.log(q / (1.0 - q)))
    assert (err <= 4.0 / np.sqrt(n * q * (1.0 - q))).all()


def test_noise_streams_take_one_uniform_per_mask_entry(monkeypatch):
    base = Mlp([4, 5, 3], seed=1)
    base.store.freeze()
    split, gen = split_model(base), Mlp([4, 5], prefix="g.", seed=2)
    x = np.random.default_rng(0).normal(size=(7, 4))
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    emg_forward(split, gen, x, split.encode_np(x), np.full((7, 3), 1.0 / 3.0), MaskGenConfig(), rng)
    twin.random(7 * 5)  # batch x embedding width
    assert rng.bit_generator.state == twin.bit_generator.state

    p = np.full((3 * _B // 64 + 17, 64), 0.3)
    twin = _stream(4)
    twin.random(mask_module.SAMPLE_COUNT * p.size)
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
    for mode in ("noise_free", "expected"):
        inference_mask(p, MaskGenConfig(inference_mode=mode), 4)
    assert made == []  # the other modes draw none
    inference_mask(p, MaskGenConfig(inference_mode="sample_avg"), 4)
    assert [g.bit_generator.state for g in made] == [twin.bit_generator.state]


# -- mask formula ---------------------------------------------------------------


def test_sigmoid_at_zero():
    assert sigmoid_np(np.array([0.0]))[0] == 0.5


# The out-of-place formulas the in-place kernels replaced, kept verbatim as the
# reference the kernels must match byte for byte, random stream included.


def _ref_gumbel_sample(rng, shape):
    u = np.clip(rng.random(shape), _P_EPS, 1.0 - _P_EPS)
    return -np.log(-np.log(u))


def _ref_logistic_noise(rng, shape):
    u = np.clip(rng.random(shape), _P_EPS, 1.0 - _P_EPS)
    return np.log(u) - np.log(1.0 - u)


def _ref_sigmoid_np(x):
    with np.errstate(invalid="ignore"):  # as sigmoid_np: a signalling NaN may warn
        e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _ref_keep_mask(p, noise, tau):
    m0 = _ref_sigmoid_np((np.log(1.0 - p) - np.log(p) + noise) * (1.0 / tau))
    return np.clip(m0, _P_EPS, 1.0 - _P_EPS), m0


def _stream(seed):
    """The generator ``inference_mask`` builds for ``sample_avg`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence((seed, 0xE7)))


def _ref_sample_avg(p, cfg, seed, count):
    rng = _stream(seed)
    p = np.clip(np.asarray(p, dtype=np.float64), _P_EPS, 1.0 - _P_EPS)
    acc = np.zeros_like(p)
    for _ in range(count):
        acc += _ref_keep_mask(p, _ref_logistic_noise(rng, p.shape), cfg.tau)[0]
    return acc / count


def _sigmoid_two_branch(x):
    """Logistic function computed separately on x >= 0 and x < 0."""
    pos = x >= 0
    out = np.empty_like(x, dtype=np.float64)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_two_branch_formula_bitwise():
    edges = [0.0, 5e-324, 1e-310, 709.0, 710.0, 745.0, 746.0, 1e308, np.inf]
    rng = np.random.default_rng(0)
    inputs = [np.array(edges + [-v for v in edges])]
    inputs += [rng.normal(scale=s, size=(64, 64)) for s in (0.1, 1.0, 10.0, 100.0, 1000.0)]
    for x in inputs:
        assert sigmoid_np(x).tobytes() == _sigmoid_two_branch(x).tobytes()
    # NaN keeps the bytes the out-of-place formula gives it, payload included
    # (the two-branch formula skips the |x| and so differs in the sign bit)
    payloads = np.array([0x7FF8000000000123, 0xFFF4000000000001], dtype=np.uint64)
    nans = np.concatenate([[np.nan, -np.nan], payloads.view(np.float64), [1.0]])
    assert np.isnan(sigmoid_np(nans)[:4]).all()
    assert sigmoid_np(nans).tobytes() == _ref_sigmoid_np(nans).tobytes()


def _has_avx512f() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(not _has_avx512f(), reason="without AVX-512 the plain run already takes NumPy's non-AVX-512 paths")
def test_sigmoid_bitwise_test_passes_with_numpys_avx512_paths_off():
    """NumPy's non-AVX-512 exp warns "invalid value" on a signalling NaN; the
    test above, with RuntimeWarning an error, must pass there too."""
    root = Path(__file__).parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    test = f"{Path(__file__)}::test_sigmoid_matches_two_branch_formula_bitwise"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-W", "error::RuntimeWarning", test],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 1.0, 3.0])
def test_mask_symmetry_at_half(tau):
    m = keep_mask(np.full(4, 0.5), np.zeros(4), tau)[0]
    np.testing.assert_allclose(m, 0.5, atol=1e-15)


def test_mask_tau_one_no_noise_is_one_minus_p():
    p = np.array([0.2, 0.5, 0.9])
    m = keep_mask(p, np.zeros(3), 1.0)[0]
    np.testing.assert_allclose(m, 1.0 - p, atol=1e-15)


def test_mask_hand_oracle_tau_half():
    m = keep_mask(np.array([0.2]), np.zeros(1), 0.5)[0]
    np.testing.assert_allclose(m, 0.64 / 0.68, atol=1e-12)
    # same value through the training op, from the logit of p = 0.2
    mt = relaxed_mask(T.Tensor([[math.log(0.25)]]), np.zeros((1, 1)), 0.5)
    np.testing.assert_allclose(mt.data, [[0.64 / 0.68]], atol=1e-12)


def test_mask_noise_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        relaxed_mask_np(np.zeros(3), np.zeros(2), 0.1)
    with pytest.raises(ShapeMismatchError):
        relaxed_mask(T.Tensor(np.zeros((2, 3))), np.zeros((3, 2)), 0.1)


def test_relaxed_mask_gradient_closed_form_and_zero_under_clip():
    # m = sigmoid((h - h' - logit)/tau), so dm/dlogit = -m(1-m)/tau while no
    # clip is active. Logit 40 saturates p (p clip); noise -30 at tau 0.5
    # drives m below 1e-12 (m clip): both get exactly 0.
    tau = 0.5
    logits = T.Tensor([[-1.0, 0.3, 2.0, 40.0, 0.0]], requires_grad=True)
    h = np.array([[0.4, -0.2, 0.0, 0.0, 0.0]])
    h_prime = np.array([[0.0, 0.1, -0.3, 0.0, 30.0]])
    m = relaxed_mask(logits, h - h_prime, tau)
    _total(m).backward()
    free = m.data[0, :3]
    np.testing.assert_allclose(logits.grad[0, :3], -free * (1.0 - free) / tau, rtol=1e-12)
    assert (logits.grad[0, 3:] == 0.0).all()
    assert m.data[0, 4] == 1e-12


@settings(deadline=None, max_examples=80)
@given(
    st.floats(1e-4, 10.0),
    st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=1, max_size=8),
    st.integers(0, 2**31),
)
def test_mask_stays_inside_open_unit_interval(tau, p, seed):
    rng = np.random.default_rng(seed)
    p = np.array(p)
    m = keep_mask(p, logistic_noise(rng, p.shape), tau)[0]
    assert np.isfinite(m).all()
    assert ((m > 0.0) & (m < 1.0)).all()


@settings(deadline=None, max_examples=60)
@given(st.floats(1e-3, 10.0), st.integers(0, 2**31))
def test_noise_free_mask_decreasing_in_p(tau, seed):
    rng = np.random.default_rng(seed)
    cfg = MaskGenConfig(tau=tau)
    # non-increasing everywhere (float saturation can tie at the clamp)...
    p = np.sort(rng.uniform(1e-6, 1.0 - 1e-6, size=16))
    assert (np.diff(inference_mask(p, cfg)) <= 0.0).all()
    # ...strictly decreasing away from the saturated ends
    if tau >= 0.05:
        p_mid = np.sort(rng.uniform(0.2, 0.8, size=16))
        assert (np.diff(inference_mask(p_mid, cfg)) < 0.0).all()


# -- training / inference entry points --------------------------------------------


def _logits():
    """Generator-like logits, including ones that saturate the p clip."""
    logits = np.random.default_rng(4).normal(scale=3.0, size=(16, 8))
    logits[0, :4] = [-40.0, 40.0, 0.0, 1e-3]
    return logits


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 3.0])
def test_noise_free_inference_is_training_mask_without_noise_bitwise(tau):
    logits = _logits()
    m = inference_mask(sigmoid_np(logits), MaskGenConfig(tau=tau))
    m_train, _ = relaxed_mask_np(logits, np.zeros_like(logits), tau)
    assert m.tobytes() == m_train.tobytes()


@pytest.mark.parametrize("tau", [0.1, 0.5])
def test_sample_avg_of_one_sample_is_training_mask_bitwise(tau, monkeypatch):
    monkeypatch.setattr(mask_module, "SAMPLE_COUNT", 1)
    logits = _logits()
    cfg = MaskGenConfig(tau=tau, inference_mode="sample_avg")
    m = inference_mask(sigmoid_np(logits), cfg, 9)
    noise = logistic_noise(_stream(9), logits.shape)
    m_train, _ = relaxed_mask_np(logits, noise, tau)
    assert m.tobytes() == m_train.tobytes()


def test_training_mask_stochastic_but_seed_deterministic():
    gen = Mlp([3, 4], seed=0)
    x = np.random.default_rng(1).normal(size=(5, 3))
    cfg = MaskGenConfig()
    m1 = training_mask(gen, x, gen.store.leaves(), cfg, np.random.default_rng(7)).data
    m2 = training_mask(gen, x, gen.store.leaves(), cfg, np.random.default_rng(8)).data
    m3 = training_mask(gen, x, gen.store.leaves(), cfg, np.random.default_rng(7)).data
    assert not (m1 == m2).all()
    assert (m1 == m3).all()


def test_training_mask_gradient_matches_finite_differences():
    # loss = sum(w * m), so its gradient wrt the logits is relaxed_mask_grad(w, ...)
    rng = np.random.default_rng(3)
    flat = rng.normal(size=24)
    logits = flat.reshape(4, 6)  # a view: perturbing flat perturbs the logits
    noise = logistic_noise(np.random.default_rng(5), logits.shape)
    w = rng.normal(size=logits.shape)
    for tau in (0.5, 2.0):
        m, cache = relaxed_mask_np(logits, noise, tau)
        grad = relaxed_mask_grad(w, cache)

        def loss(tau=tau):
            return float(np.sum(w * relaxed_mask_np(logits, noise, tau)[0]))

        assert finite_difference_error(flat, loss, grad.ravel()) < 1e-4
        # no clip is active here, so the closed form holds at every entry
        assert ((m > 1e-12) & (m < 1.0 - 1e-12)).all()
        np.testing.assert_allclose(grad, -w * m * (1.0 - m) / tau, rtol=1e-12)


def test_inference_noise_free_tau_one_exact():
    p = np.random.default_rng(0).uniform(0.01, 0.99, size=32)
    m = inference_mask(p, MaskGenConfig(tau=1.0))
    assert (m == 1.0 - p).all()


def test_inference_expected_mode():
    m = inference_mask(np.array([0.1, 0.9]), MaskGenConfig(inference_mode="expected"))
    np.testing.assert_allclose(m, [0.9, 0.1], atol=1e-15)


def test_inference_noise_free_hand_oracle():
    m = inference_mask(np.array([0.4]), MaskGenConfig(tau=0.1))
    expected = 0.6**10 / (0.6**10 + 0.4**10)
    np.testing.assert_allclose(m, expected, rtol=1e-12)


def test_sample_avg_stays_open_and_is_seed_scoped():
    cfg = MaskGenConfig(inference_mode="sample_avg")
    p = np.full((3, 2), 0.5)
    m = inference_mask(p, cfg)
    assert mask_module.SAMPLE_COUNT == 8
    assert m.tobytes() == _ref_sample_avg(p, cfg, 0, 8).tobytes()
    assert ((m > 0.0) & (m < 1.0)).all()
    assert m.tobytes() == inference_mask(p, cfg, 0).tobytes()
    assert m.tobytes() != inference_mask(p, cfg, 1).tobytes()


def test_config_validation():
    with pytest.raises(ConfigError):
        MaskGenConfig(tau=0.0)
    for tau in (1e-320, 1e-307, np.nextafter(TAU_MIN, 0.0)):
        with pytest.raises(ConfigError, match="tau"):
            MaskGenConfig(tau=tau)
    assert 3.0e-307 < TAU_MIN < 3.1e-307
    assert MaskGenConfig(tau=1e-300).tau == 1e-300
    with pytest.raises(ConfigError):
        MaskGenConfig(inference_mode="nope")


# -- in-place kernels against the out-of-place reference ---------------------------

_SHAPES = [(1, 64), (7, 3), (3000, 64)]


def _edge_logits(shape):
    """Like ``_logits``, in any shape with at least 6 entries, and with -0.0."""
    logits = np.random.default_rng(4).normal(scale=3.0, size=shape)
    logits.flat[:6] = [-40.0, 40.0, 0.0, -0.0, 1e-3, -1e-3]
    return logits


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 1.0, 3.0])
def test_kernels_match_reference_formulas_bitwise(tau, shape):
    logits = _edge_logits(shape)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    noise, ref_noise = logistic_noise(rng, shape), _ref_logistic_noise(ref_rng, shape)
    assert noise.tobytes() == ref_noise.tobytes()
    assert gumbel_sample(rng, shape).tobytes() == _ref_gumbel_sample(ref_rng, shape).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    p = sigmoid_np(logits)
    assert p.tobytes() == _ref_sigmoid_np(logits).tobytes()
    p = np.clip(p, _P_EPS, 1.0 - _P_EPS)
    for got, want in zip(keep_mask(p, noise, tau), _ref_keep_mask(p, noise, tau)):
        assert got.tobytes() == want.tobytes()
    noise_free = inference_mask(p, MaskGenConfig(tau=tau))
    want = 1.0 - p if tau == 1.0 else _ref_keep_mask(p, 0.0, tau)[0]
    assert noise_free.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("sample_count", [1, 3, 8])
@pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 1.0, 3.0])
def test_sample_avg_matches_reference_loop_bitwise(tau, sample_count, shape, monkeypatch):
    monkeypatch.setattr(mask_module, "SAMPLE_COUNT", sample_count)
    p = sigmoid_np(_edge_logits(shape))
    cfg = MaskGenConfig(tau=tau, inference_mode="sample_avg")
    want = _ref_sample_avg(p, cfg, 12, sample_count)
    assert inference_mask(p, cfg, 12).tobytes() == want.tobytes()


_B = mask_module._BLOCK


@pytest.mark.parametrize(
    "shape",
    [(_B // 64, 64), (_B // 64 + 1, 64), (3 * _B // 64 + 17, 64), (_B,), (2 * _B + 5,)],
    ids=["one-block", "one-block-plus-a-row", "not-a-block-multiple", "1d-one-block", "1d-ragged"],
)
def test_sample_avg_matches_reference_loop_bitwise_at_block_edges(shape, monkeypatch):
    """The blocked loop keeps the draw order of the full-size one: each
    sample's noise in turn, block after block."""
    monkeypatch.setattr(mask_module, "SAMPLE_COUNT", 2)
    p = sigmoid_np(_edge_logits(shape))
    cfg = MaskGenConfig(tau=0.1, inference_mode="sample_avg")
    want = _ref_sample_avg(p, cfg, 5, 2)
    got = inference_mask(p, cfg, 5)
    assert got.shape == p.shape and got.tobytes() == want.tobytes()
    assert inference_mask(p, cfg, 5, out=p) is p and p.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "shape",
    [(_B // 64, 64), (_B + 1,), (3 * _B // 64 + 17, 64), (2 * _B + 5,), ()],
    ids=["one-block", "1d-one-block-plus-an-entry", "not-a-block-multiple", "1d-ragged", "0d"],
)
@pytest.mark.parametrize(
    "mode, tau", [("noise_free", 0.1), ("noise_free", 1.0), ("expected", 0.1)], ids=["noise_free", "tau-one", "expected"]
)
def test_noise_free_and_expected_match_reference_formulas_at_block_edges(shape, mode, tau):
    p = sigmoid_np(_edge_logits(shape)) if shape else np.array(0.3)
    clamped = np.clip(p, _P_EPS, 1.0 - _P_EPS)
    want = _ref_keep_mask(clamped, 0.0, tau)[0] if mode == "noise_free" and tau != 1.0 else 1.0 - clamped
    got = inference_mask(p, MaskGenConfig(tau=tau, inference_mode=mode))
    assert got.shape == p.shape and got.tobytes() == want.tobytes()
    assert inference_mask(p, MaskGenConfig(tau=tau, inference_mode=mode), out=p) is p
    assert p.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode, bound", [("noise_free", 1.75), ("expected", 1.75), ("sample_avg", 2.75)])
def test_inference_mask_allocates_no_full_size_temporaries(mode, bound):
    """Traced peak over the call, in units of p.nbytes: the result, plus the
    log-odds and the running sum for sample_avg, plus block-sized scratch."""
    p = sigmoid_np(np.random.default_rng(6).normal(size=(4000, 64)))
    cfg = MaskGenConfig(tau=0.1, inference_mode=mode)
    assert traced_peak(inference_mask, p, cfg, 2) / p.nbytes <= bound


@pytest.mark.parametrize("mode, bound", [("noise_free", 1.75), ("expected", 1.75), ("sample_avg", 2.75)])
def test_emg_masks_write_the_mask_into_their_drop_probabilities(mode, bound):
    """Traced peak in units of the (n, d) mask: the generator's logits, which
    become p and then the mask, plus the running sum for sample_avg, the
    generator's narrow hidden layer and block-sized scratch."""
    x = np.random.default_rng(6).normal(size=(4000, 16))
    gen = Mlp([16, 8, 64], prefix="g.", seed=3)
    cfg = MaskGenConfig(tau=0.1, inference_mode=mode)
    assert traced_peak(emg_masks, gen, x, cfg, 2) / (4000 * 64 * 8) <= bound


@pytest.mark.parametrize("rows", [4000, 16000])
@pytest.mark.parametrize("kind", ["none", "global", "per_sample"])
def test_accuracy_masks_the_embedding_it_just_encoded(kind, rows):
    """Traced peak in units of the (n, d) embedding: the embedding itself,
    scaled in place by any mask, plus the narrow logits."""
    rng = np.random.default_rng(7)
    split = split_model(Mlp([16, 64, 5], seed=3))
    data = DomainDataset(rng.normal(size=(rows, 16)), rng.integers(5, size=rows), 0)
    masks = {"none": None, "global": rng.choice([0.0, 1.0], size=64), "per_sample": rng.uniform(size=(rows, 64))}[kind]
    assert traced_peak(accuracy, split, data, masks) / (rows * 64 * 8) <= 1.25


@pytest.mark.parametrize("mode", ["noise_free", "expected", "sample_avg"])
def test_inference_mask_rejects_a_seed_that_is_not_a_non_negative_int(mode):
    cfg = MaskGenConfig(tau=0.5, inference_mode=mode)
    p = np.full((2, 3), 0.4)
    for seed in (-1, 2.5, True, False, np.int64(-3), "1", None, np.float64(2.0)):
        with pytest.raises(ConfigError, match="seed"):
            inference_mask(p, cfg, seed)
    assert inference_mask(p, cfg, np.int64(3)).tobytes() == inference_mask(p, cfg, 3).tobytes()


def _rejected_untouched(p, cfg, error, match=None):
    """``inference_mask`` of a multi-block p whose last entry is ``p`` raises
    ``error`` and writes neither into p nor into a separate ``out``."""
    big = np.full(2 * _B + 5, 0.25)
    big[-1] = p
    want = big.tobytes()
    other = np.full_like(big, 0.5)
    for out in (big, other):
        with pytest.raises(error, match=match):
            inference_mask(big, cfg, 0, out=out)
        assert big.tobytes() == want and (other == 0.5).all()


@pytest.mark.parametrize("mode", ["noise_free", "expected", "sample_avg"])
def test_inference_mask_rejects_non_finite_p_before_any_draw(mode, monkeypatch):
    def no_draw(g):
        raise AssertionError("noise drawn for a non-finite p")

    monkeypatch.setattr(mask_module, "_to_logistic", no_draw)
    cfg = MaskGenConfig(tau=0.5, inference_mode=mode)
    for p in ([[np.nan, 0.5]], [[0.5, np.inf]], [-np.inf], np.nan):
        with pytest.raises(NumericError):
            inference_mask(p, cfg, 0)
    _rejected_untouched(np.nan, cfg, NumericError)


@pytest.mark.parametrize("mode", ["noise_free", "expected", "sample_avg"])
def test_inference_mask_rejects_p_outside_the_unit_interval_before_any_draw(mode, monkeypatch):
    cfg = MaskGenConfig(tau=0.5, inference_mode=mode)
    edges = inference_mask([0.0, 1.0], cfg, 0)  # a saturated sigmoid gives both
    assert ((edges > 0.0) & (edges < 1.0)).all()

    def no_draw(g):
        raise AssertionError("noise drawn for a p outside [0, 1]")

    monkeypatch.setattr(mask_module, "_to_logistic", no_draw)
    for p in (2.0, -1.0, 1.0 + 2.0**-52, -5e-324):
        with pytest.raises(NumericError, match=r"\[0, 1\]"):
            inference_mask([[0.5, p]], cfg, 0)
    _rejected_untouched(1.0 + 2.0**-52, cfg, NumericError, r"\[0, 1\]")


@pytest.mark.parametrize("mode", ["noise_free", "expected", "sample_avg"])
def test_inference_mask_rejects_an_out_unlike_p_before_any_draw_or_write(mode, monkeypatch):
    def no_draw(g):
        raise AssertionError("noise drawn for a bad out")

    monkeypatch.setattr(mask_module, "_to_logistic", no_draw)
    cfg = MaskGenConfig(tau=0.5, inference_mode=mode)
    p = np.full((3, 4), 0.25)
    wide = np.zeros((3, 8))
    for out in (np.zeros((4, 3)), np.zeros(12), np.zeros((3, 4), dtype=np.float32),
                np.zeros((3, 4), order="F"), wide[:, ::2], np.zeros((3, 4)).tolist()):
        with pytest.raises(ShapeMismatchError, match="out"):
            inference_mask(p, cfg, 0, out=out)
        assert not np.any(out) and (p == 0.25).all()
    f32 = np.full((3, 4), 0.25, dtype=np.float32)  # p is taken as a float64 copy
    with pytest.raises(ShapeMismatchError):
        inference_mask(f32, cfg, 0, out=f32)
    assert (wide == 0.0).all()


@pytest.mark.parametrize("mode", ["noise_free", "expected", "sample_avg"])
def test_smallest_tau_gives_finite_masks_without_a_warning(mode):
    cfg = MaskGenConfig(tau=TAU_MIN, inference_mode=mode)
    p = np.array([0.0, 0.5, 1.0] * 4)
    logits = np.array([-40.0, 0.0, 40.0] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = inference_mask(p, cfg, 3)
        m_train = relaxed_mask_np(logits, logistic_noise(np.random.default_rng(3), p.shape), TAU_MIN)[0]
    for got in (m, m_train):
        assert np.isfinite(got).all() and ((got > 0.0) & (got < 1.0)).all()


def test_kernels_take_scalars_as_the_reference_did(monkeypatch):
    monkeypatch.setattr(mask_module, "SAMPLE_COUNT", 3)
    # NumPy returns a 0-d result as a scalar, which cannot be written in place
    for x in (0.7, np.float64(-2.0), np.array(-0.0)):
        assert sigmoid_np(x).tobytes() == _ref_sigmoid_np(x).tobytes()
    for got, want in zip(keep_mask(np.float64(0.3), 0.4, 0.5), _ref_keep_mask(np.float64(0.3), 0.4, 0.5)):
        assert got.tobytes() == want.tobytes()
    want = _ref_keep_mask(np.float64(0.3), 0.0, 0.5)[0]
    assert inference_mask(0.3, MaskGenConfig(tau=0.5)).tobytes() == want.tobytes()
    cfg = MaskGenConfig(tau=0.5, inference_mode="sample_avg")
    want = _ref_sample_avg(0.3, cfg, 1, 3)
    assert inference_mask(0.3, cfg, 1).tobytes() == want.tobytes()


def _unchanged(fn, *args):
    """Call fn(*args) and assert that no array argument's bytes moved."""
    before = [a.copy() for a in args if isinstance(a, np.ndarray)]
    fn(*args)
    after = [a for a in args if isinstance(a, np.ndarray)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))


def test_kernels_never_write_into_their_arguments(monkeypatch):
    monkeypatch.setattr(mask_module, "SAMPLE_COUNT", 3)
    logits = _logits()
    s = sigmoid_np(logits)  # 0 and 1 at the saturated logits: outside the p clip
    p = np.clip(s, _P_EPS, 1.0 - _P_EPS)
    noise = logistic_noise(np.random.default_rng(13), logits.shape)
    _unchanged(sigmoid_np, logits)
    _unchanged(keep_mask, p, noise, 0.1)
    _unchanged(relaxed_mask_np, logits, noise, 0.1)
    for mode in ("noise_free", "expected", "sample_avg"):
        cfg = MaskGenConfig(tau=0.5, inference_mode=mode)
        _unchanged(inference_mask, s, cfg, 14, None)
    # each noise array is a fresh one: a later draw leaves an earlier one alone
    rng = np.random.default_rng(15)
    first = logistic_noise(rng, logits.shape)
    _unchanged(lambda _: logistic_noise(rng, logits.shape), first)


def test_sigmoid_out_may_alias_its_input():
    x = np.concatenate([_logits().ravel(), [np.nan, -np.inf, np.inf, 746.0, -746.0]])
    want = sigmoid_np(x.copy())
    out = np.empty_like(x)
    assert sigmoid_np(x, out=out) is out and out.tobytes() == want.tobytes()
    assert sigmoid_np(x, out=x) is x and x.tobytes() == want.tobytes()

