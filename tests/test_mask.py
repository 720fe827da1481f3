"""Gumbel sampling and the temperature-controlled soft mask."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embmask import Mlp, MaskGenConfig, gumbel_sample, gumbel_softmax_mask, inference_mask, training_mask
from embmask import tensor as T
from embmask.errors import ConfigError, ShapeMismatchError
from embmask.mask import relaxed_mask, sigmoid_np

EULER_MASCHERONI = 0.5772156649015329


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


# -- mask formula ---------------------------------------------------------------


def test_sigmoid_at_zero():
    assert sigmoid_np(np.array([0.0]))[0] == 0.5


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.5, 1.0, 3.0])
def test_mask_symmetry_at_half(tau):
    zeros = np.zeros(4)
    m = gumbel_softmax_mask(np.full(4, 0.5), zeros, zeros, tau)
    np.testing.assert_allclose(m, 0.5, atol=1e-15)


def test_mask_tau_one_no_noise_is_one_minus_p():
    p = np.array([0.2, 0.5, 0.9])
    m = gumbel_softmax_mask(p, np.zeros(3), np.zeros(3), 1.0)
    np.testing.assert_allclose(m, 1.0 - p, atol=1e-15)


def test_mask_hand_oracle_tau_half():
    m = gumbel_softmax_mask(np.array([0.2]), np.zeros(1), np.zeros(1), 0.5)
    np.testing.assert_allclose(m, 0.64 / 0.68, atol=1e-12)
    # same value through the training op, from the logit of p = 0.2
    mt = relaxed_mask(T.Tensor([[math.log(0.25)]]), np.zeros((1, 1)), np.zeros((1, 1)), 0.5)
    np.testing.assert_allclose(mt.data, [[0.64 / 0.68]], atol=1e-12)


def test_mask_noise_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        gumbel_softmax_mask(np.full(3, 0.5), np.zeros(2), np.zeros(2), 0.1)
    with pytest.raises(ShapeMismatchError):
        relaxed_mask(T.Tensor(np.zeros((2, 3))), np.zeros((2, 3)), np.zeros((3, 2)), 0.1)


def test_relaxed_mask_gradient_closed_form_and_zero_under_clip():
    # m = sigmoid((h - h' - logit)/tau), so dm/dlogit = -m(1-m)/tau while no
    # clip is active. Logit 40 saturates p (p clip); noise -30 at tau 0.5
    # drives m below 1e-12 (m clip): both get exactly 0.
    tau = 0.5
    logits = T.Tensor([[-1.0, 0.3, 2.0, 40.0, 0.0]], requires_grad=True)
    h = np.array([[0.4, -0.2, 0.0, 0.0, 0.0]])
    h_prime = np.array([[0.0, 0.1, -0.3, 0.0, 30.0]])
    m = relaxed_mask(logits, h, h_prime, tau)
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
    h = gumbel_sample(rng, p.shape)
    hp = gumbel_sample(rng, p.shape)
    m = gumbel_softmax_mask(p, h, hp, tau)
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
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 3))
    gen = Mlp([3, 4], seed=2)
    cfg = MaskGenConfig()

    def f(leaves):
        # re-seeded per call, so every evaluation sees the same noise
        return _total(training_mask(gen, x, leaves, cfg, np.random.default_rng(5)))

    assert T.grad_check(f, gen.store.state_copy()) < 1e-4


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


def test_sample_avg_requires_rng_and_stays_open():
    cfg = MaskGenConfig(inference_mode="sample_avg", sample_count=4)
    p = np.full((3, 2), 0.5)
    with pytest.raises(ConfigError):
        inference_mask(p, cfg)
    m = inference_mask(p, cfg, np.random.default_rng(0))
    assert ((m > 0.0) & (m < 1.0)).all()


def test_config_validation():
    with pytest.raises(ConfigError):
        MaskGenConfig(tau=0.0)
    with pytest.raises(ConfigError):
        MaskGenConfig(inference_mode="nope")
    with pytest.raises(ConfigError):
        MaskGenConfig(inference_mode="sample_avg", sample_count=0)
    with pytest.raises(ConfigError):
        MaskGenConfig(clamp_eps=0.7)
