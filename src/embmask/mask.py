"""Gumbel noise and the temperature-controlled embedding mask.

The mask generator network G maps an input x to logits whose sigmoid gives
per-dimension drop probabilities p in (0,1)^d. A soft keep-mask is then

    m_i = exp((log(1-p_i) + h_i)/tau)
          / [exp((log(1-p_i) + h_i)/tau) + exp((log p_i + h'_i)/tau)]

with h, h' standard Gumbel noise -log(-log u), u ~ Uniform(0,1). Computed in
log space as sigmoid(((log(1-p) - log p) + (h - h')) / tau), which cannot
overflow for any tau >= 1e-4. As tau -> 0 the mask approaches a Bernoulli
draw with keep probability 1-p; tau is the only knob controlling how discrete
the relaxation is. Gradients flow to G through p only; noise is a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeMismatchError
from .nn import Mlp

Array = np.ndarray

INFERENCE_MODES = ("noise_free", "expected", "sample_avg")


@dataclass
class MaskGenConfig:
    tau: float = 0.1
    inference_mode: str = "noise_free"
    sample_count: int = 8  # S, only used by sample_avg
    clamp_eps: float = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.inference_mode not in INFERENCE_MODES:
            raise ConfigError(f"unknown inference mode {self.inference_mode!r}")
        if self.inference_mode == "sample_avg" and self.sample_count < 1:
            raise ConfigError("sample_avg needs sample_count >= 1")
        if not (0.0 < self.clamp_eps < 0.5):
            raise ConfigError(f"clamp_eps out of range: {self.clamp_eps}")


def gumbel_sample(
    rng: np.random.Generator, shape: tuple[int, ...], clamp_eps: float = 1e-12
) -> Array:
    """i.i.d. standard Gumbel draws -log(-log u), u clamped away from {0,1}."""
    u = np.clip(rng.random(shape), clamp_eps, 1.0 - clamp_eps)
    return -np.log(-np.log(u))


_P_EPS = 1e-12  # probabilities clamped to [eps, 1-eps] before logs


def sigmoid_np(x: Array) -> Array:
    """Numerically stable logistic function on raw arrays."""
    pos = x >= 0
    out = np.empty_like(x, dtype=np.float64)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_noise(p_shape, h: Array, h_prime: Array) -> None:
    if np.shape(h) != p_shape or np.shape(h_prime) != p_shape:
        raise ShapeMismatchError(
            f"noise shapes {np.shape(h)}, {np.shape(h_prime)} != p shape {p_shape}"
        )


def gumbel_softmax_mask(p: Array, h: Array, h_prime: Array, tau: float) -> Array:
    """Soft keep-mask from drop probabilities p and Gumbel noise h, h'."""
    p = np.clip(np.asarray(p, dtype=np.float64), _P_EPS, 1.0 - _P_EPS)
    _check_noise(p.shape, h, h_prime)
    z = (np.log1p(-p) - np.log(p) + np.asarray(h) - np.asarray(h_prime)) / tau
    return np.clip(sigmoid_np(z), _P_EPS, 1.0 - _P_EPS)


def relaxed_mask_np(
    logits: Array, h: Array, h_prime: Array, tau: float
) -> tuple[Array, tuple]:
    """The training mask from generator logits, and what its gradient needs.

    p = clip(sigmoid(logits)), m = clip(sigmoid((log(1-p) - log p + h - h')/tau)).
    The forward takes log(1-p), not the log1p of ``gumbel_softmax_mask``:
    changing it would move trained generators in the last bits, and with
    them every run-directory artifact downstream.
    """
    s = sigmoid_np(logits)
    p = np.clip(s, _P_EPS, 1.0 - _P_EPS)
    _check_noise(p.shape, h, h_prime)
    one_minus_p = 1.0 - p
    noise = np.asarray(h, dtype=np.float64) - np.asarray(h_prime, dtype=np.float64)
    inv_tau = 1.0 / tau
    m0 = sigmoid_np((np.log(one_minus_p) - np.log(p) + noise) * inv_tau)
    return np.clip(m0, _P_EPS, 1.0 - _P_EPS), (s, p, one_minus_p, m0, inv_tau)


def relaxed_mask_grad(g: Array, cache: tuple) -> Array:
    """Gradient wrt the logits of ``relaxed_mask_np``, given dloss/dm.

    Where neither clip is active dm/dlogit = -m(1-m)/tau; where one is, 0.
    The chain rule is applied one factor at a time in a fixed order, for
    the same reason the forward keeps log(1-p).
    """
    s, p, one_minus_p, m0, inv_tau = cache
    dz = g * ((m0 >= _P_EPS) & (m0 <= 1.0 - _P_EPS)) * m0 * (1.0 - m0) * inv_tau
    dp = -(dz / one_minus_p) + (-dz) / p
    return dp * ((s >= _P_EPS) & (s <= 1.0 - _P_EPS)) * s * (1.0 - s)


def relaxed_mask(logits: T.Tensor, h: Array, h_prime: Array, tau: float) -> T.Tensor:
    """``relaxed_mask_np`` as one tape op; differentiable wrt the logits,
    the noise is a constant."""
    m, cache = relaxed_mask_np(logits.data, h, h_prime, tau)
    out = T.Tensor(m, _parents=(logits,))
    out._backward_fn = lambda g: T.accumulate(logits, lambda: relaxed_mask_grad(g, cache))
    return out


def training_mask(
    generator: Mlp,
    x: Array,
    leaves,
    cfg: MaskGenConfig,
    rng: np.random.Generator,
) -> T.Tensor:
    """Stochastic mask for a training batch on the reference tape; fresh
    Gumbel noise per call. ``train.emg_forward`` draws the same noise in the
    same order, so the tests compare the two bit for bit.
    """
    logits = generator.forward(T.Tensor(x), leaves)
    h = gumbel_sample(rng, logits.shape, cfg.clamp_eps)
    h_prime = gumbel_sample(rng, logits.shape, cfg.clamp_eps)
    return relaxed_mask(logits, h, h_prime, cfg.tau)


def inference_mask(
    p: Array, cfg: MaskGenConfig, rng: np.random.Generator | None = None
) -> Array:
    """Deterministic (or seed-scoped averaged) mask for evaluation.

    noise_free: the mask formula with h = h' = 0, i.e.
        m_i = (1-p_i)^(1/tau) / ((1-p_i)^(1/tau) + p_i^(1/tau)),
    which reduces to exactly 1-p at tau = 1 (special-cased to keep the
    identity exact in floating point).
    expected: the Bernoulli keep probability 1-p.
    sample_avg: mean of sample_count stochastic masks under the given rng.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), _P_EPS, 1.0 - _P_EPS)
    if cfg.inference_mode == "noise_free":
        if cfg.tau == 1.0:
            return 1.0 - p
        a = np.log1p(-p) / cfg.tau
        b = np.log(p) / cfg.tau
        return np.clip(np.exp(a - np.logaddexp(a, b)), _P_EPS, 1.0 - _P_EPS)
    if cfg.inference_mode == "expected":
        return 1.0 - p
    if rng is None:
        raise ConfigError("sample_avg inference mode requires an rng")
    acc = np.zeros_like(p)
    for _ in range(cfg.sample_count):
        h = gumbel_sample(rng, p.shape, cfg.clamp_eps)
        hp = gumbel_sample(rng, p.shape, cfg.clamp_eps)
        acc += gumbel_softmax_mask(p, h, hp, cfg.tau)
    return acc / cfg.sample_count


def drop_probabilities(generator: Mlp, x: Array) -> Array:
    """p = sigmoid(G(x)) on raw arrays, for evaluation paths."""
    return sigmoid_np(generator.forward_np(x))
