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

``keep_mask`` is the one place this formula is computed: the training mask
(``relaxed_mask_np``) and every inference mode reuse it, so an inference
mask with zero noise is bitwise the training mask with zero noise.
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

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.inference_mode not in INFERENCE_MODES:
            raise ConfigError(f"unknown inference mode {self.inference_mode!r}")
        if self.inference_mode == "sample_avg" and self.sample_count < 1:
            raise ConfigError("sample_avg needs sample_count >= 1")


_P_EPS = 1e-12  # uniforms, probabilities and masks clamped to [eps, 1-eps]


def gumbel_sample(rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
    """i.i.d. standard Gumbel draws -log(-log u), u clamped away from {0,1}."""
    u = np.clip(rng.random(shape), _P_EPS, 1.0 - _P_EPS)
    return -np.log(-np.log(u))


def gumbel_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
    """The mask's noise h - h', h drawn first."""
    return gumbel_sample(rng, shape) - gumbel_sample(rng, shape)


def sigmoid_np(x: Array) -> Array:
    """Numerically stable logistic function on raw arrays."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def keep_mask(p: Array, noise: Array | float, tau: float) -> tuple[Array, Array]:
    """The mask formula, the only place it is computed: from clamped drop
    probabilities p and noise h - h', the clipped mask m and the unclipped
    m0 = sigmoid((log(1-p) - log p + noise)/tau)."""
    m0 = sigmoid_np((np.log(1.0 - p) - np.log(p) + noise) * (1.0 / tau))
    return np.clip(m0, _P_EPS, 1.0 - _P_EPS), m0


def relaxed_mask_np(logits: Array, noise: Array, tau: float) -> tuple[Array, tuple]:
    """The training mask from generator logits, and what its gradient needs:
    p = clip(sigmoid(logits)), then ``keep_mask(p, noise, tau)``."""
    s = sigmoid_np(logits)
    p = np.clip(s, _P_EPS, 1.0 - _P_EPS)
    if np.shape(noise) != p.shape:
        raise ShapeMismatchError(f"noise shape {np.shape(noise)} != p shape {p.shape}")
    m, m0 = keep_mask(p, noise, tau)
    return m, (s, p, m0, tau)


def relaxed_mask_grad(g: Array, cache: tuple) -> Array:
    """Gradient wrt the logits of ``relaxed_mask_np``, given dloss/dm.

    Where neither clip is active dm/dlogit = -m(1-m)/tau; where one is, 0.
    The chain rule is applied one factor at a time in a fixed order, so
    trained generators do not move in the last bits.
    """
    s, p, m0, tau = cache
    dz = g * ((m0 >= _P_EPS) & (m0 <= 1.0 - _P_EPS)) * m0 * (1.0 - m0) * (1.0 / tau)
    dp = -(dz / (1.0 - p)) + (-dz) / p
    return dp * ((s >= _P_EPS) & (s <= 1.0 - _P_EPS)) * s * (1.0 - s)


def relaxed_mask(logits: T.Tensor, noise: Array, tau: float) -> T.Tensor:
    """``relaxed_mask_np`` as one tape op; differentiable wrt the logits,
    the noise is a constant."""
    m, cache = relaxed_mask_np(logits.data, noise, tau)
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
    """Stochastic mask for a training batch on the tape; fresh Gumbel noise
    per call, drawn as ``train.emg_forward`` draws it.
    """
    logits = generator.forward(T.Tensor(x), leaves)
    return relaxed_mask(logits, gumbel_noise(rng, logits.shape), cfg.tau)


def inference_mask(
    p: Array, cfg: MaskGenConfig, rng: np.random.Generator | None = None
) -> Array:
    """Deterministic (or seed-scoped averaged) mask for evaluation.

    noise_free: ``keep_mask`` with zero noise, i.e.
        m_i = (1-p_i)^(1/tau) / ((1-p_i)^(1/tau) + p_i^(1/tau)),
    which is exactly 1-p at tau = 1 (special-cased to keep the identity
    exact in floating point).
    expected: the Bernoulli keep probability 1-p.
    sample_avg: mean of sample_count training masks under the given rng.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), _P_EPS, 1.0 - _P_EPS)
    if cfg.inference_mode == "sample_avg":
        if rng is None:
            raise ConfigError("sample_avg inference mode requires an rng")
        acc = np.zeros_like(p)
        for _ in range(cfg.sample_count):
            acc += keep_mask(p, gumbel_noise(rng, p.shape), cfg.tau)[0]
        return acc / cfg.sample_count
    if cfg.inference_mode == "expected" or cfg.tau == 1.0:
        return 1.0 - p
    return keep_mask(p, 0.0, cfg.tau)[0]


def drop_probabilities(generator: Mlp, x: Array) -> Array:
    """p = sigmoid(G(x)) on raw arrays, for evaluation paths."""
    return sigmoid_np(generator.forward_np(x))
