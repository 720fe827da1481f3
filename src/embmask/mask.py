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

``_keep`` is the one place this formula is computed: the training mask
(``relaxed_mask_np``) and the noise_free and sample_avg modes reuse it, so a
noise_free mask is bitwise the zero-noise training mask. Training draws noise
from the caller's generator; ``inference_mask(p, cfg, seed)`` draws it only
for the ``SAMPLE_COUNT`` masks that ``sample_avg`` averages, from the stream
``SeedSequence((seed, 0xE7))``. Per sample, ``sample_avg`` walks the flattened
p in blocks of ``_BLOCK`` entries, in stream order: first all of h, block by
block into one full-size buffer reused by every sample, then h' block by block
into one block-sized scratch buffer, each h' block becoming h - h' and going
through ``_keep`` into the running sum. Every bit is that of the full-size
loop. The kernels work in place on arrays they allocate, never on their
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeMismatchError
from .nn import Mlp

Array = np.ndarray

# The MaskGenConfig fields each inference mode reads; expected is the keep
# probability 1-p, which no temperature shapes.
MODE_READS = {"noise_free": ("tau",), "expected": (), "sample_avg": ("tau",)}
INFERENCE_MODES = tuple(MODE_READS)
SAMPLE_COUNT = 8  # masks averaged by sample_avg


@dataclass
class MaskGenConfig:
    tau: float = 0.1
    inference_mode: str = "noise_free"

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.inference_mode not in INFERENCE_MODES:
            raise ConfigError(f"unknown inference mode {self.inference_mode!r}")


_P_EPS = 1e-12  # uniforms, probabilities and masks clamped to [eps, 1-eps]
_BLOCK = 32768  # sample_avg entries per block: 256 KiB of float64, cache-sized


def _to_gumbel(g: Array) -> Array:
    """Uniform draws u turned in place into -log(-log u), u clamped away from {0,1}."""
    np.clip(g, _P_EPS, 1.0 - _P_EPS, out=g)
    np.negative(np.log(g, out=g), out=g)
    return np.negative(np.log(g, out=g), out=g)


def gumbel_sample(rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
    """i.i.d. standard Gumbel draws -log(-log u), u clamped away from {0,1}."""
    return _to_gumbel(rng.random(shape))


def gumbel_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
    """The mask's noise h - h', h drawn first."""
    h = gumbel_sample(rng, shape)
    h -= gumbel_sample(rng, shape)
    return h


def sigmoid_np(x: Array, out: Array | None = None) -> Array:
    """Stable logistic function into ``out`` (may be ``x``) if given; with e =
    exp(-|x|) in [0, 1], max(e, x >= 0) is 1 where x >= 0 and e elsewhere."""
    e = np.asarray(np.abs(x))  # a 0-d result is a NumPy scalar, not writable
    np.exp(np.negative(e, out=e), out=e)
    num = np.maximum(e, x >= 0, out=out)
    e += 1.0
    num /= e
    return num


def _log_odds(p: Array) -> Array:
    """log(1-p) - log p, the noise-free mask logit before the 1/tau scale."""
    lo = np.log(1.0 - p)
    lo -= np.log(p)
    return lo


def _keep(log_odds: Array, noise: Array | float, tau: float) -> tuple[Array, Array]:
    """The mask formula, the only place it is computed: the clipped mask m
    and the unclipped m0 = sigmoid((log_odds + noise)/tau)."""
    x = np.asarray(log_odds + noise)
    x *= 1.0 / tau
    m0 = sigmoid_np(x, out=x)
    return np.clip(m0, _P_EPS, 1.0 - _P_EPS), m0


def keep_mask(p: Array, noise: Array | float, tau: float) -> tuple[Array, Array]:
    """The mask from clamped drop probabilities p and noise h - h': the
    clipped mask m and the unclipped m0 = sigmoid((log(1-p) - log p + noise)/tau)."""
    return _keep(_log_odds(p), noise, tau)


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


def inference_mask(p: Array, cfg: MaskGenConfig, seed: int = 0) -> Array:
    """Deterministic (or seed-scoped averaged) mask for evaluation.

    noise_free: ``keep_mask`` with zero noise, i.e.
        m_i = (1-p_i)^(1/tau) / ((1-p_i)^(1/tau) + p_i^(1/tau)),
    which is exactly 1-p at tau = 1 (special-cased to keep the identity
    exact in floating point).
    expected: the Bernoulli keep probability 1-p.
    sample_avg: mean of SAMPLE_COUNT training masks, their noise drawn from
    the stream ``SeedSequence((seed, 0xE7))``; the other modes draw none.
    Every mode rejects a ``seed`` that is not a non-negative int with
    ``ConfigError`` and a non-finite ``p`` with ``NumericError``.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative int, got {seed!r}")
    p = np.asarray(p, dtype=np.float64)
    if not np.isfinite(p).all():
        raise NumericError("drop probabilities must be finite")
    p = np.clip(p, _P_EPS, 1.0 - _P_EPS)
    if cfg.inference_mode == "sample_avg":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE7)))
        flat = p.reshape(-1)
        log_odds, acc = _log_odds(flat), np.zeros_like(flat)
        h, scratch = np.empty_like(flat), np.empty(min(flat.size, _BLOCK))
        blocks = [slice(s, s + _BLOCK) for s in range(0, flat.size, _BLOCK)]
        for _ in range(SAMPLE_COUNT):
            for b in blocks:  # all of h first, as one full-size draw takes it
                _to_gumbel(rng.random(out=h[b]))
            for b in blocks:
                noise = _to_gumbel(rng.random(out=scratch[:h[b].size]))
                acc[b] += _keep(log_odds[b], np.subtract(h[b], noise, out=noise), cfg.tau)[0]
        return acc.reshape(p.shape) / SAMPLE_COUNT
    if cfg.inference_mode == "expected" or cfg.tau == 1.0:
        return 1.0 - p
    return keep_mask(p, 0.0, cfg.tau)[0]


def drop_probabilities(generator: Mlp, x: Array) -> Array:
    """p = sigmoid(G(x)) on raw arrays, for evaluation paths."""
    logits = generator.forward_np(x)  # a fresh array
    return sigmoid_np(logits, out=logits)
