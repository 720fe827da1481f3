"""Logistic noise and the temperature-controlled embedding mask.

The mask generator network G maps an input x to logits whose sigmoid gives
per-dimension drop probabilities p in (0,1)^d. A soft keep-mask is then
m = sigmoid((log(1-p) - log p + L) / tau), with L standard logistic noise
log u - log(1-u), u ~ Uniform(0,1): the law of h - h' for independent
standard Gumbels h, h', so m is the Gumbel-sigmoid (Binary Concrete)
relaxation drawn from one uniform per entry. Under the [1e-12, 1-1e-12]
clamps of u and p, log-odds and noise are each at most 27.64 in size, so
their sum times 1/tau is finite for every tau >= ``TAU_MIN`` (about
3.07e-307), the smallest tau ``MaskGenConfig`` accepts. As tau -> 0 the mask
approaches a Bernoulli(1-p) keep draw. Gradients flow to G through p only.
Training needs tau >= ``TRAIN_TAU_MIN`` (about 5.56e-197), where
``relaxed_mask_grad`` stays finite for every |dloss/dm| <= ``_GRAD_BOUND``.

``_keep`` is the one place the formula is computed: the training mask and
the noise_free and sample_avg modes reuse it, so a noise_free mask is bitwise
the zero-noise training mask. ``inference_mask`` walks the flattened p in
blocks of ``_BLOCK`` entries; ``sample_avg`` draws each sample's noise from
the stream ``SeedSequence((seed, 0xE7))`` block by block into one
block-sized buffer, and every bit is that of the full-size formula. The
kernels work in place: on arrays they allocate, or on an ``out`` their
caller hands them, which may be their input (``evaluate.emg_masks`` writes
its mask into the drop probabilities it just computed). With no ``out``
they never write into their arguments.
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
_P_EPS = 1e-12  # uniforms, probabilities and masks clamped to [eps, 1-eps]
_BLOCK = 32768  # inference entries per block: 256 KiB of float64, cache-sized
# The largest |log-odds| or |noise| under the clamps is log(1-eps) - log(1-(1-eps));
# below TAU_MIN twice that times 1/tau overflows.
TAU_MIN = 2.0 * float(np.log(1.0 - _P_EPS) - np.log(1.0 - (1.0 - _P_EPS))) / np.finfo(np.float64).max
# relaxed_mask_grad's largest intermediate, |dloss/dm| * m0(1-m0) * (1/tau) * (1/p + 1/(1-p)),
# is under the clamps at most _GRAD_BOUND * (1/4) * (1/tau) * (2/eps): half the float64
# maximum at TRAIN_TAU_MIN, the floor train_emg checks (inference keeps TAU_MIN).
_GRAD_BOUND = 1e100  # the |dloss/dm| training allows; a default EMG fit reads below 0.05
TRAIN_TAU_MIN = _GRAD_BOUND / (_P_EPS * np.finfo(np.float64).max)


@dataclass
class MaskGenConfig:
    tau: float = 0.1
    inference_mode: str = "noise_free"

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau >= TAU_MIN):
            raise ConfigError(f"tau must be finite and >= {TAU_MIN:.4g}, got {self.tau}")
        if self.inference_mode not in INFERENCE_MODES:
            raise ConfigError(f"unknown inference mode {self.inference_mode!r}")


def _clamp(a: Array, out: Array | None = None) -> Array:
    """``a`` clipped to [_P_EPS, 1 - _P_EPS], into ``out`` (may be ``a``) if given."""
    return np.clip(a, _P_EPS, 1.0 - _P_EPS, out=out)


def gumbel_sample(rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
    """i.i.d. standard Gumbel draws -log(-log u), u clamped away from {0,1}."""
    g = rng.random(shape)
    _clamp(g, out=g)
    np.negative(np.log(g, out=g), out=g)
    return np.negative(np.log(g, out=g), out=g)


def _to_logistic(u: Array) -> Array:
    """Uniform draws u turned in place into log u - log(1-u), u clamped away from {0,1}."""
    v = 1.0 - _clamp(u, out=u)
    np.log(u, out=u)
    u -= np.log(v, out=v)
    return u


def logistic_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
    """The mask's noise: i.i.d. standard logistic draws, one uniform each."""
    return _to_logistic(rng.random(shape))


def sigmoid_np(x: Array, out: Array | None = None) -> Array:
    """Stable logistic function into ``out`` (may be ``x``) if given; with e =
    exp(-|x|) in [0, 1], max(e, x >= 0) is 1 where x >= 0 and e elsewhere."""
    e = np.asarray(np.abs(x))  # a 0-d result is a NumPy scalar, not writable
    with np.errstate(invalid="ignore"):  # NaN in, NaN out: some SIMD paths of exp warn on a signalling NaN
        np.exp(np.negative(e, out=e), out=e)
    num = np.maximum(e, x >= 0, out=out)
    e += 1.0
    num /= e
    return num


def _log_odds(p: Array, out: Array | None = None) -> Array:
    """log(1-p) - log p, the noise-free mask logit before the 1/tau scale,
    into ``out`` (may be ``p``) if given."""
    lo = np.asarray(1.0 - p)
    np.log(lo, out=lo)
    return np.subtract(lo, np.log(p, out=out), out=lo if out is None else out)


def _keep(log_odds: Array, noise: Array | float, tau: float, out: Array | None = None) -> Array:
    """The mask formula, the only place it is computed: the unclipped
    m0 = sigmoid((log_odds + noise)/tau), into ``out`` (may be either
    operand) if given; the mask is ``_clamp(m0)``."""
    x = np.asarray(np.add(log_odds, noise, out=out))
    x *= 1.0 / tau
    return sigmoid_np(x, out=x)


def keep_mask(p: Array, noise: Array | float, tau: float) -> tuple[Array, Array]:
    """The mask from clamped drop probabilities p and logistic noise: the
    clipped mask m and the unclipped m0 = sigmoid((log(1-p) - log p + noise)/tau)."""
    m0 = _keep(_log_odds(p), noise, tau)
    return _clamp(m0), m0


def relaxed_mask_np(logits: Array, noise: Array, tau: float) -> tuple[Array, tuple]:
    """The training mask from generator logits, and what its gradient needs:
    p = clip(sigmoid(logits)), then ``keep_mask(p, noise, tau)``."""
    s = sigmoid_np(logits)
    p = _clamp(s)
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
    """Stochastic mask for a training batch on the tape; fresh logistic noise
    per call, drawn as ``train.train_emg`` draws it for each batch."""
    logits = generator.forward(T.Tensor(x), leaves)
    return relaxed_mask(logits, logistic_noise(rng, logits.shape), cfg.tau)


def _blocks(a: Array) -> list[Array]:
    """Consecutive ``_BLOCK``-entry runs of ``a``'s entries in C order: views
    into ``a`` where it is C-contiguous, else into one flattened copy."""
    flat = a.reshape(-1)
    return [flat[lo:lo + _BLOCK] for lo in range(0, flat.size, _BLOCK)]


def inference_mask(p: Array, cfg: MaskGenConfig, seed: int = 0, out: Array | None = None) -> Array:
    """Deterministic (or seed-scoped averaged) mask for evaluation, into
    ``out`` (may be ``p``) if given.

    noise_free: ``keep_mask`` with zero noise, (1-p)^(1/tau) / ((1-p)^(1/tau)
    + p^(1/tau)), special-cased to exactly 1-p at tau = 1. expected: the
    Bernoulli keep probability 1-p. sample_avg: mean of SAMPLE_COUNT training
    masks, their noise drawn from ``SeedSequence((seed, 0xE7))``; the other
    modes draw none. Every mode rejects a ``seed`` that is not a non-negative
    int with ``ConfigError``, an ``out`` that is not a C-contiguous float64
    array of p's shape with ``ShapeMismatchError``, and a ``p`` outside
    [0, 1] (NaN included) with ``NumericError``, before any draw or write.
    With ``out=None`` the result is a fresh array and ``p`` is left alone.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative int, got {seed!r}")
    p = np.asarray(p, dtype=np.float64)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.flags.c_contiguous and out.shape == p.shape):
        raise ShapeMismatchError(f"out must be a C-contiguous float64 array of p's shape {p.shape}")
    src = _blocks(p)
    if not all(((q >= 0.0) & (q <= 1.0)).all() for q in src):
        raise NumericError("drop probabilities must lie in [0, 1]")
    mode, tau = cfg.inference_mode, cfg.tau
    out = np.empty(p.shape) if out is None else out
    dst = _blocks(out)
    for q, o in zip(src, dst):
        _clamp(q, out=o)
        if mode == "expected" or (mode == "noise_free" and tau == 1.0):
            np.subtract(1.0, o, out=o)
        elif mode == "noise_free":
            _clamp(_keep(_log_odds(o, out=o), 0.0, tau, out=o), out=o)
        else:
            _log_odds(o, out=o)
    if mode == "sample_avg":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE7)))
        acc, buf = np.zeros(p.shape), np.empty(min(p.size, _BLOCK))
        pairs = list(zip(dst, _blocks(acc)))
        for _ in range(SAMPLE_COUNT):
            for log_odds, a in pairs:
                noise = _to_logistic(rng.random(out=buf[:log_odds.size]))
                a += _clamp(_keep(log_odds, noise, tau, out=noise), out=noise)
        np.divide(acc, SAMPLE_COUNT, out=out)
    return out


def drop_probabilities(generator: Mlp, x: Array) -> Array:
    """p = sigmoid(G(x)) on raw arrays, for evaluation paths: the sigmoid runs
    in place on the generator's fresh logits, one ``_BLOCK`` at a time."""
    logits = generator.forward_np(x)  # a fresh C-ordered array
    for block in _blocks(logits):
        sigmoid_np(block, out=block)
    return logits
