"""Logistic noise and the temperature-controlled embedding mask.

The mask generator network G maps an input x to one logit per embedding
dimension, the log-odds of dropping it (p = sigmoid(logit)). The soft
keep-mask is the Gumbel-sigmoid (Binary Concrete) relaxation in those
log-odds: m = sigmoid((k + L)/tau) with keep logit k = -clip(logit, -C, C)
and L = log u - log(1-u), u ~ Uniform(0,1), standard logistic noise (the
law of h - h' for independent standard Gumbels h, h'). C = log(1-eps) -
log eps, eps = ``_P_EPS``, is the log-odds where p meets the clamp
[eps, 1-eps] that m is held to. Under the clamps k and L are each at most
27.64 in size, so (k + L)/tau is finite for every tau >= ``TAU_MIN`` (about
3.07e-307), the smallest tau ``MaskGenConfig`` accepts. As tau -> 0 the
mask approaches a Bernoulli(1-p) keep draw. Where neither clip is active,
dm/dlogit = -m(1-m)/tau, at most 1/(4 tau) in size, so training needs
tau >= ``TRAIN_TAU_MIN`` (about 2.78e-209) for ``relaxed_mask_grad`` to
stay finite for every |dloss/dm| <= ``_GRAD_BOUND``.

``_keep`` is the one place the formula is computed: the training mask and
the noise_free and sample_avg modes reuse it, so a noise_free mask is bitwise
the zero-noise training mask. ``inference_mask`` walks the flattened logits
in blocks of ``_BLOCK`` entries, drawing sample_avg's noise block by block
into one buffer from ``SeedSequence((seed, 0xE7))`` with every bit of the
full-size formula. The kernels work in place, on arrays they allocate or on
an ``out`` their caller hands them, which may be their input
(``evaluate.emg_masks`` writes its mask into the generator's logits); with
no ``out`` they never write into their arguments.
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
_P_EPS = 1e-12  # uniforms, masks and expected's drop probabilities clamped to [eps, 1-eps]
_LOGIT_CLIP = float(np.log(1.0 - _P_EPS) - np.log(_P_EPS))  # C: logits clipped to [-C, C]
_BLOCK = 32768  # inference entries per block: 256 KiB of float64, cache-sized
# The largest |noise| under the clamp, log(1-eps) - log(1-(1-eps)), is at least C;
# below TAU_MIN twice that times 1/tau overflows.
TAU_MIN = 2.0 * float(np.log(1.0 - _P_EPS) - np.log(1.0 - (1.0 - _P_EPS))) / np.finfo(np.float64).max
# relaxed_mask_grad's largest value, |dloss/dm| * m0(1-m0) * (1/tau), is at most
# _GRAD_BOUND * (1/4) * (1/tau): half the float64 maximum at TRAIN_TAU_MIN, the floor
# train_emg checks (inference keeps TAU_MIN).
_GRAD_BOUND = 1e100  # the |dloss/dm| training allows; a default EMG fit reads below 0.05
TRAIN_TAU_MIN = _GRAD_BOUND / np.finfo(np.float64).max / 2.0


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


def _clip_logits(logits: Array, out: Array | None = None) -> Array:
    """``logits`` clipped to [-C, C], into ``out`` (may be ``logits``) if given."""
    return np.clip(logits, -_LOGIT_CLIP, _LOGIT_CLIP, out=out)


def _keep(clipped: Array, noise: Array | float, tau: float, out: Array | None = None) -> Array:
    """The mask formula, the only place it is computed: the unclipped
    m0 = sigmoid((k + noise)/tau) with keep logit k = -``clipped``, into
    ``out`` (may be either operand) if given; the mask is ``_clamp(m0)``."""
    x = np.asarray(np.subtract(noise, clipped, out=out))
    x *= 1.0 / tau
    return sigmoid_np(x, out=x)


def relaxed_mask_np(logits: Array, noise: Array, tau: float) -> tuple[Array, tuple]:
    """The training mask from generator logits and logistic noise, and what
    its gradient needs: m = clamp(m0), m0 = ``_keep(clip(logits), noise, tau)``."""
    if np.shape(noise) != np.shape(logits):
        raise ShapeMismatchError(f"noise shape {np.shape(noise)} != logits shape {np.shape(logits)}")
    c = np.asarray(_clip_logits(logits))  # a 0-d result is a NumPy scalar, not writable
    m0 = _keep(c, noise, tau, out=c)
    return _clamp(m0), (logits, m0, tau)


def relaxed_mask_grad(g: Array, cache: tuple) -> Array:
    """Gradient wrt the logits of ``relaxed_mask_np``, given dloss/dm:
    -g * m0(1-m0)/tau where eps <= m0 <= 1-eps and |logit| < C, else 0,
    built in place on one buffer."""
    logits, m0, tau = cache
    free = (m0 >= _P_EPS) & (m0 <= 1.0 - _P_EPS)
    free &= (logits > -_LOGIT_CLIP) & (logits < _LOGIT_CLIP)
    grad = np.subtract(1.0, m0)
    grad *= m0
    grad *= g
    grad *= -1.0 / tau
    grad *= free
    return grad


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


def inference_mask(logits: Array, cfg: MaskGenConfig, seed: int = 0, out: Array | None = None) -> Array:
    """Deterministic (or seed-scoped averaged) mask from generator logits,
    into ``out`` (may be ``logits``) if given, else into a fresh array.

    noise_free: ``_keep`` with zero noise, clamped; at tau = 1 exactly
    expected's mask, the Bernoulli keep probability 1 - clamp(sigmoid(logit)).
    sample_avg: mean of SAMPLE_COUNT training masks, their noise drawn from
    ``SeedSequence((seed, 0xE7))``; the other modes draw none. Before any
    draw or write, every mode rejects a ``seed`` that is not a non-negative
    int (``ConfigError``), an ``out`` that is not a C-contiguous float64 array
    of the logits' shape (``ShapeMismatchError``) and a NaN or infinite
    logit, which only an overflowed generator gives (``NumericError``).
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative int, got {seed!r}")
    logits = np.asarray(logits, dtype=np.float64)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.flags.c_contiguous and out.shape == logits.shape):
        raise ShapeMismatchError(f"out must be a C-contiguous float64 array of the logits' shape {logits.shape}")
    src = _blocks(logits)
    if not all(np.isfinite(q).all() for q in src):
        raise NumericError("mask logits must be finite")
    mode, tau = cfg.inference_mode, cfg.tau
    out = np.empty(logits.shape) if out is None else out
    dst = _blocks(out)
    for q, o in zip(src, dst):
        if mode == "expected" or (mode == "noise_free" and tau == 1.0):
            np.subtract(1.0, _clamp(sigmoid_np(q, out=o), out=o), out=o)
        elif mode == "noise_free":
            _clamp(_keep(_clip_logits(q, out=o), 0.0, tau, out=o), out=o)
        else:
            _clip_logits(q, out=o)
    if mode == "sample_avg":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE7)))
        acc, buf = np.zeros(logits.shape), np.empty(min(logits.size, _BLOCK))
        pairs = list(zip(dst, _blocks(acc)))
        for _ in range(SAMPLE_COUNT):
            for clipped, a in pairs:
                noise = _to_logistic(rng.random(out=buf[:clipped.size]))
                a += _clamp(_keep(clipped, noise, tau, out=noise), out=noise)
        np.divide(acc, SAMPLE_COUNT, out=out)
    return out


def drop_probabilities(generator: Mlp, x: Array) -> Array:
    """p = sigmoid(G(x)) on raw arrays, for reports that need p (the mask
    itself takes the logits): the sigmoid runs in place on the generator's
    fresh logits, one ``_BLOCK`` at a time."""
    logits = generator.forward_np(x)  # a fresh C-ordered array
    for block in _blocks(logits):
        sigmoid_np(block, out=block)
    return logits
