"""Feed-forward models, the encoder/predictor split before the last linear
layer, freezing, serialization.

An ``Mlp`` is a stack of linear layers with relu between them and an identity
output. Its parameters live in a ``ParamStore``: named views of one flat
float64 vector, laid out once when the store is built, so training updates
them all with one vectorized optimizer step. A store is trainable or
``frozen`` as a whole; its checksum makes the freeze contract checkable
(frozen bytes must survive a whole training run).
``Mlp.forward_train`` is the one NumPy layer loop: inference takes its last
entry, and training hands all of it to ``Mlp.backward_train``.
``as_batch`` is the batch contract's one owner: x is (n, input width), z (n, embedding_dim).
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import tensor as T
from .errors import CorruptFileError, ShapeMismatchError, UsageError

Array = np.ndarray


def as_batch(a, width: int, kind: str, of: str) -> Array:
    """``np.asarray(a)``, or ``ShapeMismatchError`` unless it is 2-D and
    ``width`` wide; the error names a as ``kind`` and ``width`` as ``of``."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeMismatchError(f"{kind} batch of shape {a.shape} is not 2-D (n, {width})")
    if a.shape[1] != width:
        raise ShapeMismatchError(f"{kind} width {a.shape[1]} != {of} {width}")
    return a


class ParamStore:
    """Named parameters, in the order of the mapping the store was built
    from, as views into one contiguous float64 vector ``flat``, allocated
    once; ``frozen`` marks the whole store untrainable."""

    def __init__(self, values: Mapping[str, Array]):
        self._values = {n: np.asarray(v, dtype=np.float64) for n, v in values.items()}
        self.flat = np.concatenate([np.zeros(0), *(v.ravel() for v in self._values.values())])
        self._values = self.views(self.flat)
        self.frozen = False

    def views(self, vec: Array) -> dict[str, Array]:
        """Each parameter's view of ``vec``, a vector laid out like ``flat``
        (a gradient, say)."""
        out = {}
        offset = 0
        for name, value in self._values.items():
            out[name] = vec[offset : offset + value.size].reshape(value.shape)
            offset += value.size
        return out

    def __getitem__(self, name: str) -> Array:
        return self._values[name]

    def freeze(self) -> None:
        """Mark the store untrainable. Idempotent; the values stay views of
        ``flat``."""
        self.frozen = True

    def leaves(self) -> dict[str, T.Tensor]:
        """Fresh leaf tensors for one pass on the tape."""
        return {
            n: T.Tensor(v, requires_grad=not self.frozen) for n, v in self._values.items()
        }

    def checksum(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self._values):
            value = self._values[name]
            h.update(name.encode())
            h.update(str(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        return h.hexdigest()

    def state_copy(self) -> dict[str, Array]:
        return {n: v.copy() for n, v in self._values.items()}


class Mlp:
    """Linear layers with relu on hidden outputs, identity on the last.

    Weight ``{prefix}w{i}`` has shape (fan_in, fan_out); bias ``{prefix}b{i}``
    shape (fan_out,). Weights init uniform(-a, a), a = sqrt(6 / (fan_in +
    fan_out)); biases zero. ``layers`` holds each layer's ``(w, b, w name,
    b name)``, its arrays views of the store's ``flat``.
    """

    def __init__(self, layer_sizes: list[int], prefix: str = "", seed: int = 0):
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise UsageError(f"bad layer sizes {layer_sizes}")
        if not re.fullmatch(r"\S*", prefix):  # the manifest's prefix= ends at whitespace
            raise UsageError(f"parameter prefix {prefix!r} holds whitespace")
        self.layer_sizes = list(layer_sizes)
        self.prefix = prefix
        names = [(f"{prefix}w{i}", f"{prefix}b{i}") for i in range(self.n_layers)]
        rng = np.random.default_rng(seed)
        values = {}
        for (w, b), fi, fo in zip(names, layer_sizes, layer_sizes[1:]):
            a = np.sqrt(6.0 / (fi + fo))
            values[w] = rng.uniform(-a, a, size=(fi, fo))
            values[b] = np.zeros(fo)
        self.store = ParamStore(values)
        self.layers = [(self.store[w], self.store[b], w, b) for w, b in names]

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def forward(self, x: T.Tensor, leaves: Mapping[str, T.Tensor]) -> T.Tensor:
        """The forward on the tape; ``leaves`` maps parameter names to leaf
        tensors."""
        as_batch(x.data, self.layer_sizes[0], "input", "model input dim")
        h = x
        for i, (_, _, w, b) in enumerate(self.layers):
            h = T.linear(h, leaves[w], leaves[b])
            if i < self.n_layers - 1:
                h = T.relu(h)
        return h

    def forward_np(self, x: Array) -> Array:
        """Inference-only forward on raw arrays; matches forward() bitwise."""
        return self.forward_train(x)[-1]

    def forward_train(self, x: Array, stop: int | None = None) -> list[Array]:
        """The layers before ``stop`` (default: all) on raw arrays, keeping
        what ``backward_train`` needs: the input of every layer, then the
        output (the last entry), each a fresh array; ``x`` passes ``as_batch``."""
        last = len(self.layers) - 1
        h = np.asarray(as_batch(x, self.layer_sizes[0], "input", "model input dim"), dtype=np.float64)
        acts = [h]
        for i, (w, b, _, _) in enumerate(self.layers[:stop]):
            h = T.linear_np(h, w, b)
            if i < last:
                T.relu_np(h, out=h)
            acts.append(h)
        return acts

    def backward_train(self, acts: list[Array], g: Array, grads: Mapping[str, Array]) -> None:
        """Backpropagate the output gradient ``g`` of a ``forward_train``
        pass: each layer writes its weight and bias gradient into ``grads``,
        views into the flat gradient vector."""
        for i in range(len(self.layers) - 1, -1, -1):
            w, _, w_name, b_name = self.layers[i]
            T.linear_grad_b(g, out=grads[b_name])
            T.linear_grad_w(g, acts[i], out=grads[w_name])
            if i:
                # acts[i] is the previous layer's relu output
                g = T.relu_grad(T.linear_grad_x(g, w), acts[i])


@dataclass
class SplitModel:
    """A frozen model split into encoder g, every layer but the last, and
    predictor c, the last linear layer, whose input is the embedding."""

    model: Mlp

    @property
    def embedding_dim(self) -> int:
        return self.model.layer_sizes[-2]

    def encode_np(self, x: Array) -> Array:
        return self.model.forward_train(x, self.model.n_layers - 1)[-1]

    def predict_np(self, z: Array) -> Array:
        z = as_batch(z, self.embedding_dim, "embedding", "predictor input width")
        return T.linear_np(np.asarray(z, dtype=np.float64), *self.predictor_affine_params())

    def predictor_affine_params(self) -> tuple[Array, Array]:
        return self.model.layers[-1][:2]


def split_model(model: Mlp) -> SplitModel:
    """The split of ``model`` before its last linear layer."""
    return SplitModel(model)


# -- serialization -----------------------------------------------------------
#
# Two files per model: ``<path>.manifest``, one line such as
# ``layers=16,64,5 prefix= trainable=0`` (the layer sizes, the parameter name
# prefix and the store's trainable flag), and ``<path>.params``, the store's
# ``flat`` as little-endian float64. Round-trip is bitwise exact.

_MANIFEST = re.compile(r"layers=([1-9][0-9]*(?:,[1-9][0-9]*)+) prefix=(\S*) trainable=([01])\n?")


def save_params(model: Mlp, path: str) -> None:
    sizes = ",".join(map(str, model.layer_sizes))
    with open(path + ".manifest", "w") as fh:
        fh.write(f"layers={sizes} prefix={model.prefix} trainable={int(not model.store.frozen)}\n")
    with open(path + ".params", "wb") as fh:
        fh.write(model.store.flat.astype("<f8").tobytes())


def load_params(path: str) -> Mlp:
    """The model ``save_params`` wrote, or ``CorruptFileError`` unless the
    manifest is that one line, the payload is exactly as long as its layer
    sizes need (checked before anything is allocated) and every value is
    finite."""
    manifest = path + ".manifest"
    payload = path + ".params"
    if not os.path.exists(manifest) or not os.path.exists(payload):
        raise CorruptFileError(f"missing parameter files at {path!r}")
    try:
        with open(manifest, encoding="utf-8") as fh:
            found = _MANIFEST.fullmatch(fh.read())
    except UnicodeDecodeError:
        found = None
    if found is None:
        raise CorruptFileError(
            f"manifest {manifest} is not one line 'layers=N,N,... prefix=P trainable=0|1'"
        )
    sizes = [int(s) for s in found[1].split(",")]
    need = 8 * sum(fi * fo + fo for fi, fo in zip(sizes, sizes[1:]))
    have = os.path.getsize(payload)
    if have != need:
        raise CorruptFileError(f"payload {payload} has {have} bytes, layers {found[1]} need {need}")
    values = np.fromfile(payload, "<f8")
    if not np.isfinite(values).all():
        raise CorruptFileError(f"payload {payload} holds a non-finite value")
    model = Mlp(sizes, prefix=found[2])
    model.store.flat[...] = values
    if found[3] == "0":
        model.store.freeze()
    return model
