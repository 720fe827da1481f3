"""Feed-forward models, the encoder/predictor split, freezing, serialization.

An ``Mlp`` is a stack of linear layers with relu between them and an identity
output. Its parameters live in a ``ParamStore``: named views of one flat
float64 vector, so training updates them all with one vectorized optimizer
step. A store is trainable or ``frozen`` as a whole; its checksum makes the
freeze contract checkable (frozen bytes must survive a whole training run).
``Mlp.forward_train`` is the one NumPy layer loop: inference takes its last
entry, and training hands all of it to ``Mlp.backward_train``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import tensor as T
from .errors import ContractError, CorruptFileError, ShapeMismatchError, UsageError

Array = np.ndarray


class ParamStore:
    """Named parameters, in insertion order, as views into one contiguous
    float64 vector ``flat``; ``frozen`` marks the whole store untrainable."""

    def __init__(self):
        self._values: dict[str, Array] = {}
        self.flat = np.zeros(0)
        self.frozen = False

    def add(self, name: str, value: Array) -> None:
        if name in self._values:
            raise UsageError(f"duplicate parameter name {name!r}")
        self._values[name] = np.asarray(value, dtype=np.float64)
        self.flat = np.concatenate([self.flat, self._values[name].ravel()])
        self._values = self.views(self.flat)

    def views(self, vec: Array) -> dict[str, Array]:
        """Each parameter's view of ``vec``, a vector laid out like ``flat``
        (a gradient, say)."""
        out = {}
        offset = 0
        for name, value in self._values.items():
            out[name] = vec[offset : offset + value.size].reshape(value.shape)
            offset += value.size
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __getitem__(self, name: str) -> Array:
        return self._values[name]

    def set_value(self, name: str, value: Array) -> None:
        p = self._values[name]
        if p.shape != value.shape:
            raise ShapeMismatchError(f"set_value {name}: {p.shape} vs {value.shape}")
        p[...] = value

    def names(self) -> list[str]:
        return list(self._values)

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

    Weight ``w{i}`` has shape (fan_in, fan_out); bias ``b{i}`` shape (fan_out,).
    Weights init uniform(-a, a), a = sqrt(6 / (fan_in + fan_out)); biases zero.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        store: ParamStore | None = None,
        prefix: str = "",
        seed: int = 0,
        init: bool = True,
    ):
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise UsageError(f"bad layer sizes {layer_sizes}")
        self.layer_sizes = list(layer_sizes)
        self.prefix = prefix
        self.store = store if store is not None else ParamStore()
        self._layers_of: Array | None = None
        self._resolved: list[tuple[Array, Array, str, str]] = []
        if init:
            rng = np.random.default_rng(seed)
            for i, (fi, fo) in enumerate(zip(layer_sizes, layer_sizes[1:])):
                a = np.sqrt(6.0 / (fi + fo))
                self.store.add(f"{prefix}w{i}", rng.uniform(-a, a, size=(fi, fo)))
                self.store.add(f"{prefix}b{i}", np.zeros(fo))

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @classmethod
    def from_store(cls, store: ParamStore, prefix: str = "") -> "Mlp":
        """The model whose layers ``w0, b0, w1, ...`` the store holds;
        ``CorruptFileError`` unless they chain."""
        sizes: list[int] = []
        i = 0
        while f"{prefix}w{i}" in store:
            w = store[f"{prefix}w{i}"]
            if w.ndim != 2 or (sizes and w.shape[0] != sizes[-1]):
                raise CorruptFileError(
                    f"{prefix}w{i} has shape {w.shape}; the weights must chain "
                    "as (fan_in, fan_out) matrices"
                )
            b = f"{prefix}b{i}"
            if b not in store or store[b].shape != (w.shape[1],):
                raise CorruptFileError(f"{b} missing or not shaped ({w.shape[1]},)")
            if not sizes:
                sizes.append(w.shape[0])
            sizes.append(w.shape[1])
            i += 1
        if len(sizes) < 2:
            raise UsageError(f"no layers with prefix {prefix!r} in store")
        return cls(sizes, store=store, prefix=prefix, init=False)

    def forward(self, x: T.Tensor, leaves: Mapping[str, T.Tensor]) -> T.Tensor:
        """The forward on the tape; ``leaves`` maps parameter names to leaf
        tensors."""
        self._check_width(x, 0)
        h = x
        for i in range(self.n_layers):
            h = T.linear(h, leaves[f"{self.prefix}w{i}"], leaves[f"{self.prefix}b{i}"])
            if i < self.n_layers - 1:
                h = T.relu(h)
        return h

    def _check_width(self, x, layer: int) -> None:
        if x.shape[1] != self.layer_sizes[layer]:
            raise ShapeMismatchError(
                f"input width {x.shape[1]} != model input dim {self.layer_sizes[layer]}"
            )

    def _layers(self) -> list[tuple[Array, Array, str, str]]:
        """``(w, b, w name, b name)`` per layer; the arrays are views of the
        store's ``flat``, resolved again only after ``flat`` was replaced
        (a parameter added to the store)."""
        if self._layers_of is not self.store.flat:
            names = [(f"{self.prefix}w{i}", f"{self.prefix}b{i}") for i in range(self.n_layers)]
            self._resolved = [(self.store[w], self.store[b], w, b) for w, b in names]
            self._layers_of = self.store.flat
        return self._resolved

    def forward_np(self, x: Array) -> Array:
        """Inference-only forward on raw arrays; matches forward() bitwise."""
        return self.forward_train(x)[-1]

    def forward_train(self, x: Array, start: int = 0, stop: int | None = None) -> list[Array]:
        """Layers ``start`` up to ``stop`` (default: the last) on raw arrays,
        keeping what ``backward_train`` needs: the input of every layer, then
        the output (the last entry), each a fresh array. ``ShapeMismatchError``
        unless ``x`` is as wide as layer ``start``'s input."""
        self._check_width(x, start)
        layers = self._layers()
        last = len(layers) - 1
        h = np.asarray(x, dtype=np.float64)
        acts = [h]
        for i in range(start, last + 1 if stop is None else stop):
            w, b = layers[i][:2]
            h = T.linear_np(h, w, b)
            if i < last:
                T.relu_np(h, out=h)
            acts.append(h)
        return acts

    def backward_train(
        self,
        acts: list[Array],
        g: Array,
        grads: Mapping[str, Array] | None,
        start: int = 0,
    ) -> Array | None:
        """Backpropagate the output gradient ``g`` of a ``forward_train``
        pass.

        A trainable model passes ``grads``, views into the flat gradient
        vector, and each layer writes its weight and bias gradient there. A
        frozen one passes None and gets the gradient wrt its input back.
        """
        layers = self._layers()
        last = len(layers) - 1
        for i in range(last, start - 1, -1):
            w, _, w_name, b_name = layers[i]
            if i < last:
                g = T.relu_grad(g, acts[i - start + 1])
            if grads is not None:
                T.linear_grad_b(g, out=grads[b_name])
                T.linear_grad_w(g, acts[i - start], out=grads[w_name])
            if i > start or grads is None:
                g = T.linear_grad_x(g, w)
        return None if grads is not None else g


@dataclass
class SplitModel:
    """A frozen model split into encoder g and predictor c at a layer boundary.

    ``split_index`` counts linear layers in the encoder; 0 means an identity
    encoder (embedding space == input space), which keeps the oracle feature
    decomposition meaningful for bound diagnostics.
    """

    model: Mlp
    split_index: int

    def __post_init__(self):
        if not (0 <= self.split_index < self.model.n_layers):
            raise UsageError(
                f"split index {self.split_index} out of range for "
                f"{self.model.n_layers}-layer model"
            )

    @property
    def embedding_dim(self) -> int:
        return self.model.layer_sizes[self.split_index]

    @property
    def predictor_is_affine(self) -> bool:
        return self.model.n_layers - self.split_index == 1

    def encode_np(self, x: Array) -> Array:
        return self.model.forward_train(x, 0, self.split_index)[-1]

    def predict_np(self, z: Array) -> Array:
        return self.model.forward_train(z, self.split_index)[-1]

    def predictor_affine_params(self) -> tuple[Array, Array]:
        if not self.predictor_is_affine:
            raise ContractError("predictor is not a single linear layer")
        i = self.split_index
        return (
            self.model.store[f"{self.model.prefix}w{i}"],
            self.model.store[f"{self.model.prefix}b{i}"],
        )


def split_model(model: Mlp, split_index: int | None = None) -> SplitModel:
    """Split a model into encoder/predictor; default keeps the last linear
    layer as the predictor, so the predictor is affine."""
    if split_index is None:
        split_index = model.n_layers - 1
    return SplitModel(model, split_index)


# -- serialization -----------------------------------------------------------
#
# Two files per store: ``<path>.manifest`` (text; one key/value line per
# parameter: name, shape, byte offset, the store's trainable flag) and
# ``<path>.params`` (``flat``, little-endian float64). Round-trip is bitwise
# exact.


def save_params(store: ParamStore, path: str) -> None:
    lines = [f"count={len(store.names())}"]
    offset = 0
    for name in store.names():
        value = store[name]
        shape = "x".join(str(s) for s in value.shape) or "scalar"
        lines.append(
            f"name={name} shape={shape} offset={offset} trainable={int(not store.frozen)}"
        )
        offset += value.size * 8
    with open(path + ".manifest", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path + ".params", "wb") as fh:
        fh.write(store.flat.astype("<f8").tobytes())


def _manifest_entry(line: str) -> tuple[str, tuple[int, ...], int, bool]:
    """``name=... shape=AxB offset=N trainable=0|1`` -> its parsed fields."""
    fields = dict(tok.split("=", 1) for tok in line.split())
    shape = () if fields["shape"] == "scalar" else tuple(map(int, fields["shape"].split("x")))
    if any(s < 0 for s in shape):
        raise ValueError(f"negative dimension in shape {shape}")
    return fields["name"], shape, int(fields["offset"]), bool(int(fields["trainable"]))


def load_params(path: str) -> ParamStore:
    """The store ``save_params`` wrote: entries laid end to end in order,
    unique names and one trainable flag, or ``CorruptFileError``."""
    manifest = path + ".manifest"
    payload_path = path + ".params"
    if not os.path.exists(manifest) or not os.path.exists(payload_path):
        raise CorruptFileError(f"missing parameter files at {path!r}")
    with open(manifest) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("count="):
        raise CorruptFileError(f"bad manifest header in {manifest}")
    try:
        count = int(lines[0].split("=", 1)[1])
        entries = [_manifest_entry(ln) for ln in lines[1:]]
    except (KeyError, ValueError) as exc:
        raise CorruptFileError(f"bad manifest entry in {manifest}: {exc!r}") from None
    if len(entries) != count:
        raise CorruptFileError(
            f"manifest {manifest} declares {count} entries, found {len(entries)}"
        )
    names = [e[0] for e in entries]
    if len(set(names)) != len(names):
        raise CorruptFileError(f"manifest {manifest} repeats a parameter name")
    flags = {e[3] for e in entries}
    if len(flags) > 1:
        raise CorruptFileError(f"manifest {manifest} mixes trainable flags")
    with open(payload_path, "rb") as fh:
        payload = fh.read()

    store = ParamStore()
    end = 0
    for name, shape, offset, _ in entries:
        if offset != end:
            raise CorruptFileError(
                f"manifest {manifest}: {name} at byte {offset}, expected {end}"
            )
        size = int(np.prod(shape, dtype=np.int64))
        end += size * 8
        if end > len(payload):
            raise CorruptFileError(
                f"payload {payload_path} truncated: need {end} bytes, have {len(payload)}"
            )
        store.add(name, np.frombuffer(payload, "<f8", size, offset).reshape(shape))
    if end != len(payload):
        raise CorruptFileError(
            f"payload {payload_path} length {len(payload)} != manifest total {end}"
        )
    if not np.isfinite(store.flat).all():
        raise CorruptFileError(f"payload {payload_path} holds a non-finite value")
    if flags == {False}:
        store.freeze()
    return store
