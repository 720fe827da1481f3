"""Dense float64 tensors with reverse-mode automatic differentiation.

numpy-backed and micrograd-style: every operation records its parents and a
backward closure, and ``Tensor.backward()`` replays the implicit tape in
reverse topological order. The op set is deliberately small -- just what a
feed-forward network plus the Gumbel-Softmax mask pipeline needs. Binary ops
require equal shapes; the only broadcasting allowed is scalar-with-tensor.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .errors import MathDomainError, NumericError, ShapeMismatchError, UsageError

Array = np.ndarray


class Tensor:
    """A float64 array that may participate in a recorded computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward_fn: Callable[[Array], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- backward pass ----------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every reachable tensor that requires grad.

        Only valid on scalar (single-element) tensors.
        """
        if self.data.size != 1:
            raise UsageError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _accum(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    if t.data.size == 1 and g.shape != t.data.shape:
        g = np.sum(g).reshape(t.data.shape)
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _check_binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape}")


# -- elementwise binary ops ------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "add")
    out = Tensor(a.data + b.data, _parents=(a, b))

    def bw(g: Array) -> None:
        _accum(a, g)
        _accum(b, g)

    out._backward_fn = bw
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "sub")
    out = Tensor(a.data - b.data, _parents=(a, b))

    def bw(g: Array) -> None:
        _accum(a, g)
        _accum(b, -g)

    out._backward_fn = bw
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes(a, b, "mul")
    out = Tensor(a.data * b.data, _parents=(a, b))

    def bw(g: Array) -> None:
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    out._backward_fn = bw
    return out


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def bw(g: Array) -> None:
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    out._backward_fn = bw
    return out


def add_rowvec(a, v) -> Tensor:
    """Add a length-m row vector to every row of an n-by-m matrix.

    Explicit op rather than implicit broadcasting so the backward rule
    (column-sum into the vector) stays auditable.
    """
    a, v = _as_tensor(a), _as_tensor(v)
    if a.data.ndim != 2 or v.data.ndim != 1 or a.shape[1] != v.shape[0]:
        raise ShapeMismatchError(f"add_rowvec: shapes {a.shape} and {v.shape}")
    out = Tensor(a.data + v.data[None, :], _parents=(a, v))

    def bw(g: Array) -> None:
        _accum(a, g)
        _accum(v, g.sum(axis=0))

    out._backward_fn = bw
    return out


# -- elementwise unary ops ---------------------------------------------------


def log(x) -> Tensor:
    x = _as_tensor(x)
    bad = x.data <= 0.0
    if bad.any():
        idx = int(np.argmax(bad.ravel()))
        raise MathDomainError(
            f"log: non-positive input {x.data.ravel()[idx]} at flat index {idx}"
        )
    out = Tensor(np.log(x.data), _parents=(x,))

    def bw(g: Array) -> None:
        _accum(x, g / x.data)

    out._backward_fn = bw
    return out


def sigmoid_np(x: Array) -> Array:
    """Numerically stable logistic function on raw arrays."""
    pos = x >= 0
    out = np.empty_like(x, dtype=np.float64)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    s = sigmoid_np(x.data)
    out = Tensor(s, _parents=(x,))

    def bw(g: Array) -> None:
        _accum(x, g * s * (1.0 - s))

    out._backward_fn = bw
    return out


def relu(x) -> Tensor:
    # Subgradient 0 at exactly 0.
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), _parents=(x,))

    def bw(g: Array) -> None:
        _accum(x, g * (x.data > 0.0))

    out._backward_fn = bw
    return out


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes through unclipped entries."""
    x = _as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi), _parents=(x,))
    inside = (x.data >= lo) & (x.data <= hi)

    def bw(g: Array) -> None:
        _accum(x, g * inside)

    out._backward_fn = bw
    return out


# -- row-wise normalizers ------------------------------------------------------


def log_softmax_rows(logits) -> Tensor:
    x = _as_tensor(logits)
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"log_softmax_rows: expected 2-d input, got {x.shape}")
    if np.isnan(x.data).any():
        raise NumericError("log_softmax_rows: NaN in input")
    mx = x.data.max(axis=1, keepdims=True)
    shifted = x.data - mx
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    lsm = shifted - lse
    out = Tensor(lsm, _parents=(x,))
    s = np.exp(lsm)

    def bw(g: Array) -> None:
        _accum(x, g - s * g.sum(axis=1, keepdims=True))

    out._backward_fn = bw
    return out


# -- reductions -------------------------------------------------------------


def tsum(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.sum(x.data), _parents=(x,))

    def bw(g: Array) -> None:
        _accum(x, np.broadcast_to(g, x.data.shape).copy())

    out._backward_fn = bw
    return out


# -- gradient utilities ---------------------------------------------------------


def backward_grads(loss: Tensor, leaves: Mapping[str, Tensor]) -> dict[str, Array]:
    """Run backward from ``loss`` and return gradients keyed by leaf name.

    Leaves with ``requires_grad=False`` (frozen parameters) get no entry.
    """
    loss.backward()
    grads: dict[str, Array] = {}
    for name, leaf in leaves.items():
        if leaf.requires_grad:
            grads[name] = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
    return grads


def grad_check(
    f: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, Array],
    eps: float = 1e-5,
) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` maps a dict of named leaf tensors to a scalar loss and must be
    deterministic given its inputs. Returns the maximum over all parameter
    entries of |analytic - numeric| / max(1, |analytic|).
    """
    leaves = {
        k: Tensor(np.array(v, dtype=np.float64, copy=True), requires_grad=True)
        for k, v in params.items()
    }
    loss = f(leaves)
    analytic = backward_grads(loss, leaves)

    max_rel = 0.0
    for name, base in params.items():
        base = np.asarray(base, dtype=np.float64)
        a_grad = analytic.get(name, np.zeros_like(base))
        num = np.zeros_like(base)
        flat = base.ravel()
        for i in range(flat.size):
            plus = flat.copy()
            plus[i] += eps
            minus = flat.copy()
            minus[i] -= eps
            lp = f(_const_leaves(params, name, plus.reshape(base.shape))).item()
            lm = f(_const_leaves(params, name, minus.reshape(base.shape))).item()
            num.ravel()[i] = (lp - lm) / (2.0 * eps)
        rel = np.abs(a_grad - num) / np.maximum(1.0, np.abs(a_grad))
        if rel.size:
            max_rel = max(max_rel, float(rel.max()))
    return max_rel


def _const_leaves(
    params: Mapping[str, Array], replace: str, value: Array
) -> dict[str, Tensor]:
    out = {}
    for k, v in params.items():
        data = value if k == replace else np.asarray(v, dtype=np.float64)
        out[k] = Tensor(np.array(data, copy=True), requires_grad=False)
    return out

