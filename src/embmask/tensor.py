"""Dense float64 tensors with reverse-mode automatic differentiation.

numpy-backed: every op computes its forward in NumPy, records its parents
and a hand-derived local backward, and ``Tensor.backward()`` replays the
implicit tape in reverse topological order. The op set is exactly what the
two training graphs need: ``linear`` (x @ w + b), ``relu``, elementwise
``mul`` (equal shapes) and ``cross_entropy``; the mask op lives in
``embmask.mask``. The tape remains only because the benchmark's tracer
hooks ``Tensor`` and ``backward_grads``.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .errors import NumericError, ShapeMismatchError, UsageError

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
    return Tensor(x)


def accumulate(t: Tensor, grad: Callable[[], Array]) -> None:
    """Add ``grad()`` into ``t.grad``; the gradient is only computed when
    ``t`` requires one. Ops defined outside this module use it too."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += grad()


# -- ops ------------------------------------------------------------------------


def linear(x, w, b) -> Tensor:
    """x @ w + b for an n-by-k x, k-by-m w and length-m b. Any operand may be
    a raw array (a constant)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if (
        x.data.ndim != 2
        or w.data.ndim != 2
        or x.shape[1] != w.shape[0]
        or b.shape != (w.shape[1],)
    ):
        raise ShapeMismatchError(f"linear: shapes {x.shape}, {w.shape} and {b.shape}")
    out = Tensor(x.data @ w.data + b.data, _parents=(x, w, b))

    def bw(g: Array) -> None:
        accumulate(b, lambda: g.sum(axis=0))
        accumulate(x, lambda: g @ w.data.T)
        accumulate(w, lambda: x.data.T @ g)

    out._backward_fn = bw
    return out


def relu(x) -> Tensor:
    # Subgradient 0 at exactly 0.
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0), _parents=(x,))

    def bw(g: Array) -> None:
        accumulate(x, lambda: g * (x.data > 0.0))

    out._backward_fn = bw
    return out


def mul(a, b) -> Tensor:
    """Elementwise product of two equal-shape operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mul: shapes {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data, _parents=(a, b))

    def bw(g: Array) -> None:
        accumulate(a, lambda: g * b.data)
        accumulate(b, lambda: g * a.data)

    out._backward_fn = bw
    return out


def cross_entropy(q, logits) -> Tensor:
    """Mean over rows of -sum_j q_ij log softmax(logits)_ij; q is a constant.

    Raises NumericError on non-finite logits or target weights, so a
    diverged model or a broken target cannot yield a NaN loss.
    """
    q = np.asarray(q, dtype=np.float64)
    x = _as_tensor(logits)
    if x.data.ndim != 2 or q.shape != x.shape:
        raise ShapeMismatchError(
            f"cross_entropy: target {q.shape} and logits {x.shape}"
        )
    if not np.isfinite(x.data).all():
        raise NumericError("cross_entropy: non-finite logits")
    if not np.isfinite(q).all():
        raise NumericError("cross_entropy: non-finite target weights")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    lsm = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    scale = -1.0 / q.shape[0]
    out = Tensor(np.sum(q * lsm) * scale, _parents=(x,))

    def bw(g: Array) -> None:
        d = (g * scale) * q
        accumulate(x, lambda: d - np.exp(lsm) * d.sum(axis=1, keepdims=True))

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
