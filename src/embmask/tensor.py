"""Array arithmetic of the training graphs, and the autodiff tape that is
the tests' reference for it.

Training does not use the tape: ``nn``, ``mask`` and ``train`` run fused
NumPy steps that call the array functions here (``linear_np``,
``linear_grad_*``, ``relu_np``, ``relu_grad``, ``cross_entropy_np``,
``cross_entropy_grad``) directly. The tape ops ``linear``, ``relu``, ``mul``
and ``cross_entropy`` call the same functions, record their parents, and
``Tensor.backward()`` replays them in reverse topological order, so the
tests can compare the fused gradients with ``backward_grads`` bit for bit
and finite-difference both. The benchmark's tracer also hooks ``Tensor``
and ``backward_grads``.
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
    ``t`` requires one. Ops defined outside this module use it too.

    The first contribution is stored as computed, so a node with one
    consumer holds exactly the array the fused steps compute, down to the
    sign of a zero.
    """
    if not t.requires_grad:
        return
    g = grad()
    t.grad = g if t.grad is None else t.grad + g


# -- array arithmetic, shared by the tape ops and the fused training steps -------


def linear_np(x: Array, w: Array, b: Array) -> Array:
    return x @ w + b


def linear_grad_x(g: Array, w: Array) -> Array:
    return g @ w.T


def linear_grad_w(g: Array, x: Array) -> Array:
    return x.T @ g


def linear_grad_b(g: Array) -> Array:
    return g.sum(axis=0)


def relu_np(x: Array) -> Array:
    return np.maximum(x, 0.0)


def relu_grad(g: Array, x: Array) -> Array:
    """Subgradient 0 at exactly 0. ``x`` may be relu's input or its output:
    both are positive at the same entries."""
    return g * (x > 0.0)


def cross_entropy_np(q: Array, x: Array) -> tuple[Array, Array]:
    """Mean over rows of -sum_j q_ij log softmax(x)_ij, and log softmax(x).

    Raises NumericError on non-finite logits or target weights, so a
    diverged model or a broken target cannot yield a NaN loss.
    """
    if x.ndim != 2 or q.shape != x.shape:
        raise ShapeMismatchError(f"cross_entropy: target {q.shape} and logits {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("cross_entropy: non-finite logits")
    if not np.isfinite(q).all():
        raise NumericError("cross_entropy: non-finite target weights")
    shifted = x - x.max(axis=1, keepdims=True)
    lsm = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return np.sum(q * lsm) * (-1.0 / q.shape[0]), lsm


def cross_entropy_grad(g, q: Array, lsm: Array) -> Array:
    """Gradient wrt the logits, given the loss gradient ``g`` (1 at the root)."""
    d = (g * (-1.0 / q.shape[0])) * q
    return d - np.exp(lsm) * d.sum(axis=1, keepdims=True)


# -- tape ops ---------------------------------------------------------------------


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
    out = Tensor(linear_np(x.data, w.data, b.data), _parents=(x, w, b))

    def bw(g: Array) -> None:
        accumulate(b, lambda: linear_grad_b(g))
        accumulate(x, lambda: linear_grad_x(g, w.data))
        accumulate(w, lambda: linear_grad_w(g, x.data))

    out._backward_fn = bw
    return out


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(relu_np(x.data), _parents=(x,))

    def bw(g: Array) -> None:
        accumulate(x, lambda: relu_grad(g, x.data))

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
    """``cross_entropy_np`` on the tape; q is a constant."""
    q = np.asarray(q, dtype=np.float64)
    x = _as_tensor(logits)
    loss, lsm = cross_entropy_np(q, x.data)
    out = Tensor(loss, _parents=(x,))
    out._backward_fn = lambda g: accumulate(x, lambda: cross_entropy_grad(g, q, lsm))
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
