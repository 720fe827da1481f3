"""Array arithmetic of the training graphs, and a small autodiff tape.

Training does not use the tape: ``nn``, ``mask`` and ``train`` run fused
NumPy steps that call the array functions here (``linear_np``,
``linear_grad_*``, ``relu_np``, ``relu_grad``, ``cross_entropy_np``,
``cross_entropy_grad``) directly, passing ``out`` where a result belongs in
an existing array (a gradient view, or relu over a fresh layer output). The
tape ops ``linear``, ``relu`` and ``cross_entropy`` call the same functions
and record their parents, and ``Tensor.backward()`` replays them in reverse
topological order. The tape is kept only for the benchmark's tracer, which
hooks ``Tensor``, ``backward_grads`` and tape-built names in ``nn``, ``mask``
and ``train``; the tests compare the fused ERM and EMG gradients with
``backward_grads`` bit for bit. ``cross_entropy_np`` checks the logits on
every call but not the target, which ``train`` checks once per fit where it
builds it.
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
    out = x @ w
    out += b
    return out


def linear_grad_x(g: Array, w: Array) -> Array:
    return g @ w.T


def linear_grad_w(g: Array, x: Array, out: Array | None = None) -> Array:
    return np.matmul(x.T, g, out=out)


def linear_grad_b(g: Array, out: Array | None = None) -> Array:
    return np.add.reduce(g, axis=0, out=out)


def relu_np(x: Array, out: Array | None = None) -> Array:
    return np.maximum(x, 0.0, out=out)


def relu_grad(g: Array, x: Array) -> Array:
    """Subgradient 0 at exactly 0. ``x`` may be relu's input or its output:
    both are positive at the same entries."""
    return g * (x > 0.0)


def cross_entropy_np(q: Array, x: Array) -> tuple[Array, Array]:
    """Mean over rows of -sum_j q_ij log softmax(x)_ij, and log softmax(x).

    Raises NumericError on non-finite logits, so a diverged model cannot
    yield a NaN loss. The target ``q`` is not scanned: the callers build it
    finite once per fit (``train._onehot`` and ``train._softmax_target``
    check what they are given).
    """
    if x.ndim != 2 or q.shape != x.shape:
        raise ShapeMismatchError(f"cross_entropy: target {q.shape} and logits {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("cross_entropy: non-finite logits")
    lsm = x - np.maximum.reduce(x, axis=1, keepdims=True)
    lse = np.add.reduce(np.exp(lsm), axis=1, keepdims=True)
    lsm -= np.log(lse, out=lse)
    return np.add.reduce(q * lsm, axis=None) * (-1.0 / q.shape[0]), lsm


def cross_entropy_grad(g, q: Array, lsm: Array) -> Array:
    """Gradient wrt the logits, given the loss gradient ``g`` (1 at the root)."""
    d = (g * (-1.0 / q.shape[0])) * q
    p = np.exp(lsm)
    p *= np.add.reduce(d, axis=1, keepdims=True)
    return np.subtract(d, p, out=d)


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
