"""Autograd engine: op semantics, gradients, and the finite-difference harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embmask import tensor as T
from embmask.errors import ShapeMismatchError, UsageError


def _total(t):
    """Sum of all entries of a 2-d tensor: ones(1, n) @ t @ ones(m, 1)."""
    n, m = t.shape
    col_sums = T.linear(np.ones((1, n)), t, np.zeros(m))
    return T.linear(col_sums, np.ones((m, 1)), np.zeros(1))


def _softmax(logits):
    """exp(log softmax) entry by entry, read off one-row cross entropies:
    cross_entropy(e_j, row) = -log softmax(row)_j."""
    logits = np.asarray(logits, dtype=np.float64)
    out = np.empty_like(logits)
    for i, j in np.ndindex(*logits.shape):
        onehot = np.zeros((1, logits.shape[1]))
        onehot[0, j] = 1.0
        out[i, j] = np.exp(-T.cross_entropy(onehot, logits[i : i + 1]).item())
    return out


def _softmax_weights(rng, shape):
    q = np.exp(rng.normal(size=shape))
    return q / q.sum(axis=1, keepdims=True)


# -- forward semantics --------------------------------------------------------


def test_matmul_identity():
    m = np.array([[1.5, -2.0], [0.25, 7.0]])
    out = T.linear(T.Tensor(np.eye(2)), T.Tensor(m), np.zeros(2))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_oracle():
    out = T.linear(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[5.0], [6.0]]), np.zeros(1))
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_linear_adds_bias_to_every_row():
    out = T.linear(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 0.0], [6.0, 1.0]]), np.array([0.5, -1.0]))
    np.testing.assert_array_equal(out.data, [[17.5, 1.0], [39.5, 3.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeMismatchError) as exc:
        T.linear(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))), np.zeros(3))
    assert "(2, 3)" in str(exc.value)
    with pytest.raises(ShapeMismatchError):
        T.linear(np.ones((2, 3)), np.ones((3, 2)), np.zeros(3))


def test_matmul_grad_is_ones_times_bt():
    a = np.array([[0.3, -1.2], [2.0, 0.5]])
    b = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]])
    ta = T.Tensor(a, requires_grad=True)
    tb = T.Tensor(b, requires_grad=True)
    bias = T.Tensor(np.zeros(3), requires_grad=True)
    _total(T.linear(ta, tb, bias)).backward()
    np.testing.assert_allclose(ta.grad, np.ones((2, 3)) @ b.T, rtol=0, atol=1e-15)
    np.testing.assert_allclose(tb.grad, a.T @ np.ones((2, 3)), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(bias.grad, [2.0, 2.0, 2.0])


def test_relu_definition():
    out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_binary_op_rejects_unequal_shapes():
    with pytest.raises(ShapeMismatchError):
        T.mul(T.Tensor(np.ones(3)), T.Tensor(np.ones(4)))


def test_mul_hand_oracle_and_grads():
    a = T.Tensor([[1.0, 2.0]], requires_grad=True)
    b = T.Tensor([[3.0, -4.0]], requires_grad=True)
    out = T.mul(a, b)
    np.testing.assert_array_equal(out.data, [[3.0, -8.0]])
    _total(out).backward()
    np.testing.assert_array_equal(a.grad, b.data)
    np.testing.assert_array_equal(b.grad, a.data)


def test_softmax_uniform_rows():
    out = _softmax([[0.0, 0.0, 0.0, 0.0]])
    np.testing.assert_allclose(out, [[0.25] * 4], atol=1e-15)


def test_softmax_extreme_logits_no_overflow():
    out = _softmax([[1000.0, 0.0]])
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-300)


def test_softmax_log_ratio_oracle():
    out = _softmax([[np.log(1.0), np.log(2.0), np.log(3.0)]])
    np.testing.assert_allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)


@settings(deadline=None, max_examples=60)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 6)),
        elements=st.floats(-50, 50),
    )
)
def test_softmax_rows_sum_to_one(logits):
    out = _softmax(logits)
    assert ((out >= 0.0) & (out <= 1.0)).all()
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_gradient_is_softmax_minus_target_over_n():
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    q = _softmax_weights(rng, (3, 4))
    T.cross_entropy(q, x).backward()
    np.testing.assert_allclose(x.grad, (_softmax(x.data) - q) / 3, rtol=0, atol=1e-15)


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        T.cross_entropy(np.ones((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ShapeMismatchError):
        T.cross_entropy(np.ones(3), np.zeros(3))


# -- backward -----------------------------------------------------------------


def test_backward_square():
    w = T.Tensor([3.0], requires_grad=True)
    T.mul(w, w).backward()
    np.testing.assert_array_equal(w.grad, [6.0])


def test_backward_requires_scalar_loss():
    w = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        T.mul(w, w).backward()


def test_frozen_leaf_absent_from_grad_map():
    leaves = {
        "w": T.Tensor(np.ones((3, 2)), requires_grad=True),
        "frozen": T.Tensor(np.ones(2), requires_grad=False),
    }
    loss = T.cross_entropy(np.full((4, 2), 0.5), T.linear(np.ones((4, 3)), leaves["w"], leaves["frozen"]))
    grads = T.backward_grads(loss, leaves)
    assert set(grads) == {"w"}


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))
    q = _softmax_weights(rng, (4, 2))

    def run():
        leaves = {"w": T.Tensor(w, requires_grad=True)}
        loss = T.cross_entropy(q, T.relu(T.linear(x, leaves["w"], np.zeros(2))))
        return T.backward_grads(loss, leaves)["w"], loss.item()

    g1, l1 = run()
    g2, l2 = run()
    assert l1 == l2
    assert (g1 == g2).all()


# -- grad_check harness ---------------------------------------------------------


def test_grad_check_linear_model():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    q = _softmax_weights(rng, (5, 2))

    def f(leaves):
        return T.cross_entropy(q, T.linear(x, leaves["w"], leaves["b"]))

    err = T.grad_check(f, {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)})
    assert err <= 1e-6


def test_grad_check_two_layer_relu():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3)) + 0.05  # keep pre-activations off the kink
    q = _softmax_weights(rng, (4, 2))

    def f(leaves):
        h = T.relu(T.linear(x, leaves["w0"], leaves["b0"]))
        return T.cross_entropy(q, T.linear(h, leaves["w1"], leaves["b1"]))

    params = {
        "w0": rng.normal(size=(3, 4)),
        "b0": rng.normal(size=4) + 0.3,
        "w1": rng.normal(size=(4, 2)),
        "b1": rng.normal(size=2),
    }
    assert T.grad_check(f, params) <= 1e-4


def test_grad_check_constant_function_is_zero():
    def f(leaves):
        return T.cross_entropy(np.ones((1, 2)), np.array([[0.0, 2.0]]))

    assert T.grad_check(f, {"w": np.ones(3)}) == 0.0


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_grad_check_random_smooth_composites(seed):
    # products of affine maps under cross entropy are smooth everywhere, so
    # the finite-difference bound applies at any random point.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 2))
    q = _softmax_weights(rng, (3, 4))

    def f(leaves):
        h = T.mul(T.linear(x, leaves["w"], leaves["b"]), T.linear(x, leaves["v"], leaves["b"]))
        return T.cross_entropy(q, h)

    params = {"w": rng.normal(size=(2, 4)), "v": rng.normal(size=(2, 4)), "b": rng.normal(size=4)}
    assert T.grad_check(f, params) <= 1e-4
