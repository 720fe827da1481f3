"""Autograd engine: op semantics, gradients, and the finite-difference harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embmask import tensor as T
from embmask.errors import MathDomainError, ShapeMismatchError, UsageError


def _mean(x):
    return T.mul(T.tsum(x), 1.0 / x.size)


def _softmax(logits):
    return np.exp(T.log_softmax_rows(T.Tensor(logits)).data)


# -- forward semantics --------------------------------------------------------


def test_matmul_identity():
    m = np.array([[1.5, -2.0], [0.25, 7.0]])
    out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_oracle():
    out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[5.0], [6.0]]))
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeMismatchError) as exc:
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_grad_is_ones_times_bt():
    a = np.array([[0.3, -1.2], [2.0, 0.5]])
    b = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]])
    ta = T.Tensor(a, requires_grad=True)
    T.tsum(T.matmul(ta, T.Tensor(b))).backward()
    np.testing.assert_allclose(ta.grad, np.ones((2, 3)) @ b.T, rtol=0, atol=1e-15)


def test_relu_definition():
    out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_log_exp_inverse_pair():
    out = T.log(T.Tensor([1.0, np.e, np.exp(0.3), 0.5]))
    np.testing.assert_allclose(out.data, [0.0, 1.0, 0.3, -np.log(2.0)], atol=1e-15)


def test_sigmoid_at_zero():
    assert T.sigmoid(T.Tensor([0.0])).data[0] == 0.5


def test_log_domain_error_reports_first_offender():
    with pytest.raises(MathDomainError) as exc:
        T.log(T.Tensor([1.0, 2.0, -3.0, 0.0]))
    assert "index 2" in str(exc.value)


def test_binary_op_rejects_unequal_shapes():
    with pytest.raises(ShapeMismatchError):
        T.add(T.Tensor(np.ones(3)), T.Tensor(np.ones(4)))


def test_scalar_broadcast_allowed():
    out = T.mul(T.Tensor(np.ones((2, 2))), 3.0)
    np.testing.assert_array_equal(out.data, 3.0 * np.ones((2, 2)))


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


# -- backward -----------------------------------------------------------------


def test_backward_square():
    w = T.Tensor([3.0], requires_grad=True)
    T.tsum(T.mul(w, w)).backward()
    np.testing.assert_array_equal(w.grad, [6.0])


def test_backward_requires_scalar_loss():
    w = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        T.mul(w, 2.0).backward()


def test_frozen_leaf_absent_from_grad_map():
    leaves = {
        "w": T.Tensor(np.ones(2), requires_grad=True),
        "frozen": T.Tensor(np.ones(2), requires_grad=False),
    }
    loss = T.tsum(T.mul(leaves["w"], leaves["frozen"]))
    grads = T.backward_grads(loss, leaves)
    assert set(grads) == {"w"}


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))

    def run():
        leaves = {"w": T.Tensor(w, requires_grad=True)}
        loss = _mean(T.sigmoid(T.matmul(T.Tensor(x), leaves["w"])))
        return T.backward_grads(loss, leaves)["w"], loss.item()

    g1, l1 = run()
    g2, l2 = run()
    assert l1 == l2
    assert (g1 == g2).all()


# -- grad_check harness ---------------------------------------------------------


def test_grad_check_linear_model():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))

    def f(leaves):
        return T.tsum(T.add_rowvec(T.matmul(T.Tensor(x), leaves["w"]), leaves["b"]))

    err = T.grad_check(f, {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)})
    assert err <= 1e-6


def test_grad_check_two_layer_relu():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3)) + 0.05  # keep pre-activations off the kink

    def f(leaves):
        h = T.relu(T.add_rowvec(T.matmul(T.Tensor(x), leaves["w0"]), leaves["b0"]))
        out = T.add_rowvec(T.matmul(h, leaves["w1"]), leaves["b1"])
        return _mean(T.mul(out, out))

    params = {
        "w0": rng.normal(size=(3, 4)),
        "b0": rng.normal(size=4) + 0.3,
        "w1": rng.normal(size=(4, 2)),
        "b1": rng.normal(size=2),
    }
    assert T.grad_check(f, params) <= 1e-4


def test_grad_check_constant_function_is_zero():
    def f(leaves):
        return T.tsum(T.mul(T.Tensor(np.ones(2)), 2.0))

    assert T.grad_check(f, {"w": np.ones(3)}) == 0.0


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_grad_check_random_smooth_composites(seed):
    # log/sigmoid/log-softmax composites are smooth everywhere, so the
    # finite-difference bound applies at any random point.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 2))

    def f(leaves):
        h = T.sigmoid(T.matmul(T.Tensor(x), leaves["w"]))
        h = T.log(T.add(h, 0.1))
        return _mean(T.mul(T.log_softmax_rows(h), h))

    assert T.grad_check(f, {"w": rng.normal(size=(2, 4))}) <= 1e-4
