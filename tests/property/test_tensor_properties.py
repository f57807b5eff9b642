"""Hypothesis property tests for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import F, Tensor

from ..nn import composed

finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False, width=64)


def small_arrays(min_side=1, max_side=4):
    return arrays(np.float64,
                  array_shapes(min_dims=1, max_dims=2,
                               min_side=min_side, max_side=max_side),
                  elements=finite_floats)


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_add_commutative(x):
    a = Tensor(x)
    b = Tensor(x[::-1].copy() if x.ndim == 1 else x.T.copy().reshape(x.shape))
    np.testing.assert_allclose((a + b).data, (b + a).data)


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_exp_log_inverse(x):
    t = Tensor(x)
    np.testing.assert_allclose(F.log(F.exp(t)).data, x, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_sigmoid_bounded(x):
    out = F.sigmoid(Tensor(x)).data
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_softmax_is_distribution(x):
    out = F.softmax(Tensor(x), axis=-1).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(out >= 0.0)


@settings(max_examples=50, deadline=None)
@given(small_arrays())
def test_wrap_angle_idempotent(x):
    once = F.wrap_angle(Tensor(x)).data
    twice = F.wrap_angle(Tensor(once)).data
    np.testing.assert_allclose(once, twice, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_sum_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


@settings(max_examples=30, deadline=None)
@given(small_arrays(), finite_floats)
def test_scalar_mul_gradient(x, scalar):
    t = Tensor(x, requires_grad=True)
    (t * scalar).sum().backward()
    np.testing.assert_allclose(t.grad, np.full_like(x, scalar))


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_chain_rule_linear_composition(x):
    # d/dx of sum(3 * (2x + 1)) = 6
    t = Tensor(x, requires_grad=True)
    ((t * 2.0 + 1.0) * 3.0).sum().backward()
    np.testing.assert_allclose(t.grad, np.full_like(x, 6.0))


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_minimum_le_both(x):
    a = Tensor(x)
    b = Tensor(np.roll(x, 1))
    out = F.minimum(a, b).data
    assert np.all(out <= a.data + 1e-12)
    assert np.all(out <= b.data + 1e-12)


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_logsigmoid_negative_softplus_identity(x):
    t = Tensor(x)
    np.testing.assert_allclose(F.log_sigmoid(t).data,
                               -composed.softplus(-t).data, atol=1e-12)
