"""Unit tests for repro.nn.functional operations."""

import numpy as np
import pytest

from repro.nn import F, Tensor

from .gradcheck import check_gradient


class TestElementwise:
    def test_exp_forward(self):
        np.testing.assert_allclose(F.exp(Tensor([0.0, 1.0])).data, [1.0, np.e])

    def test_exp_grad(self):
        check_gradient(F.exp, np.array([-1.0, 0.5, 2.0]))

    def test_log_grad(self):
        check_gradient(F.log, np.array([0.5, 1.0, 3.0]))

    def test_tanh_grad(self):
        check_gradient(F.tanh, np.array([-2.0, 0.0, 1.5]))

    def test_sigmoid_forward_extremes_stable(self):
        out = F.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_sigmoid_grad(self):
        check_gradient(F.sigmoid, np.array([-3.0, 0.1, 2.0]))

    def test_relu_forward(self):
        np.testing.assert_allclose(F.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_relu_grad(self):
        check_gradient(F.relu, np.array([-1.0, 0.5, 2.0]))

    def test_abs_grad(self):
        check_gradient(F.abs_, np.array([-2.0, 0.7, 3.0]))

    def test_sign_zero_grad(self):
        t = Tensor([-2.0, 3.0], requires_grad=True)
        F.sign(t).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.0])

    def test_sin_cos_grads(self):
        check_gradient(F.sin, np.array([0.0, 1.0, np.pi]))
        check_gradient(F.cos, np.array([0.0, 1.0, np.pi]))

    def test_arctan2_forward_quadrants(self):
        out = F.arctan2(Tensor([1.0, -1.0]), Tensor([-1.0, -1.0]))
        np.testing.assert_allclose(out.data, [3 * np.pi / 4, -3 * np.pi / 4])

    def test_arctan2_grads(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=5) + 2.0
        x = rng.normal(size=5) + 2.0
        check_gradient(lambda t: F.arctan2(t, Tensor(x)), y)
        check_gradient(lambda t: F.arctan2(Tensor(y), t), x)

    def test_clip_forward_and_grad_region(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        F.clip(t, -1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_wrap_angle_range(self):
        out = F.wrap_angle(Tensor(np.linspace(-10, 10, 21)))
        assert np.all(out.data >= 0.0) and np.all(out.data < 2 * np.pi)

    def test_wrap_angle_grad_passthrough(self):
        t = Tensor([7.0], requires_grad=True)
        F.wrap_angle(t).backward()
        np.testing.assert_allclose(t.grad, [1.0])


class TestPairwise:
    def test_maximum_forward(self):
        out = F.maximum(Tensor([1.0, 5.0]), Tensor([3.0, 2.0]))
        np.testing.assert_allclose(out.data, [3.0, 5.0])

    def test_minimum_grad_selects_smaller(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        F.minimum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])

    def test_extreme_tie_splits(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        F.maximum(a, b).backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [0.5])

    def test_where_selects(self):
        out = F.where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([9.0, 9.0]))
        np.testing.assert_allclose(out.data, [1.0, 9.0])

    def test_where_grad_masks(self):
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([9.0, 9.0], requires_grad=True)
        F.where(np.array([True, False]), a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestStructural:
    def test_concat_forward(self):
        out = F.concat([Tensor([[1.0]]), Tensor([[2.0]])], axis=1)
        np.testing.assert_allclose(out.data, [[1.0, 2.0]])

    def test_concat_grad_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = F.concat([a, b], axis=1) * Tensor(np.arange(10.0).reshape(2, 5))
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0], [5.0, 6.0]])
        np.testing.assert_allclose(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])

    def test_stack_forward(self):
        out = F.stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])], axis=0)
        assert out.shape == (2, 2)

    def test_stack_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (F.stack([a, b], axis=0) * Tensor([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 4.0])

    def test_softmax_rows_sum_to_one(self):
        out = F.softmax(Tensor(np.random.default_rng(1).normal(size=(4, 6))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_softmax_stable_for_large_inputs(self):
        out = F.softmax(Tensor([1000.0, 1000.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_softmax_grad(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        check_gradient(lambda t: F.softmax(t, axis=-1) * Tensor(w),
                       rng.normal(size=(3, 4)))


class TestGatherRows:
    def test_gather_forward(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = F.gather_rows(table, [2, 0])
        np.testing.assert_allclose(out.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])

    def test_gather_grad_scatter_adds(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        F.gather_rows(table, [1, 1, 3]).sum().backward()
        np.testing.assert_allclose(table.grad,
                                   [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_gather_2d_index(self):
        table = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = F.gather_rows(table, np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 2)
        out.sum().backward()
        np.testing.assert_allclose(table.grad, np.ones((4, 2)))
