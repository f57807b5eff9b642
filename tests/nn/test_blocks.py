"""Fused tape blocks == the op-by-op definitions they replaced, bit for bit.

Every comparison is ``np.array_equal`` on the output and on every input
gradient: a block replays its composed graph's arithmetic in that
graph's order, so there is nothing for a tolerance to absorb — a
mathematically equal regrouping of one backward shows up here as a
last-bit difference (DESIGN.md §14).  ``composed.py`` is the oracle.
The central-difference ``check_gradient`` runs on each block as well:
agreeing with the oracle says the block is the *old* gradient, the
numerical check says that gradient is the derivative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, F, Tensor

from . import composed
from .gradcheck import check_gradient

SETTINGS = dict(max_examples=40, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)


def leaf(values) -> Tensor:
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def run(build, *arrays, upstream_seed=0):
    """Build a graph from fresh leaves, backpropagate a random upstream
    gradient, return ``(output, [leaf gradients])``."""
    leaves = [leaf(a) for a in arrays]
    out = build(*leaves)
    upstream = np.random.default_rng(upstream_seed).normal(size=out.shape)
    out.backward(upstream)
    return out.data, [t.grad for t in leaves]


def assert_same(block, oracle):
    out_b, grads_b = block
    out_o, grads_o = oracle
    assert np.array_equal(out_b, out_o)
    for got, want in zip(grads_b, grads_o, strict=True):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.shape == want.shape
            assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Tensor.__sub__ / __rsub__
# ----------------------------------------------------------------------
class TestSub:
    @given(seeds, st.sampled_from([((4, 3), (4, 3)), ((4, 3), (3,)),
                                   ((4, 1, 3), (1, 5, 3)), ((3,), (2, 3)),
                                   ((2, 3), ())]))
    @settings(**SETTINGS)
    def test_matches_add_of_negation(self, seed, shapes):
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=shape) for shape in shapes)
        assert_same(run(lambda x, y: x - y, a, b),
                    run(composed.sub, a, b))

    @given(seeds)
    @settings(**SETTINGS)
    def test_accumulation_order_with_other_consumers(self, seed):
        """``y`` feeds the subtraction and two other ops: three
        contributions, so the order they arrive in shows in the sum."""
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, 5, 4))

        def graph(sub):
            return lambda a, b: sub(a * b, b) * F.sin(b) + F.exp(b)

        assert_same(run(graph(lambda p, q: p - q), x, y),
                    run(graph(composed.sub), x, y))

    def test_rsub(self):
        x = np.linspace(-2.0, 2.0, 7)
        assert_same(run(lambda t: 1.5 - t, x),
                    run(lambda t: composed.sub(1.5, t), x))

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        other = Tensor(rng.normal(size=(3,)))
        check_gradient(lambda t: (t - other) * (other - t),
                       rng.normal(size=(4, 3)))


# ----------------------------------------------------------------------
# Tensor.__getitem__
# ----------------------------------------------------------------------
BASIC_INDEXES = [2, -1, slice(1, 4), slice(None, None, 2), (1, slice(None)),
                 (slice(None), 2), (Ellipsis, 0), (None, slice(0, 2)),
                 (slice(None), None, 1), np.int64(3)]
ADVANCED_INDEXES = [[0, 0, 2], np.array([1, 1, 1, 4]),
                    (np.array([0, 0]), np.array([1, 1])),
                    np.array([True, False, True, False, True])]


class TestGetitem:
    @pytest.mark.parametrize("index", BASIC_INDEXES + ADVANCED_INDEXES,
                             ids=repr)
    def test_matches_scatter_add(self, index):
        x = np.random.default_rng(1).normal(size=(5, 4))
        assert_same(run(lambda t: t[index], x),
                    run(lambda t: composed.getitem(t, index), x))

    def test_gradcheck(self):
        x = np.random.default_rng(2).normal(size=(4, 3))
        check_gradient(lambda t: t[1:3] * t[0], x)
        check_gradient(lambda t: t[[0, 0, 2]], x)


# ----------------------------------------------------------------------
# F.gather_rows
# ----------------------------------------------------------------------
class TestGatherRows:
    @given(seeds, st.sampled_from([(7,), (7, 3), (7, 2, 3)]),
           st.sampled_from([(5,), (4, 6), (2, 3, 2), ()]))
    @settings(**SETTINGS)
    def test_matches_add_at_with_repeated_ids(self, seed, table_shape,
                                              index_shape):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=table_shape)
        # a small id range: most ids repeat, some rows get nothing
        index = rng.integers(-3, 4, size=index_shape)
        assert_same(run(lambda t: F.gather_rows(t, index), table),
                    run(lambda t: composed.gather_rows(t, index), table))

    def test_many_repeats_sum_in_index_order(self):
        """64 gradient rows of very different magnitude into one table
        row: any other order of adding them changes the last bits."""
        rng = np.random.default_rng(3)
        table = rng.normal(size=(3, 4))
        index = np.zeros((8, 8), dtype=np.int64)
        scale = 10.0 ** rng.integers(-8, 8, size=(8, 8, 1))

        def build(gather):
            return lambda t: gather(t, index) * Tensor(scale)

        assert_same(run(build(F.gather_rows), table),
                    run(build(composed.gather_rows), table))

    def test_gradcheck(self):
        table = np.random.default_rng(4).normal(size=(5, 3))
        check_gradient(lambda t: F.gather_rows(t, [[0, 0], [4, 1]]), table)


# ----------------------------------------------------------------------
# F.log_sigmoid
# ----------------------------------------------------------------------
class TestLogSigmoid:
    @given(seeds, st.sampled_from([(6,), (4, 5), (2, 3, 2)]),
           st.sampled_from([1.0, 30.0, 800.0]))
    @settings(**SETTINGS)
    def test_matches_composed(self, seed, shape, scale):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape) * scale
        x.reshape(-1)[::3] = 0.0  # the tie of maximum(-x, 0) at zero
        assert_same(run(F.log_sigmoid, x), run(composed.log_sigmoid, x))

    def test_signed_zeros_and_extremes(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e4, -1e4])
        assert_same(run(F.log_sigmoid, x), run(composed.log_sigmoid, x))

    def test_gradcheck(self):
        check_gradient(F.log_sigmoid, np.linspace(-6.0, 6.0, 11) + 0.05)


# ----------------------------------------------------------------------
# MLP.forward
# ----------------------------------------------------------------------
def mlp_graph(apply, mlp, mode):
    """One MLP applied three times with shared weights — a chain (how 3p
    reuses the projection networks) or side by side (3i's attention and
    DeepSets) — so every weight's gradient is a three-term sum whose
    order of accumulation is part of the result."""
    if mode == "chain":
        return lambda x: apply(mlp, apply(mlp, apply(mlp, x)))
    if mode == "fan":
        return lambda x: (apply(mlp, x) + apply(mlp, x * 2.0)
                          * apply(mlp, F.sin(x)))
    return lambda x: apply(mlp, x)


def run_mlp(apply, mlp, mode, x):
    for param in mlp.parameters():
        param.zero_grad()
    out, grads = run(mlp_graph(apply, mlp, mode), x)
    return out, grads + [param.grad for param in mlp.parameters()]


class TestMLP:
    @given(seeds, st.sampled_from(["once", "chain", "fan"]),
           st.sampled_from(["relu", "tanh", "sigmoid"]),
           st.integers(1, 3), st.sampled_from([(5,), (1,), (3, 4)]))
    @settings(**SETTINGS)
    def test_matches_linear_activation_linear(self, seed, mode, activation,
                                              depth, batch_shape):
        rng = np.random.default_rng(seed)
        mlp = MLP(6, 9, 6, num_hidden_layers=depth, activation=activation,
                  rng=rng)
        for param in mlp.parameters():  # biases start at exactly zero
            param.data += rng.normal(size=param.shape) * 0.1
        x = rng.normal(size=batch_shape + (6,))
        assert_same(run_mlp(lambda m, t: m(t), mlp, mode, x),
                    run_mlp(composed.mlp_forward, mlp, mode, x))

    def test_input_without_grad_and_vector_input(self):
        rng = np.random.default_rng(5)
        mlp = MLP(4, 5, 3, rng=rng)
        for x in (rng.normal(size=(2, 4)), rng.normal(size=(4,))):
            grads = []
            for apply in (lambda m, t: m(t), composed.mlp_forward):
                for param in mlp.parameters():
                    param.zero_grad()
                apply(mlp, Tensor(x)).sum().backward()
                grads.append([param.grad for param in mlp.parameters()])
            for got, want in zip(*grads, strict=True):
                assert np.array_equal(got, want)

    def test_frozen_parameters_get_no_gradient(self):
        rng = np.random.default_rng(8)
        mlp = MLP(4, 5, 3, num_hidden_layers=2, rng=rng)
        mlp.hidden_0.weight.requires_grad = False
        mlp.output.bias.requires_grad = False
        x = rng.normal(size=(3, 4))
        block = run_mlp(lambda m, t: m(t), mlp, "once", x)
        assert_same(block, run_mlp(composed.mlp_forward, mlp, "once", x))
        assert block[1][1] is None and block[1][-1] is None

    def test_no_grad_records_nothing(self):
        from repro.nn import no_grad
        mlp = MLP(4, 5, 3, rng=np.random.default_rng(6))
        with no_grad():
            out = mlp(Tensor(np.ones((2, 4))))
        assert not out.requires_grad and out._parents == ()

    def test_gradcheck(self):
        rng = np.random.default_rng(7)
        for activation in ("relu", "tanh", "sigmoid"):
            mlp = MLP(3, 5, 2, num_hidden_layers=2, activation=activation,
                      rng=rng)
            check_gradient(mlp, rng.normal(size=(4, 3)))


# ----------------------------------------------------------------------
# the gradient buffer
# ----------------------------------------------------------------------
class TestAccumulate:
    def test_first_by_reference_second_out_of_place_then_in_place(self):
        t = leaf(np.zeros(3))
        first = np.array([1.0, 2.0, 3.0])
        first.flags.writeable = False  # e.g. a broadcast view
        t._accumulate(first)
        assert t.grad is first
        second = np.array([10.0, 20.0, 30.0])
        t._accumulate(second)
        assert np.array_equal(first, [1.0, 2.0, 3.0])  # handed in, untouched
        assert np.array_equal(second, [10.0, 20.0, 30.0])
        owned = t.grad
        t._accumulate(np.ones(3))
        assert t.grad is owned  # ours now: added in place
        assert np.array_equal(t.grad, [12.0, 23.0, 34.0])

    def test_two_receivers_of_one_array_do_not_share_their_sums(self):
        a, b = leaf(np.zeros(2)), leaf(np.zeros(2))
        ((a + b) * 3.0 + a).sum().backward()
        assert np.array_equal(a.grad, [4.0, 4.0])
        assert np.array_equal(b.grad, [3.0, 3.0])

    def test_zero_grad_forgets_ownership(self):
        t = leaf(np.zeros(2))
        t._accumulate(np.ones(2))
        t._accumulate(np.ones(2))
        t.zero_grad()
        kept = np.full(2, 5.0)
        t._accumulate(kept)
        t._accumulate(np.ones(2))
        assert np.array_equal(kept, [5.0, 5.0])
