"""The model-level tape blocks against their op-by-op oracle, bit for bit.

Same contract as ``tests/nn/test_blocks.py`` (``np.array_equal`` on the
output and on every input gradient, the definitions in
``tests/nn/composed.py`` as the oracle): the Eq. 15/16 distance, the
(sin, cos) angle chart and the wrapped entity lookup.  Plus the two
things only this level can check: the arc distance refuses a second
backward over buffers its first one reused, and a training batch
records few enough tape nodes that the blocks are demonstrably what
ran.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.core import HalkModel
from repro.core import distance as distance_module
from repro.core.arc import Arc, angle_features
from repro.core.distance import entity_to_arc_distance
from repro.core.trainer import batch_loss
from repro.kg import load_dataset
from repro.nn import F, Tensor, no_grad
from repro.queries import build_workloads

from ..nn import composed
from ..nn.gradcheck import check_gradient
from ..nn.test_blocks import assert_same, leaf, run

SETTINGS = dict(max_examples=60, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)
TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------------
# angle_features
# ----------------------------------------------------------------------
class TestAngleFeatures:
    @given(seeds, st.sampled_from([(5, 4), (1, 3), (2, 3, 4)]))
    @settings(**SETTINGS)
    def test_matches_sin_cos_concat(self, seed, shape):
        angles = np.random.default_rng(seed).uniform(-7.0, 7.0, size=shape)
        assert_same(run(angle_features, angles),
                    run(composed.angle_features, angles))

    @given(seeds)
    @settings(**SETTINGS)
    def test_sine_then_cosine_into_a_gradient_that_is_already_there(
            self, seed):
        """The projection feeds ``start``/``end`` to the chart *and*
        keeps using them, so the chart's two contributions land on a
        running sum: handing them over pre-summed rounds differently."""
        angles = np.random.default_rng(seed).uniform(-7.0, 7.0, size=(6, 5))

        def graph(chart):
            # the walk reaches a node's last parent first, so written
            # this way round the chart of ``a`` is the last of a's four
            # consumers to run its backward
            return lambda a: (a * a).sum(axis=-1) + F.cos(a).sum(axis=-1) \
                * (chart(a * 0.5) * chart(a)).sum(axis=-1)

        assert_same(run(graph(angle_features), angles),
                    run(graph(composed.angle_features), angles))

    def test_gradcheck(self):
        check_gradient(angle_features,
                       np.random.default_rng(0).uniform(-3, 3, (3, 4)))


# ----------------------------------------------------------------------
# entity_to_arc_distance
# ----------------------------------------------------------------------
def distance_graph(distance, branches: int, combine=F.minimum,
                   eta: float = 0.02):
    """Distance over ``branches`` arcs sharing one ``points`` tensor,
    from flat leaves ``points, center_0, length_0, center_1, …``.

    ``F.minimum`` is the DNF distance (``_min_over_branches``); it
    routes each cell's gradient to one branch, so the branches'
    contributions to ``points`` never meet in a sum.  Adding the branch
    distances makes them meet, which is what shows whether the block
    hands ``points`` its contributions in the composed order."""
    def build(points, *arc_leaves):
        best = None
        for k in range(branches):
            arc = Arc(arc_leaves[2 * k], arc_leaves[2 * k + 1], 1.5)
            dist = distance(points, arc, eta)
            best = dist if best is None else combine(best, dist)
        return best
    return build


@st.composite
def distance_case(draw):
    rng = np.random.default_rng(draw(seeds))
    batch = draw(st.sampled_from([1, 2, 5]))
    many = draw(st.sampled_from([1, 3, 7]))
    dim = draw(st.sampled_from([1, 4]))
    shared = draw(st.booleans())  # (1, N, d): every arc ranks all points
    branches = draw(st.integers(1, 3))
    points = rng.uniform(0.0, TWO_PI, size=(1 if shared else batch, many, dim))
    arcs = []
    for _ in range(branches):
        center = rng.uniform(-1.0, TWO_PI + 1.0, size=(batch, dim))
        length = rng.uniform(0.0, 3.0, size=(batch, dim))
        ties = draw(st.sampled_from(["none", "zero_length", "on_center",
                                     "duplicates", "some_zero"]))
        if ties == "zero_length":  # start == end in every cell
            length[:] = 0.0
        elif ties == "some_zero":
            length[rng.random(length.shape) < 0.5] = 0.0
        elif ties == "on_center" and not shared:
            # points exactly on the centre of a zero-length arc: both
            # minima tie (chord 0 against chord 0)
            center = points[:, 0, :].copy()
            length[:] = 0.0
        elif ties == "duplicates":
            points[:, 1:, :] = points[:, :1, :]
        arcs += [center, length]
    return branches, [points] + arcs


class TestArcDistance:
    @given(distance_case(), seeds,
           st.sampled_from([F.minimum, Tensor.__add__]))
    @settings(**SETTINGS)
    def test_matches_composed_graph(self, case, upstream_seed, combine):
        branches, arrays = case
        assert_same(
            run(distance_graph(entity_to_arc_distance, branches, combine),
                *arrays, upstream_seed=upstream_seed),
            run(distance_graph(composed.entity_to_arc_distance, branches,
                               combine),
                *arrays, upstream_seed=upstream_seed))

    @given(distance_case())
    @settings(max_examples=25, deadline=None)
    def test_forward_only_under_no_grad(self, case):
        """Whole, and walked in strips of a few rows (what bounds the
        scratch when 100k entities are ranked)."""
        branches, arrays = case
        leaves = [leaf(a) for a in arrays]
        with no_grad():
            want = distance_graph(composed.entity_to_arc_distance,
                                  branches)(*leaves)
            for cells in (distance_module._STRIP_CELLS, 9):
                with mock.patch.object(distance_module, "_STRIP_CELLS",
                                       cells):
                    got = distance_graph(entity_to_arc_distance,
                                         branches)(*leaves)
                assert np.array_equal(got.data, want.data)
                assert not got.requires_grad and got._parents == ()

    @pytest.mark.parametrize("needs", [(True, False, False),
                                       (False, True, False),
                                       (False, False, True),
                                       (False, True, True)])
    def test_inputs_that_need_no_gradient(self, needs):
        rng = np.random.default_rng(1)
        arrays = [rng.uniform(0, TWO_PI, (3, 4, 2)),
                  rng.uniform(0, TWO_PI, (3, 2)), rng.uniform(0, 2, (3, 2))]
        results = []
        for distance in (entity_to_arc_distance,
                         composed.entity_to_arc_distance):
            points, center, length = (
                Tensor(a, requires_grad=need)
                for a, need in zip(arrays, needs))
            out = distance(points, Arc(center, length, 1.0), 0.3)
            out.backward(np.ones(out.shape))
            results.append((out.data, [points.grad, center.grad,
                                       length.grad]))
        assert_same(*results)

    def test_second_backward_raises_instead_of_lying(self):
        rng = np.random.default_rng(2)
        points = leaf(rng.uniform(0, TWO_PI, (2, 3, 4)))
        arc = Arc(leaf(rng.uniform(0, TWO_PI, (2, 4))),
                  leaf(rng.uniform(0, 2, (2, 4))), 1.0)
        loss = entity_to_arc_distance(points, arc, 0.02).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="second time"):
            loss.backward()

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        center = Tensor(rng.uniform(0, TWO_PI, (2, 3)))
        length = Tensor(rng.uniform(0.5, 2.0, (2, 3)))
        points = Tensor(rng.uniform(0, TWO_PI, (2, 4, 3)))
        check_gradient(lambda t: entity_to_arc_distance(
            t, Arc(center, length, 1.0), 0.3), points.data)
        check_gradient(lambda t: entity_to_arc_distance(
            points, Arc(t, length, 1.0), 0.3), center.data)
        check_gradient(lambda t: entity_to_arc_distance(
            points, Arc(center, t, 1.0), 0.3), length.data)


# ----------------------------------------------------------------------
# the wrapped lookup and the size of the tape
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mini():
    """``train_mini``'s graph, queries and model configuration."""
    splits = load_dataset("FB237", scale=0.4, seed=0)
    bundle = build_workloads(splits, queries_per_structure=80,
                             eval_queries_per_structure=1, seed=0)
    model = HalkModel(splits.train,
                      ModelConfig(embedding_dim=20, hidden_dim=40, seed=0))
    return model, bundle.train


class TestPointsFor:
    @pytest.mark.parametrize("count", [1, 5, 87, 88, 89, 400])
    def test_wrapping_the_table_or_the_block_is_the_same(self, mini, count):
        """Fewer candidates than rows wraps the gathered block, more
        wraps the table first: same values, same table gradient as the
        one definition there used to be."""
        model, _ = mini
        table = model.entity_points.weight
        table.data[:3] += np.array([[-7.0], [0.0], [13.0]])  # off [0, 2π)
        rng = np.random.default_rng(count)
        ids = rng.integers(0, model.num_entities, size=(count, 1))
        upstream = rng.normal(size=(count, 1, table.shape[1]))
        results = []
        for lookup in (model._candidate_points,
                       lambda i: F.wrap_angle(composed.gather_rows(table, i))):
            table.zero_grad()
            out = lookup(ids)
            out.backward(upstream)
            results.append((out.data, [table.grad]))
        assert_same(*results)


class TestTapeSize:
    @pytest.mark.parametrize("structure,limit", [("1p", 60), ("3in", 250)])
    def test_a_training_batch_records_blocks(self, mini, structure, limit):
        """64 queries through ``batch_loss`` with ``train_mini``'s
        settings (ξ > 0, size regularisation on).  The op-by-op tape
        recorded 150 nodes for 1p and 439 for 3in; a ratchet, so a block
        quietly falling back to composed ops is noticed."""
        model, workload = mini
        batch = workload[structure][:64]
        rng = np.random.default_rng(0)
        positives = np.array([min(q.easy_answers) for q in batch])
        negatives = rng.integers(0, model.num_entities, size=(64, 16))
        loss = batch_loss(model, [q.query for q in batch], positives,
                          negatives, gamma=model.config.gamma,
                          xi=model.config.xi, size_regularization=0.05,
                          adversarial_temperature=0.0)
        assert model.config.xi > 0
        assert len(loss._topological_order()) <= limit

    #: nodes per structure as recorded at PR 19, before the forward pass
    #: was written once over a namespace — same ops, so the same tape
    PR19_TAPE = {"1p": 54, "2p": 80, "3p": 106, "2i": 156, "3i": 213,
                 "2d": 142, "3d": 196, "2in": 180, "3in": 237, "pin": 206,
                 "pni": 206}

    def test_the_namespace_forward_records_the_same_tape(self, mini):
        """Equality, not a ceiling: a primitive that reached the tape
        through one op more or fewer (a wrapper node, a shared chart)
        would also change the order gradients are summed in."""
        model, workload = mini
        assert workload.structures() == sorted(self.PR19_TAPE)
        recorded = {}
        for structure in workload.structures():
            batch = workload[structure][:64]
            positives = np.array([min(q.easy_answers) for q in batch])
            negatives = np.random.default_rng(0).integers(
                0, model.num_entities, size=(64, 16))
            loss = batch_loss(model, [q.query for q in batch], positives,
                              negatives, gamma=model.config.gamma,
                              xi=model.config.xi, size_regularization=0.05,
                              adversarial_temperature=0.0)
            recorded[structure] = len(loss._topological_order())
        assert recorded == self.PR19_TAPE
