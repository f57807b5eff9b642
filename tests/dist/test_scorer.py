"""The blocked arc kernel must be *bitwise* equal to the model pass.

This parity is the foundation of the whole subsystem: sharded answers
are provably identical to single-process answers only because a shard
worker computes the very same float ops, in the same order, as
``distance_to_all`` does on those columns.

``ArcShardScorer.topk`` ranks by filter and refine (a float32 pass, then
the exact kernel on the survivors); the properties at the end pin that
it returns the exact pass's bits and that the filter's error stays four
times inside the bound the refine step relies on.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topk import topk_rows
from repro.dist import ArcShardScorer, partition_rows
from repro.dist.scorer import STRIP_CELLS, ShardScorer

pytestmark = pytest.mark.dist


@pytest.fixture(scope="module")
def embedding(model, queries):
    return model.embed_batch(queries)


def test_scorer_matches_distance_to_all_bitwise(model, embedding):
    expect = model.distance_to_all(embedding).data
    points, scorer = model.sharding_spec()
    assert isinstance(scorer, ArcShardScorer)
    got = scorer.score(points, model.ranking_payload(embedding))
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("block", [1, 3, 64, 10_000])
def test_block_size_does_not_change_bits(model, embedding, block):
    points, scorer = model.sharding_spec()
    scorer.block = block
    got = scorer.score(points, model.ranking_payload(embedding))
    assert np.array_equal(got, model.distance_to_all(embedding).data)


def test_row_blocks_match_full_pass_columns(model, embedding):
    """Scoring a shard's rows == the same columns of the full pass."""
    expect = model.distance_to_all(embedding).data
    points, scorer = model.sharding_spec()
    for shard in partition_rows(points.shape[0], 3):
        block = scorer.score(points[shard.start:shard.stop],
                             model.ranking_payload(embedding))
        assert np.array_equal(block, expect[:, shard.start:shard.stop])


def test_scorer_is_picklable(model):
    import pickle
    _, scorer = model.sharding_spec()
    clone = pickle.loads(pickle.dumps(scorer))
    assert clone.eta == scorer.eta and clone.radius == scorer.radius


def test_topk_on_scorer_output_matches_model(model, embedding):
    expect = topk_rows(model.distance_to_all(embedding).data, 7)
    points, scorer = model.sharding_spec()
    got = topk_rows(scorer.score(points, model.ranking_payload(embedding)),
                    7)
    assert np.array_equal(got, expect)


def test_score_of_zero_rows_is_an_empty_block(model, embedding):
    """``score`` is total over n >= 0 (refine may hand it few rows)."""
    points, scorer = model.sharding_spec()
    payload = model.ranking_payload(embedding)
    got = scorer.score(points[:0], payload)
    assert got.shape == (len(payload[0][0]), 0)
    ids, vals = scorer.topk(points[:0], payload, 5)
    assert ids.shape == vals.shape == got.shape


def test_topk_matches_model_answers_bitwise(model, embedding):
    distances = model.distance_to_all(embedding).data
    expect = topk_rows(distances, 7)
    points, scorer = model.sharding_spec()
    stats = {}
    ids, vals = scorer.topk(points, model.ranking_payload(embedding), 7,
                            stats)
    assert np.array_equal(ids, expect)
    assert np.array_equal(vals,
                          np.take_along_axis(distances, expect, axis=-1))
    # the filter did the ranking: no fallback, and the exact kernel saw
    # a handful of rows per query instead of the whole table
    assert "fallbacks" not in stats
    assert stats["refine_rows"] < 2 * 7 * len(ids)


# ----------------------------------------------------------------------
# filter and refine == the exact pass, on inputs the model never makes
# ----------------------------------------------------------------------
TWO_PI = 2.0 * np.pi


@st.composite
def ranking_cases(draw, poisoned):
    """(scorer, points, payload, k): small tables, awkward payloads."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 40))
    d = draw(st.integers(1, 5))
    b = draw(st.integers(1, 3))
    radius = draw(st.sampled_from([0.5, 1.0, 2.0]))
    scorer = ArcShardScorer(eta=draw(st.sampled_from([0.02, 0.5])),
                            radius=radius,
                            block=draw(st.sampled_from([1, 3, 64])))
    points = rng.uniform(0.0, TWO_PI, (n, d))
    if n and draw(st.booleans()):
        # duplicate rows: exact distance ties, decided by the smaller id
        points = points[rng.integers(n, size=n)]
    # centres far off the principal range exercise the mod-2π reduction
    spread = draw(st.sampled_from([TWO_PI, 50.0, 1e3]))
    payload = []
    for _ in range(draw(st.integers(1, 3))):
        center = rng.uniform(-spread, spread, (b, d))
        length = rng.uniform(0.0, TWO_PI * radius, (b, d))
        # zero-length (a point) and full-circle arcs, per coordinate
        shape = rng.integers(4, size=(b, d))
        length[shape == 0] = 0.0
        length[shape == 1] = TWO_PI * radius
        payload.append((center, length))
    if poisoned:
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        target = draw(st.sampled_from(["center", "length", "points"]))
        if target == "points" and n:
            points[rng.integers(n), rng.integers(d)] = bad
        else:
            center, length = payload[rng.integers(len(payload))]
            array = length if target == "length" else center
            array[rng.integers(b), rng.integers(d)] = bad
    return scorer, points, payload, draw(st.integers(0, n + 3))


def _assert_topk_is_the_exact_pass(scorer, points, payload, k):
    with warnings.catch_warnings():
        # inf inputs make the exact kernel take sin(inf) — its business
        warnings.simplefilter("ignore", RuntimeWarning)
        stats = {}
        ids, vals = scorer.topk(points, payload, k, stats)
        distances = scorer.score(points, payload)
    expect = topk_rows(distances, k)
    assert ids.dtype == expect.dtype
    assert np.array_equal(ids, expect)
    assert np.array_equal(vals,
                          np.take_along_axis(distances, expect, axis=-1),
                          equal_nan=True)
    # same entry point, base implementation: the reference by definition
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base_ids, _ = ShardScorer.topk(scorer, points, payload, k)
    assert np.array_equal(ids, base_ids)
    return stats


@settings(max_examples=300, deadline=None)
@given(case=ranking_cases(poisoned=False))
def test_filter_and_refine_topk_is_bitwise_the_exact_pass(case):
    scorer, points, payload, k = case
    stats = _assert_topk_is_the_exact_pass(scorer, points, payload, k)
    # finite in-range inputs never take the fallback
    assert "fallbacks" not in stats
    assert stats["refine_rows"] <= len(payload[0][0]) * points.shape[0]


@settings(max_examples=150, deadline=None)
@given(case=ranking_cases(poisoned=True))
def test_non_finite_inputs_take_the_counted_fallback(case):
    scorer, points, payload, k = case
    n = points.shape[0]
    stats = _assert_topk_is_the_exact_pass(scorer, points, payload, k)
    filtered = 0 < k < n  # otherwise there was nothing to filter
    assert stats.get("fallbacks", 0) == int(filtered)
    assert stats["refine_rows"] == len(payload[0][0]) * n


def test_out_of_range_inputs_take_the_fallback_too():
    """The bound's domain is checked, not assumed: unwrapped points or
    endpoints beyond the reduction's range are ranked exactly."""
    rng = np.random.default_rng(5)
    scorer = ArcShardScorer(eta=0.02, radius=1.0)
    points = rng.uniform(0.0, TWO_PI, (30, 4))
    payload = [(rng.uniform(0, 6, (2, 4)), rng.uniform(0, 2, (2, 4)))]
    far = [(payload[0][0] + 2.0 * scorer.ENDPOINT_LIMIT, payload[0][1])]
    for pts, pay in ((points + 3 * TWO_PI, payload), (points, far)):
        stats = _assert_topk_is_the_exact_pass(scorer, pts, pay, 5)
        assert stats == {"fallbacks": 1, "refine_rows": 2 * 30}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 200),
       d=st.integers(1, 64), b=st.integers(1, 3),
       branches=st.integers(1, 3),
       radius=st.sampled_from([0.5, 1.0, 2.0]),
       eta=st.sampled_from([0.02, 0.5, 1.0]),
       spread=st.sampled_from([TWO_PI, 1e3, 2.0 ** 20 - 10.0]),
       wrapped=st.booleans())
def test_filter_error_stays_inside_a_quarter_of_epsilon(
        seed, n, d, b, branches, radius, eta, spread, wrapped):
    """``topk`` is exact as long as ``|approx - exact| <= ε``; pin the
    margin (4x) rather than assume it, over the whole domain the bound
    claims: points up to ``POINT_LIMIT``, endpoints up to
    ``ENDPOINT_LIMIT``."""
    rng = np.random.default_rng(seed)
    scorer = ArcShardScorer(eta=eta, radius=radius)
    if wrapped:
        points = rng.uniform(0.0, TWO_PI, (n, d))
    else:
        points = rng.uniform(-scorer.POINT_LIMIT, scorer.POINT_LIMIT,
                             (n, d))
    payload = [(rng.uniform(-spread, spread, (b, d)),
                rng.uniform(0.0, TWO_PI * radius, (b, d)))
               for _ in range(branches)]
    exact = scorer.score(points, payload)
    approx = scorer._approx_distance(points, payload)
    assert np.abs(approx - exact).max() <= scorer.filter_epsilon(d) / 4.0


# ----------------------------------------------------------------------
# the batched refine and the hoisted table check
# ----------------------------------------------------------------------
def test_queries_keeping_different_candidate_counts_share_one_refine():
    """The refine pads every query's candidates to the widest query's
    count; a query with a crowd of exact ties at its k-th place and a
    query with k clean candidates must both come out exact, ties by
    the smaller id."""
    rng = np.random.default_rng(9)
    scorer = ArcShardScorer(eta=0.02, radius=1.0)
    points = rng.uniform(0.0, TWO_PI, (60, 4))
    points[20:45] = points[7]          # 26 rows tie for query 0's top
    center = np.stack([points[7], points[50] + 0.3])
    payload = [(center, np.full((2, 4), 0.1))]
    counts = scorer._candidates(points, payload, 5).sum(axis=-1)
    assert counts[0] >= 26 and counts[1] < counts[0]
    stats = _assert_topk_is_the_exact_pass(scorer, points, payload, 5)
    assert stats == {"refine_rows": int(counts.sum())}
    ids, _ = scorer.topk(points, payload, 5)
    assert ids[0].tolist() == [7, 20, 21, 22, 23]


@pytest.mark.parametrize("bad", [np.nan, np.inf,
                                 2.0 * ArcShardScorer.ENDPOINT_LIMIT])
def test_one_poisoned_query_sends_the_whole_batch_to_the_exact_pass(bad):
    rng = np.random.default_rng(3)
    scorer = ArcShardScorer(eta=0.5, radius=2.0, block=7)
    points = rng.uniform(0.0, TWO_PI, (40, 3))
    center = rng.uniform(0.0, TWO_PI, (4, 3))
    center[2, 1] = bad
    payload = [(center, rng.uniform(0.0, 1.0, (4, 3))),
               (rng.uniform(0.0, TWO_PI, (4, 3)), np.zeros((4, 3)))]
    stats = _assert_topk_is_the_exact_pass(scorer, points, payload, 6)
    assert stats == {"fallbacks": 1, "refine_rows": 4 * 40}


def test_k_beyond_the_table_returns_every_row_in_order():
    rng = np.random.default_rng(4)
    scorer = ArcShardScorer(eta=0.02, radius=1.0)
    points = rng.uniform(0.0, TWO_PI, (9, 5))
    payload = [(rng.uniform(0.0, TWO_PI, (3, 5)),
                rng.uniform(0.0, 1.0, (3, 5)))]
    for k in (9, 14):
        stats = _assert_topk_is_the_exact_pass(scorer, points, payload, k)
        assert stats == {"refine_rows": 3 * 9}
        assert scorer.topk(points, payload, k)[0].shape == (3, 9)


def test_table_verdict_is_decided_once_and_passed_in():
    """``filterable`` is a property of the table: its owner scans once
    and hands the verdict to every ``topk``.  An out-of-range table
    still gets the exact top-k, and the skipped filter is counted."""
    rng = np.random.default_rng(5)
    scorer = ArcShardScorer(eta=0.02, radius=1.0)
    points = rng.uniform(0.0, TWO_PI, (30, 4))
    payload = [(rng.uniform(0, 6, (2, 4)), rng.uniform(0, 2, (2, 4)))]
    assert scorer.filterable(points)
    assert scorer.filterable(points[:0])
    shifted = points + 3 * TWO_PI
    poisoned = points.copy()
    poisoned[11, 2] = np.nan
    for table in (shifted, poisoned):
        assert not scorer.filterable(table)
        stats = {}
        ids, vals = scorer.topk(table, payload, 5, stats, filterable=False)
        distances = scorer.score(table, payload)
        expect = topk_rows(distances, 5)
        assert np.array_equal(ids, expect)
        assert np.array_equal(
            vals, np.take_along_axis(distances, expect, axis=-1),
            equal_nan=True)
        assert stats == {"fallbacks": 1, "refine_rows": 2 * 30}
    # the verdict is trusted, not re-derived: no scan when it is given
    calls = []
    scorer.filterable = lambda table: calls.append(1) or True
    stats = {}
    scorer.topk(points, payload, 5, stats, filterable=True)
    assert not calls and "fallbacks" not in stats
    scorer.topk(points, payload, 5)
    assert calls == [1]


def test_refine_form_of_score_matches_the_full_pass(model, embedding):
    """``score(points, payload, rows)`` is the all-rows pass read at
    ``rows``, bit for bit, whatever the block size."""
    points, scorer = model.sharding_spec()
    payload = model.ranking_payload(embedding)
    full = scorer.score(points, payload)
    rng = np.random.default_rng(0)
    rows = rng.integers(points.shape[0], size=(len(full), 17))
    for block in (1, 5, 2048):
        scorer.block = block
        got = scorer.score(points, payload, rows)
        assert np.array_equal(got, np.take_along_axis(full, rows, axis=-1))


# ----------------------------------------------------------------------
# the filter's strips, its published table and its float32 row-sum
# ----------------------------------------------------------------------
def _strip_case(rng, n, d, b, branches):
    points = rng.uniform(0.0, TWO_PI, (n, d))
    if n > 4:
        # exact ties across what will be a strip boundary: first and
        # last rows repeat, and a run of equal rows sits mid-table
        points[-1] = points[0]
        points[n // 2:n // 2 + 3] = points[1]
    payload = [(rng.uniform(-50.0, 50.0, (b, d)),
                rng.uniform(0.0, TWO_PI, (b, d))) for _ in range(branches)]
    return points, payload


@pytest.mark.parametrize("block", [1, 3, 64, 2048])
@pytest.mark.parametrize("b", [1, 2, 64])
def test_topk_is_exact_on_both_sides_of_every_strip_boundary(block, b):
    """Strips are ``rows`` long and the references are written out once
    the table holds four of them: tables one row short of, exactly at
    and one row past a strip, and the same around four strips, rank as
    the exact pass does — ties by id, ``k`` past the table included —
    whether the prepared table is handed in or derived per call."""
    d = 4
    rng = np.random.default_rng(block * 100 + b)
    scorer = ArcShardScorer(eta=0.5, radius=2.0, block=block)
    rows = scorer._strip_rows(10 ** 6, b, d)
    # the cap the tests set, or the cache rule when the cap is generous
    assert rows == min(block, max(256, STRIP_CELLS // (b * d)))
    for branches, n in zip((1, 2, 3, 1, 2, 3),
                           (rows - 1, rows, rows + 1,
                            4 * rows - 1, 4 * rows, 4 * rows + 1)):
        points, payload = _strip_case(rng, n, d, b, branches)
        prepared = scorer.prepare(points)
        for k in {1, min(7, max(n - 1, 1)), n + 2}:
            _assert_topk_is_the_exact_pass(scorer, points, payload, k)
            ids, vals = scorer.topk(points, payload, k, prepared=prepared)
            distances = scorer.score(points, payload)
            expect = topk_rows(distances, k)
            assert np.array_equal(ids, expect)
            assert np.array_equal(
                vals, np.take_along_axis(distances, expect, axis=-1))


def test_prepared_table_handed_in_or_derived_keeps_the_same_rows():
    """``prepare`` is row-wise (a block of it is the block's) and what
    the filter would otherwise derive per call, bit for bit: the
    candidate masks agree, with materialised references and without."""
    rng = np.random.default_rng(12)
    scorer = ArcShardScorer(eta=0.02, radius=1.0, block=16)
    points, payload = _strip_case(rng, 200, 6, 3, 2)
    prepared = scorer.prepare(points)
    assert prepared.dtype == np.float32 and prepared.shape == points.shape
    assert np.array_equal(prepared[40:90], scorer.prepare(points[40:90]))
    target = np.zeros((50, 6), dtype=np.float32)
    assert scorer.prepare(points[40:90], out=target) is target
    assert np.array_equal(target, prepared[40:90])
    assert ShardScorer().prepare(points) is None
    for table, given in ((points, prepared), (points[:40], prepared[:40])):
        assert np.array_equal(
            scorer._approx_distance(table, payload, given),
            scorer._approx_distance(table, payload))
        assert np.array_equal(scorer._candidates(table, payload, 5, given),
                              scorer._candidates(table, payload, 5))
    # the filter reads the prepared rows, not the float64 ones
    assert not np.array_equal(
        scorer._approx_distance(points, payload, prepared + 0.25),
        scorer._approx_distance(points, payload, prepared))


@pytest.mark.parametrize("d", [1, 32, 128, 512])
@pytest.mark.parametrize("eta", [0.02, 1.0])
def test_filter_error_stays_inside_a_quarter_of_epsilon_at_every_width(
        d, eta):
    """The row-sum accumulates in float32, so ε carries a term that
    grows with ``d``; the 4x margin must hold where it is largest."""
    for seed, (spread, wrapped) in enumerate(
            [(TWO_PI, True), (1e3, False), (2.0 ** 20 - 10.0, False)]):
        rng = np.random.default_rng(1000 * d + seed)
        scorer = ArcShardScorer(eta=eta, radius=2.0, block=97)
        low, high = (0.0, TWO_PI) if wrapped \
            else (-scorer.POINT_LIMIT, scorer.POINT_LIMIT)
        points = rng.uniform(low, high, (500, d))
        payload = [(rng.uniform(-spread, spread, (2, d)),
                    rng.uniform(0.0, TWO_PI * 2.0, (2, d)))
                   for _ in range(2)]
        exact = scorer.score(points, payload)
        approx = scorer._approx_distance(points, payload)
        assert np.abs(approx - exact).max() <= scorer.filter_epsilon(d) / 4.0


def _rows_where_the_filter_is_weakest(scorer, center, length, at_limit):
    """Table rows on each query's arc endpoints ``c ± half``, centre
    ``c`` and antipode ``c + π``.  On an endpoint the filter's outside
    chord is the difference of two nearly equal products; on the centre
    and the antipode its two products are ``0`` and ``|sin δ|`` or
    ``|cos δ|``.  Wrapped tables hold them in [0, 2π); ``at_limit``
    moves each by whole turns as far out as ``±POINT_LIMIT`` allows,
    where the float32 half-angles round most coarsely."""
    half = length / (2.0 * scorer.radius)
    rows = np.concatenate([center - half, center + half, center,
                           center + np.pi])          # (4B, d)
    if not at_limit:
        return np.mod(rows, TWO_PI)
    limit = scorer.POINT_LIMIT
    up = limit - np.mod(limit - rows, TWO_PI)        # in (limit − 2π, limit]
    down = np.mod(rows + limit, TWO_PI) - limit      # in [−limit, 2π − limit)
    return np.where(np.arange(rows.shape[1]) % 2 == 0, up, down)


@pytest.mark.parametrize("at_limit", [False, True])
@pytest.mark.parametrize("radius", [0.5, 2.0])
@pytest.mark.parametrize("eta", [0.02, 0.5, 1.0])
@pytest.mark.parametrize("d", [1, 32, 128])
def test_filter_holds_its_bound_on_endpoints_centres_and_antipodes(
        d, eta, radius, at_limit):
    """The filter builds all three chords of a cell from one angle, so
    its outside part is ``||sin u|·|cos δ| − |cos u|·|sin δ||``: nearly
    equal products on the arc's endpoints, a zero product on its centre
    and antipode.  Random tables rarely land there; this one is made of
    nothing else (plus a few random rows), and the ε/4 margin and the
    exact top-k must hold on it."""
    rng = np.random.default_rng(d * 100 + int(eta * 10) + int(radius * 4)
                                + 7 * at_limit)
    scorer = ArcShardScorer(eta=eta, radius=radius)
    b = 3
    center = rng.uniform(0.0, TWO_PI, (b, d))
    length = rng.uniform(0.0, TWO_PI * radius, (b, d))
    length[0, ::3] = 0.0                    # a point: both endpoints at c
    length[1, ::4] = TWO_PI * radius        # the full circle
    if at_limit:
        # one query's arcs end exactly on the domain's edge
        limit = scorer.POINT_LIMIT
        center[2] = limit - length[2] / (2.0 * radius)
    special = _rows_where_the_filter_is_weakest(scorer, center, length,
                                                at_limit)
    low, high = (0.0, TWO_PI) if not at_limit \
        else (-scorer.POINT_LIMIT, scorer.POINT_LIMIT)
    points = np.concatenate([special, rng.uniform(low, high, (8, d))])
    assert scorer.filterable(points)
    payload = [(center, length),
               (np.mod(center + 1.0, TWO_PI), length[::-1].copy())]
    for branches in (payload[:1], payload):
        exact = scorer.score(points, branches)
        approx = scorer._approx_distance(points, branches)
        assert np.abs(approx - exact).max() <= scorer.filter_epsilon(d) / 4.0
        for k in (1, 4, 9):
            stats = _assert_topk_is_the_exact_pass(scorer, points,
                                                   branches, k)
            assert "fallbacks" not in stats


def test_filter_epsilon_is_a_function_of_d_radius_and_eta_only():
    scorer = ArcShardScorer(eta=0.02, radius=1.0)
    term, u = scorer.FILTER_TERM_ERROR, 2.0 ** -24
    for d in (1, 32, 512):
        assert scorer.filter_epsilon(d) == \
            2.0 * d * 1.02 * (term + (d - 1) * u)
    other = ArcShardScorer(eta=0.02, radius=1.0, block=7)
    assert other.filter_epsilon(32) == scorer.filter_epsilon(32)


def test_topk_over_a_prepared_table_allocates_nothing_table_sized():
    """With the half-angle table handed in, a request's temporaries are
    strips: a 20k x 32 table ranks under a peak smaller than its own
    float32 copy (the per-request cast this pins the end of made one)."""
    import tracemalloc

    rng = np.random.default_rng(2)
    n, d = 20_000, 32
    scorer = ArcShardScorer(eta=0.02, radius=1.0)
    points = rng.uniform(0.0, TWO_PI, (n, d))
    payload = [(rng.uniform(0.0, TWO_PI, (1, d)),
                rng.uniform(0.0, 1.0, (1, d)))]
    prepared = scorer.prepare(points)
    scorer.topk(points, payload, 10, None, True, prepared)  # warm
    tracemalloc.start()
    try:
        stats = {}
        scorer.topk(points, payload, 10, stats, True, prepared)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "fallbacks" not in stats
    assert peak < 4 * n * d
