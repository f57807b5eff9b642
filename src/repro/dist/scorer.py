"""Shard scorers: distance kernels workers run over their row block.

A :class:`ShardScorer` is a small picklable object shipped to every
worker at spawn.  Its :meth:`~ShardScorer.score` turns a query payload
(the model's :meth:`~repro.core.model.QueryModel.ranking_payload`) plus a
contiguous block of entity rows into a ``(B, n)`` distance block, and
its :meth:`~ShardScorer.topk` returns the block's local top-k — the one
ranking entry point of every shard worker.

**Bitwise parity contract.** ``score(points[s:e], payload)`` must equal
columns ``s:e`` of the model's ``distance_to_all`` exactly (same float
ops in the same order), because the sharded merge relies on per-shard
distances being *identical* — not merely close — to the single-process
pass.  :class:`ArcShardScorer` replicates the HaLk chord-distance
pipeline (``core.distance.entity_to_arc_distance`` + the DNF minimum)
with raw numpy; the operations are elementwise per entity row, so a row
block computes the same bits as the same rows inside the full pass.
``topk`` must in turn equal ``topk_rows(score(...), k)`` plus the
matching distances, bit for bit.  ``tests/dist/test_scorer.py`` asserts
both.

**Filter and refine.** The exact kernel is bound by three float64
``np.sin`` per entity per dimension, which numpy evaluates scalar
(~19 ns per element here) while float32 ``sin`` is SIMD (~0.6 ns).
:meth:`ArcShardScorer.topk` therefore ranks in two steps: a float32
pass over all rows yields an approximate distance whose absolute error
is at most :attr:`ArcShardScorer.filter_epsilon` (a function of ``d``,
``radius`` and ``eta`` only), and the exact float64 kernel then scores
just the rows within ``2ε`` of the k-th smallest approximation —
provably a superset of the exact top-k, ties included, so the answer is
bitwise the full exact pass's at a fraction of its cost (≈10× faster
per 50k-row block; lemma and ε derivation in DESIGN.md §7).  The filter
reads float32 only: the table's half-angles are rounded once by
:meth:`ShardScorer.prepare` — by whoever owns the table, who passes the
result to every ``topk(..., prepared=)`` — and a request walks it in
contiguous cache-sized strips.  All three chords of a cell are
functions of one angle (the point's half-angle minus the arc centre's),
so a cell costs one float32 ``sin`` and one ``cos``; each row's outside
and inside parts are summed with one ``sgemv`` apiece.  The
float64 table stays what ``score``, the refine and ``mode="all"`` read.
The refine is
one batched pass: every query's surviving rows are gathered into a
``(B, c)`` candidate matrix padded to the widest query, the exact kernel
scores the gathered rows, pads are set to ``+inf`` and one
:func:`~repro.core.topk.topk_rows` picks each row's k.  ``score`` itself
stays the exact kernel: ``mode="all"`` evaluation needs every distance
and takes no shortcut.

This is the ranking kernel of *every* serving tier: shard workers and
in-process serving (:class:`repro.dist.ranker.LocalRanker`, the whole
table as one block) both call :meth:`ShardScorer.topk`.
"""

from __future__ import annotations

import numpy as np

from ..core.arc import TWO_PI
from ..core.topk import topk_rows

__all__ = ["ShardScorer", "ArcShardScorer"]

#: payload type of :class:`ArcShardScorer`: one (center, length) pair of
#: ``(B, d)`` float64 arrays per DNF branch
ArcPayload = "list[tuple[np.ndarray, np.ndarray]]"

#: float32 cells per filter scratch buffer (256 KiB): a strip's working
#: set — the table strip, three buffers and a branch's three references —
#: stays inside a core's L2, and each row-sum ``sgemv`` stays below the
#: size at which OpenBLAS wakes helper threads (DESIGN.md §7)
STRIP_CELLS = 1 << 16


class ShardScorer:
    """Interface of a per-shard distance kernel (picklable)."""

    def score(self, points: np.ndarray, payload) -> np.ndarray:
        """Distance block ``(B, n)`` of ``payload`` against ``points``."""
        raise NotImplementedError

    def filterable(self, points: np.ndarray) -> bool:
        """May :meth:`topk` take its shortcut over this table?

        A property of the table alone, so whoever owns one decides it
        once per attach/refresh and passes the verdict to every
        :meth:`topk` call instead of paying a scan per request.
        """
        return False

    def prepare(self, points: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray | None:
        """Companion array :meth:`topk`'s shortcut reads, or None.

        Row ``i`` depends on ``points[i]`` alone, so a row block of the
        companion is the companion of the row block.  Like
        :meth:`filterable` it belongs to whoever owns the table: built
        once per publish/refresh — into ``out`` when the owner already
        holds the memory — and passed to every :meth:`topk`.
        """
        return None

    def topk(self, points: np.ndarray, payload, k: int,
             stats: dict | None = None, filterable: bool | None = None,
             prepared: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Local ``(ids, vals)`` of the ``k`` nearest rows of ``points``.

        ``ids`` are row positions within ``points``, ordered by
        ``(distance, position)`` like :func:`repro.core.topk.topk_rows`;
        ``vals`` are the matching exact distances.  Subclasses may
        compute this any way that returns the same bits; ``stats``, when
        a dict, receives whatever they count about how they did.
        ``filterable`` is the table owner's :meth:`filterable` verdict
        for (a superset of) ``points``; None means "not decided, check
        now".  ``prepared`` is the owner's :meth:`prepare` of exactly
        these rows; None means "compute it now".
        """
        distances = self.score(points, payload)
        local = topk_rows(distances, k)
        return local, np.take_along_axis(distances, local, axis=-1)


class ArcShardScorer(ShardScorer):
    """HaLk arc-to-entity chord distance over a block of circle points.

    Parameters
    ----------
    eta:
        Inside-distance weight ``η`` (paper Eq. 15).
    radius:
        Circle radius ``ρ``.
    block:
        Entity rows processed per inner iteration; sized so the working
        buffers stay cache-resident.
    """

    #: the filter's error bound holds for point angles within ±this
    #: (published tables are wrapped into [0, 2π]) ...
    POINT_LIMIT = 8.0
    #: ... and arc endpoints within ±this before their reduction mod 2π
    ENDPOINT_LIMIT = 2.0 ** 20
    #: error budget of one dimension's float32 ``outside + η·inside``
    #: term, per unit of ``1 + |η|`` (DESIGN.md §7 derives < 2^-18.6)
    FILTER_TERM_ERROR = 2.0 ** -18

    def __init__(self, eta: float, radius: float, block: int = 2048):
        if block <= 0:
            raise ValueError("block must be positive")
        self.eta = float(eta)
        self.radius = float(radius)
        self.block = int(block)

    def score(self, points: np.ndarray, payload,
              rows: np.ndarray | None = None) -> np.ndarray:
        """Min-over-branches arc distance (DNF minimum, paper §III-G).

        With ``rows`` — a ``(B, c)`` matrix of row positions — query
        ``q`` is scored against ``points[rows[q]]`` only and the block
        is ``(B, c)``: the refine step's form, same bits per
        (query, row) pair as the all-rows pass.
        """
        best: np.ndarray | None = None
        for center, length in payload:
            dist = self._branch_distance(points, center, length, rows)
            best = dist if best is None else np.minimum(best, dist)
        if best is None:
            raise ValueError("empty payload: no DNF branches")
        return best

    def filter_epsilon(self, d: int) -> float:
        """Bound on ``|approximate − exact|`` distance for ``d`` dims:
        ``d`` terms each off by the per-term budget, then summed in
        float32 (at most ``(d − 1)·2⁻²⁴`` of the sum, in any order)."""
        return (2.0 * abs(self.radius) * d * (1.0 + abs(self.eta))
                * (self.FILTER_TERM_ERROR + (d - 1) * 2.0 ** -24))

    def filterable(self, points: np.ndarray) -> bool:
        """Is the table inside the filter bound's domain — finite and
        within ``±POINT_LIMIT``?  One min/max pass (≈1 ms per 50k×32
        block), which is why it is paid per table, not per request."""
        limit = self.POINT_LIMIT
        return points.size == 0 or bool(points.min() >= -limit
                                        and points.max() <= limit)

    def prepare(self, points: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """The filter's table: ``points / 2`` rounded once to float32.

        The only float64 → float32 pass over a table; a request reads
        strips of the result as they stand.
        """
        if out is None:
            out = np.empty(points.shape, dtype=np.float32)
        np.multiply(points, 0.5, out=out, casting="same_kind")
        return out

    def topk(self, points: np.ndarray, payload, k: int,
             stats: dict | None = None, filterable: bool | None = None,
             prepared: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Filter-and-refine top-k, bitwise equal to the exact pass.

        ``stats`` counts ``refine_rows`` ((query, row) pairs the exact
        kernel scored) and ``fallbacks`` (the filter could not certify k
        candidates for every query — table outside the bound's domain,
        or a payload that is not finite or beyond ``ENDPOINT_LIMIT`` —
        so the exact kernel scored every row of the whole batch).
        """
        n = points.shape[0]
        k = min(int(k), n)
        keep = None
        # k >= n: every row is an answer, there is nothing to filter
        if 0 < k < n and (self.filterable(points) if filterable is None
                          else filterable):
            keep = self._candidates(points, payload, k, prepared)
            counts = keep.sum(axis=-1)  # the one pass over the mask
            if (counts < k).any():
                keep = None
        if stats is not None:
            pairs = len(payload[0][0]) * n if keep is None else counts.sum()
            stats["refine_rows"] = stats.get("refine_rows", 0) + int(pairs)
            if keep is None and 0 < k < n:
                stats["fallbacks"] = stats.get("fallbacks", 0) + 1
        if keep is None:
            return super().topk(points, payload, k)
        # One batched refine.  np.nonzero walks the mask row-major and a
        # boolean-mask assignment fills row-major, so a query's
        # candidates land in its matrix row in ascending row order:
        # position order among them is id order and topk_rows'
        # (distance, position) tie-break carries over unchanged.  Pads
        # (narrower queries) point at row 0 and are overwritten with
        # +inf; in-domain distances are finite and every query keeps at
        # least k real candidates, so a pad never makes a top-k.
        real = np.arange(int(counts.max())) < counts[:, None]  # (B, c)
        rows = np.zeros(real.shape, dtype=np.int64)
        rows[real] = np.nonzero(keep)[1]
        distances = self.score(points, payload, rows)
        distances[~real] = np.inf
        local = topk_rows(distances, k)
        return (np.take_along_axis(rows, local, axis=-1),
                np.take_along_axis(distances, local, axis=-1))

    def _candidates(self, points: np.ndarray, payload, k: int,
                    prepared: np.ndarray | None = None) -> np.ndarray:
        """``(B, n)`` mask holding every query's exact top-k.

        With ``|approx − exact| ≤ ε`` on every row and ``a_k``/``e_k``
        the k-th smallest approximate/exact distance of a query, a row
        with ``exact ≤ e_k`` has ``approx ≤ e_k + ε ≤ a_k + 2ε``.  The
        caller vouches for the table (:meth:`filterable`) and checks
        that every query kept k rows: one whose payload was not finite
        or beyond ``ENDPOINT_LIMIT`` keeps none (the filter maps it to
        NaN).
        """
        approx = self._approx_distance(points, payload, prepared)
        kth = np.partition(approx, k - 1, axis=-1)[:, k - 1]
        slack = 2.0 * self.filter_epsilon(points.shape[1])
        return approx <= (kth + slack)[:, None]

    def _references(self, center: np.ndarray,
                    length: np.ndarray) -> tuple[np.ndarray, ...]:
        """One branch's per-query filter inputs, ``(B, 1, d)`` float32:
        the centre's half-angle ``C = (c mod 2π)/2`` and ``|cos δ|``,
        ``|sin δ|`` of the half-arc's half-angle ``δ = half/2``.

        A query whose endpoints ``c ± half`` are not finite or beyond
        ``ENDPOINT_LIMIT`` gets a NaN centre, which makes every one of
        its filter distances NaN.
        """
        half = length / (2.0 * self.radius)
        limit = self.ENDPOINT_LIMIT
        in_domain = ((np.abs(center - half) <= limit)
                     & (np.abs(center + half) <= limit))
        centre = 0.5 * np.where(in_domain, np.mod(center, TWO_PI), np.nan)
        delta = half / 2.0
        return tuple(ref.astype(np.float32)[:, None, :] for ref in
                     (centre, np.abs(np.cos(delta)), np.abs(np.sin(delta))))

    def _strip_rows(self, n: int, b: int, d: int) -> int:
        """Entity rows per filter strip for a ``b``-query batch."""
        return max(1, min(n, self.block,
                          max(256, STRIP_CELLS // max(1, b * d))))

    def _approx_distance(self, points: np.ndarray, payload,
                         prepared: np.ndarray | None = None) -> np.ndarray:
        """:meth:`score` to within :meth:`filter_epsilon`, in float32.

        All three chords of a cell come from one angle, ``u = P − C``
        (the :meth:`prepare`-d point half-angle minus the centre's, see
        :meth:`_references`): the endpoints sit at ``u ± δ``, so by
        angle addition and ``min(|a+b|, |a−b|) = ||a| − |b||``

            outside = ||sin u|·|cos δ| − |cos u|·|sin δ||
            inside  = min(|sin u|, |sin δ|)

        — one ``sin`` and one ``cos`` per cell, ten SIMD passes over
        contiguous strips.  Each part is row-summed by its own float32
        ``sgemv`` and the branch distance is ``2ρ·(Σo + η·Σi)`` in
        float64.  Every array a request touches is float32 and at most
        one strip long.
        """
        n, d = points.shape
        if prepared is None:
            prepared = self.prepare(points)
        with np.errstate(invalid="ignore"):  # inf payloads become NaN
            refs = [self._references(center, length)
                    for center, length in payload]
        if not refs:
            raise ValueError("empty payload: no DNF branches")
        b = refs[0][0].shape[0]
        rows = self._strip_rows(n, b, d)
        if n >= 4 * rows:
            # enough strips to pay for writing each reference out over
            # one: every ufunc below is then a single contiguous loop
            # instead of one d-wide inner loop per (query, row)
            refs = [tuple(np.ascontiguousarray(
                        np.broadcast_to(ref, (b, rows, d)))
                          for ref in branch) for branch in refs]
        scale = 2.0 * self.radius
        ones = np.ones(d, dtype=np.float32)
        out = np.empty((b, n), dtype=np.float64)
        buf1 = np.empty((b, rows, d), dtype=np.float32)
        buf2 = np.empty((b, rows, d), dtype=np.float32)
        buf3 = np.empty((b, rows, d), dtype=np.float32)
        other = np.empty((b, rows), dtype=np.float64)
        for s in range(0, n, rows):
            e = min(s + rows, n)
            m = e - s
            strip = prepared[None, s:e]
            sin_u, cos_u, outside = buf1[:, :m], buf2[:, :m], buf3[:, :m]
            for j, branch in enumerate(refs):
                # a (B, 1, d) broadcast reference is its own [:, :m]
                centre, cos_delta, sin_delta = (ref[:, :m] for ref in branch)
                np.subtract(strip, centre, out=cos_u)  # u, until its cos
                np.sin(cos_u, out=sin_u)
                np.cos(cos_u, out=cos_u)
                np.abs(sin_u, out=sin_u)
                np.abs(cos_u, out=cos_u)
                # outside: ||sin u|·|cos δ| − |cos u|·|sin δ||
                np.multiply(sin_u, cos_delta, out=outside)
                cos_u *= sin_delta
                outside -= cos_u
                np.abs(outside, out=outside)
                # inside: min(|sin u|, |sin δ|)
                np.minimum(sin_u, sin_delta, out=sin_u)
                dist = out[:, s:e] if j == 0 else other[:, :m]
                np.multiply(sin_u @ ones, self.eta, out=dist, dtype=np.float64)
                dist += outside @ ones
                dist *= scale
                if j:
                    np.minimum(out[:, s:e], dist, out=out[:, s:e])
        return out

    def _branch_distance(self, points: np.ndarray, center: np.ndarray,
                         length: np.ndarray,
                         rows: np.ndarray | None = None) -> np.ndarray:
        """Eq. 15/16 for one conjunctive branch, blocked over entities.

        Same operation sequence as ``entity_to_arc_distance`` — chords to
        the arc endpoints (outside part, min of the two), chord to the
        centre capped by the half-arc chord (inside part) — with the
        entity axis tiled into ``block``-row strips and two reused
        scratch buffers instead of fresh ``(B, n, d)`` temporaries.
        ``rows`` (see :meth:`score`) swaps the shared strip for a
        per-query gather of the same width; every op is elementwise or a
        last-axis sum, so a (query, row) pair gets the same bits.
        """
        d = points.shape[1]
        n = points.shape[0] if rows is None else rows.shape[1]
        b = center.shape[0]
        radius = self.radius
        half = length / (2.0 * radius)             # (B, d)
        start = (center - half)[:, None, :]        # (B, 1, d)
        end = (center + half)[:, None, :]
        mid = center[:, None, :]
        chord_half_arc = np.abs(np.sin(half / 2.0))[:, None, :]  # (B, 1, d)
        out = np.empty((b, n), dtype=np.float64)
        block = max(1, min(self.block, n))  # n == 0: no strips
        buf1 = np.empty((b, block, d), dtype=np.float64)
        buf2 = np.empty((b, block, d), dtype=np.float64)
        for s in range(0, n, block):
            e = min(s + block, n)
            m = e - s
            strip = points[None, s:e, :] if rows is None \
                else points[rows[:, s:e]]          # (1 | B, m, d)
            b1 = buf1[:, :m]
            b2 = buf2[:, :m]
            # outside: min(chord(points, start), chord(points, end))
            np.subtract(strip, start, out=b1)
            b1 /= 2.0
            np.sin(b1, out=b1)
            np.abs(b1, out=b1)
            np.subtract(strip, end, out=b2)
            b2 /= 2.0
            np.sin(b2, out=b2)
            np.abs(b2, out=b2)
            np.minimum(b1, b2, out=b1)
            d_outside = b1.sum(axis=-1)
            # inside: min(chord(points, center), chord(half-arc))
            np.subtract(strip, mid, out=b2)
            b2 /= 2.0
            np.sin(b2, out=b2)
            np.abs(b2, out=b2)
            np.minimum(b2, chord_half_arc, out=b2)
            d_inside = b2.sum(axis=-1)
            out[:, s:e] = (2.0 * radius) * d_outside \
                + self.eta * ((2.0 * radius) * d_inside)
        return out
