"""Entity-to-query distance (paper Eq. 15/16).

``d(v‖A) = d_o + η·d_i`` with both parts measured in chord lengths (the
periodicity-safe metric on the circle):

* outside distance ``d_o``: chord to the nearest arc endpoint, exactly as
  printed in Eq. 16 — note it is *not* zeroed for points inside the arc.
  This matters for training dynamics: a negative sample strictly inside
  the arc still produces a gradient that moves the nearest endpoint past
  it, i.e. the arc *contracts* around the true answers.  (Zeroing d_o
  inside, the Query2Box convention, removes that gradient and lets arcs
  bloat — measurably worse; see DESIGN.md §1.)
* inside distance ``d_i``: chord to the centre, capped by the half-arc
  chord, down-weighted by ``η`` so entities are pulled inside the arc but
  not forced onto its centre.

Shapes: the arc holds ``(B, d)`` tensors; candidate points come in as
``(B, M, d)`` (``M`` negatives per query) or ``(1, N, d)`` (ranking all
entities), and the result is ``(B, M)`` / ``(B, N)``.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, is_grad_enabled
from ..nn.tensor import _unbroadcast
from .arc import Arc

__all__ = ["entity_to_arc_distance", "distance_to_points"]

#: cells (``B · rows · d``) a forward-only pass works on at a time: each
#: temporary is then 1 MiB of float64
_STRIP_CELLS = 1 << 17


def entity_to_arc_distance(points: Tensor, arc: Arc, eta: float) -> Tensor:
    """Distance from entity points to a batch of arcs (Eq. 15/16).

    One tape node per call (so one per DNF branch).  The forward is the
    op sequence of the composed definition kept as the oracle in
    ``tests/nn/composed.py`` — ``start/end = centre ∓ half``, three
    chords ``|sin((p − ·)/2)|``, two minima, two row sums — and the VJP
    replays that graph's backward arithmetic in that graph's order
    (DESIGN.md §14), with the waste taken out:

    * the outside minimum sends its gradient through one endpoint per
      cell, so the backward takes the cosine of the *selected* chord
      only (one gathered ``cos`` instead of two).  The unselected
      endpoint's composed contribution is an exact zero, which no sum
      can see.  Where a cell ties exactly (a zero-length arc has
      ``start == end`` everywhere) the whole call falls back to the
      composed ``grad·sel/both`` rule, which halves the gradient between
      the tied inputs; likewise for the inside minimum;
    * ``centre`` and ``half`` each collect their three contributions as
      ``(start + end) + third`` before one hand-over, as the composed
      graph's reshape nodes did; ``points`` has no such node and is
      handed its contributions one by one (with several DNF branches
      the running sum interleaves);
    * the backward computes into the arrays the forward saved (they are
      ``(B, M, d)``; fresh ones cost more than the arithmetic), so it
      can run once: a second ``backward()`` over the same graph raises;
    * under ``no_grad`` nothing is saved for a backward that cannot come,
      and the points are walked in strips (rows are independent, so the
      values are the same bits): the scratch stays a few MB however many
      entities are ranked.

    Parameters
    ----------
    points:
        ``(B_or_1, M, d)`` entity point angles.
    arc:
        Arc batch with ``(B, d)`` tensors.
    eta:
        Inside-distance weight ``η ∈ (0, 1)``.
    """
    two_rho = 2.0 * arc.radius
    arc_shape = (arc.batch_size, 1, arc.dim)
    center_t, length_t = arc.center, arc.length
    center = center_t.data.reshape(arc_shape)
    half = (length_t.data / two_rho).reshape(arc_shape)
    spots = points.data
    taped = is_grad_enabled() and (points.requires_grad
                                   or center_t.requires_grad
                                   or length_t.requires_grad)
    if not taped:
        # Ranking 100k entities would otherwise take three 25 MB
        # temporaries per call — a size malloc serves from its heap and
        # keeps there afterwards (+25 to +100 MB resident, measured).
        row_cells = max(1, max(len(spots), arc.batch_size) * arc.dim)
        step = max(1, _STRIP_CELLS // row_cells)
        if spots.shape[1] > step:
            strips = [entity_to_arc_distance(
                Tensor(spots[:, lo:lo + step]), arc, eta).data
                for lo in range(0, spots.shape[1], step)]
            return Tensor._make(np.concatenate(strips, axis=1), (), None)

    def chord(delta: np.ndarray, out: np.ndarray | None = None):
        """``(u, sin u, |sin u|)`` for ``u = delta/2``; ``delta`` is ours
        to overwrite, and without a tape only the chord is wanted."""
        delta /= 2.0
        if not taped:
            np.sin(delta, out=delta)
            return None, None, np.abs(delta, out=delta)
        sine = np.sin(delta)
        return delta, sine, np.abs(sine, out=out)

    u_start, sin_start, near = chord(spots - (center - half))
    u_end, sin_end, far = chord(spots - (center + half))
    if taped:
        nearer_start = near < far
        outside_tie = bool((near == far).any())
    np.minimum(near, far, out=near)  # the outside chord
    distance = near.sum(axis=-1) * two_rho
    u_center, sin_center, mid = chord(spots - center, out=far)
    u_half = half / 2.0
    sin_half = np.sin(u_half)
    chord_half = np.abs(sin_half)
    if taped:
        nearer_center = mid < chord_half
        inside_tie = bool((mid == chord_half).any())
    np.minimum(mid, chord_half, out=mid)  # the inside chord
    data = distance + mid.sum(axis=-1) * two_rho * eta
    if not taped:
        return Tensor._make(data, (), None)
    spent = False

    def backward(grad: np.ndarray) -> None:
        nonlocal spent
        if spent:
            raise RuntimeError(
                "backward() through an arc distance a second time: its "
                "saved arrays were overwritten by the first pass; "
                "rebuild the graph")
        spent = True
        grad_out = (grad * two_rho)[..., None]
        grad_in = (grad * eta * two_rho)[..., None]

        if outside_tie:
            chord_start, chord_end = np.abs(sin_start), np.abs(sin_end)
            outside = np.minimum(chord_start, chord_end)
            start_sel = (outside == chord_start).astype(np.float64)
            end_sel = (outside == chord_end).astype(np.float64)
            both = start_sel + end_sel
            via_start = grad_out * start_sel / both * np.sign(sin_start) \
                * np.cos(u_start) / 2.0
            via_end = grad_out * end_sel / both * np.sign(sin_end) \
                * np.cos(u_end) / 2.0
            via_ends = None
        else:
            # gather the selected endpoint's ``u`` and ``sin u``
            # (x·1 + y·0 is x), then one sign, one cosine
            farther_start = ~nearer_start
            np.multiply(u_start, nearer_start, out=u_start)
            np.multiply(u_end, farther_start, out=u_end)
            np.add(u_start, u_end, out=u_start)
            np.multiply(sin_start, nearer_start, out=sin_start)
            np.multiply(sin_end, farther_start, out=sin_end)
            np.add(sin_start, sin_end, out=sin_start)
            np.sign(sin_start, out=sin_start)
            via_ends = np.multiply(grad_out, sin_start, out=sin_start)
            via_ends *= np.cos(u_start, out=u_start)
            via_ends /= 2.0
            via_start = np.multiply(via_ends, nearer_start, out=u_start)
            via_end = np.multiply(via_ends, farther_start, out=u_end)

        if inside_tie:
            chord_center = np.abs(sin_center)
            inside = np.minimum(chord_center, chord_half)
            center_sel = (inside == chord_center).astype(np.float64)
            half_sel = (inside == chord_half).astype(np.float64)
            both = center_sel + half_sel
            via_center = grad_in * center_sel / both
            via_half = grad_in * half_sel / both
        else:
            via_center = np.multiply(grad_in, nearer_center, out=near)
            via_half = np.multiply(grad_in, ~nearer_center, out=mid)
        via_center *= np.sign(sin_center, out=sin_center)
        via_center *= np.cos(u_center, out=u_center)
        via_center /= 2.0
        via_half = _unbroadcast(via_half, arc_shape) * np.sign(sin_half) \
            * np.cos(u_half) / 2.0

        to_start = -_unbroadcast(via_start, arc_shape)
        to_end = -_unbroadcast(via_end, arc_shape)
        if length_t.requires_grad:
            to_half = (-to_start + to_end) + via_half
            length_t._receive(to_half.reshape(length_t.shape) / two_rho)
        if center_t.requires_grad:
            to_center = (to_start + to_end) \
                + -_unbroadcast(via_center, arc_shape)
            center_t._receive(to_center.reshape(center_t.shape))
        if points.requires_grad:
            if via_ends is not None and via_ends.shape == points.shape:
                # each cell of ``via_ends`` is its start or its end
                # contribution and the other one is an exact zero
                points._receive(via_ends)
            else:
                points._receive(_unbroadcast(via_start, points.shape))
                points._receive(_unbroadcast(via_end, points.shape))
            points._receive(_unbroadcast(via_center, points.shape))

    return Tensor._make(data, (points, center_t, length_t), backward)


def distance_to_points(arc: Arc, point_angles: Tensor, eta: float) -> Tensor:
    """Convenience wrapper accepting 2-D or 3-D point tensors.

    * ``(N, d)`` points are ranked against every arc: result ``(B, N)``.
    * ``(B, M, d)`` points are per-query candidates: result ``(B, M)``.
    """
    if point_angles.ndim == 2:
        n, d = point_angles.shape
        points = point_angles.reshape(1, n, d)
    elif point_angles.ndim == 3:
        points = point_angles
    else:
        raise ValueError(f"expected 2-D or 3-D points, got {point_angles.ndim}-D")
    return entity_to_arc_distance(points, arc, eta)
