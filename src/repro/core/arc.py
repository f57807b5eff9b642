"""Arc embeddings: the geometric backbone of HaLk (paper §II-A).

Entities are points on a circle of radius ``ρ`` (a zero-length arc);
queries are arc segments ``A = (A_c, A_l)`` with a centre angle per
dimension and an arclength per dimension.  The start/end points of
Definitions 1 and 2 — the "coordinated information pair" that bridges the
semantic gap between centre and cardinality — are derived here, as are the
angle-feature maps fed into the operator MLPs.

A note on periodicity: raw angles are discontinuous at the 0/2π seam, so
every MLP input goes through ``angle_features`` (the (sin, cos) chart of
the circle; the Tensor op is re-exported here).  This is the same
periodicity-aware treatment the paper applies to distances (chord
lengths, Eq. 9 and Eq. 16) carried through to the network inputs.

An :class:`Arc` holds what the forward pass's namespace computes with:
Tensors on the training tape, plain arrays when serving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import F, Tensor
from ..nn.functional import angle_features

__all__ = ["Arc", "ArcRows", "stack_rows", "angle_features", "chord_length",
           "angular_difference"]

TWO_PI = 2.0 * np.pi


@dataclass
class Arc:
    """A batch of arc embeddings.

    Attributes
    ----------
    center:
        ``(B, d)`` tensor or array of centre angles (any real; wrapped
        on use).
    length:
        ``(B, d)`` tensor or array of arclengths in ``[0, 2πρ]``.
    radius:
        Circle radius ``ρ`` (scalar, fixed — paper §II-A).
    """

    center: Tensor
    length: Tensor
    radius: float = 1.0

    def __post_init__(self):
        if self.center.shape != self.length.shape:
            raise ValueError(f"center/length shape mismatch: "
                             f"{self.center.shape} vs {self.length.shape}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def batch_size(self) -> int:
        return self.center.shape[0]

    @property
    def dim(self) -> int:
        return self.center.shape[-1]

    @property
    def half_angle(self) -> Tensor:
        """Half the angular span: ``A_l / (2ρ)``."""
        return self.length / (2.0 * self.radius)

    @property
    def angle(self) -> Tensor:
        """Full angular span ``A_α = A_l / ρ`` (Eq. 11)."""
        return self.length / self.radius

    @property
    def start(self) -> Tensor:
        """Start point ``A_S = A_c − A_l/(2ρ)`` (Definition 1)."""
        return self.center - self.half_angle

    @property
    def end(self) -> Tensor:
        """End point ``A_E = A_c + A_l/(2ρ)`` (Definition 2)."""
        return self.center + self.half_angle

    def with_signature(self, signature: np.ndarray) -> "ArcRows":
        """This batch as query-node values with group ``signature``."""
        return ArcRows(self.center, self.length, self.radius, signature)

    @staticmethod
    def from_points(points, radius: float = 1.0, xp=F) -> "Arc":
        """Embed entity points as zero-length arcs (singleton sets)."""
        return Arc(points, xp.zeros_like(points), radius)

    def detach(self) -> "Arc":
        """Arc with the same values, cut from the autograd graph."""
        return Arc(self.center.detach(), self.length.detach(), self.radius)

    def wrapped_center(self) -> np.ndarray:
        """Centre angles wrapped into [0, 2π) (numpy, for inspection)."""
        return np.mod(self.center.data, TWO_PI)

    def contains_angle(self, angles: np.ndarray) -> np.ndarray:
        """Boolean mask: does each (broadcast) angle lie on the arc?

        Purely numpy (non-differentiable); used by the distance function
        to zero the outside distance for interior points, and by answer
        identification.
        """
        delta = np.mod(angles - self.center.data, TWO_PI)
        delta = np.where(delta > np.pi, delta - TWO_PI, delta)
        return np.abs(delta) <= self.half_angle.data + 1e-12


@dataclass
class ArcRows(Arc):
    """The value of a batch of query nodes — what ``HalkModel``'s five
    primitives take and return: arcs plus the per-row multi-hot group
    signature ``(B, G)`` projection propagates and intersection attends
    with (§II-A).  ``first``/``take``/:func:`stack_rows` are the row
    surgery stacked plan execution adds on array-backed rows.
    """

    signature: np.ndarray | None = None

    def first(self, m: int) -> "ArcRows":
        """Drop padding rows, keeping the first ``m``."""
        return self if self.batch_size == m else self._index(slice(m))

    def take(self, rows) -> "ArcRows":
        """Gather ``rows`` into a new stacked batch (one fancy index per
        field — the executor's bulk operand assembly)."""
        return self._index(np.asarray(rows, dtype=np.int64))

    def _index(self, rows) -> "ArcRows":
        return ArcRows(self.center[rows], self.length[rows], self.radius,
                       self.signature[rows])


def stack_rows(states: list[ArcRows]) -> ArcRows:
    """Concatenate per-op rows into one stacked batch."""
    if len(states) == 1:
        return states[0]
    return ArcRows(np.concatenate([s.center for s in states]),
                   np.concatenate([s.length for s in states]),
                   states[0].radius,
                   np.concatenate([s.signature for s in states]))


def chord_length(a: Tensor, b: Tensor, radius: float = 1.0) -> Tensor:
    """Chord length ``2ρ·|sin((a−b)/2)|`` between two angle tensors.

    The paper's periodicity-safe distance between circle points (used in
    Eq. 9 for overlap and Eq. 16 for the entity-query distance).
    """
    return 2.0 * radius * F.abs_(F.sin((a - b) / 2.0))


def angular_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signed minimal angular difference in (−π, π] (numpy helper)."""
    delta = np.mod(a - b, TWO_PI)
    return np.where(delta > np.pi, delta - TWO_PI, delta)
