"""Arc embeddings: the geometric backbone of HaLk (paper §II-A).

Entities are points on a circle of radius ``ρ`` (a zero-length arc);
queries are arc segments ``A = (A_c, A_l)`` with a centre angle per
dimension and an arclength per dimension.  The start/end points of
Definitions 1 and 2 — the "coordinated information pair" that bridges the
semantic gap between centre and cardinality — are derived here, as are the
angle-feature maps fed into the operator MLPs.

A note on periodicity: raw angles are discontinuous at the 0/2π seam, so
every MLP input goes through :func:`angle_features` (the (sin, cos) chart
of the circle).  This is the same periodicity-aware treatment the paper
applies to distances (chord lengths, Eq. 9 and Eq. 16) carried through to
the network inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import F, Tensor, as_tensor

__all__ = ["Arc", "angle_features", "chord_length", "angular_difference",
           "wrap_angles"]

TWO_PI = 2.0 * np.pi


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """``F.wrap_angle`` on a plain array: same ops, same bits, no graph.

    For the code that runs off the autograd path on purpose — the
    published entity table and the serving backend.
    """
    data = np.mod(angles, TWO_PI)
    return np.where(data >= TWO_PI, 0.0, data)


@dataclass
class Arc:
    """A batch of arc embeddings.

    Attributes
    ----------
    center:
        ``(B, d)`` tensor of centre angles (any real; wrapped on use).
    length:
        ``(B, d)`` tensor of arclengths in ``[0, 2πρ]``.
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

    @staticmethod
    def from_points(points: Tensor, radius: float = 1.0) -> "Arc":
        """Embed entity points as zero-length arcs (singleton sets)."""
        zeros = Tensor(np.zeros(points.shape))
        return Arc(points, zeros, radius)

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


def angle_features(angles: Tensor) -> Tensor:
    """Map angles to the continuous (sin, cos) chart of the circle.

    MLP inputs built from raw angles see a jump at the 0/2π seam even
    though the two sides are the same point; the (sin, cos) features are
    smooth and periodic, matching the chord-length treatment the paper
    applies everywhere distances are involved.

    One tape node standing for ``concat([sin(a), cos(a)])``: the VJP
    reuses the forward's sine and cosine and hands ``angles`` the sine
    half's contribution and the cosine half's as two receives, in that
    order — what the three composed nodes did (pre-summing the two
    rounds differently whenever ``angles`` already holds a gradient).
    """
    angles = as_tensor(angles)
    width = angles.shape[-1]
    data = np.empty(angles.shape[:-1] + (2 * width,))
    sine = np.sin(angles.data, out=data[..., :width])
    cosine = np.cos(angles.data, out=data[..., width:])

    def backward(grad: np.ndarray) -> None:
        angles._receive(grad[..., :width] * cosine)
        angles._receive(grad[..., width:] * -sine)

    return Tensor._make(data, (angles,), backward)


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
