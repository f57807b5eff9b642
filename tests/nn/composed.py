"""The op-by-op definitions the fused tape blocks replaced — the oracle.

Each function here is the definition ``src/`` had before the block that
now carries its name was written, verbatim except that ``a - b`` is
spelled :func:`sub` (``Tensor.__sub__`` is itself one of the blocks).
They build one tape node per arithmetic op, so their values and
gradients are what the blocks must reproduce **bit for bit**
(``np.array_equal``, never a tolerance — DESIGN.md §14);
``tests/nn/test_blocks.py`` holds the properties that compare them.

Not used by ``src/``; not a second implementation to keep in step by
hand — a block that stops matching its oracle fails tier-1.
"""

from __future__ import annotations

import numpy as np

from repro.nn import F, Tensor, as_tensor

__all__ = ["sub", "getitem", "gather_rows", "log_sigmoid", "angle_features",
           "mlp_forward", "entity_to_arc_distance"]


def sub(a, b) -> Tensor:
    """``Tensor.__sub__``: an addition of the negation (two nodes)."""
    return as_tensor(a) + (-as_tensor(b))


def getitem(x: Tensor, index) -> Tensor:
    """``Tensor.__getitem__``: scatter-add for every kind of index."""
    data = x.data[index]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.add.at(full, index, grad)
            x._receive(full)

    return Tensor._make(data, (x,), backward)


def gather_rows(table: Tensor, index) -> Tensor:
    """``F.gather_rows``: dense zero table + ``np.add.at``."""
    table = as_tensor(table)
    index = np.asarray(index, dtype=np.int64)
    data = table.data[index]

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, index, grad)
            table._receive(full)

    return Tensor._make(data, (table,), backward)


def softplus(x) -> Tensor:
    x = as_tensor(x)
    return F.maximum(x, 0.0) + F.log(F.exp(-F.abs_(x)) + 1.0)


def log_sigmoid(x) -> Tensor:
    """``F.log_sigmoid``: ``-softplus(-x)`` out of eight nodes."""
    return -softplus(-as_tensor(x))


def angle_features(angles: Tensor) -> Tensor:
    """``core.arc.angle_features``: sin, cos and a concat node."""
    return F.concat([F.sin(angles), F.cos(angles)], axis=-1)


_ACTIVATIONS = {"relu": F.relu, "tanh": F.tanh, "sigmoid": F.sigmoid}


def mlp_forward(mlp, x: Tensor) -> Tensor:
    """``MLP.forward``: ``Linear`` → activation → … → ``Linear``, where
    ``Linear.forward`` is a matmul node and a bias-add node."""
    activation = _ACTIVATIONS[mlp.activation]
    for layer in mlp.hidden_layers:
        x = activation(x @ layer.weight + layer.bias)
    return x @ mlp.output.weight + mlp.output.bias


def entity_to_arc_distance(points: Tensor, arc, eta: float) -> Tensor:
    """``core.distance.entity_to_arc_distance`` (Eq. 15/16), ~40 nodes."""
    radius = arc.radius
    center = arc.center.reshape(arc.batch_size, 1, arc.dim)
    half = arc.half_angle.reshape(arc.batch_size, 1, arc.dim)
    start = sub(center, half)
    end = center + half

    chord_start = F.abs_(F.sin(sub(points, start) / 2.0))
    chord_end = F.abs_(F.sin(sub(points, end) / 2.0))
    outside = F.minimum(chord_start, chord_end)

    chord_center = F.abs_(F.sin(sub(points, center) / 2.0))
    chord_half_arc = F.abs_(F.sin(half / 2.0))
    inside = F.minimum(chord_center, chord_half_arc)

    d_outside = 2.0 * radius * outside.sum(axis=-1)
    d_inside = 2.0 * radius * inside.sum(axis=-1)
    return d_outside + eta * d_inside
