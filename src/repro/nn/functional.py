"""Differentiable operations on :class:`~repro.nn.tensor.Tensor`.

These functions build on the primitive arithmetic in ``tensor.py`` and add
the element-wise nonlinearities, trigonometry, and structural operations the
HaLk model family needs (rotation geometry works in angles, attention needs
softmax/concat, embedding tables need gather with scatter-add gradients).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import arrays
from .tensor import Tensor, _unbroadcast, as_tensor

__all__ = [
    "exp", "log", "tanh", "sigmoid", "relu", "abs_", "sign",
    "sin", "cos", "arctan2", "maximum", "minimum", "clip",
    "concat", "stack", "softmax", "gather_rows", "wrap_angle",
    "where", "log_sigmoid",
    "angle_features", "mlp", "parameter", "zeros_like", "memo",
]


def _unary(x: Tensor, data: np.ndarray, grad_fn) -> Tensor:
    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._receive(grad * grad_fn())

    return Tensor._make(data, (x,), backward)


def _pass_through(x: Tensor, data: np.ndarray) -> Tensor:
    """A node whose derivative is 1: the gradient goes on as it came
    (``grad * 1`` is ``grad``, bit for bit)."""
    def backward(grad: np.ndarray) -> None:
        x._receive(grad)

    return Tensor._make(data, (x,), backward)


def exp(x) -> Tensor:
    """Element-wise exponential."""
    x = as_tensor(x)
    data = np.exp(x.data)
    return _unary(x, data, lambda: data)


def log(x) -> Tensor:
    """Element-wise natural logarithm."""
    x = as_tensor(x)
    data = np.log(x.data)
    return _unary(x, data, lambda: 1.0 / x.data)


def tanh(x) -> Tensor:
    """Element-wise hyperbolic tangent."""
    x = as_tensor(x)
    data = np.tanh(x.data)
    return _unary(x, data, lambda: 1.0 - data ** 2)


def sigmoid(x) -> Tensor:
    """Element-wise logistic sigmoid, computed stably."""
    x = as_tensor(x)
    data = arrays.sigmoid(x.data)
    return _unary(x, data, lambda: data * (1.0 - data))


def relu(x) -> Tensor:
    """Element-wise rectified linear unit."""
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)
    return _unary(x, data, lambda: (x.data > 0).astype(np.float64))


def abs_(x) -> Tensor:
    """Element-wise absolute value (subgradient 0 at 0)."""
    x = as_tensor(x)
    data = np.abs(x.data)
    return _unary(x, data, lambda: np.sign(x.data))


def sign(x) -> Tensor:
    """Element-wise sign; gradient is zero everywhere."""
    x = as_tensor(x)
    data = np.sign(x.data)
    return _unary(x, data, lambda: np.zeros_like(data))


def sin(x) -> Tensor:
    """Element-wise sine."""
    x = as_tensor(x)
    data = np.sin(x.data)
    return _unary(x, data, lambda: np.cos(x.data))


def cos(x) -> Tensor:
    """Element-wise cosine."""
    x = as_tensor(x)
    data = np.cos(x.data)
    return _unary(x, data, lambda: -np.sin(x.data))


def arctan2(y, x) -> Tensor:
    """Element-wise two-argument arctangent with gradients to both inputs.

    Used by the semantic-average-centre computation (Eq. 5/6 of the paper)
    to map rectangular coordinates back to a polar angle without the
    single-argument ``arctan`` quadrant ambiguity.
    """
    y = as_tensor(y)
    x = as_tensor(x)
    data = np.arctan2(y.data, x.data)
    denom = x.data ** 2 + y.data ** 2
    denom = np.maximum(denom, 1e-12)

    def backward(grad: np.ndarray) -> None:
        if y.requires_grad:
            y._receive(_match(grad * x.data / denom, y))
        if x.requires_grad:
            x._receive(_match(-grad * y.data / denom, x))

    return Tensor._make(data, (y, x), backward)


def _match(grad: np.ndarray, t: Tensor) -> np.ndarray:
    return _unbroadcast(grad, t.shape)


def maximum(a, b) -> Tensor:
    """Element-wise maximum (gradient split evenly on ties)."""
    return _pairwise_extreme(a, b, np.maximum)


def minimum(a, b) -> Tensor:
    """Element-wise minimum (gradient split evenly on ties)."""
    return _pairwise_extreme(a, b, np.minimum)


def _pairwise_extreme(a, b, fn) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b)
    data = fn(a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a_sel = (data == a.data).astype(np.float64)
        b_sel = (data == b.data).astype(np.float64)
        both = a_sel + b_sel
        if a.requires_grad:
            a._receive(_match(grad * a_sel / both, a))
        if b.requires_grad:
            b._receive(_match(grad * b_sel / both, b))

    return Tensor._make(data, (a, b), backward)


def clip(x, low: float, high: float) -> Tensor:
    """Clamp values into [low, high]; gradient is 1 strictly inside."""
    x = as_tensor(x)
    data = np.clip(x.data, low, high)
    return _unary(x, data, lambda: ((x.data > low) & (x.data < high)).astype(np.float64))


def wrap_angle(x) -> Tensor:
    """Normalise angles into [0, 2*pi) with a pass-through gradient.

    The wrap is piecewise translation, so its derivative is 1 almost
    everywhere; this makes angle normalisation differentiable.
    """
    x = as_tensor(x)
    return _pass_through(x, arrays.wrap_angle(x.data))


def angle_features(angles) -> Tensor:
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
    data = arrays.angle_features(angles.data)
    sine, cosine = data[..., :width], data[..., width:]

    def backward(grad: np.ndarray) -> None:
        angles._receive(grad[..., :width] * cosine)
        angles._receive(grad[..., width:] * -sine)

    return Tensor._make(data, (angles,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._receive(grad[tuple(index)])

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._receive(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (built from primitives)."""
    x = as_tensor(x)
    shifted = x - Tensor(np.max(x.data, axis=axis, keepdims=True))
    exps = exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def gather_rows(table: Tensor, index) -> Tensor:
    """Embedding lookup: select rows of ``table`` by integer ``index``.

    The gradient scatter-adds into the table, which makes dense numpy
    parameter tables usable exactly like ``torch.nn.Embedding``.  The
    scatter is one ``np.bincount`` over flattened ``(row, column)``
    cells: like the unbuffered ``ufunc.at`` scatter it replaced, it adds
    the gradient rows of a repeated id in index order starting from
    zero, so the sums are the same bits, at a sixth of the cost.
    """
    table = as_tensor(table)
    index = np.asarray(index, dtype=np.int64)
    data = table.data[index]

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            shape = table.data.shape
            width = int(np.prod(shape[1:], dtype=np.int64))
            rows = index.reshape(-1, 1)
            if rows.size and rows.min() < 0:  # numpy's from-the-end ids
                rows = np.where(rows < 0, rows + shape[0], rows)
            cells = rows * width + np.arange(width)
            full = np.bincount(cells.ravel(), weights=grad.ravel(),
                               minlength=table.data.size)
            table._receive(full.reshape(shape))

    return Tensor._make(data, (table,), backward)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b``.

    ``condition`` is a plain boolean array (not differentiable).
    """
    a = as_tensor(a)
    b = as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._receive(_match(grad * cond, a))
        if b.requires_grad:
            b._receive(_match(grad * (~cond), b))

    return Tensor._make(data, (a, b), backward)


def log_sigmoid(x) -> Tensor:
    """Numerically stable ``log(sigmoid(x)) = -softplus(-x)``, one node.

    Forward and VJP replay ``-softplus(-x)`` op for op (the composed
    definition is the oracle in ``tests/nn/composed.py``): with
    ``y = -x``, the ``maximum(y, 0)`` branch reaches ``y`` before the
    ``log(exp(-|y|) + 1)`` branch does, and a tie at ``y == 0`` splits
    the gradient evenly, as :func:`maximum` does.
    """
    x = as_tensor(x)
    y = -x.data
    peak = np.maximum(y, 0.0)
    decay = np.exp(-np.abs(y))
    decay_1 = decay + 1.0
    data = -(peak + np.log(decay_1))

    def backward(grad: np.ndarray) -> None:
        upstream = -grad
        y_sel = (peak == y).astype(np.float64)
        both = y_sel + (peak == 0.0)
        through_peak = upstream * y_sel / both
        through_log = -(upstream * (1.0 / decay_1) * decay) * np.sign(y)
        x._receive(-(through_peak + through_log))

    return Tensor._make(data, (x,), backward)


def mlp(module, x) -> Tensor:
    """Apply an :class:`~repro.nn.modules.MLP` through its module call
    (one tape node; a module-call hook sees it)."""
    return module(x)


def parameter(param: Tensor) -> Tensor:
    """A bare parameter as an operand: itself, a leaf of the tape."""
    return param


def zeros_like(x: Tensor) -> Tensor:
    """A constant zero tensor of ``x``'s shape."""
    return Tensor(np.zeros(x.shape))


def memo(owner, key: str, compute) -> Tensor:
    """``compute()``, every time.  A node shared by two consumers would
    add their gradients before passing them down, regrouping the sums two
    separate nodes hand on one by one — so each consumer records its own.
    """
    return compute()
