"""The array twin of :mod:`repro.nn.functional`: the same names on ndarrays.

The HaLk forward pass (``core/operators.py``, ``HalkModel.embed_*``) is
written once over a namespace ``xp``.  Training passes ``functional``,
whose ops take Tensors and record the tape; serving passes this module,
whose ops take and return plain arrays — differentiability belongs to
the namespace the caller picks, not to the operator code.

Every expression longer than one numpy call (stable sigmoid, angle wrap,
(sin, cos) chart, MLP layer loop) is defined *here* and wrapped by its
Tensor twin (``MLP.forward`` for the loop); ``softmax`` alone is written
twice, because the tape composes it from four recorded ops.  ``tests/nn/test_namespace_twins.py``
holds every pair ``np.array_equal``.  Parameters arrive as ``Parameter``
objects and are read through ``.data`` at call time, so a hot reload
(which writes the arrays in place) is seen by the next call.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "abs_", "angle_features", "arctan2", "clip", "concat", "cos",
    "gather_rows", "memo", "minimum", "mlp", "parameter", "sigmoid", "sign",
    "sin", "softmax", "stack", "tanh", "wrap_angle", "zeros_like",
]

TWO_PI = 2.0 * np.pi

abs_ = np.abs
arctan2 = np.arctan2
clip = np.clip
cos = np.cos
minimum = np.minimum
sign = np.sign
sin = np.sin
stack = np.stack
tanh = np.tanh


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid, computed stably (one ``exp`` per element)."""
    decay = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + decay), decay / (1.0 + decay))


# Activation name -> (function on arrays, derivative from input and
# output).  Each derivative is the expression the matching op in
# ``functional`` multiplies the incoming gradient by.
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (lambda x: np.maximum(x, 0.0),
             lambda x, y: (x > 0).astype(np.float64)),
    "tanh": (np.tanh, lambda x, y: 1.0 - y ** 2),
    "sigmoid": (sigmoid, lambda x, y: y * (1.0 - y)),
}


def wrap_angle(x: np.ndarray) -> np.ndarray:
    """Normalise angles into [0, 2π).

    ``np.mod`` can round tiny negative inputs up to exactly 2π; those are
    folded back to 0 so the output interval is genuinely half-open.
    """
    data = np.mod(x, TWO_PI)
    return np.where(data >= TWO_PI, 0.0, data)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    exps = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return exps / exps.sum(axis=axis, keepdims=True)


def concat(arrays: Sequence[np.ndarray], axis: int = -1) -> np.ndarray:
    return np.concatenate(arrays, axis=axis)


def angle_features(angles: np.ndarray) -> np.ndarray:
    """The (sin, cos) chart of the circle: ``concat([sin(a), cos(a)])``."""
    width = angles.shape[-1]
    data = np.empty(angles.shape[:-1] + (2 * width,))
    np.sin(angles, out=data[..., :width])
    np.cos(angles, out=data[..., width:])
    return data


def mlp(module, x: np.ndarray, trace: list | None = None) -> np.ndarray:
    """Forward loop of an :class:`~repro.nn.modules.MLP`.  ``trace``
    collects what a VJP needs: per layer, the array it multiplied its
    weight with and (hidden layers) the pre-activation, bias included."""
    activate, _ = ACTIVATIONS[module.activation]
    for layer in module.hidden_layers:
        hidden = x @ layer.weight.data
        hidden += layer.bias.data
        if trace is not None:
            trace.append((x, hidden))
        x = activate(hidden)
    if trace is not None:
        trace.append((x, None))
    data = x @ module.output.weight.data
    data += module.output.bias.data
    return data


def gather_rows(table, index) -> np.ndarray:
    """Embedding lookup: rows of the parameter ``table`` by integer id."""
    return table.data[index]


def parameter(param) -> np.ndarray:
    """A bare parameter's current value."""
    return param.data


def zeros_like(x: np.ndarray) -> np.ndarray:
    return np.zeros(x.shape)


def memo(owner, key: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
    """``compute()``, remembered on ``owner`` (which must not change
    afterwards) under ``key``: an array is a value, so a second consumer
    may read what the first one computed."""
    cache = vars(owner)
    if key not in cache:
        cache[key] = compute()
    return cache[key]
