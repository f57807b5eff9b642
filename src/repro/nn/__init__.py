"""``repro.nn`` — a numpy reverse-mode autodiff engine with NN layers.

Substitute for the PyTorch substrate the paper's implementation relies on.
Public surface:

* :class:`Tensor`, :func:`no_grad` — autograd core
* :mod:`repro.nn.functional` (imported as ``F``) — differentiable ops
* :mod:`repro.nn.arrays` — the same names on plain arrays (serving)
* :class:`Module`, :class:`Linear`, :class:`MLP`, :class:`Embedding` — layers
* :class:`SGD`, :class:`Adam` — optimizers
"""

from . import arrays
from . import functional
from . import init
from .functional import *  # noqa: F401,F403 - re-export the op surface
from .modules import MLP, Embedding, Linear, Module, Parameter, Sequential
from .optim import SGD, Adam, Optimizer
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

F = functional

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "Module", "Parameter", "Linear", "MLP", "Sequential", "Embedding",
    "Optimizer", "SGD", "Adam",
    "F", "functional", "arrays", "init",
]
