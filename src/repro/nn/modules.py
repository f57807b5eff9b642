"""Neural-network building blocks on top of the autograd engine.

Provides the ``Module``/``Parameter`` machinery and the layers the paper's
operator networks are assembled from: ``Linear``, multi-layer perceptrons
(``MLP``), and ``Embedding`` tables for entities and relations.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import arrays
from . import functional as F
from . import init
from .tensor import (Tensor, _matmul_grad_left, _matmul_grad_right,
                     _unbroadcast, as_tensor)

__all__ = ["Parameter", "Module", "Linear", "MLP", "Sequential", "Embedding",
           "set_call_hook", "get_call_hook"]

# Optional observability hook around every Module.__call__.  While set
# (by repro.obs.profiler), forward passes are routed through
# ``hook(module, args, kwargs)`` — which must call ``module.forward`` —
# giving per-operator-network timing; when None (the default) the call
# costs one global read and a branch.
_CALL_HOOK = None


def set_call_hook(hook) -> None:
    """Install/remove the module-call hook (None to remove)."""
    global _CALL_HOOK
    _CALL_HOOK = hook


def get_call_hook():
    """The active module-call hook, or None."""
    return _CALL_HOOK


class Parameter(Tensor):
    """A tensor registered as trainable state of a :class:`Module`."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        # Parameters are always leaves regardless of the grad-enabled flag
        # active at construction time.
        self.requires_grad = True


class Module:
    """Base class with automatic parameter registration and traversal."""

    def __init__(self):
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its submodules."""
        seen: set[int] = set()
        yield from self._parameters_impl(seen)

    def _parameters_impl(self, seen: set[int]) -> Iterator[Parameter]:
        for param in self._parameters.values():
            if id(param) not in seen:
                seen.add(id(param))
                yield param
        for module in self._modules.values():
            yield from module._parameters_impl(seen)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (dotted-name, parameter) pairs."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def modules_of_type(self, kind: type) -> "Iterator[Module]":
        """Yield this module and all submodules that are instances of ``kind``."""
        if isinstance(self, kind):
            yield self
        for module in self._modules.values():
            yield from module.modules_of_type(kind)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot of all parameter values (copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameter values from :meth:`state_dict` output."""
        named = dict(self.named_parameters())
        missing = set(named) - set(state)
        unexpected = set(state) - set(named)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        # validate every shape before assigning any, so a bad state dict
        # cannot leave the module half-loaded (hot reload relies on this)
        for name, values in state.items():
            if named[name].data.shape != np.shape(values):
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{named[name].data.shape} vs "
                                 f"{np.shape(values)}")
        for name, values in state.items():
            named[name].data[...] = values

    def __call__(self, *args, **kwargs):
        hook = _CALL_HOOK
        if hook is None:
            return self.forward(*args, **kwargs)
        return hook(self, args, kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine transformation ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng=rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)
        for i, module in enumerate(modules):
            setattr(self, f"layer_{i}", module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.layers:
            x = module(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with a configurable hidden stack.

    Matches the role of ``MLP(.)`` in the paper's Eq. (2), (7), (9), (12)
    and (14): hidden layers with a nonlinearity, linear output layer.

    A forward pass is **one tape node** however deep the stack: the
    forward loop is ``arrays.mlp`` (what serving calls directly), and
    the VJP walks the layers back with the arithmetic and in the order
    the per-op graph (``matmul``, ``+ bias``, activation, …) used —
    output bias, output weight, then per hidden layer bias, input,
    weight — so weights shared by several applications (3p, 3i)
    accumulate the same bits.  The inner ``Linear`` modules only hold
    the parameters; they are not called, so a module-call hook sees an
    ``MLP`` as a leaf.
    """

    def __init__(self, in_features: int, hidden_features: int, out_features: int,
                 num_hidden_layers: int = 1, activation: str = "relu",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if activation not in arrays.ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; "
                             f"choose from {sorted(arrays.ACTIVATIONS)}")
        self.activation = activation
        self.hidden_layers: list[Linear] = []
        width = in_features
        for i in range(num_hidden_layers):
            layer = Linear(width, hidden_features, rng=rng)
            self.hidden_layers.append(layer)
            setattr(self, f"hidden_{i}", layer)
            width = hidden_features
        self.output = Linear(width, out_features, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        _, derivative = arrays.ACTIVATIONS[self.activation]
        layers = self.hidden_layers + [self.output]
        trace: list = []  # per layer: (its input, its pre-activation)
        data = arrays.mlp(self, x.data, trace)

        def backward(grad: np.ndarray) -> None:
            for depth in reversed(range(len(layers))):
                layer, fed = layers[depth], trace[depth][0]
                weight = layer.weight.data
                if layer.bias.requires_grad:
                    layer.bias._receive(_unbroadcast(grad, layer.bias.shape))
                if depth or x.requires_grad:
                    below = _matmul_grad_left(grad, fed, weight)
                    if depth == 0:
                        x._receive(below)
                if layer.weight.requires_grad:
                    layer.weight._receive(
                        _matmul_grad_right(grad, fed, weight))
                if depth:
                    grad = below * derivative(trace[depth - 1][1], fed)

        parents = [x]
        for layer in layers:
            parents += [layer.weight, layer.bias]
        return Tensor._make(data, parents, backward)


class Embedding(Module):
    """Dense lookup table with scatter-add gradients.

    Plays the role of ``torch.nn.Embedding`` for entity and relation
    embeddings.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 low: float = -1.0, high: float = 1.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.uniform((num_embeddings, embedding_dim),
                                             low=low, high=high, rng=rng))

    def forward(self, index, xp=F):
        return xp.gather_rows(self.weight, index)
