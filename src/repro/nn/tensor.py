"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the ``repro.nn`` substrate.  The paper's
models are implemented in PyTorch; the reproduction environment has no
PyTorch, so we provide a small but complete autograd engine with the same
semantics: a :class:`Tensor` wraps a numpy array, records the operations
applied to it, and :meth:`Tensor.backward` propagates gradients through the
recorded graph in reverse topological order.

Only the operations required by the HaLk model and its baselines are
implemented, but they are implemented fully (broadcasting, fancy-index
gather/scatter for embedding tables, element-wise trigonometry for the
rotation-based geometry, reductions, concatenation).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

# Grad-mode is tracked per thread so that inference threads (e.g. the
# ``repro.serve`` worker pool) can disable recording without racing a
# trainer — a module-global flag restored by one thread would silently
# re-enable graph capture in another mid-forward.
_GRAD_STATE = threading.local()

@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (for evaluation)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded for backward."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Numpy broadcasting can add leading axes and stretch length-1 axes; the
    corresponding gradient must be summed back over those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from length 1.
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _matmul_grad_left(grad: np.ndarray, left: np.ndarray,
                      right: np.ndarray) -> np.ndarray:
    """Gradient of ``left @ right`` with respect to ``left``."""
    if right.ndim == 1:
        return _unbroadcast(np.outer(grad, right) if grad.ndim
                            else grad * right, left.shape)
    return _unbroadcast(grad @ np.swapaxes(right, -1, -2), left.shape)


def _matmul_grad_right(grad: np.ndarray, left: np.ndarray,
                       right: np.ndarray) -> np.ndarray:
    """Gradient of ``left @ right`` with respect to ``right``."""
    if left.ndim == 1:
        return _unbroadcast(np.outer(left, grad) if grad.ndim
                            else grad * left, right.shape)
    return _unbroadcast(np.swapaxes(left, -1, -2) @ grad, right.shape)


class Tensor:
    """A numpy-backed tensor that records operations for autograd.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64``.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` on backward.
    """

    __slots__ = ("data", "requires_grad", "grad", "_grad_owned",
                 "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._grad_owned = False
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a result tensor wired into the autograd graph.

        ``backward`` is the node's VJP: called once with the gradient of
        the result, it hands each parent its contribution through
        :meth:`_receive`.  A node may be one arithmetic op or a whole
        *block* (an MLP, the Eq. 15/16 distance); a block's VJP replays
        the arithmetic of the ops it stands for, in their order, and
        lists its parents in the reverse of the order a walk over those
        ops would first reach them, so every gradient comes out bit for
        bit what the op-by-op tape gave (DESIGN.md §14).
        """
        out = Tensor.__new__(Tensor)
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        out.data = data
        out.grad = None
        out._grad_owned = False
        requires = False
        if getattr(_GRAD_STATE, "enabled", True):
            for parent in parents:
                if parent.requires_grad:
                    requires = True
                    break
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # gradient accumulation
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add one incoming gradient to ``.grad`` without a zero buffer.

        The first array is kept **by reference** and marked not ours: it
        may be a read-only broadcast view, or the very array another
        tensor was handed too.  The second is added out of place, which
        makes the sum ours; later ones are added in place.  The values
        are those of ``zeros + g1 + g2 + …`` in arrival order (``0 + g``
        is ``g``), without the ``zeros_like`` and the first ``+=`` per
        node.  What makes this safe is the rule every VJP keeps: an
        array handed to ``_receive`` is never written again by whoever
        produced it.  ``.grad`` of a leaf may therefore alias memory the
        leaf does not own — read it, do not update it in place.
        """
        if self.grad is None:
            self.grad = grad
            self._grad_owned = False
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    # During backward, every node (leaf or interior) accumulates incoming
    # gradient into ``.grad``; the driver in :meth:`backward` drains the
    # buffer of interior nodes when their turn comes.
    _receive = _accumulate

    def zero_grad(self) -> None:
        """Clear any accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Gradients accumulate into ``.grad`` of leaf tensors (those created
        directly, e.g. parameters).  Interior nodes use ``.grad`` only as a
        transient buffer while the walk is in flight.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(np.float64)

        self._accumulate(grad)
        # Walk consumers before producers so each node sees its full
        # upstream gradient exactly once.
        for node in self._topological_order():
            node_grad = node.grad
            node.grad = None
            if node_grad is not None:
                node._backward(node_grad)

    def _topological_order(self) -> list["Tensor"]:
        """Interior nodes reachable from self, outputs first.

        Reverse post-order of a depth-first walk that explores a node's
        last parent first.  The order decides in which sequence several
        consumers of one tensor add into its gradient, i.e. the rounding
        of every sum on the tape, so it is part of the numerics: do not
        swap it for another valid topological order.  Leaves take no
        part in the walk (nothing to call, nowhere to go from them).
        """
        if self._backward is None:
            return []
        order: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent._backward is not None and parent not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._receive(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._receive(_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._receive(-grad)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._receive(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._receive(-_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._receive(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._receive(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._receive(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._receive(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._receive(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._receive(_matmul_grad_left(grad, self.data, other.data))
            if other.requires_grad:
                other._receive(_matmul_grad_right(grad, self.data,
                                                  other.data))

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # indexing / shaping
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if _is_basic_index(index):
                    # no cell is selected twice: scatter = assign
                    full[index] = grad
                else:
                    np.add.at(full, index, grad)
                self._receive(full)

        return Tensor._make(data, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._receive(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        axes = axes or None
        data = self.data.transpose(axes) if axes else self.data.T
        if axes:
            inverse = np.argsort(axes)
        else:
            inverse = None

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if inverse is not None:
                    self._receive(grad.transpose(inverse))
                else:
                    self._receive(grad.T)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            # a read-only view: receivers never write what they are handed
            self._receive(np.broadcast_to(g, self.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / count

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _min_max_reduce(self, axis, keepdims, np.min)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _min_max_reduce(self, axis, keepdims, np.max)


def _min_max_reduce(x: Tensor, axis, keepdims: bool, fn) -> Tensor:
    data = fn(x.data, axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g = grad
        d = data
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
            d = np.expand_dims(d, axis=axis)
        mask = (x.data == d)
        # Split gradient evenly across ties to keep the subgradient bounded.
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        x._receive(mask * g / counts)

    return Tensor._make(data, (x,), backward)


def _is_basic_index(index) -> bool:
    """True for numpy *basic* indexing (ints, slices, ``None``, ``...``)."""
    items = index if isinstance(index, tuple) else (index,)
    return all(item is None or item is Ellipsis
               or isinstance(item, (int, np.integer, slice))
               for item in items)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
