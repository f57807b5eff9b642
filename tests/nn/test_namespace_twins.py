"""The two namespaces of the HaLk forward pass say the same thing.

The operators are written once over a namespace: ``repro.nn.functional``
records the tape, ``repro.nn.arrays`` computes on plain arrays.  What
makes a served answer the bits training would compute is that each name
means the same function in both — so for **every** name the array
namespace exposes, ``arrays.f(x)`` is ``np.array_equal`` to
``F.f(Tensor(x)).data`` here, on inputs that include the places the
expressions are delicate (the 0/2π seam and tiny negatives for the wrap,
±745 for the sigmoid, the operand axis for the softmax, every activation
and 0–2 hidden layers and a lone row for the MLP).  A name added to the
array namespace without a case below fails ``test_every_name_has_a_twin``.
"""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, F, Parameter, Tensor, arrays

SETTINGS = dict(max_examples=40, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)
shapes = st.sampled_from([(1, 4), (3, 4), (2, 3, 4), (5,)])
TWO_PI = 2.0 * np.pi

#: values where the wrap and the sigmoid change branch or saturate
DELICATE = np.array([0.0, -0.0, TWO_PI, -TWO_PI, 2 * TWO_PI, -1e-17, -1e-300,
                     np.nextafter(TWO_PI, 0), np.nextafter(TWO_PI, 7),
                     -np.nextafter(TWO_PI, 0), 1e-17, 745.0, -745.0, 746.0,
                     -746.0, 709.0, -709.0, 1e6, -1e6, 37.0, -37.0])


def draw(seed, shape, scale=3.0):
    """Normal values with some cells replaced by the delicate ones."""
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=scale, size=shape)
    mask = rng.random(size=shape) < 0.3
    values[mask] = rng.choice(DELICATE, size=int(mask.sum()))
    return values


def same(array_result, tensor_result):
    assert type(array_result) is np.ndarray
    assert isinstance(tensor_result, Tensor)
    assert array_result.dtype == tensor_result.data.dtype
    assert np.array_equal(array_result, tensor_result.data, equal_nan=True)


def unary(name):
    def case(seed, shape):
        x = draw(seed, shape)
        same(getattr(arrays, name)(x), getattr(F, name)(Tensor(x)))
    return case


def binary(name):
    def case(seed, shape):
        x, y = draw(seed, shape), draw(seed + 1, shape)
        same(getattr(arrays, name)(x, y),
             getattr(F, name)(Tensor(x), Tensor(y)))
    return case


def clip(seed, shape):
    x = draw(seed, shape)
    same(arrays.clip(x, 0.0, TWO_PI), F.clip(Tensor(x), 0.0, TWO_PI))


def joined(name):
    def case(seed, shape):
        parts = [draw(seed + i, shape) for i in range(3)]
        for axis in (0, -1):
            same(getattr(arrays, name)(parts, axis=axis),
                 getattr(F, name)([Tensor(p) for p in parts], axis=axis))
    return case


def softmax(seed, shape):
    # scores as intersection stacks them: operands along axis 0
    x = np.stack([draw(seed + i, shape, scale=30.0) for i in range(3)])
    for axis in (0, -1):
        same(arrays.softmax(x, axis=axis), F.softmax(Tensor(x), axis=axis))


def gather_rows(seed, shape):
    rng = np.random.default_rng(seed)
    table = Parameter(draw(seed, (7,) + shape[1:]))
    index = rng.integers(0, 7, size=shape[0])
    same(arrays.gather_rows(table, index), F.gather_rows(table, index))


def parameter(seed, shape):
    param = Parameter(draw(seed, shape))
    same(arrays.parameter(param), F.parameter(param))
    assert arrays.parameter(param) is param.data  # live, not a copy


def mlp(seed, shape):
    rng = np.random.default_rng(seed)
    x = draw(seed, shape)
    for activation in ("relu", "tanh", "sigmoid"):
        for depth in (0, 1, 2):
            module = MLP(shape[-1], 6, 5, num_hidden_layers=depth,
                         activation=activation, rng=rng)
            for layer in module.hidden_layers + [module.output]:
                layer.bias.data[...] = rng.normal(size=layer.bias.shape)
            same(arrays.mlp(module, x), F.mlp(module, Tensor(x)))


def memo(seed, shape):
    class Owner:
        pass

    x, owner, calls = draw(seed, shape), Owner(), []

    def compute(wrap):
        def thunk():
            calls.append(wrap)
            return wrap(x)
        return thunk

    first = arrays.memo(owner, "key", compute(np.array))
    assert arrays.memo(owner, "key", compute(np.array)) is first
    same(first, F.memo(owner, "key", compute(Tensor)))
    F.memo(owner, "key", compute(Tensor))
    # the array namespace computed once; the tape both times
    assert calls == [np.array, Tensor, Tensor]


CASES = {
    "abs_": unary("abs_"), "cos": unary("cos"), "sin": unary("sin"),
    "sign": unary("sign"), "tanh": unary("tanh"),
    "sigmoid": unary("sigmoid"), "wrap_angle": unary("wrap_angle"),
    "angle_features": unary("angle_features"),
    "zeros_like": unary("zeros_like"),
    "arctan2": binary("arctan2"), "minimum": binary("minimum"),
    "clip": clip, "concat": joined("concat"), "stack": joined("stack"),
    "softmax": softmax, "gather_rows": gather_rows, "parameter": parameter,
    "mlp": mlp, "memo": memo,
}


def test_every_name_has_a_twin():
    """The array namespace *is* the seam: exactly the names the forward
    pass reaches through ``xp``, each present in ``functional`` (which
    also holds what only the tape needs — the loss, the baselines) and
    each held equal to it below."""
    import repro
    used = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        used |= set(re.findall(r"\bxp\.(\w+)", path.read_text()))
    assert used == set(arrays.__all__) == set(CASES)
    assert set(arrays.__all__) <= set(F.__all__)
    for name in arrays.__all__:
        assert callable(getattr(arrays, name)) and callable(getattr(F, name))


@pytest.mark.parametrize("name", sorted(CASES))
@given(seeds, shapes)
@settings(**SETTINGS)
def test_array_twin_equals_the_tensor_op(name, seed, shape):
    with np.errstate(all="ignore"):
        CASES[name](seed, shape)


def test_wrap_is_half_open_at_the_seam():
    """``np.mod`` rounds a tiny negative up to exactly 2π; both
    namespaces fold it back to 0."""
    x = np.array([-1e-17, TWO_PI, 0.0, np.nextafter(TWO_PI, 0)])
    wrapped = arrays.wrap_angle(x)
    assert np.array_equal(wrapped, F.wrap_angle(Tensor(x)).data)
    assert np.array_equal(wrapped, [0.0, 0.0, 0.0, np.nextafter(TWO_PI, 0)])


def test_sigmoid_saturates_without_overflow():
    x = np.array([-746.0, -745.0, 0.0, 745.0, 746.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = arrays.sigmoid(x)
    assert np.array_equal(got, F.sigmoid(Tensor(x)).data)
    assert got[0] == 0.0 and got[2] == 0.5 and got[-1] == 1.0
    assert np.all(np.diff(got) >= 0)
