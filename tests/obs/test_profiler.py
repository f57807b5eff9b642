"""ModuleTimer: on/off parity, module attribution, restore-on-exit."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import modules as nn_modules
from repro.obs import ModuleTimer

pytestmark = pytest.mark.obs


def _forward_backward(seed: int = 0):
    """A small MLP step exercising matmul, add, relu, softmax, sum."""
    rng = np.random.default_rng(seed)
    mlp = nn.MLP(6, 8, 4, rng=rng)
    x = nn.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    out = F.softmax(mlp(x), axis=-1).sum()
    out.backward()
    grads = [np.array(p.grad) for p in mlp.parameters()]
    return float(out.data), np.array(x.grad), grads


class TestParity:
    def test_outputs_and_grads_identical_with_profiler(self):
        loss_off, xgrad_off, grads_off = _forward_backward()
        with ModuleTimer() as timer:
            loss_on, xgrad_on, grads_on = _forward_backward()
        assert loss_on == loss_off
        np.testing.assert_array_equal(xgrad_on, xgrad_off)
        for on, off in zip(grads_on, grads_off):
            np.testing.assert_array_equal(on, off)
        assert timer.module_stats  # and it did record something

    def test_patching_restored_on_exit(self):
        """The timer installs the module-call hook and nothing else: no
        Tensor method and no functional op is rebound, even while on."""
        before = {name: getattr(nn.Tensor, name)
                  for name in ("__add__", "__matmul__", "sum", "backward")}
        before_functional = {name: getattr(F, name) for name in F.__all__}
        with ModuleTimer():
            assert nn_modules.get_call_hook() is not None
            for name, fn in before.items():
                assert getattr(nn.Tensor, name) is fn
            for name, fn in before_functional.items():
                assert getattr(F, name) is fn
        assert nn_modules.get_call_hook() is None

    def test_restored_even_on_exception(self):
        with pytest.raises(RuntimeError):
            with ModuleTimer():
                raise RuntimeError("boom")
        assert nn_modules.get_call_hook() is None


class TestModuleHook:
    def test_module_stats_collected(self):
        with ModuleTimer() as timer:
            _forward_backward()
        assert timer.module_stats["MLP"].calls == 1
        # an MLP forward is one fused block: its Linear layers only hold
        # the parameters and are not called, so the timer sees a leaf
        assert "Linear" not in timer.module_stats
        mlp = timer.module_stats["MLP"]
        assert mlp.self_s <= mlp.total_s

    def test_module_timer_standalone(self):
        with ModuleTimer() as timer:
            _forward_backward()
        by_module = timer.seconds_by_module()
        assert set(by_module) == {"MLP"}  # a leaf: no inner Linear rows
        assert all(v >= 0.0 for v in by_module.values())
        assert nn_modules.get_call_hook() is None

    def test_nested_profilers_rejected(self):
        with ModuleTimer():
            with pytest.raises(RuntimeError):
                with ModuleTimer():
                    pass
        assert nn_modules.get_call_hook() is None
