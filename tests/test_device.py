"""Device facade tests: loading, launch validation, metrics plumbing."""

import numpy as np
import pytest

from repro.errors import LaunchError, SimulationError
from repro.sim.device import Device, Program
from repro.sim.specs import TINY

SRC = """
__global__ void fill(int* out, int v) {
    out[blockIdx.x * blockDim.x + threadIdx.x] = v;
}
"""


class TestLoading:
    def test_load_returns_program(self):
        dev = Device()
        prog = dev.load(SRC)
        assert isinstance(prog, Program)
        assert prog.kernel_names() == ["fill"]

    def test_source_property_is_python(self):
        dev = Device()
        prog = dev.load(SRC)
        assert "def __mc_fill" in prog.source

    def test_duplicate_kernel_name_rejected(self):
        dev = Device()
        dev.load(SRC)
        with pytest.raises(SimulationError, match="already loaded"):
            dev.load(SRC)

    def test_multiple_modules_coexist(self):
        dev = Device()
        dev.load(SRC)
        prog2 = dev.load("__global__ void other(int* out) { out[0] = 1; }")
        out = dev.from_numpy("out", np.zeros(4, np.int32))
        prog2.launch("other", 1, 1, out)
        dev.synchronize()
        assert out.data[0] == 1


class TestLaunchValidation:
    def test_unknown_kernel(self):
        dev = Device()
        dev.load(SRC)
        with pytest.raises(LaunchError):
            dev.launch("nope", 1, 1)

    def test_zero_grid(self):
        dev = Device()
        dev.load(SRC)
        out = dev.from_numpy("out", np.zeros(4, np.int32))
        with pytest.raises(LaunchError):
            dev.launch("fill", 0, 1, out, 1)

    def test_oversized_block(self):
        dev = Device()
        dev.load(SRC)
        out = dev.from_numpy("out", np.zeros(4, np.int32))
        with pytest.raises(LaunchError):
            dev.launch("fill", 1, 2048, out, 1)

    def test_tiny_spec_limits_apply(self):
        dev = Device(spec=TINY)
        dev.load(SRC)
        out = dev.from_numpy("out", np.zeros(256, np.int32))
        with pytest.raises(LaunchError):
            dev.launch("fill", 1, 256, out, 1)  # TINY caps blocks at 128


class TestMetrics:
    def test_synchronize_scopes_roots(self):
        dev = Device()
        prog = dev.load(SRC)
        out = dev.from_numpy("out", np.zeros(128, np.int32))
        prog.launch("fill", 1, 128, out, 7)
        m1 = dev.synchronize()
        assert m1.host_launches == 1
        prog.launch("fill", 1, 128, out, 8)
        m2 = dev.synchronize()
        assert m2.cycles > 0

    def test_eager_functional_execution(self):
        # results are visible to the host *before* synchronize
        dev = Device()
        prog = dev.load(SRC)
        out = dev.from_numpy("out", np.zeros(32, np.int32))
        prog.launch("fill", 1, 32, out, 9)
        assert out.data[0] == 9

    def test_metrics_summary_renders(self):
        dev = Device()
        prog = dev.load(SRC)
        out = dev.from_numpy("out", np.zeros(32, np.int32))
        prog.launch("fill", 1, 32, out, 1)
        m = dev.synchronize()
        text = m.summary()
        assert "cycles" in text and "warp exec efficiency" in text

    def test_speedup_over(self):
        from repro.sim.profiler import RunMetrics

        fast = RunMetrics(cycles=100)
        slow = RunMetrics(cycles=1000)
        assert fast.speedup_over(slow) == pytest.approx(10.0)


class TestLifetime:
    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_finished_run_leaves_no_cyclic_garbage(self, engine):
        # a finished run's device, L2 sets and arrays are freed by
        # reference counting, not left for a full collection
        import gc
        from collections import OrderedDict

        from repro.apps import get_app
        from repro.sim.memory import DeviceArray

        app = get_app("sssp")
        dataset = app.default_dataset(0.05)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            app.run("grid-level", dataset, oracle=(
                "sim-scalar" if engine == "scalar" else None))
            gc.collect()
            leaked = {type(obj).__name__ for obj in gc.garbage
                      if isinstance(obj, (Device, DeviceArray, OrderedDict))}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == set()
