"""The CPU interpreter (the ``cpu`` engine) and its cache axis.

The registry entries that replaced the backends (``sim`` is now the
default engine, ``cpu`` the ``cpu`` engine, ``cuda`` a compile target
only), unit tests of :class:`~repro.backends.CpuDevice` and the
:func:`~repro.backends.run_jobs` fan-out, the hand-computed C scoping of
shadowed loop counters on both the simulator and the interpreter, the
fuzzed-program half of the differential harness that holds the untimed
engines to the scalar reference engine, the run-key compatibility of
``engine="cpu"`` (it must key exactly as the ``backend="cpu"`` runs
written before the engine axis), and the runner and CLI paths. The rest
of the harness lives in ``tests/test_engines.py``.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro import __version__
from repro.backends import CpuDevice, CpuJob, run_job, run_jobs
from repro.engines import (
    DEFAULT_ENGINE,
    Engine,
    EngineError,
    REGISTRY,
    available_engines,
    engine_for,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.errors import LaunchError, SimulationError
from repro.experiments.plan import RunSpec
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import STORE_FORMAT, ResultStore, run_key
from repro.sim.device import Device
from repro.sim.specs import DEFAULT_COST_MODEL, K20C

from tests.helpers import (
    assert_engines_agree,
    engines_under_test,
    make_fuzz_kernel,
    minicuda_body,
    run_source,
)


# -- the registry entries that replaced the backends -------------------------


class TestRegistry:
    def test_builtins_registered(self):
        """The backends ``sim`` and ``cpu`` are engines (``sim`` as the
        two simulator entries); ``cuda`` is not."""
        assert available_engines() == ("vectorized", "scalar", "cpu")
        assert [e.name for e in REGISTRY] == list(available_engines())

    def test_get_backend_by_name_and_instance(self):
        cpu = get_engine("cpu")
        assert cpu.name == "cpu" and not cpu.timed
        assert isinstance(cpu.make_device(), CpuDevice)
        assert get_engine(cpu) is cpu

    def test_sim_is_default_and_executes(self):
        sim = engine_for(None)
        assert sim is get_engine(DEFAULT_ENGINE) and sim.timed
        dev = sim.make_device(spec=K20C, cost=DEFAULT_COST_MODEL,
                              allocator="custom", heap_bytes=None)
        assert isinstance(dev, Device)
        out, = run_source(_ADD_ONE, "add_one", 1, 32,
                          [("out", np.zeros(4, np.int32))], (4,),
                          device_factory=lambda: dev)
        assert out.tolist() == [1] * 4

    def test_unknown_backend_lists_available(self):
        """CUDA is emitted by ``repro compile --target cuda``; naming it
        as an executor is an unknown engine."""
        with pytest.raises(EngineError, match="unknown engine 'cuda'; "
                                              "available: vectorized, "
                                              "scalar, cpu"):
            get_engine("cuda")

    def test_register_validates_and_replaces(self):
        fake = Engine("fake", "test double", lambda *args: CpuDevice(),
                      timed=False)
        register_engine(fake)
        try:
            assert "fake" in available_engines()
            assert isinstance(get_engine("fake").make_device(), CpuDevice)
            with pytest.raises(ValueError, match="already registered"):
                register_engine(fake)
            register_engine(fake, replace=True)
        finally:
            unregister_engine("fake")
        assert "fake" not in available_engines()
        with pytest.raises(KeyError):
            unregister_engine("fake")


# -- CpuDevice unit behaviour -------------------------------------------------


_ADD_ONE = """
__global__ void add_one(int* out, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { out[i] = out[i] + 1; }
}
"""


class TestCpuDevice:
    def test_roundtrip_preserves_dtype(self):
        dev = CpuDevice()
        for dtype in (np.int32, np.int64, np.float32, np.float64):
            arr = np.arange(5, dtype=dtype)
            h = dev.from_numpy("a", arr)
            back = h.to_numpy()
            assert back.dtype == arr.dtype
            np.testing.assert_array_equal(back, arr)

    def test_launch_validation(self):
        dev = CpuDevice()
        prog = dev.load(_ADD_ONE)
        out = dev.from_numpy("out", np.zeros(4, np.int32))
        with pytest.raises(LaunchError):
            prog.launch("add_one", 0, 32, out, 4)
        with pytest.raises(LaunchError):
            prog.launch("add_one", 1, dev.spec.max_threads_per_block + 1,
                        out, 4)

    def test_load_collision_rejected(self):
        dev = CpuDevice()
        dev.load(_ADD_ONE)
        with pytest.raises(SimulationError, match="already loaded"):
            dev.load(_ADD_ONE)

    def test_out_of_bounds_access_raises(self):
        # unlike the sim (which defers work to synchronize), the CPU
        # backend executes eagerly, so the fault surfaces at launch
        dev = CpuDevice()
        prog = dev.load(_ADD_ONE)
        out = dev.from_numpy("out", np.zeros(4, np.int32))
        with pytest.raises(SimulationError, match="out-of-bounds"):
            prog.launch("add_one", 1, 32, out, 99)

    def test_metrics_are_functional_only(self):
        dev = CpuDevice()
        prog = dev.load(_ADD_ONE)
        out = dev.from_numpy("out", np.zeros(64, np.int32))
        prog.launch("add_one", 2, 32, out, 64)
        metrics = dev.synchronize()
        assert metrics.cycles == 0
        assert metrics.host_launches == 1
        assert metrics.allocator_kind == "cpu"
        np.testing.assert_array_equal(out.to_numpy(),
                                      np.ones(64, np.int32))


class TestCpuJobs:
    def _job(self, n):
        return CpuJob(
            source=_ADD_ONE,
            arrays={"out": np.arange(n, dtype=np.int32)},
            launches=[("add_one", 2, 32, ("out", n))],
        )

    def test_run_job(self):
        result = run_job(self._job(40))
        np.testing.assert_array_equal(result["out"],
                                      np.arange(40, dtype=np.int32) + 1)

    def test_run_jobs_parallel_matches_serial(self):
        jobs = [self._job(n) for n in (8, 16, 24)]
        serial = run_jobs(jobs, processes=1)
        parallel = run_jobs(jobs, processes=2)
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s["out"], p["out"])


# -- C scoping of shadowed loop counters ----------------------------------


#: fuzzed bodies whose loops redeclare an enclosing loop's counter, with
#: the ``acc`` C semantics give (computed by hand): the inner ``i`` is a
#: variable of its own, so the outer counter keeps counting
SHADOWED_LOOP_BODIES = (
    ("for (int i1 = 0; i1 < 2; i1++) { for (int i1 = 0; i1 < 2; i1++) "
     "{ acc = acc + i1 + 1; } }", 6),
    ("for (int i0 = 0; i0 < 1; i0++) { for (int i0 = 0; i0 < 2; i0++) "
     "{ acc = acc + i0; } acc = acc + i0 * 10; }", 1),
    ("for (int i1 = 0; i1 < 2; i1++) { for (int i1 = 0; i1 < 2; i1++) "
     "{ for (int i1 = 0; i1 < 2; i1++) { acc = acc + i1 + 1; } } }", 12),
    ("for (int i1 = 0; i1 < 2; i1++) { acc = acc + i1; } "
     "for (int i1 = 0; i1 < 3; i1++) { acc = acc + i1; }", 4),
)


@pytest.mark.parametrize("body,acc", SHADOWED_LOOP_BODIES)
@pytest.mark.parametrize("device_factory", [Device, CpuDevice])
def test_shadowed_loop_counters_follow_c_scoping(body, acc, device_factory):
    src = make_fuzz_kernel(body)
    out, = run_source(src, "fuzz", 1, 8, [("out", np.zeros(8, np.int32))],
                      (5,), device_factory=device_factory)
    assert out.tolist() == [acc] * 8


_fuzz_body = minicuda_body()


@given(_fuzz_body)
@example(SHADOWED_LOOP_BODIES[0][0])
@example(SHADOWED_LOOP_BODIES[1][0])
@example(SHADOWED_LOOP_BODIES[2][0])
@settings(max_examples=60, deadline=None)
def test_fuzzed_programs_match_sim(body):
    """>=50 hypothesis-fuzzed MiniCUDA programs (the same space as
    test_fuzz_programs), including racy interleaved writes: every
    untimed engine (the CPU interpreter) gives the scalar simulator's
    output exactly and its functional counters — both run the identical
    canonical schedule. The timed engines' half is
    ``test_oracle.py::test_fuzzed_programs_match_scalar``."""
    src = make_fuzz_kernel(body)
    assert_engines_agree(engines_under_test(timed=False), src, "fuzz", 1, 8,
                         [("out", np.arange(8, dtype=np.int32))], (5,),
                         f"on\n{src}")


# -- run-key backward compatibility -------------------------------------------


class TestRunKeyCompat:
    KWARGS = dict(
        app="sssp", variant="grid-level", allocator="custom",
        config=None, dataset_fp="ab" * 32, cost=DEFAULT_COST_MODEL,
        spec=K20C, threshold=8, verify=True, version=__version__,
    )

    def _legacy_key(self, **extra):
        """The content address exactly as computed before the backend
        axis existed (and, without ``workload``, before the workload
        axis): the payload rebuilt by hand, field for field."""
        payload = {
            "format": STORE_FORMAT,
            "version": self.KWARGS["version"],
            "app": self.KWARGS["app"],
            "variant": self.KWARGS["variant"],
            "strategy": None,
            "allocator": self.KWARGS["allocator"],
            "config": None,
            "dataset": self.KWARGS["dataset_fp"],
            "cost": dataclasses.asdict(DEFAULT_COST_MODEL),
            "spec": dataclasses.asdict(K20C),
            "threshold": 8,
            "verify": True,
        }
        payload.update(extra)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_omitted_backend_is_byte_identical_to_legacy(self):
        assert run_key(**self.KWARGS) == self._legacy_key()
        assert run_key(**self.KWARGS, engine=None) == self._legacy_key()

    def test_workload_and_backend_only_enter_when_set(self):
        """``engine="cpu"`` keys exactly as a ``backend="cpu"`` run did
        before the engine axis."""
        assert (run_key(**self.KWARGS, workload="kron(seed=9)")
                == self._legacy_key(workload="kron(seed=9)"))
        assert (run_key(**self.KWARGS, engine="cpu")
                == self._legacy_key(backend="cpu"))

    def test_backend_forks_the_address(self):
        base = run_key(**self.KWARGS)
        assert run_key(**self.KWARGS, engine="cpu") != base

    def test_runspec_default_engine_is_none(self):
        assert RunSpec(app="sssp", variant="basic-dp").engine is None


# -- runner integration -------------------------------------------------------


class TestRunnerBackendAxis:
    def _runner(self, tmp):
        return ExperimentRunner(store=ResultStore(Path(tmp)), scale=0.05)

    def test_explicit_default_engine_folds_to_none(self):
        with tempfile.TemporaryDirectory() as tmp:
            runner = self._runner(tmp)
            implicit = runner.run("sssp", "basic-dp")
            explicit = runner.run("sssp", "basic-dp", engine="vectorized")
            assert implicit.engine is None and explicit.engine is None
            # the fold makes them one cache entry, not two executions
            assert runner.stats.executed == 1
            assert runner.stats.memory_hits == 1

    def test_cpu_backend_gets_its_own_cache_entry(self):
        with tempfile.TemporaryDirectory() as tmp:
            runner = self._runner(tmp)
            sim = runner.run("sssp", "basic-dp")
            cpu = runner.run("sssp", "basic-dp", engine="cpu")
            assert runner.stats.executed == 2
            assert cpu.engine == "cpu"
            np.testing.assert_array_equal(cpu.result, sim.result)

    def test_emit_only_backend_rejected_up_front(self):
        """CUDA is a compile target, not an engine: naming it fails
        before anything is built."""
        with tempfile.TemporaryDirectory() as tmp:
            runner = self._runner(tmp)
            with pytest.raises(EngineError, match="available"):
                runner.run("sssp", "basic-dp", engine="cuda")
            assert runner._datasets == {}

    def test_unknown_engine_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(EngineError, match="tpu"):
                self._runner(tmp).run("sssp", "basic-dp", engine="tpu")


class TestCliBackend:
    def test_run_with_cpu_backend(self, capsys):
        from repro.cli import main

        assert main(["run", "spmv", "block-level", "--scale", "0.1",
                     "--engine", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "@cpu" in out
        assert "verified=True" in out

    def test_deprecated_backend_flag_lowers_onto_cpu(self, capsys):
        from repro.cli import main

        with pytest.warns(DeprecationWarning, match="--engine cpu"):
            assert main(["run", "spmv", "block-level", "--scale", "0.1",
                         "--backend", "cpu"]) == 0
        assert "@cpu" in capsys.readouterr().out

    def test_contradictory_legacy_pair_exits_before_any_dataset(
            self, capsys, monkeypatch):
        """``--backend cpu --oracle sim-scalar`` names two engines: a
        clear error and exit 2, before any dataset is materialized."""
        from repro import workloads
        from repro.cli import main

        def no_datasets(*args, **kwargs):
            raise AssertionError("a dataset was materialized")

        monkeypatch.setattr(workloads, "materialize_for_app", no_datasets)
        monkeypatch.setattr(workloads, "materialize", no_datasets)
        with pytest.warns(DeprecationWarning):
            assert main(["run", "sssp", "no-dp", "--backend", "cpu",
                         "--oracle", "sim-scalar"]) == 2
        err = capsys.readouterr().err
        assert "--backend cpu and --oracle sim-scalar name different " \
               "engines" in err

    def test_compile_target_cuda(self, capsys):
        from repro.backends import emit_cuda
        from repro.cli import main
        from repro.compiler import consolidate_source
        from repro.apps import get_app

        assert main(["compile", "sssp", "--strategy", "block",
                     "--target", "cuda"]) == 0
        out = capsys.readouterr().out
        source = consolidate_source(get_app("sssp").annotated_source(),
                                    granularity="block").source
        assert out == emit_cuda(source, name="sssp_block") + "\n"
        with pytest.warns(DeprecationWarning, match="--target cuda"):
            assert main(["compile", "sssp", "--strategy", "block",
                         "--backend", "cuda"]) == 0
        assert capsys.readouterr().out == out

    def test_list_shows_engines(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "engines (repro run --engine):" in out
        for name in ("vectorized", "scalar", "cpu"):
            assert f"\n  {name} " in out
