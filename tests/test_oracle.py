"""The learned surrogate prefilter and the simulator's engine selection.

Unit behaviour of :mod:`repro.oracle` — the surrogate model's
fit/predict round-trip and rank-correlation floor, the cold-log
fallback, the never-predict-full-fidelity rule, the training log — and
how the tuner wires it in (``Tuner(prefilter="surrogate")``). Alongside:
the registry entries that replaced the exact oracles (``sim`` and
``sim-scalar`` are the engines ``vectorized`` and ``scalar``; the
surrogate is no engine), ``Device`` functional-engine selection, the
Fig. 1 DP template held bitwise to the scalar engine at both
consolidation settings, and the fuzzed-program half of the differential
harness that holds the timed engines to the scalar one. The rest of the
harness lives in ``tests/test_engines.py``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.apps import get_app
from repro.errors import SimulationError
from repro.engines import (
    Engine,
    EngineError,
    REGISTRY,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.oracle import (
    MIN_TRAIN_ROWS,
    SurrogateModel,
    SurrogateOracle,
    TrainingLog,
    cost_fingerprint,
    spearman,
)
from repro.sim.device import DEFAULT_ENGINE, ENGINES, Device
from repro.sim.engine import FunctionalEngine
from repro.sim.engine_vec import VectorizedEngine
from repro.sim.specs import DEFAULT_COST_MODEL, K20C
from repro.tuning import Candidate, get_objective

from tests.helpers import (
    assert_engines_agree,
    engines_under_test,
    make_fuzz_kernel,
    minicuda_body,
    run_kernel,
)
from tests.test_backends import SHADOWED_LOOP_BODIES

SCALE = 0.08


# -- the registry entries that replaced the exact oracles --------------------


class TestRegistry:
    def test_builtins_registered(self):
        """The timed entries are the simulator's functional engines,
        generated from ``sim.device.ENGINES`` with the default first."""
        timed = [e.name for e in REGISTRY if e.timed]
        assert timed == ["vectorized", "scalar"]
        assert set(timed) == set(ENGINES)
        assert available_engines()[0] == DEFAULT_ENGINE == "vectorized"

    def test_builtin_shapes(self):
        sim = get_engine("vectorized")
        assert sim.timed
        assert isinstance(sim.make_device().engine, VectorizedEngine)
        scalar = get_engine("scalar")
        assert scalar.timed
        assert isinstance(scalar.make_device().engine, FunctionalEngine)

    def test_get_oracle_instance_passthrough(self):
        scalar = get_engine("scalar")
        assert get_engine(scalar) is scalar

    def test_unknown_oracle_lists_available(self):
        """The surrogate ranks tuning candidates; it executes nothing."""
        with pytest.raises(EngineError, match="unknown engine 'surrogate'; "
                                              "available: vectorized, "
                                              "scalar, cpu"):
            get_engine("surrogate")

    def test_register_validates_and_replaces(self):
        fake = Engine("fake", "test double",
                      lambda *args: Device(engine="scalar"))
        register_engine(fake)
        try:
            assert "fake" in available_engines()
            assert get_engine("fake").make_device().engine_name == "scalar"
            with pytest.raises(ValueError, match="already registered"):
                register_engine(fake)
            register_engine(fake, replace=True)
        finally:
            unregister_engine("fake")
        assert "fake" not in available_engines()
        with pytest.raises(KeyError):
            unregister_engine("fake")


# -- Device engine selection --------------------------------------------------


class TestEngineSelection:
    def test_engines_registered(self):
        assert set(ENGINES) == {"scalar", "vectorized"}
        assert DEFAULT_ENGINE == "vectorized"

    def test_device_selects_engine(self):
        assert isinstance(Device().engine, VectorizedEngine)
        assert isinstance(Device(engine="scalar").engine, FunctionalEngine)
        assert Device(engine="scalar").engine_name == "scalar"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown sim engine"):
            Device(engine="quantum")

    def test_app_run_rejects_unknown_engine(self):
        """The surrogate is a tuning prefilter, not an engine: App.run
        rejects it before building anything."""
        with pytest.raises(EngineError, match="available"):
            get_app("sssp").run("flat", scale=SCALE, engine="surrogate")


# -- the timed engines against scalar: the DP template and fuzzed programs --


_DP_SRC = """
__global__ void child(int* buf, int* out, int u, int n) {
    out[u] = buf[u % 16] + u;
}
__global__ void parent(int* buf, int* out, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        int w = buf[u % 16];
        #pragma dp consldt(block) work(u)
        if (w > 8) {
            child<<<1, 1>>>(buf, out, u, n);
        } else {
            out[u] = 0 - w;
        }
    }
}
"""


@pytest.mark.parametrize("consolidate", [False, True])
def test_dp_template_metrics_match_scalar(consolidate):
    """The Fig. 1 DP template, basic and consolidated: both engines
    agree on the functional output AND the full RunMetrics (cycles,
    launches, buffer traffic) — the profiler counters are part of the
    bitwise contract."""
    from repro.compiler import consolidate_source

    src = _DP_SRC
    if consolidate:
        src = consolidate_source(src, granularity="block").source
    rng = np.random.default_rng(23)
    arrays = {"buf": rng.integers(0, 32, 64).astype(np.int32),
              "out": np.zeros(64, np.int32)}
    runs = {}
    for engine in ("scalar", "vectorized"):
        _, metrics, handles = run_kernel(
            src, "parent", 2, 32,
            {k: v.copy() for k, v in arrays.items()}, (64,),
            device=Device(engine=engine))
        runs[engine] = (metrics, handles["out"].to_numpy())
    ref_metrics, ref_out = runs["scalar"]
    vec_metrics, vec_out = runs["vectorized"]
    assert dataclasses.asdict(vec_metrics) == dataclasses.asdict(ref_metrics)
    np.testing.assert_array_equal(vec_out, ref_out)


_fuzz_body = minicuda_body()


@given(_fuzz_body)
@example(SHADOWED_LOOP_BODIES[0][0])
@example(SHADOWED_LOOP_BODIES[1][0])
@example(SHADOWED_LOOP_BODIES[2][0])
@settings(max_examples=60, deadline=None)
def test_fuzzed_programs_match_scalar(body):
    """>=50 hypothesis-fuzzed MiniCUDA programs (the same space as
    test_fuzz_programs), including racy interleaved writes: every timed
    engine matches the scalar engine's output and full RunMetrics. The
    untimed engines' half is
    ``test_backends.py::test_fuzzed_programs_match_sim``."""
    src = make_fuzz_kernel(body)
    assert_engines_agree(engines_under_test(timed=True), src, "fuzz", 1, 8,
                         [("out", np.arange(8, dtype=np.int32))], (5,),
                         f"on\n{src}")


# -- the surrogate ------------------------------------------------------------


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3, 4], [10, 20, 40, 80]) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_constant_is_nan(self):
        assert math.isnan(spearman([1, 1, 1], [1, 2, 3]))


def _synthetic_rows(n, *, seed=7, workload=None):
    """Training-log rows whose cycles metric is a clean monotone
    function of (threshold, scale) — learnable by a linear model on the
    surrogate's log-space features."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        threshold = int(2 ** (i % 8))
        scale = (0.1, 0.25, 0.5, 1.0)[i % 4]
        strategy = ("warp", "block", "grid")[i % 3]
        cycles = 1e4 * scale * (1 + 0.3 * math.log2(1 + threshold))
        cycles *= 1 + 0.01 * rng.random()
        rows.append({
            "v": 1, "app": "sssp", "workload": workload,
            "device": K20C.name, "cost": "x", "scale": scale,
            "verify": True, "variant": "consolidated",
            "strategy": strategy, "threshold": threshold, "config": None,
            "metrics": {"cycles": cycles,
                        "warp_execution_efficiency": 0.5,
                        "dram_transactions": cycles / 3},
        })
    return rows


class TestSurrogateModel:
    def test_too_few_rows_is_none(self):
        rows = _synthetic_rows(MIN_TRAIN_ROWS - 1)
        assert SurrogateModel.fit(rows, get_objective("cycles"),
                                  default_threshold=32) is None

    def test_min_rows_boundary_fits(self):
        model = SurrogateModel.fit(_synthetic_rows(MIN_TRAIN_ROWS),
                                   get_objective("cycles"),
                                   default_threshold=32)
        assert model is not None and model.n_rows == MIN_TRAIN_ROWS

    def test_fit_predict_rank_correlation(self):
        """Round-trip on held-out axes: predictions must rank the
        candidates essentially like the generating function does."""
        model = SurrogateModel.fit(_synthetic_rows(64),
                                   get_objective("cycles"),
                                   default_threshold=32)
        axes = [("consolidated", "warp", t, None)
                for t in (1, 4, 16, 64, 256)]
        predicted = model.predict_axes(axes, 0.3)
        truth = [1e4 * 0.3 * (1 + 0.3 * math.log2(1 + t))
                 for t in (1, 4, 16, 64, 256)]
        assert spearman(predicted, truth) >= 0.9
        assert (predicted > 0).all()

    def test_maximized_objective_not_log_transformed(self):
        model = SurrogateModel.fit(_synthetic_rows(32),
                                   get_objective("warp-eff"),
                                   default_threshold=32)
        assert model is not None and not model.log_target


class _FakeSim:
    """The slice of SimulationOracle the surrogate consumes, with call
    recording — lets the unit tests pin the delegation rules without
    running any simulation."""

    def __init__(self, scale=0.4):
        self.app = "sssp"
        self.objective = get_objective("cycles")
        self.scale = scale
        self.workload = None
        self.cost = DEFAULT_COST_MODEL
        self.spec = K20C
        self.verify = True
        self.evaluated = []

    def _rung_scale(self, factor):
        from repro.tuning.oracle import MIN_RUNG_SCALE

        return min(self.scale, max(self.scale * factor, MIN_RUNG_SCALE))

    def evaluate(self, candidates, factor=1.0):
        from repro.tuning.oracle import Trial

        self.evaluated.append((len(list(candidates)), factor))
        return [Trial(candidate=c, value=100.0, loss=100.0,
                      scale=self._rung_scale(factor))
                for c in candidates]

    def is_full_fidelity(self, trial):
        return trial.scale == self.scale

    def stats(self):
        return "fake-stats"


class TestSurrogateOracle:
    CANDS = [Candidate(strategy="warp", threshold=t) for t in (2, 16, 128)]

    def _warm_log(self, tmp_path):
        log = TrainingLog(tmp_path / "train.jsonl")
        fp = cost_fingerprint(DEFAULT_COST_MODEL)
        for row in _synthetic_rows(24):
            log.record(app=row["app"], workload=None, device=row["device"],
                       cost=DEFAULT_COST_MODEL, scale=row["scale"],
                       verify=True, variant=row["variant"],
                       strategy=row["strategy"], threshold=row["threshold"],
                       config=None,
                       metrics=type("M", (), row["metrics"]))
        assert len(log.rows(app="sssp", device=K20C.name, cost_fp=fp,
                            verify=True)) == 24
        return log

    def test_cold_log_falls_back_to_sim(self, tmp_path):
        sim = _FakeSim()
        oracle = SurrogateOracle(sim, TrainingLog(tmp_path / "empty.jsonl"))
        trials = oracle.evaluate(self.CANDS, factor=0.25)
        assert len(trials) == 3
        assert oracle.fallbacks == 1 and oracle.predicted == 0
        assert sim.evaluated == [(3, 0.25)]

    def test_no_log_falls_back_to_sim(self):
        oracle = SurrogateOracle(_FakeSim(), training_log=None)
        oracle.evaluate(self.CANDS, factor=0.25)
        assert oracle.fallbacks == 1 and oracle.model() is None

    def test_warm_log_predicts_cheap_rungs(self, tmp_path):
        sim = _FakeSim()
        oracle = SurrogateOracle(sim, self._warm_log(tmp_path))
        trials = oracle.evaluate(self.CANDS, factor=0.25)
        assert oracle.predicted == 3 and oracle.fallbacks == 0
        assert sim.evaluated == []  # nothing simulated
        # predictions carry the rung scale, natural-unit values, and the
        # objective's loss transform
        for t in trials:
            assert t.scale == sim._rung_scale(0.25) < sim.scale
            assert not oracle.is_full_fidelity(t)
            assert t.loss == sim.objective.loss(t.value)
        # the generating function grows with threshold; the model must
        # rank the candidates the same way
        values = [t.value for t in trials]
        assert values == sorted(values)

    def test_surrogate_report_warm(self, tmp_path):
        """The decision trail ``repro tune`` prints: per-rung
        predicted/simulated counts plus the training-set Spearman."""
        sim = _FakeSim()
        oracle = SurrogateOracle(sim, self._warm_log(tmp_path))
        oracle.evaluate(self.CANDS, factor=0.25)
        oracle.evaluate(self.CANDS, factor=1.0)
        rep = oracle.surrogate_report()
        assert rep["oracle"] == "surrogate"
        assert rep["predicted"] == 3 and rep["fallbacks"] == 0
        assert rep["train_rows"] == 24
        assert rep["spearman"] is not None
        assert -1.0 <= rep["spearman"] <= 1.0
        assert [d["mode"] for d in rep["decisions"]] == \
            ["predicted", "simulated"]
        assert all(d["candidates"] == 3 for d in rep["decisions"])

    def test_surrogate_report_cold(self, tmp_path):
        oracle = SurrogateOracle(_FakeSim(),
                                 TrainingLog(tmp_path / "empty.jsonl"))
        oracle.evaluate(self.CANDS, factor=0.25)
        rep = oracle.surrogate_report()
        assert rep["train_rows"] == 0 and rep["spearman"] is None
        assert [d["mode"] for d in rep["decisions"]] == ["fallback"]

    def test_full_fidelity_always_simulated(self, tmp_path):
        """A prediction must never be eligible as the tuner's winner:
        factor=1.0 (and any rung at or above the sim scale) delegates
        even with a warm model."""
        sim = _FakeSim()
        oracle = SurrogateOracle(sim, self._warm_log(tmp_path))
        trials = oracle.evaluate(self.CANDS, factor=1.0)
        assert sim.evaluated == [(3, 1.0)]
        assert oracle.predicted == 0
        assert all(oracle.is_full_fidelity(t) for t in trials)

    def test_mirrors_sim_context(self):
        sim = _FakeSim()
        oracle = SurrogateOracle(sim)
        assert (oracle.app, oracle.objective, oracle.scale,
                oracle.workload, oracle.cost, oracle.spec,
                oracle.verify) == (sim.app, sim.objective, sim.scale,
                                   sim.workload, sim.cost, sim.spec,
                                   sim.verify)
        assert oracle.stats() == "fake-stats"


class TestTrainingLog:
    def test_rows_filter_context_and_skip_torn_lines(self, tmp_path):
        log = TrainingLog(tmp_path / "t.jsonl")
        log.record(app="sssp", workload=None, device=K20C.name,
                   cost=DEFAULT_COST_MODEL, scale=0.2, verify=True,
                   variant="consolidated", strategy="warp", threshold=8,
                   config=("explicit", 4, 128),
                   metrics=type("M", (), {"cycles": 9.0,
                                          "warp_execution_efficiency": 0.5,
                                          "dram_transactions": 3.0}))
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write("{torn json\n")
            fh.write('{"v": 999, "app": "sssp"}\n')
        fp = cost_fingerprint(DEFAULT_COST_MODEL)
        rows = log.rows(app="sssp", device=K20C.name, cost_fp=fp,
                        verify=True)
        assert len(rows) == 1 and rows[0]["config"] == ["explicit", 4, 128]
        # different workload / device / verify contexts see nothing
        assert log.rows(app="sssp", device=K20C.name, cost_fp=fp,
                        verify=True, workload="kron(seed=9)") == []
        assert log.rows(app="sssp", device=K20C.name, cost_fp=fp,
                        verify=False) == []
        assert len(log) == 3  # raw line count, filtering is read-side

    def test_missing_file_is_empty(self, tmp_path):
        log = TrainingLog(tmp_path / "absent.jsonl")
        assert len(log) == 0
        assert log.rows(app="sssp", device=K20C.name, cost_fp="x",
                        verify=True) == []


class TestTunerWiring:
    def test_tuner_builds_surrogate_oracle(self, tmp_path):
        from repro.experiments import ResultStore
        from repro.tuning import SimulationOracle, Tuner

        store = ResultStore(tmp_path / "store")
        tuner = Tuner(scale=SCALE, store=store, prefilter="surrogate")
        scorer = tuner._scorer("sssp", get_objective("cycles"), None)
        assert isinstance(scorer, SurrogateOracle)
        assert isinstance(scorer.sim, SimulationOracle)
        assert scorer.training_log.path.parent == store.root

    def test_tuner_without_prefilter_simulates(self, tmp_path):
        from repro.experiments import ResultStore
        from repro.tuning import SimulationOracle, Tuner

        tuner = Tuner(scale=SCALE, store=ResultStore(tmp_path / "store"))
        scorer = tuner._scorer("sssp", get_objective("cycles"), None)
        assert type(scorer) is SimulationOracle

    def test_unknown_prefilter_rejected_at_construction(self):
        from repro.tuning import Tuner

        with pytest.raises(ValueError, match="unknown prefilter 'bogus'; "
                                             "available: surrogate"):
            Tuner(prefilter="bogus")
