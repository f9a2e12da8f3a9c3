"""Tuning-subsystem tests: space enumeration, the search-algorithm
registry (including plugin registration end-to-end), seeded-search
determinism, warm-start caching (a repeated tune executes zero
simulations), TunedConfig persistence and the ``tuned`` app variant,
and ``best_threshold`` (canonical in :mod:`repro.tuning`; its old
``ablation_threshold`` spelling is retired per the deprecation
policy)."""

import json

import pytest

from repro.experiments import ExperimentRunner, ResultStore, ablation_threshold
from repro.sim.occupancy import kc_config
from repro.sim.specs import K20C
from repro.tuning import (
    Candidate,
    ConfigChoice,
    OBJECTIVES,
    SearchAlgorithm,
    TunedConfig,
    TunedConfigRegistry,
    Tuner,
    TuningSpace,
    available_searches,
    best_threshold,
    get_objective,
    get_search,
    register_search,
    unregister_search,
)

SCALE = 0.15


def small_space() -> TuningSpace:
    """A 12-candidate space keeping these tests in the seconds range."""
    return TuningSpace(strategies=(None, "warp", "grid"),
                       thresholds=(None, 32),
                       configs=(ConfigChoice(), ConfigChoice(kc_x=1)))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One on-disk result store shared by every tuner in this module, so
    later tests are served by earlier tests' simulations."""
    return ResultStore(tmp_path_factory.mktemp("tune-cache"))


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    return TunedConfigRegistry(
        tmp_path_factory.mktemp("tune-reg") / "tuned.json")


def make_tuner(store, registry=None, **kw) -> Tuner:
    return Tuner(scale=SCALE, store=store, registry=registry, **kw)


class TestSpace:
    def test_first_candidate_is_the_paper_default(self):
        space = TuningSpace.default()
        assert space.candidates()[0] == space.default_candidate() == Candidate()

    def test_len_is_the_axis_product(self):
        space = small_space()
        assert len(space) == 3 * 2 * 2 == len(space.candidates())

    def test_default_strategy_axis_tracks_registry(self):
        assert TuningSpace.default().strategies == (None, "warp", "block",
                                                    "grid")

    def test_for_app_drops_threshold_axis_without_guard(self):
        # tree descendants has no `deg > threshold` guard to tune
        assert TuningSpace.for_app("td").thresholds == (None,)
        assert TuningSpace.for_app("sssp").thresholds != (None,)

    def test_config_key_resolution(self):
        assert Candidate().config_key(K20C) is None
        assert Candidate(one2one=True).config_key(K20C) == \
            ("one2one", None, None)
        assert Candidate(threads=128).config_key(K20C) == ("kc", None, 128)
        blocks, threads = kc_config(K20C, 16, 128)
        assert Candidate(kc_x=16, threads=128).config_key(K20C) == \
            ("explicit", blocks, threads)

    def test_config_choice_validation(self):
        with pytest.raises(ValueError, match="KC_X"):
            ConfigChoice(kc_x=4, one2one=True)
        with pytest.raises(ValueError, match="kc_x"):
            ConfigChoice(kc_x=0)

    def test_candidate_validation_mirrors_config_choice(self):
        """Candidates may be built directly (plugins, tuned.json round
        trips), so contradictory combinations must fail loudly too."""
        with pytest.raises(ValueError, match="KC_X"):
            Candidate(kc_x=4, one2one=True)
        with pytest.raises(ValueError, match="threads"):
            Candidate(threads=0)

    def test_candidate_lowers_onto_canonical_cache_entry(self, store):
        """A built-in-strategy candidate shares its cache entry with the
        legacy per-granularity variant (same canonicalization as PR 2)."""
        runner = ExperimentRunner(scale=SCALE, store=store)
        cand_run = runner.run_spec(
            Candidate(strategy="grid").run_spec("sssp", K20C))
        assert cand_run is runner.run("sssp", "grid-level")


class TestSearchRegistry:
    def test_builtins_registered(self):
        assert available_searches() == ("grid", "random", "halving")

    def test_get_unknown_lists_available(self):
        with pytest.raises(KeyError, match="grid, random, halving"):
            get_search("annealing")

    def test_instances_pass_through(self):
        algo = get_search("halving")
        assert get_search(algo) is algo

    def test_duplicate_name_rejected(self):
        from repro.tuning import GridSearch

        with pytest.raises(ValueError, match="already registered"):
            register_search(GridSearch())

    def test_nameless_rejected(self):
        class Nameless(SearchAlgorithm):
            name = ""

            def search(self, oracle, candidates, *, budget=None, seed=0):
                return []

        with pytest.raises(ValueError, match="must define a name"):
            register_search(Nameless())

    def test_non_algorithm_rejected(self):
        with pytest.raises(TypeError):
            register_search(object())

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            unregister_search("never-registered")

    def test_objective_registry(self):
        assert set(OBJECTIVES) == {"cycles", "warp-eff", "dram"}
        with pytest.raises(KeyError, match="cycles"):
            get_objective("latency")


class TestTuner:
    def test_grid_never_worse_than_paper_default(self, store, registry):
        res = make_tuner(store, registry).tune("sssp", algorithm="grid",
                                               space=small_space())
        assert res.best.value <= res.baseline.value
        assert res.gain() >= 1.0
        assert res.config.value == res.best.value
        # grid already visits the paper default, so no extra baseline
        # evaluation is added (or double-counted in the trial list)
        assert res.evaluations == len(small_space())
        defaults = [t for t in res.trials
                    if t.candidate == small_space().default_candidate()]
        assert len(defaults) == 1

    def test_maximized_objective_improves_upward(self, store):
        res = make_tuner(store).tune("sssp", objective="warp-eff",
                                     algorithm="grid", space=small_space())
        assert res.best.value >= res.baseline.value
        assert res.gain() >= 1.0

    def test_seeded_random_is_deterministic(self, store):
        kw = dict(objective="cycles", algorithm="random",
                  space=small_space(), budget=4, seed=7)
        a = make_tuner(store).tune("sssp", **kw)
        b = make_tuner(store).tune("sssp", **kw)
        assert [t.candidate for t in a.trials] == \
            [t.candidate for t in b.trials]
        assert a.best == b.best
        # the repeat was served entirely from the shared cache
        assert b.stats.executed == 0

    def test_halving_warm_start_executes_nothing(self, store, registry):
        """Acceptance: an immediate re-tune reports 0 executed — every
        candidate evaluation is served from the shared result cache."""
        kw = dict(algorithm="halving", space=small_space(), seed=0)
        cold = make_tuner(store, registry).tune("sssp", **kw)
        warm = make_tuner(store, registry).tune("sssp", **kw)
        assert warm.stats.executed == 0
        assert warm.best == cold.best
        assert warm.config == cold.config

    def test_halving_final_rung_is_full_fidelity(self, store):
        res = make_tuner(store).tune("sssp", algorithm="halving",
                                     space=small_space())
        assert res.best.scale == SCALE
        assert any(t.scale < SCALE for t in res.trials)

    def test_parallel_tune_matches_serial(self, store):
        serial = make_tuner(store).tune("sssp", algorithm="grid",
                                        space=small_space())
        parallel = make_tuner(store, jobs=2).tune("sssp", algorithm="grid",
                                                  space=small_space())
        assert parallel.best == serial.best

    def test_surrogate_report_rides_the_result(self, store):
        # a tune without a prefilter carries no surrogate trail...
        plain = make_tuner(store).tune("sssp", algorithm="grid",
                                       space=small_space())
        assert plain.surrogate is None
        # ...the surrogate prefilter reports its per-rung decisions
        res = make_tuner(store, prefilter="surrogate").tune(
            "sssp", algorithm="halving", space=small_space())
        rep = res.surrogate
        assert rep is not None and rep["oracle"] == "surrogate"
        assert rep["decisions"]
        assert all(d["mode"] in ("predicted", "simulated", "fallback")
                   for d in rep["decisions"])
        # the winner always comes from a simulated (full-fidelity) rung
        assert rep["decisions"][-1]["mode"] == "simulated"

    def test_unknown_app_rejected_before_any_simulation(self, store):
        with pytest.raises(KeyError):
            make_tuner(store).tune("nonesuch", space=small_space())


class TestPluginSearch:
    def test_custom_algorithm_end_to_end(self, store):
        """A registered plugin algorithm drives a full tune (registry ->
        tuner -> oracle -> cache) without touching any of them."""

        class TakeTwo(SearchAlgorithm):
            name = "take-two"
            summary = "first two candidates only"

            def search(self, oracle, candidates, *, budget=None, seed=0):
                return oracle.evaluate(candidates[:2])

        register_search(TakeTwo())
        try:
            assert "take-two" in available_searches()
            res = make_tuner(store).tune("sssp", algorithm="take-two",
                                         space=small_space())
        finally:
            unregister_search("take-two")
        assert res.algorithm == "take-two"
        # the space's first candidate is the paper default, so the two
        # visited candidates already include the baseline
        assert res.evaluations == 2
        assert res.best.value <= res.baseline.value

    def test_plugin_visible_in_cli_list(self, capsys):
        from repro.cli import main

        class Probe(SearchAlgorithm):
            name = "probe-zz"
            summary = "listed while registered"

            def search(self, oracle, candidates, *, budget=None, seed=0):
                return []

        register_search(Probe())
        try:
            assert main(["list"]) == 0
        finally:
            unregister_search("probe-zz")
        assert "probe-zz" in capsys.readouterr().out


class TestTunedConfigRegistry:
    def entry(self, app="sssp", scale=SCALE, value=100.0, **kw):
        fields = dict(app=app, objective="cycles",
                      candidate=Candidate(strategy="grid", threshold=2),
                      value=value, baseline_value=150.0, algorithm="grid",
                      evaluations=13, scale=scale, device=K20C.name,
                      version="1.0")
        fields.update(kw)
        return TunedConfig(**fields)

    def test_round_trip_through_json(self, tmp_path):
        reg = TunedConfigRegistry(tmp_path / "tuned.json")
        reg.put("k1", self.entry())
        assert TunedConfigRegistry(tmp_path / "tuned.json").get("k1") == \
            self.entry()
        data = json.loads((tmp_path / "tuned.json").read_text())
        assert data["format"] == 1
        assert data["entries"]["k1"]["candidate"]["strategy"] == "grid"

    def test_missing_and_corrupt_files_are_empty(self, tmp_path):
        reg = TunedConfigRegistry(tmp_path / "nope" / "tuned.json")
        assert len(reg) == 0 and reg.get("k") is None
        assert not (tmp_path / "nope").exists()  # reads never create dirs
        bad = tmp_path / "tuned.json"
        bad.write_text("not json")
        assert len(TunedConfigRegistry(bad)) == 0

    def test_lookup_prefers_exact_then_largest_scale(self, tmp_path):
        reg = TunedConfigRegistry(tmp_path / "tuned.json")
        reg.put("small", self.entry(scale=0.1, value=90.0))
        reg.put("large", self.entry(scale=0.5, value=110.0))
        assert reg.lookup("sssp", "cycles").scale == 0.5
        assert reg.lookup("sssp", "cycles", scale=0.1).value == 90.0
        assert reg.lookup("spmv", "cycles") is None

    def test_lookup_prefers_matching_device(self, tmp_path):
        reg = TunedConfigRegistry(tmp_path / "tuned.json")
        reg.put("k20", self.entry(device=K20C.name, value=120.0))
        reg.put("tiny", self.entry(device="tiny-test-gpu", value=80.0))
        assert reg.lookup("sssp", "cycles",
                          device="tiny-test-gpu").value == 80.0
        assert reg.lookup("sssp", "cycles", device=K20C.name).value == 120.0

    def test_lookup_tie_break_respects_objective_direction(self, tmp_path):
        reg = TunedConfigRegistry(tmp_path / "tuned.json")
        reg.put("lo", self.entry(objective="warp-eff", value=0.6))
        reg.put("hi", self.entry(objective="warp-eff", value=0.9))
        # warp efficiency is maximized: the better (higher) entry wins
        assert reg.lookup("sssp", "warp-eff").value == 0.9
        reg.put("fast", self.entry(value=90.0))
        reg.put("slow", self.entry(value=110.0))
        assert reg.lookup("sssp", "cycles").value == 90.0

    def test_clear(self, tmp_path):
        reg = TunedConfigRegistry(tmp_path / "tuned.json")
        reg.put("k1", self.entry())
        assert reg.clear() == 1
        assert len(reg) == 0


class TestTunedVariant:
    def test_runner_without_registry_raises(self, store):
        runner = ExperimentRunner(scale=SCALE, store=store)
        with pytest.raises(RuntimeError, match="tuned-config registry"):
            runner.run("sssp", "tuned")

    def test_missing_entry_raises_with_hint(self, store, tmp_path):
        runner = ExperimentRunner(
            scale=SCALE, store=store,
            tuned=TunedConfigRegistry(tmp_path / "tuned.json"))
        with pytest.raises(KeyError, match="repro tune sssp"):
            runner.run("sssp", "tuned")

    def test_tuned_variant_consumes_stored_config(self, store, registry):
        """`repro run <app> tuned` semantics: the stored winner resolves
        onto a concrete consolidated run, served from the shared cache."""
        res = make_tuner(store, registry).tune("sssp", algorithm="grid",
                                               space=small_space())
        runner = ExperimentRunner(scale=SCALE, store=store, tuned=registry)
        run = runner.run("sssp", "tuned")
        assert run.metrics.cycles == res.best.value
        assert runner.stats.executed == 0  # pure cache consumption

    def test_exact_context_entry_beats_fuzzy_match(self, store, registry):
        """A stale or foreign entry (here: a larger tuning scale, which
        the fuzzy lookup prefers) must not shadow the entry tuned for
        exactly this runner's device/cost/scale/version context."""
        res = make_tuner(store, registry).tune("sssp", algorithm="grid",
                                               space=small_space())
        registry.put("decoy", TunedConfig(
            app="sssp", objective="cycles",
            candidate=Candidate(strategy="warp"), value=1.0,
            baseline_value=2.0, algorithm="grid", evaluations=1,
            scale=9.9, device=K20C.name, version="0.0"))
        try:
            runner = ExperimentRunner(scale=SCALE, store=store,
                                      tuned=registry)
            assert runner.tuned_entry("sssp") == res.config
        finally:
            registry.clear()

    def test_explicit_strategy_contradicts_tuned(self, store, registry):
        runner = ExperimentRunner(scale=SCALE, store=store, tuned=registry)
        with pytest.raises(ValueError, match="consolidated"):
            runner.run("sssp", "tuned", strategy="warp")

    def test_direct_app_run_rejects_tuned(self):
        from repro.apps import get_app

        with pytest.raises(ValueError, match="tuned-config registry"):
            get_app("sssp").run("tuned", scale=SCALE)


class TestBestThreshold:
    @pytest.fixture(scope="class")
    def sweep_runner(self, store):
        return ExperimentRunner(scale=SCALE, store=store)

    def test_ablation_shim_retired(self):
        """The PR-3 ``ablation_threshold.best_threshold`` shim is gone
        (two-PR cadence, repro.errors.DeprecationPolicy)."""
        assert not hasattr(ablation_threshold, "best_threshold")

    def test_matches_manual_argmin(self, sweep_runner):
        """The 1-D grid search gives the same answer (and hits the same
        cache entries) as the hand-rolled sweep it replaced."""
        best, best_cycles = None, float("inf")
        for t in ablation_threshold.THRESHOLDS:
            cycles = sweep_runner.run("sssp", "grid-level",
                                      threshold=t).metrics.cycles
            if cycles < best_cycles:
                best, best_cycles = t, cycles
        assert best_threshold(
            "sssp", thresholds=ablation_threshold.THRESHOLDS,
            runner=sweep_runner) == best

    def test_variant_without_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            best_threshold("sssp", variant="basic-dp")


class TestCliTune:
    def test_tune_run_tuned_and_cache_info(self, capsys, tmp_path):
        from repro.cli import main

        args = ["tune", "sssp", "--search", "random", "--budget", "3",
                "--scale", str(SCALE), "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "saved tuned config" in cold
        assert "gain" in cold

        # warm re-tune is served entirely from the on-disk cache
        assert main(args) == 0
        assert ": 0 executed" in capsys.readouterr().out

        assert main(["run", "sssp", "tuned", "--scale", str(SCALE),
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "tuned[cycles]" in out
        assert "verified=True" in out

        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "tuned     : 1 configs" in capsys.readouterr().out

        # `cache clear` drops the tuned registry along with the runs
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 tuned configs" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "tuned     : 0 configs" in capsys.readouterr().out

    def test_tune_no_cache_persists_nothing(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["tune", "sssp", "--search", "random", "--budget", "2",
                     "--scale", str(SCALE), "--no-cache",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "not persisted" in capsys.readouterr().out
        assert not (tmp_path / "tuned.json").exists()
        assert list(tmp_path.glob("*/*.pkl")) == []  # no run store either

    def test_run_tuned_without_config_errors(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["run", "sssp", "tuned", "--scale", str(SCALE),
                     "--cache-dir", str(tmp_path)]) == 2
        assert "no tuned config" in capsys.readouterr().err

    def test_run_threshold_flag(self, capsys, tmp_path):
        from repro.cli import main

        args = ["run", "sssp", "grid-level", "--scale", str(SCALE),
                "--cache-dir", str(tmp_path)]
        assert main(args + ["--threshold", "100000"]) == 0
        flat_like = capsys.readouterr().out
        assert main(args) == 0
        default = capsys.readouterr().out
        # an effectively-infinite threshold delegates nothing: no child
        # kernels launch, unlike the paper-default run
        assert "device=0" in flat_like
        assert "device=0" not in default

    def test_compile_threshold_flag(self, capsys):
        from repro.cli import main

        assert main(["compile", "sssp", "--threshold", "42"]) == 0
        assert "delegation threshold: 42" in capsys.readouterr().out


class TestWeakSurrogateWarning:
    """`repro tune --oracle surrogate` must flag a prefilter whose
    holdout Spearman rho says its ranking is near-random."""

    def test_strong_or_absent_report_is_silent(self):
        from repro.tuning import weak_surrogate_warning

        assert weak_surrogate_warning(None) is None
        assert weak_surrogate_warning({}) is None
        assert weak_surrogate_warning(
            {"spearman": 0.91, "train_rows": 40}) is None

    def test_weak_rho_warns(self):
        from repro.tuning import WEAK_SURROGATE_RHO, weak_surrogate_warning

        text = weak_surrogate_warning({"spearman": 0.21, "train_rows": 12})
        assert text is not None and "0.210" in text
        assert f"below {WEAK_SURROGATE_RHO:g}" in text
        # the floor itself does not warn; just under it does
        assert weak_surrogate_warning({"spearman": 0.5}) is None
        assert weak_surrogate_warning({"spearman": 0.499}) is not None

    def test_unknown_rho_warns_differently(self):
        from repro.tuning import weak_surrogate_warning

        text = weak_surrogate_warning({"spearman": None, "train_rows": 3})
        assert text is not None and "unknown" in text and "3" in text
