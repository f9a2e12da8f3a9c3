"""The unified RunConfig value and its compatibility guarantees.

Three things are under test: (1) construction-time canonicalization —
two configs describing the same run compare and hash equal, whatever
spelling built them; (2) the frozen-payload run-key regression — adding
the ``engine`` axis must leave every pre-existing content address
byte-identical (``engine="scalar"`` keys as the ``oracle="sim-scalar"``
runs written before it), with no STORE_FORMAT bump; (3) the entry points
— ``App.run(RunConfig)``, ``ExperimentRunner.run_config``, the service
wire format, and the CLI's ``--engine`` flag with its deprecated
``--oracle`` spelling — all lower onto the same cache entries as the
legacy per-axis keywords they subsume.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import __version__
from repro.apps import get_app
from repro.engines import EngineError
from repro.experiments import ExperimentRunner, ResultStore
from repro.experiments.plan import RunSpec
from repro.experiments.store import STORE_FORMAT, run_key
from repro.run_config import RunConfig
from repro.sim.occupancy import LaunchConfig
from repro.sim.specs import DEFAULT_COST_MODEL, K20C

SCALE = 0.08


# -- canonicalization ---------------------------------------------------------


class TestCanonicalization:
    def test_strategy_spellings_collapse(self):
        assert (RunConfig(variant="consolidated", strategy="warp")
                == RunConfig(variant="warp-level"))
        assert (hash(RunConfig(variant="consolidated", strategy="grid"))
                == hash(RunConfig(variant="grid-level")))

    def test_default_engine_folds_to_none(self):
        assert RunConfig(engine="vectorized") == RunConfig()
        assert RunConfig(engine="vectorized").engine is None

    def test_non_default_axes_survive(self):
        for engine in ("scalar", "cpu"):
            cfg = RunConfig(variant="flat", engine=engine)
            assert cfg.engine == engine
            assert cfg != RunConfig(variant="flat")

    def test_live_launch_config_folds_to_triple(self):
        cfg = RunConfig(variant="warp-level",
                        config=LaunchConfig(mode="explicit", blocks=4,
                                            threads=128))
        assert cfg.config == ("explicit", 4, 128)
        assert cfg == RunConfig(variant="warp-level",
                                config=("explicit", 4, 128))

    def test_threshold_coerced_to_int(self):
        assert RunConfig(threshold="32").threshold == 32
        assert RunConfig(variant="warp-level", threshold=8.0).threshold == 8

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().variant = "flat"

    def test_contradictory_variant_strategy_rejected(self):
        with pytest.raises(ValueError, match="contradicts"):
            RunConfig(variant="warp-level", strategy="grid")

    def test_learned_oracle_rejected(self):
        """The surrogate is a tuning prefilter, not an engine."""
        with pytest.raises(EngineError, match="unknown engine 'surrogate'"):
            RunConfig(engine="surrogate")

    def test_unknown_engine_rejected(self):
        with pytest.raises(EngineError, match="available: vectorized, "
                                              "scalar, cpu"):
            RunConfig(engine="delphi")

    def test_emit_only_backend_rejected(self):
        """CUDA is a compile target (``repro compile --target cuda``)."""
        with pytest.raises(EngineError, match="unknown engine 'cuda'"):
            RunConfig(engine="cuda")

    def test_describe_and_axes(self):
        cfg = RunConfig(variant="consolidated", strategy="warp",
                        threshold=16, engine="scalar")
        text = cfg.describe()
        assert "warp-level" in text and "threshold=16" in text
        assert "engine=scalar" in text
        assert cfg.axes() == {
            "variant": "warp-level", "strategy": None, "threshold": 16,
            "workload": None, "engine": "scalar",
            "allocator": "custom", "config": None,
        }

    def test_from_config_maps_every_axis(self):
        cfg = RunConfig(variant="warp-level", threshold=16,
                        workload="kron(seed=9)", engine="scalar",
                        config=("explicit", 4, 128))
        spec = RunSpec.from_config("sssp", cfg)
        assert spec == RunSpec(
            app="sssp", variant="warp-level", threshold=16,
            workload="kron(seed=9)", engine="scalar",
            config=("explicit", 4, 128))


# -- run-key backward compatibility -------------------------------------------


class TestRunKeyCompat:
    """The frozen-payload regression: the content address exactly as
    computed before the engine axis existed, rebuilt by hand field for
    field. A non-default engine enters the payload only when set, under
    the field its runs were keyed by before (``scalar`` as
    ``oracle: sim-scalar``, ``cpu`` as ``backend: cpu``), so STORE_FORMAT
    stays put and every pre-existing store entry keeps its address."""

    KWARGS = dict(
        app="sssp", variant="grid-level", allocator="custom",
        config=None, dataset_fp="ab" * 32, cost=DEFAULT_COST_MODEL,
        spec=K20C, threshold=8, verify=True, version=__version__,
    )

    def _legacy_key(self, **extra):
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

    def test_store_format_unchanged(self):
        assert STORE_FORMAT == 2

    def test_omitted_oracle_is_byte_identical_to_legacy(self):
        assert run_key(**self.KWARGS) == self._legacy_key()
        assert run_key(**self.KWARGS, engine=None) == self._legacy_key()

    def test_oracle_only_enters_when_set(self):
        assert (run_key(**self.KWARGS, engine="scalar")
                == self._legacy_key(oracle="sim-scalar"))
        assert (run_key(**self.KWARGS, engine="cpu")
                == self._legacy_key(backend="cpu"))
        assert (run_key(**self.KWARGS, engine="scalar")
                != run_key(**self.KWARGS))


# -- entry points -------------------------------------------------------------


class TestAppRunEntry:
    def test_run_config_matches_legacy_kwargs(self):
        app = get_app("sssp")
        ds = app.default_dataset(SCALE)
        legacy = app.run("consolidated", strategy="warp", threshold=16,
                         dataset=ds, verify=False)
        unified = app.run(RunConfig(variant="consolidated", strategy="warp",
                                    threshold=16), dataset=ds, verify=False)
        assert (dataclasses.asdict(legacy.metrics)
                == dataclasses.asdict(unified.metrics))
        assert unified.variant == "warp-level"

    def test_clashing_keywords_rejected(self):
        app = get_app("sssp")
        with pytest.raises(ValueError, match="threshold"):
            app.run(RunConfig(variant="warp-level"), threshold=8,
                    scale=SCALE)
        with pytest.raises(ValueError, match="allocator"):
            app.run(RunConfig(variant="warp-level"), allocator="halloc",
                    scale=SCALE)


class TestRunnerEntry:
    def test_run_config_shares_cache_with_legacy(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE,
                                  store=ResultStore(tmp_path / "store"))
        legacy = runner.run("sssp", "warp-level", threshold=16)
        unified = runner.run_config(
            "sssp", RunConfig(variant="consolidated", strategy="warp",
                              threshold=16))
        assert unified is legacy  # one cache entry, not two

    def test_scalar_engine_forks_key_but_not_metrics(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE,
                                  store=ResultStore(tmp_path / "store"))
        vec = runner.run_config("sssp", RunConfig(variant="warp-level"))
        ref = runner.run_config(
            "sssp", RunConfig(variant="warp-level", engine="scalar"))
        assert ref is not vec  # distinct cache entries (provenance fork)
        assert (dataclasses.asdict(ref.metrics)
                == dataclasses.asdict(vec.metrics))

    def test_explicit_default_engine_folds_onto_default(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE,
                                  store=ResultStore(tmp_path / "store"))
        a = runner.run("sssp", "warp-level")
        b = runner.run("sssp", "warp-level", engine="vectorized")
        assert b is a


class TestWireFormat:
    def test_engine_only_on_wire_when_set(self):
        from repro.service.protocol import spec_from_wire, spec_to_wire

        bare = spec_to_wire(RunSpec(app="sssp", variant="flat"))
        assert "engine" not in bare and "oracle" not in bare
        spec = RunSpec.from_config(
            "sssp", RunConfig(variant="warp-level", engine="scalar"))
        wire = spec_to_wire(spec)
        assert wire["engine"] == "scalar"
        assert spec_from_wire(wire) == spec

    def test_v1_oracle_field_lowers_onto_engine(self):
        """A v1 client's ``oracle`` spelling decodes to the same spec —
        hence the same cache address — as ``engine``."""
        from repro.service.protocol import PROTOCOL_VERSION, spec_from_wire

        assert PROTOCOL_VERSION == 1
        base = {"app": "sssp", "variant": "warp-level"}
        assert (spec_from_wire({**base, "oracle": "sim-scalar"})
                == spec_from_wire({**base, "engine": "scalar"}))
        assert (spec_from_wire({**base, "oracle": "sim"})
                == spec_from_wire(base)
                == spec_from_wire({**base, "engine": "vectorized"}))

    @pytest.mark.parametrize("extra", [{"oracle": "surrogate"},
                                       {"engine": "cuda"},
                                       {"oracle": "sim-scalar",
                                        "engine": "cpu"},
                                       {"oracle": "sim-scalar",
                                        "engine": "vectorized"}])
    def test_wire_rejects_non_engines(self, extra):
        from repro.service.protocol import ProtocolError, spec_from_wire

        with pytest.raises(ProtocolError):
            spec_from_wire({"app": "sssp", "variant": "flat", **extra})

    def test_wire_rejects_non_string_oracle(self):
        from repro.service.protocol import ProtocolError, spec_from_wire

        with pytest.raises(ProtocolError):
            spec_from_wire({"app": "sssp", "variant": "flat", "oracle": 3})


class TestCliOracle:
    def test_run_with_oracle(self, capsys):
        """The deprecated ``--oracle sim-scalar`` is ``--engine scalar``."""
        from repro.cli import main

        with pytest.warns(DeprecationWarning, match="--engine scalar"):
            assert main(["run", "spmv", "grid-level", "--scale", "0.15",
                         "--oracle", "sim-scalar"]) == 0
        out = capsys.readouterr().out
        assert "@scalar" in out and "verified=True" in out

    def test_alias_is_served_from_the_engine_entry(self, tmp_path, capsys):
        """``--oracle sim-scalar`` after ``--engine scalar`` on one cache
        directory reuses the same entry (0 executed, same label)."""
        from repro.cli import main

        args = ["run", "spmv", "grid-level", "--scale", "0.1",
                "--cache-dir", str(tmp_path)]
        assert main(args + ["--engine", "scalar"]) == 0
        cold = capsys.readouterr().out
        assert ": 1 executed" in cold and "@scalar" in cold
        with pytest.warns(DeprecationWarning):
            assert main(args + ["--oracle", "sim-scalar"]) == 0
        warm = capsys.readouterr().out
        assert ": 0 executed" in warm and "@scalar" in warm

    def test_run_rejects_learned_oracle(self, capsys):
        """``repro run --oracle`` only accepts the spellings of engines;
        the surrogate is a tune-time prefilter (argparse choices enforce
        it)."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "spmv", "grid-level", "--oracle", "surrogate"])
        assert "surrogate" in capsys.readouterr().err

    def test_list_shows_engines_and_prefilters(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "\n  scalar " in out
        assert "prefilters (repro tune --prefilter): surrogate" in out


class TestLegacyPickles:
    """Result-store entries pickled before the engine axis carry
    ``backend`` and ``oracle`` attributes; they load with the engine
    those named and no stale attribute."""

    @staticmethod
    def _legacy_pickle(run, backend=None, oracle=None) -> bytes:
        import pickle

        from repro.apps.common import AppRun

        state = {k: v for k, v in vars(run).items() if k != "engine"}
        state.update(backend=backend, oracle=oracle)
        old = AppRun.__new__(AppRun)
        old.__dict__.update(state)
        return pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)

    @pytest.mark.parametrize("backend,oracle,engine", [
        (None, None, None), (None, "sim-scalar", "scalar"),
        ("cpu", None, "cpu")])
    def test_fields_lower_onto_engine(self, backend, oracle, engine):
        import pickle

        run = get_app("spmv").run("no-dp", scale=0.05, verify=False)
        loaded = pickle.loads(self._legacy_pickle(run, backend, oracle))
        assert loaded.engine == engine
        assert "backend" not in vars(loaded) and "oracle" not in vars(loaded)
        assert (dataclasses.asdict(loaded.metrics)
                == dataclasses.asdict(run.metrics))

    def test_cli_serves_legacy_entry_warm(self, tmp_path, capsys):
        """A scalar-engine entry rewritten in the old layout is served by
        ``repro run --cache-dir`` with 0 executed and the scalar label."""
        from repro.cli import main

        args = ["run", "spmv", "grid-level", "--scale", "0.1",
                "--cache-dir", str(tmp_path), "--engine", "scalar"]
        assert main(args) == 0
        capsys.readouterr()
        entries = list(tmp_path.glob("shard-*/*.pkl"))
        assert len(entries) == 1
        store = ResultStore(tmp_path)
        key = entries[0].stem
        entries[0].write_bytes(self._legacy_pickle(
            store.get(key), oracle="sim-scalar"))
        assert store.get(key).engine == "scalar"
        assert main(args) == 0
        out = capsys.readouterr().out
        assert ": 0 executed" in out and "[grid-level@scalar]" in out
