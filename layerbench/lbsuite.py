"""The benchmark's workloads and the measurement of one workload.

Three workloads, each built from a seed (seed 0 reproduces every app's
paper dataset; seed ``n`` adds ``n`` to the dataset generator's seed,
``j * n`` for the ``j``-th cell of an app in a cell workload):

* ``dp-consolidated`` — the paper's headline consolidated cells, where
  the DP-buffer runtime and the lane-stepping engine do the work;
* ``dp-baselines`` — no-dp and basic-dp, where thousands of tiny child
  launches load the timing model and the DP-buffer runtime is idle;
* ``tune-sweep`` — a cold grid tune against a fresh result store and the
  identical warm re-tune, where every candidate is a fresh compile.

:func:`measure` runs one workload: set-up, warm-up, untraced timed
passes (end-to-end metrics) or an untraced, a probe-counting and a
traced pass (per-layer metrics), checking every output on the way.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Optional

from repro import workloads
from repro.apps import get_app
from repro.experiments import ResultStore
from repro.experiments.runner import ExperimentRunner
from repro.tuning import Tuner

from layertrace import LAYERS, LayerTracer, Patches, ProbeCounter

#: dataset scale of the two cell workloads (the paper matrix's scale)
SCALE = 1.0
#: dataset scale the warm-up runs each cell at: big enough to reach every
#: code path a cell takes, small enough to cost about a second
WARM_SCALE = 0.05
#: dataset scale of the tune sweep (the tuner's smallest rung scale)
TUNE_SCALE = 0.05
#: fewest untraced passes a timed run makes, however short ``seconds``
MIN_PASSES = 2

DP_CONSOLIDATED = (
    ("sssp", "warp-level"), ("sssp", "block-level"), ("sssp", "grid-level"),
    ("spmv", "warp-level"), ("spmv", "grid-level"),
    ("bfs_rec", "grid-level"), ("th", "grid-level"),
)
DP_BASELINES = tuple((app, variant) for variant in ("no-dp", "basic-dp")
                     for app in ("sssp", "spmv", "pagerank", "td", "bfs_rec"))
TUNE_APPS = ("spmv", "td", "bfs_rec")

#: end-to-end metric -> (unit, better); ``--trace 0`` reports all of them
END_TO_END = {
    "pass_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_cycles": ("cycles", "lower"),
    "sim_dram_tx": ("count", "lower"),
    "sim_warp_eff": ("ratio", "higher"),
    "sim_occupancy": ("ratio", "higher"),
    "sim_device_launches": ("count", "lower"),
}

#: per-layer metric -> (unit, better); ``--trace 1`` reports all of them
#: (0 where a workload never enters the layer)
PER_LAYER = {
    "workloads.self_s": ("s", "lower"),
    "frontend.calls": ("count", "lower"),
    "frontend.self_s": ("s", "lower"),
    "compiler.calls": ("count", "lower"),
    "compiler.self_s": ("s", "lower"),
    "codegen.calls": ("count", "lower"),
    "codegen.self_s": ("s", "lower"),
    "codegen.out_bytes": ("bytes", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.host_launches": ("count", "lower"),
    "engine.kernel_instances": ("count", "lower"),
    "dp.calls": ("count", "lower"),
    "dp.batched_calls": ("count", "lower"),
    "dp.batched_ratio": ("ratio", "higher"),
    "dp.self_s": ("s", "lower"),
    "dp.buffer_pushes": ("count", "lower"),
    "cache.calls": ("count", "lower"),
    "cache.probes": ("count", "lower"),
    "cache.self_s": ("s", "lower"),
    "cache.l2_hit_ratio": ("ratio", "higher"),
    "cache.repeat_probe_ratio": ("ratio", "higher"),
    "timing.self_s": ("s", "lower"),
    "timing.instances": ("count", "lower"),
    "timing.us_per_instance": ("us", "lower"),
    "profiler.self_s": ("s", "lower"),
    "verify.calls": ("count", "lower"),
    "verify.self_s": ("s", "lower"),
    "store.get_calls": ("count", "lower"),
    "store.get_hit_ratio": ("ratio", "higher"),
    "store.put_calls": ("count", "lower"),
    "store.self_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "runner.executed": ("count", "lower"),
    "tuning.self_s": ("s", "lower"),
    "tuning.evaluations": ("count", "lower"),
    "tuning.tuned_gain": ("ratio", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.other_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

def dataset_ref(app_key: str, seed: int) -> str:
    """The registry reference of an app's paper dataset, with the
    generator seed moved by ``seed`` (0 keeps the paper's)."""
    name, params = workloads.parse_workload(get_app(app_key).default_workload)
    spec = workloads.get_workload(name)
    params = spec.resolve_params(params)
    params["seed"] = (params["seed"] + seed) % 2 ** 32
    return spec.canonical(params)


@dataclasses.dataclass
class PassResult:
    """One pass over a workload."""

    #: ``time.perf_counter()`` when the pass started, and its wall seconds
    started: float
    wall_s: float
    #: outcome key -> comparable result (None when it failed); the keys
    #: and values of two passes of the same workload must be identical
    outcomes: dict
    #: RunMetrics of every run the pass executed
    runs: list
    attempted: int
    failed: int
    #: workload-specific totals (tune-sweep: gain, executed, evaluations)
    totals: dict = dataclasses.field(default_factory=dict)


def _report_failure(what: str) -> None:
    print(f"FAILED {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class CellWorkload:
    """App x variant cells through ``App.run(verify=True)``.

    The ``j``-th cell (from 1) of an app runs on the app's dataset with
    its seed moved by ``j * seed``. Seed 0 gives every cell the paper
    dataset; any other seed gives each cell a dataset of its own, so one
    run samples as many graphs as it has cells. On one shared graph the
    variants of an app are slow together: citeseer's edge count alone
    spreads 9% (quartile distance / median) over seeds 1-40, and every
    sssp variant's work follows it.
    """

    def __init__(self, name: str, cells, seed: int, scale: float = SCALE):
        self.name = name
        self.cells = tuple(cells)
        self.seed = seed
        self.scale = scale
        taken = collections.Counter()
        self.refs = []
        for app, _ in self.cells:
            taken[app] += 1
            self.refs.append(dataset_ref(app, taken[app] * seed))
        self.datasets: dict = {}

    def _materialize(self, scale: float) -> dict:
        """(app, ref) -> dataset at ``scale``, each built once."""
        apps = (app for app, _ in self.cells)
        return {(app, ref): workloads.materialize_for_app(get_app(app), ref,
                                                          scale)
                for app, ref in dict.fromkeys(zip(apps, self.refs))}

    def materialize(self) -> None:
        self.datasets = self._materialize(self.scale)

    def warm_up(self) -> None:
        small = self._materialize(min(self.scale, WARM_SCALE))
        for (app, variant), ref in zip(self.cells, self.refs):
            get_app(app).run(variant, small[app, ref], verify=True)

    def run_pass(self) -> PassResult:
        outcomes, runs, failed = {}, [], 0
        start = time.perf_counter()
        for (app, variant), ref in zip(self.cells, self.refs):
            key = f"{app}:{variant}"
            try:
                run = get_app(app).run(variant, self.datasets[app, ref],
                                       scale=self.scale, verify=True)
            except Exception:
                _report_failure(f"{self.name} {key}")
                outcomes[key] = None
                failed += 1
                continue
            outcomes[key] = dataclasses.asdict(run.metrics)
            runs.append(run.metrics)
        wall = time.perf_counter() - start
        return PassResult(start, wall, outcomes, runs, len(self.cells),
                          failed)

    def close(self) -> None:
        pass


class TuneWorkload:
    """A cold grid tune per app against a fresh result store, then the
    identical warm re-tune against the same store."""

    name = "tune-sweep"

    def __init__(self, seed: int, tmp_root: Path, apps=TUNE_APPS,
                 scale: float = TUNE_SCALE, budget: Optional[int] = None):
        self.seed = seed
        self.apps = tuple(apps)
        self.scale = scale
        self.budget = budget
        self.refs = {app: dataset_ref(app, seed) for app in self.apps}
        self._tmp = Path(tempfile.mkdtemp(prefix=".layerbench-tune-",
                                          dir=tmp_root))
        self._stores = 0

    def _fresh_store(self) -> ResultStore:
        self._stores += 1
        return ResultStore(self._tmp / f"store{self._stores}")

    def _tune(self, store, app, budget):
        return Tuner(scale=self.scale, store=store).tune(
            app, algorithm="grid", budget=budget, workload=self.refs[app])

    def materialize(self) -> None:
        for app in self.apps:
            workloads.materialize_for_app(get_app(app), self.refs[app],
                                          self.scale)

    def warm_up(self) -> None:
        store = self._fresh_store()
        for app in self.apps:
            self._tune(store, app, 2)
            self._tune(store, app, 2)

    def run_pass(self) -> PassResult:
        executed_runs = {}
        patches = Patches()
        run_spec = vars(ExperimentRunner)["run_spec"]

        def capturing_run_spec(runner, spec):
            run = run_spec(runner, spec)
            executed_runs.setdefault(
                (run.app, repr(runner.resolve(spec))), run.metrics)
            return run

        patches.set(ExperimentRunner, "run_spec", capturing_run_spec)
        outcomes, failed = {}, 0
        gains, executed, evaluations = [], 0, 0
        start = time.perf_counter()
        try:
            store = self._fresh_store()
            for app in self.apps:
                try:
                    cold = self._tune(store, app, self.budget)
                except Exception:
                    _report_failure(f"tune-sweep cold {app}")
                    outcomes[f"{app}:cold"] = None
                    failed += 1
                    continue
                outcomes[f"{app}:cold"] = [(repr(t.candidate), t.value)
                                           for t in cold.trials]
                gains.append(cold.gain())
                executed += cold.stats.executed
                evaluations += cold.evaluations
            patches.restore()
            for app in self.apps:
                try:
                    warm = self._tune(store, app, self.budget)
                except Exception:
                    _report_failure(f"tune-sweep warm {app}")
                    outcomes[f"{app}:warm"] = None
                    failed += 1
                    continue
                trials = [(repr(t.candidate), t.value) for t in warm.trials]
                executed += warm.stats.executed
                evaluations += warm.evaluations
                cold_trials = outcomes[f"{app}:cold"]
                if warm.stats.executed or (cold_trials is not None
                                           and trials != cold_trials):
                    print(f"FAILED tune-sweep warm {app}: executed "
                          f"{warm.stats.executed} runs or its trials differ "
                          "from the cold tune's", file=sys.stderr)
                    trials = None
                    failed += 1
                outcomes[f"{app}:warm"] = trials
        finally:
            patches.restore()
        wall = time.perf_counter() - start
        # one outcome per cold tune: its trials and every run it executed
        for app in self.apps:
            if outcomes[f"{app}:cold"] is not None:
                outcomes[f"{app}:cold"] = (outcomes[f"{app}:cold"], {
                    key: dataclasses.asdict(metrics)
                    for (run_app, key), metrics in executed_runs.items()
                    if run_app == app})
        totals = {"tuned_gain": _geomean(gains) if gains else 0.0,
                  "executed": executed, "evaluations": evaluations}
        return PassResult(start, wall, outcomes,
                          list(executed_runs.values()), 2 * len(self.apps),
                          failed, totals)

    def close(self) -> None:
        shutil.rmtree(self._tmp, ignore_errors=True)


def make_workload(name: str, seed: int, tmp_root: Path):
    if name == "dp-consolidated":
        return CellWorkload(name, DP_CONSOLIDATED, seed)
    if name == "dp-baselines":
        return CellWorkload(name, DP_BASELINES, seed)
    if name == "tune-sweep":
        return TuneWorkload(seed, tmp_root)
    raise ValueError(f"unknown workload {name!r}")


#: workload names, in the order ``--workload all`` runs them; why each
#: was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS = ("dp-consolidated", "dp-baselines", "tune-sweep")


# -- measurement -----------------------------------------------------------------


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pass_stats(samples) -> dict:
    """Median, quartiles, sample count and the highest percentile with at
    least ten samples beyond it (absent below eleven samples)."""
    samples = sorted(samples)
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n,
           "q1": samples[0], "q3": samples[-1]}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(samples, n=4)
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = samples[math.ceil(pct / 100 * n) - 1]
    return out


def sim_metrics(runs) -> dict:
    """The simulated-GPU end-to-end metrics of a pass's runs."""
    return {
        "sim_cycles": _geomean(m.cycles for m in runs),
        "sim_dram_tx": _geomean(m.dram_transactions for m in runs),
        "sim_warp_eff": statistics.fmean(
            m.warp_execution_efficiency for m in runs),
        "sim_occupancy": statistics.fmean(m.achieved_occupancy for m in runs),
        "sim_device_launches": float(sum(m.device_launches for m in runs)),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Measurement:
    workload: str
    attempted: int
    failed: int
    metrics: dict
    #: pass_s statistics in reference seconds (timed runs only)
    passes: dict = dataclasses.field(default_factory=dict)
    #: the same passes' statistics in wall seconds
    walls: dict = dataclasses.field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class _Checker:
    """Holds every pass's outcomes to the first pass's."""

    def __init__(self):
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def add(self, result: PassResult, label: str) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        if self.reference is None:
            self.reference = result.outcomes
            return
        for key, value in result.outcomes.items():
            ref = self.reference.get(key)
            if value is not None and ref is not None and value != ref:
                print(f"FAILED {label}: {key} differs from the first pass",
                      file=sys.stderr)
                self.failed += 1


def set_up(workload) -> None:
    """Materialize the workload's datasets and warm every code path up."""
    workload.materialize()
    workload.warm_up()


def measure(workload, seconds: float, trace: bool, setup_samples=(),
            clock=None) -> Measurement:
    """Measure one workload that :func:`set_up` has prepared.

    ``trace=False``: untraced passes for about ``seconds`` (at least
    :data:`MIN_PASSES`; another pass starts only while at least half of
    it fits, so a run overshoots by at most half a pass); reports
    :data:`END_TO_END`, with ``setup_samples`` as the set-up times to
    take the median of. ``clock`` (a running ``hostclock.HostClock``)
    converts every pass to reference seconds.
    ``trace=True``: one untraced, one probe-counting and one traced pass;
    reports :data:`PER_LAYER`.
    """
    checker = _Checker()
    if not trace:
        walls, refs, first = [], [], None
        deadline = time.perf_counter() + seconds
        while (len(walls) < MIN_PASSES or time.perf_counter()
               + statistics.median(walls) / 2 <= deadline):
            result = workload.run_pass()
            checker.add(result, f"{workload.name} pass {len(walls) + 1}")
            walls.append(result.wall_s)
            refs.append(clock.seconds(result.started,
                                      result.started + result.wall_s))
            first = first or result
        metrics = {"pass_s": statistics.median(refs),
                   "setup_s": statistics.median(setup_samples),
                   "peak_rss_mb": peak_rss_mb()}
        metrics.update(sim_metrics(first.runs))
        return Measurement(workload.name, checker.attempted, checker.failed,
                           metrics, pass_stats(refs), pass_stats(walls))

    untraced = workload.run_pass()
    checker.add(untraced, f"{workload.name} untraced pass")
    counter = ProbeCounter()
    patches = Patches()
    try:
        counter.install(patches)
        checker.add(workload.run_pass(), f"{workload.name} counting pass")
    finally:
        patches.restore()
    tracer = LayerTracer()
    try:
        tracer.install(patches)
        start = time.perf_counter()
        workload.materialize()
        traced = workload.run_pass()
        wall = time.perf_counter() - start
    finally:
        patches.restore()
    checker.add(traced, f"{workload.name} traced pass")
    leaks = leftover_wrappers()
    if leaks:
        print(f"FAILED {workload.name}: wrappers left in place: "
              f"{', '.join(leaks)}", file=sys.stderr)
        checker.failed += 1
    metrics = layer_metrics(tracer, counter, traced, wall,
                            untraced.wall_s)
    return Measurement(workload.name, checker.attempted, checker.failed,
                       metrics)


def layer_metrics(tracer: LayerTracer, counter: ProbeCounter,
                  traced: PassResult, wall: float,
                  untraced_wall: float) -> dict:
    """:data:`PER_LAYER` from a traced pass of ``wall`` seconds (the
    materialization it repeated included) and the counting pass."""
    runs = traced.runs
    counts = tracer.counts
    calls = tracer.calls
    m = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0)
         for layer in LAYERS}
    for layer in ("frontend", "compiler", "codegen", "dp", "cache",
                  "verify"):
        m[f"{layer}.calls"] = calls[layer]
    m["codegen.out_bytes"] = counts["codegen.out_bytes"]
    m["engine.host_launches"] = sum(r.host_launches for r in runs)
    instances = sum(r.kernel_instances for r in runs)
    m["engine.kernel_instances"] = instances
    batched_rows = counts["dp.batched_rows"]
    all_rows = batched_rows + counts["dp.scalar_rows"]
    m["dp.calls"] = counts["dp.scalar_rows"]
    m["dp.batched_calls"] = calls["dp"] - counts["dp.scalar_rows"]
    m["dp.batched_ratio"] = batched_rows / all_rows if all_rows else 0.0
    m["dp.buffer_pushes"] = sum(r.buffer_pushes for r in runs)
    m["cache.probes"] = counter.probes
    hits = sum(r.l2_hits for r in runs)
    lookups = hits + sum(r.l2_misses for r in runs)
    m["cache.l2_hit_ratio"] = hits / lookups if lookups else 0.0
    m["cache.repeat_probe_ratio"] = (counter.repeats / counter.probes
                                     if counter.probes else 0.0)
    m["timing.instances"] = instances
    m["timing.us_per_instance"] = (1e6 * m["timing.self_s"] / instances
                                   if instances else 0.0)
    gets = calls["store"] - counts["store.puts"]
    m["store.get_calls"] = gets
    m["store.get_hit_ratio"] = counts["store.get_hits"] / gets if gets else 0.0
    m["store.put_calls"] = counts["store.puts"]
    m["runner.executed"] = traced.totals.get("executed", 0)
    m["tuning.evaluations"] = traced.totals.get("evaluations", 0)
    m["tuning.tuned_gain"] = traced.totals.get("tuned_gain", 0.0)
    attributed = tracer.attributed_s()
    m["trace.wall_s"] = wall
    m["trace.other_s"] = wall - attributed
    m["trace.coverage"] = attributed / wall
    m["trace.overhead_ratio"] = traced.wall_s / untraced_wall
    return {name: m[name] for name in PER_LAYER}


def leftover_wrappers() -> list:
    """Names in any loaded ``repro`` module or class that still hold a
    benchmark wrapper (must be empty after every pass)."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("repro"):
            continue
        for name, value in list(vars(mod).items()):
            owners = [(f"{modname}.{name}", value)]
            if isinstance(value, type) and value.__module__ == modname:
                owners += [(f"{modname}.{name}.{attr}", v)
                           for attr, v in vars(value).items()]
            found += [where for where, v in owners
                      if getattr(v, "__module__", None) in
                      ("layertrace", "lbsuite")]
    return found
