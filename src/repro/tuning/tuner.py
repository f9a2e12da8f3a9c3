"""The tuner: search the joint configuration space for one app.

Ties the subsystem together (DESIGN.md §11): a
:class:`~repro.tuning.space.TuningSpace` supplies candidates, a
registered :class:`~repro.tuning.search.SearchAlgorithm` decides which
to evaluate at which fidelity, the
:class:`~repro.tuning.oracle.SimulationOracle` scores them through the
cache-backed experiment runner, and the winner persists as a
:class:`~repro.tuning.registry.TunedConfig` that ``repro run <app>
tuned`` consumes.

The paper-default candidate (every knob ``None``) is *always* evaluated
at full fidelity and wins ties, so the tuned configuration is never
worse than the paper's fixed choice — the acceptance property the
``tuned_vs_paper`` harness reports per app.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import __version__
from ..apps import get_app
from ..experiments.runner import ExperimentRunner, RunStats
from ..oracle import SurrogateOracle
from ..sim.specs import CostModel, DeviceSpec, K20C
from ..telemetry import span
from .objectives import Objective, get_objective
from .oracle import SimulationOracle, Trial
from .registry import TunedConfig, TunedConfigRegistry, tuned_key
from .search import get_search
from .space import Candidate, TuningSpace


@dataclass
class TuningResult:
    """Everything one :meth:`Tuner.tune` call learned."""

    app: str
    objective: Objective
    algorithm: str
    best: Trial
    baseline: Trial
    trials: list[Trial]
    config: TunedConfig
    key: str
    stats: RunStats
    #: when the surrogate prefilter scored candidates: its decision report
    #: (per-rung predicted/simulated counts, training-set Spearman rho;
    #: :meth:`repro.oracle.surrogate.SurrogateOracle.surrogate_report`)
    surrogate: Optional[dict] = None

    @property
    def evaluations(self) -> int:
        return len(self.trials)

    def gain(self) -> float:
        """Improvement factor over the paper default, in the objective's
        better-direction (>= 1.0 by construction)."""
        base, best = self.baseline.value, self.best.value
        if self.objective.maximize:
            return best / base if base else float("inf")
        return base / best if best else float("inf")

    def describe(self) -> str:
        obj = self.objective
        where = (f" on {self.config.workload}"
                 if self.config.workload is not None else "")
        lines = [
            f"Tuned {get_app(self.app).label} for {obj.name}{where} "
            f"({self.algorithm}, {self.evaluations} evaluations)",
            f"  best  : {self.best.candidate.describe()} "
            f"-> {obj.format(self.best.value)}",
            f"  paper : {self.baseline.candidate.describe()} "
            f"-> {obj.format(self.baseline.value)}",
            f"  gain  : {self.gain():.2f}x over the paper default",
        ]
        return "\n".join(lines)


#: Spearman rho below which the surrogate's cheap-rung ranking is
#: considered unreliable (0.5 ~ "moderate correlation": below it, the
#: prefilter is close to shuffling candidates)
WEAK_SURROGATE_RHO = 0.5


def weak_surrogate_warning(report: Optional[dict],
                           floor: float = WEAK_SURROGATE_RHO
                           ) -> Optional[str]:
    """A caution string when a surrogate report shows a training-set
    Spearman rho under ``floor`` (or none at all), else None. The CLI
    prints it after the surrogate summary so a tune whose prefilter was
    effectively random is never mistaken for a trustworthy one."""
    if not report:
        return None
    rho = report.get("spearman")
    rows = report.get("train_rows", 0)
    if rho is None:
        return (f"surrogate rank quality is unknown (trained on {rows} "
                f"rows, no holdout Spearman rho); its candidate "
                "prefiltering may be unreliable")
    if rho < floor:
        return (f"surrogate Spearman rho {rho:.3f} is below {floor:g}; "
                "its cheap-rung ranking is weakly correlated with the "
                "simulator, so the tuned config may be far from optimal "
                "(consider tuning without --prefilter or logging more "
                "training runs)")
    return None


#: candidate prefilters (``repro tune --prefilter``): name -> wrapper
#: taking ``(simulation oracle, training log)`` and returning a scorer
#: with the same contract
PREFILTERS = {"surrogate": SurrogateOracle}


@dataclass
class Tuner:
    """Search-based autotuner over the consolidation configuration space.

    Construction mirrors :class:`~repro.experiments.runner.ExperimentRunner`
    (scale / device spec / cost model / on-disk store / worker count);
    attach a :class:`TunedConfigRegistry` to persist winners.
    """

    scale: float = 1.0
    spec: DeviceSpec = K20C
    cost: Optional[CostModel] = None
    store: object = None
    registry: Optional[TunedConfigRegistry] = None
    jobs: int = 1
    verify: bool = True
    #: optional on-disk cache of materialized datasets shared by every
    #: fidelity runner (:class:`repro.workloads.DatasetCache`)
    dataset_cache: object = None
    #: optional :class:`repro.service.ServiceClient` — when attached
    #: (``repro tune --socket``), every candidate evaluation submits
    #: through the experiment service instead of local runners, sharing
    #: the daemon's coalescing, batching, and result store
    service: object = None
    #: a :data:`PREFILTERS` name placed in front of the simulator, or
    #: None to simulate every candidate. Candidates always run on the
    #: default engine: the simulator engines give bitwise-identical
    #: metrics, so another engine would add cache entries and no result
    prefilter: Optional[str] = None
    #: surrogate training log (:class:`repro.oracle.TrainingLog`);
    #: None with a store attached derives the conventional log beside it
    training_log: object = None
    #: run provenance accumulated across every tune() call
    stats: RunStats = field(default_factory=RunStats, repr=False)

    def __post_init__(self) -> None:
        if self.prefilter is not None and self.prefilter not in PREFILTERS:
            raise ValueError(
                f"unknown prefilter {self.prefilter!r}; available: "
                f"{', '.join(PREFILTERS)}")

    def _training_log(self):
        if self.training_log is None and self.store is not None:
            from ..oracle import TrainingLog

            self.training_log = TrainingLog.for_store(self.store)
        return self.training_log

    def _scorer(self, app: str, objective: Objective, workload=None):
        """Build the candidate scorer: a simulation oracle, wrapped in
        the prefilter when one is named."""
        log = self._training_log()
        sim = SimulationOracle(
            app, objective, scale=self.scale, spec=self.spec, cost=self.cost,
            store=self.store, jobs=self.jobs, verify=self.verify,
            workload=workload, dataset_cache=self.dataset_cache,
            client=self.service, training_log=log)
        if self.prefilter is None:
            return sim
        return PREFILTERS[self.prefilter](sim, log)

    def _canonical_workload(self, app: str, workload):
        """Same default-folding rule as the experiment runner (shared
        via :func:`repro.workloads.canonical_for_app`): the app's own
        default workload tunes (and stores) as None."""
        from ..workloads import canonical_for_app

        return canonical_for_app(get_app(app), workload)

    def tune(self, app: str, objective="cycles", algorithm: str = "halving",
             space: Optional[TuningSpace] = None,
             budget: Optional[int] = None, seed: int = 0,
             workload: Optional[str] = None) -> TuningResult:
        """Search the space for one app; persist and return the winner.

        Deterministic for fixed ``(space, algorithm, budget, seed)``:
        a repeated call issues the identical evaluation sequence, so
        against a warm result store it executes zero simulations.
        ``workload`` tunes against a named dataset instead of the app's
        default; the winner persists in a per-workload registry slot.
        """
        get_app(app)  # validate the key before any simulation
        obj = get_objective(objective)
        workload = self._canonical_workload(app, workload)
        space = space if space is not None else TuningSpace.for_app(app)
        algo = get_search(algorithm)
        oracle = self._scorer(app, obj, workload=workload)

        with span("tune.app", app=app, objective=obj.name,
                  algorithm=algo.name):
            trials = list(algo.search(oracle, space.candidates(),
                                      budget=budget, seed=seed))
            # the paper default is always scored at full fidelity and
            # wins ties; reuse the search's own trial when it already
            # visited it
            default = space.default_candidate()
            baseline = next(
                (t for t in trials
                 if t.candidate == default and oracle.is_full_fidelity(t)),
                None)
            if baseline is None:
                baseline = oracle.evaluate([default])[0]
                trials.append(baseline)
        best = baseline
        for trial in trials:
            if oracle.is_full_fidelity(trial) and trial.loss < best.loss:
                best = trial

        key = tuned_key(app=app, objective=obj.name, spec=self.spec,
                        cost=oracle.cost, scale=self.scale,
                        verify=self.verify, version=__version__,
                        workload=workload)
        config = TunedConfig(
            app=app, objective=obj.name, candidate=best.candidate,
            value=best.value, baseline_value=baseline.value,
            algorithm=algo.name, evaluations=len(trials),
            scale=self.scale, device=self.spec.name, version=__version__,
            workload=workload,
        )
        if self.registry is not None:
            self.registry.put(key, config)

        stats = oracle.stats()
        self.stats.executed += stats.executed
        self.stats.memory_hits += stats.memory_hits
        self.stats.disk_hits += stats.disk_hits
        report = getattr(oracle, "surrogate_report", None)
        return TuningResult(app=app, objective=obj, algorithm=algo.name,
                            best=best, baseline=baseline,
                            trials=trials, config=config,
                            key=key, stats=stats,
                            surrogate=report() if callable(report) else None)


def best_threshold(app: str = "sssp", *, variant: str = "grid-level",
                   thresholds=(2, 8, 32, 128, 100_000),
                   runner: Optional[ExperimentRunner] = None,
                   scale: float = 0.5) -> int:
    """Threshold with the best simulated cycles for one app x variant —
    a 1-D grid search over the delegation-threshold axis.

    Subsumes the old ``ablation_threshold.best_threshold`` helper (which
    remains as a deprecated shim): the candidates lower onto exactly the
    RunSpecs the ablation sweep issues, so both share cache entries.
    ``runner`` pins evaluation to an existing runner (its scale, store
    and in-memory cache); otherwise a fresh one is built at ``scale``.
    """
    from ..apps.common import CONS, CONSOLIDATED

    if variant != CONS and variant not in CONSOLIDATED:
        raise ValueError(f"variant {variant!r} has no delegation threshold "
                         "to tune")
    strategy = CONSOLIDATED.get(variant)
    if runner is None:
        runner = ExperimentRunner(scale=scale)
    oracle = SimulationOracle(app, "cycles", runner=runner)
    candidates = [Candidate(strategy=strategy, threshold=t)
                  for t in thresholds]
    trials = oracle.evaluate(candidates)
    best = min(range(len(trials)), key=lambda i: (trials[i].loss, i))
    return thresholds[best]
