"""The simulation cost oracle — how candidates get their scores.

Every candidate evaluation is one application run expressed as a
:class:`~repro.experiments.plan.RunSpec` and batched through
:meth:`~repro.experiments.runner.ExperimentRunner.prefetch`, so tuning
inherits the whole PR 1 execution stack for free: cache misses fan
across ``--jobs`` worker processes, results persist in the shared
content-addressed :class:`~repro.experiments.store.ResultStore`, and a
repeated tune executes **zero** simulations (every candidate is served
from cache).

Multi-fidelity search (successive halving) evaluates candidates at a
*fraction* of the tuning dataset scale; the oracle keeps one runner per
distinct scale, all sharing the same on-disk store, so low-fidelity
rungs are cached exactly like full-fidelity runs.

With a service client attached (``client=``; ``repro tune --socket``),
evaluation goes through the experiment service instead of local
runners: each batch is pipelined as one ``submit_many``, so the daemon
coalesces duplicates across *every* connected tuner and serves repeats
from its shared store. Reduced-fidelity rungs simply submit with their
rung scale — the server keeps a runner per scale, mirroring this
oracle's local arrangement. The client and server must agree on the
tuning context (device spec, cost model, verify flag); both default to
the same values, and the handshake exposes the server's so the CLI can
warn on mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..experiments.runner import ExperimentRunner, RunStats
from ..sim.specs import CostModel, DEFAULT_COST_MODEL, DeviceSpec, K20C
from ..telemetry import span
from .objectives import Objective, get_objective
from .space import Candidate

#: floor for reduced-fidelity rung scales: below this the generated
#: datasets degenerate and scores stop ranking candidates meaningfully
MIN_RUNG_SCALE = 0.05


@dataclass(frozen=True)
class Trial:
    """One evaluated candidate: objective value (natural units), loss
    (minimized), and the dataset scale it was measured at."""

    candidate: Candidate
    value: float
    loss: float
    scale: float


class SimulationOracle:
    """Scores candidates for one app x objective via the simulator."""

    def __init__(self, app: str, objective, *, scale: float = 1.0,
                 spec: DeviceSpec = K20C,
                 cost: Optional[CostModel] = None,
                 store=None, jobs: int = 1, verify: bool = True,
                 runner: Optional[ExperimentRunner] = None,
                 workload=None, dataset_cache=None, client=None,
                 training_log=None):
        self.app = app
        self.objective: Objective = get_objective(objective)
        #: canonical workload reference every candidate is scored on
        #: (None: the app's default dataset)
        self.workload = workload
        #: surrogate training log handed to every fidelity runner
        #: (None with a store attached: the runner derives the
        #: conventional log beside it)
        self.training_log = training_log
        self.dataset_cache = dataset_cache
        #: optional :class:`repro.service.ServiceClient`; when set,
        #: evaluation submits through the experiment service instead of
        #: local runners
        self.client = client
        self._client_stats = RunStats()
        if runner is not None:
            # pin full-fidelity evaluations to an existing runner (and
            # share its store/device/cost/parallelism with any
            # reduced-scale rungs)
            scale, spec, cost = runner.scale, runner.spec, runner.cost
            store, verify, jobs = runner.store, runner.verify, runner.jobs
        self.scale = scale
        self.spec = spec
        self.cost = cost if cost is not None else DEFAULT_COST_MODEL
        self.store = store
        self.jobs = jobs
        self.verify = verify
        self._runners: dict[float, ExperimentRunner] = {}
        #: stats snapshot per runner at adoption, so :meth:`stats` reports
        #: only this oracle's work even on a pre-warmed external runner
        self._baselines: dict[float, RunStats] = {}
        if runner is not None:
            self._adopt(runner)

    def _adopt(self, runner: ExperimentRunner) -> None:
        from dataclasses import replace

        self._runners[runner.scale] = runner
        self._baselines[runner.scale] = replace(runner.stats)

    # -- runners ---------------------------------------------------------------

    def _rung_scale(self, factor: float) -> float:
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"fidelity factor must be in (0, 1], got {factor}")
        return min(self.scale, max(self.scale * factor, MIN_RUNG_SCALE))

    def runner_for(self, factor: float = 1.0) -> ExperimentRunner:
        """The (cached) runner evaluating at a fidelity factor."""
        scale = self._rung_scale(factor)
        if scale not in self._runners:
            self._adopt(ExperimentRunner(
                scale=scale, spec=self.spec, cost=self.cost,
                verify=self.verify, store=self.store, jobs=self.jobs,
                dataset_cache=self.dataset_cache,
                training_log=self.training_log))
        return self._runners[scale]

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, candidates, factor: float = 1.0) -> list[Trial]:
        """Score a batch of candidates at one fidelity.

        The whole batch is prefetched before any score is read, so cache
        misses run in parallel and trial order matches candidate order
        regardless of worker completion order.
        """
        candidates = list(candidates)
        specs = [c.run_spec(self.app, self.spec, workload=self.workload)
                 for c in candidates]
        with span("tune.evaluate", app=self.app,
                  candidates=len(candidates),
                  scale=self._rung_scale(factor),
                  remote=self.client is not None):
            if self.client is not None:
                return self._evaluate_remote(candidates, specs, factor)
            runner = self.runner_for(factor)
            runner.prefetch(specs, jobs=self.jobs)
            trials = []
            for cand, spec in zip(candidates, specs):
                value = self.objective.value(runner.run_spec(spec).metrics)
                trials.append(Trial(candidate=cand, value=value,
                                    loss=self.objective.loss(value),
                                    scale=runner.scale))
        return trials

    def _evaluate_remote(self, candidates, specs,
                         factor: float) -> list[Trial]:
        """Score one batch through the experiment service: a single
        pipelined ``submit_many``, so the daemon coalesces duplicates
        and micro-batches the rest."""
        scale = self._rung_scale(factor)
        results = self.client.submit_many(specs, scale=scale)
        trials = []
        for cand, res in zip(candidates, results):
            value = self.objective.value(res.metrics)
            trials.append(Trial(candidate=cand, value=value,
                                loss=self.objective.loss(value),
                                scale=scale))
            # provenance mapping for :meth:`stats`: server-side cache
            # hits report as disk hits (they came off the shared store
            # or its memory image), coalesced joins as memory hits
            if res.source == "executed":
                self._client_stats.executed += 1
            elif res.source == "coalesced":
                self._client_stats.memory_hits += 1
            else:
                self._client_stats.disk_hits += 1
        return trials

    def is_full_fidelity(self, trial: Trial) -> bool:
        return trial.scale == self.scale

    def stats(self) -> RunStats:
        """Aggregate run provenance across every fidelity runner (only
        the work done since this oracle adopted each runner), plus any
        service-side evaluations."""
        total = RunStats(executed=self._client_stats.executed,
                         memory_hits=self._client_stats.memory_hits,
                         disk_hits=self._client_stats.disk_hits)
        for scale, runner in self._runners.items():
            base = self._baselines[scale]
            total.executed += runner.stats.executed - base.executed
            total.memory_hits += runner.stats.memory_hits - base.memory_hits
            total.disk_hits += runner.stats.disk_hits - base.disk_hits
        return total
