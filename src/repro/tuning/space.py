"""The consolidation configuration space the tuner searches.

One :class:`Candidate` is a joint assignment of the four knobs PR 2 made
first-class:

* **consolidation strategy** — any registered
  :class:`~repro.compiler.strategies.base.ConsolidationStrategy` name, or
  ``None`` for the pragma's ``consldt`` clause (the paper's per-app
  choice);
* **delegation threshold** — the ``deg > threshold`` guard of the Fig. 1
  template, or ``None`` for the app's fixed default;
* **child launch configuration** — the paper's KC rule (default), a
  smaller block size under the KC rule, or Fig. 6's *1-1 mapping*
  baseline;
* **KC_X concurrency** — an explicit concurrency target ``X`` resolved to
  a static ``(B, T)`` via :func:`~repro.sim.occupancy.kc_config`,
  overriding the per-granularity default of §IV.E.

``None`` everywhere means "the paper's choice", so the all-``None``
candidate *is* the paper-default configuration — the tuner always
evaluates it, which is what makes "tuned is never worse than the paper
default" hold by construction.

Candidates are symbolic (no device spec baked in): they lower to a
:class:`~repro.experiments.plan.RunSpec` against a concrete
:class:`~repro.sim.specs.DeviceSpec` only at evaluation time, so the
same space tunes any simulated device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.occupancy import DEFAULT_BLOCK_THREADS, kc_config
from ..sim.specs import DeviceSpec


@dataclass(frozen=True)
class ConfigChoice:
    """One launch-configuration axis value (KC concurrency x block size).

    All-``None`` is the paper's KC rule; ``kc_x`` pins the concurrency
    target; ``threads`` pins the block size; ``one2one`` is the Fig. 6
    1-1 mapping baseline (mutually exclusive with ``kc_x``).
    """

    kc_x: Optional[int] = None
    threads: Optional[int] = None
    one2one: bool = False

    def __post_init__(self):
        if self.one2one and self.kc_x is not None:
            raise ValueError("one2one mapping does not take a KC_X target")
        if self.kc_x is not None and self.kc_x < 1:
            raise ValueError("kc_x must be >= 1")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass(frozen=True)
class Candidate:
    """One point of the joint configuration space (plain hashable data,
    so it JSON-round-trips through the tuned-config registry)."""

    strategy: Optional[str] = None
    threshold: Optional[int] = None
    kc_x: Optional[int] = None
    threads: Optional[int] = None
    one2one: bool = False

    def __post_init__(self):
        # same invariants as ConfigChoice: candidates may be built
        # directly (plugin search algorithms, tuned.json round trips),
        # so a contradictory combination must fail loudly here too
        if self.one2one and self.kc_x is not None:
            raise ValueError("one2one mapping does not take a KC_X target")
        if self.kc_x is not None and self.kc_x < 1:
            raise ValueError("kc_x must be >= 1")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be >= 1")

    def config_key(self, spec: DeviceSpec) -> Optional[tuple]:
        """The hashable :class:`~repro.experiments.plan.RunSpec.config`
        triple this candidate requests, resolved against a device."""
        if self.one2one:
            return ("one2one", None, self.threads)
        if self.kc_x is not None:
            blocks, threads = kc_config(
                spec, self.kc_x, self.threads or DEFAULT_BLOCK_THREADS)
            return ("explicit", blocks, threads)
        if self.threads is not None:
            return ("kc", None, self.threads)
        return None

    def run_spec(self, app: str, spec: DeviceSpec,
                 workload: Optional[str] = None):
        """Lower to a RunSpec (the generic ``consolidated`` variant; the
        runner canonicalizes built-in strategies onto their legacy
        variants, so candidate runs share cache entries with Figs. 7-10
        and the granularity ablation). ``workload`` pins the dataset the
        candidate is scored on (None: the app's default)."""
        from ..apps.common import CONS
        from ..experiments.plan import RunSpec

        return RunSpec(app=app, variant=CONS, strategy=self.strategy,
                       threshold=self.threshold,
                       config=self.config_key(spec), workload=workload)

    def describe(self) -> str:
        strat = self.strategy if self.strategy is not None else "pragma"
        thr = self.threshold if self.threshold is not None else "app-default"
        if self.one2one:
            cfg = "1-1 mapping"
        elif self.kc_x is not None:
            cfg = f"KC_{self.kc_x}"
            if self.threads is not None:
                cfg += f"/T{self.threads}"
        elif self.threads is not None:
            cfg = f"KC-rule/T{self.threads}"
        else:
            cfg = "KC-rule"
        return f"strategy={strat} threshold={thr} config={cfg}"


#: default delegation thresholds swept (None = the app's paper value;
#: the extremes bracket the "delegate everything"/"delegate nothing" ends
#: of the ablation_threshold trade-off)
DEFAULT_THRESHOLDS = (None, 2, 32, 128)

#: default launch-configuration choices (paper KC rule, pinned KC_X
#: targets, a narrower block under the KC rule, and the 1-1 baseline)
DEFAULT_CONFIGS = (
    ConfigChoice(),
    ConfigChoice(kc_x=1),
    ConfigChoice(kc_x=16),
    ConfigChoice(kc_x=32),
    ConfigChoice(threads=128),
    ConfigChoice(one2one=True),
)


@dataclass(frozen=True)
class TuningSpace:
    """The cross product of the four knob axes, enumerated in a fixed
    order so every search algorithm is deterministic for a given seed."""

    strategies: tuple = (None,)
    thresholds: tuple = DEFAULT_THRESHOLDS
    configs: tuple = DEFAULT_CONFIGS

    def __post_init__(self):
        for cfg in self.configs:
            if not isinstance(cfg, ConfigChoice):
                raise TypeError(f"configs must be ConfigChoice, got {cfg!r}")

    @classmethod
    def default(cls) -> "TuningSpace":
        """Strategy axis from the live registry (plugin strategies are
        swept automatically), plus the default threshold/config axes."""
        from ..compiler.strategies import available_strategies

        return cls(strategies=(None,) + tuple(available_strategies()))

    @classmethod
    def for_app(cls, app_key: str) -> "TuningSpace":
        """The default space, with the threshold axis dropped for apps
        whose template has no delegation guard
        (:attr:`~repro.apps.common.App.has_delegation_guard`, the
        parallel-recursion benchmarks) — sweeping it would only multiply
        cache keys over byte-identical executions."""
        from ..apps import get_app

        space = cls.default()
        if not get_app(app_key).has_delegation_guard:
            return cls(strategies=space.strategies, thresholds=(None,))
        return space

    def default_candidate(self) -> Candidate:
        """The paper-default configuration (every knob at its default)."""
        return Candidate()

    def candidates(self) -> list[Candidate]:
        """Every point, in deterministic axis-nested order."""
        return [
            Candidate(strategy=s, threshold=t, kc_x=c.kc_x,
                      threads=c.threads, one2one=c.one2one)
            for s in self.strategies
            for t in self.thresholds
            for c in self.configs
        ]

    def __len__(self) -> int:
        return (len(self.strategies) * len(self.thresholds)
                * len(self.configs))
