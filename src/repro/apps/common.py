"""Benchmark-application framework.

Every paper benchmark is an :class:`App` with:

* an **annotated basic-dp source** — the naive dynamic-parallelism CUDA of
  Fig. 1, carrying the ``#pragma dp`` directive. Run as-is, this *is* the
  paper's ``basic-dp`` baseline (directives are inert at runtime);
* a **flat source** — the ``no-dp`` baseline (inline serial inner loops);
* a **host driver** that uploads the dataset, launches kernels (looping
  until convergence where the algorithm iterates) and reads results back;
* a NumPy/SciPy **reference** and a **check** predicate.

Consolidated variants are *not hand-written*: they are produced by the
compiler from the annotated source (``variant_source``), and reuse the same
host driver because the transforms keep the parent kernel's name and
signature.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..compiler import consolidate_source
from ..compiler.consolidator import ConsolidationReport
from ..sim.device import Device
from ..sim.occupancy import LaunchConfig
from ..sim.profiler import RunMetrics
from ..sim.specs import CostModel, DEFAULT_COST_MODEL, DeviceSpec, K20C
from ..telemetry import span

#: variant identifiers, matching the paper's figure legends
BASIC = "basic-dp"
FLAT = "no-dp"
WARP = "warp-level"
BLOCK = "block-level"
GRID = "grid-level"

#: the generic consolidated variant: which granularity is applied comes
#: from the ``strategy`` axis (a registered consolidation strategy name;
#: None means the pragma's ``consldt`` clause decides)
CONS = "consolidated"

#: the autotuned variant: resolved through the tuned-config registry
#: (``repro tune`` / :mod:`repro.tuning`) onto a concrete consolidated
#: configuration before anything executes — apps never see it
TUNED = "tuned"

VARIANTS = (BASIC, FLAT, WARP, BLOCK, GRID)
CONSOLIDATED = {WARP: "warp", BLOCK: "block", GRID: "grid"}
#: built-in strategy name -> its legacy per-granularity variant label
VARIANT_FOR_STRATEGY = {gran: variant for variant, gran in CONSOLIDATED.items()}


def canonicalize_variant(variant: str,
                         strategy: Optional[str]) -> tuple[str, Optional[str]]:
    """Collapse redundant (variant, strategy) pairs to one spelling.

    ``("consolidated", "warp")`` and ``("warp-level", None)`` request the
    same run; canonicalizing to the legacy variant keeps one cache entry
    (and one figure label) per distinct execution, while strategies
    outside the built-in three stay on the generic variant. Contradictory
    pairs (a per-granularity variant with a *different* strategy, or a
    strategy on basic-dp/no-dp) are rejected.
    """
    if variant == CONS:
        legacy = VARIANT_FOR_STRATEGY.get(strategy)
        if legacy is not None:
            return legacy, None
        return variant, strategy
    if strategy is not None:
        expected = CONSOLIDATED.get(variant)
        if expected is None:
            raise ValueError(
                f"variant {variant!r} does not take a consolidation "
                f"strategy (got {strategy!r})")
        if strategy != expected:
            raise ValueError(
                f"variant {variant!r} contradicts strategy {strategy!r}; "
                f"use variant 'consolidated' to select a strategy")
        return variant, None
    return variant, None


@dataclass
class AppRun:
    """Result of one measured application run."""

    app: str
    variant: str
    dataset: str
    metrics: RunMetrics
    result: np.ndarray
    report: Optional[ConsolidationReport] = None
    checked: bool = False
    #: consolidation strategy, when the variant alone doesn't imply one
    #: (i.e. a non-builtin strategy ran under the 'consolidated' variant)
    strategy: Optional[str] = None
    #: engine the run executed on (:mod:`repro.engines`); None = the
    #: default
    engine: Optional[str] = None

    def __setstate__(self, state: dict) -> None:
        # runs pickled before the engine axis carry ``backend`` and
        # ``oracle`` attributes instead; lower them onto ``engine``
        if "engine" not in state:
            from ..engines import from_legacy

            state = dict(state)
            backend = state.pop("backend", None)
            oracle = state.pop("oracle", None)
            state["engine"] = (from_legacy("backend", backend)
                               or from_legacy("oracle", oracle))
        self.__dict__.update(state)


class App(abc.ABC):
    """One paper benchmark. Subclasses provide sources and the host driver."""

    #: short key ('sssp') and figure label ('SSSP')
    key: str = ""
    label: str = ""
    #: default work-delegation threshold for irregular-loop apps
    threshold: int = 8
    #: whether the template guards delegation with ``deg > threshold``
    #: (Fig. 1(b)); False for the parallel-recursion apps, whose runs are
    #: threshold-independent (the tuner drops the axis — DESIGN.md §11)
    has_delegation_guard: bool = True
    #: dataset kind the host driver consumes ('graph' | 'tree'); the
    #: runner refuses workloads of the other kind up front
    kind: str = "graph"
    #: whether the algorithm relies on an undirected (symmetrized) graph
    #: (GC's independent-set argument, BFS-Rec's level check); asymmetric
    #: workloads are rejected before anything executes
    requires_symmetric: bool = False
    #: whether the algorithm recurses once per dataset level (BFS-Rec):
    #: workloads declared ``deep`` would exceed the device's DP nesting
    #: limit and are rejected before anything executes
    requires_shallow: bool = False
    #: canonical workload reference this app runs when none is requested
    #: (the paper's dataset for the benchmark); ``--workload`` spellings
    #: equal to this canonicalize onto ``None``, so the workload axis
    #: leaves every pre-existing cache key unchanged (DESIGN.md §12)
    default_workload: str = ""

    # -- sources -------------------------------------------------------------

    @abc.abstractmethod
    def annotated_source(self) -> str:
        """Basic-dp CUDA annotated with #pragma dp (Fig. 1 template)."""

    @abc.abstractmethod
    def flat_source(self) -> str:
        """Flat (no-dp) CUDA."""

    def variant_source(self, variant: str,
                       config: Optional[LaunchConfig] = None,
                       spec: DeviceSpec = K20C,
                       strategy: Optional[str] = None
                       ) -> tuple[str, Optional[ConsolidationReport]]:
        """Source text + consolidation report for a variant.

        ``strategy`` names a registered consolidation strategy; it is
        only meaningful with the ``consolidated`` variant (or, redundantly,
        with the matching per-granularity variant).
        """
        variant, strategy = canonicalize_variant(variant, strategy)
        if variant == TUNED:
            raise ValueError(
                "variant 'tuned' is resolved through the tuned-config "
                "registry, not compiled directly; use `repro run <app> "
                "tuned` or an ExperimentRunner with a tuned registry "
                "(see repro.tuning)")
        if variant == BASIC:
            return self.annotated_source(), None
        if variant == FLAT:
            return self.flat_source(), None
        if variant == CONS:
            # non-builtin (or pragma-default) strategy
            res = consolidate_source(self.annotated_source(),
                                     granularity=strategy,
                                     config=config, spec=spec)
            return res.source, res.report
        gran = CONSOLIDATED.get(variant)
        if gran is None:
            raise ValueError(f"unknown variant {variant!r}")
        res = consolidate_source(self.annotated_source(), granularity=gran,
                                 config=config, spec=spec)
        return res.source, res.report

    # -- dataset + driver ------------------------------------------------------

    def default_dataset(self, scale: float = 1.0):
        """The dataset the paper uses for this benchmark (scaled):
        :attr:`default_workload` materialized through the registry."""
        from ..workloads import materialize

        return materialize(self.default_workload, scale)

    @abc.abstractmethod
    def host_run(self, device: Device, program, dataset, variant: str) -> np.ndarray:
        """Upload, launch (loop as needed) and return the result array.

        Must work unchanged for BASIC and all consolidated variants (the
        transforms preserve the parent kernel interface); FLAT drivers may
        branch on ``variant``.
        """

    # -- verification -----------------------------------------------------------

    @abc.abstractmethod
    def reference(self, dataset) -> np.ndarray:
        """Ground-truth result computed with NumPy/SciPy."""

    def check(self, result: np.ndarray, dataset) -> bool:
        """Default check: exact match against the reference."""
        return np.array_equal(result, self.reference(dataset))

    # -- measured execution ------------------------------------------------------

    def run(self, variant, dataset=None, *, scale: float = 1.0,
            allocator: str = "custom", config: Optional[LaunchConfig] = None,
            spec: DeviceSpec = K20C, cost: CostModel = DEFAULT_COST_MODEL,
            heap_bytes: Optional[int] = None, verify: bool = True,
            threshold: Optional[int] = None,
            strategy: Optional[str] = None,
            engine: Optional[str] = None) -> AppRun:
        """Execute one configuration on a fresh device and profile it.

        The first argument is either a variant name with the per-axis
        keywords below (the compatibility shim), or a unified
        :class:`repro.run_config.RunConfig` carrying every axis at once
        (the preferred spelling; per-axis keywords may not be combined
        with it).

        ``threshold`` overrides the app's work-delegation threshold for
        this run only (the ablation harness sweeps it); ``strategy``
        selects the consolidation strategy for the ``consolidated``
        variant; ``engine`` names a registered engine
        (:mod:`repro.engines`; ``None`` = the default). The
        returned :class:`AppRun` is plain picklable data, so the
        experiment runner can execute runs in worker processes and
        persist them in its on-disk result store.
        """
        from ..engines import engine_for
        from ..run_config import RunConfig, canonical_engine

        trace_path = None
        profile_path = None
        if isinstance(variant, RunConfig):
            cfg = variant
            trace_path = cfg.trace
            profile_path = cfg.profile
            clashing = [name for name, value in (
                ("threshold", threshold), ("strategy", strategy),
                ("engine", engine),
            ) if value is not None]
            if clashing or allocator != "custom" or config is not None:
                clashing += ([] if allocator == "custom" else ["allocator"])
                clashing += ([] if config is None else ["config"])
                raise ValueError(
                    "a RunConfig already carries every axis; drop the "
                    f"per-axis keyword(s) {', '.join(clashing)}")
            variant, strategy = cfg.variant, cfg.strategy
            threshold, engine = cfg.threshold, cfg.engine
            allocator = cfg.allocator
            if cfg.config is not None:
                mode, blocks, threads = cfg.config
                config = LaunchConfig(mode=mode, blocks=blocks,
                                      threads=threads, spec=spec)
            if dataset is None and cfg.workload is not None:
                from ..workloads import materialize_for_app

                dataset = materialize_for_app(self, cfg.workload, scale)
        variant, strategy = canonicalize_variant(variant, strategy)
        engine = canonical_engine(engine)
        if dataset is None:
            dataset = self.default_dataset(scale)
        from contextlib import ExitStack

        tracer = None
        collector = None
        with ExitStack() as stack:
            if trace_path is not None:
                # RunConfig(trace=...): a run-scoped tracer, written out
                # after the run. Purely observational — nothing below
                # reads it, so results and cache keys cannot shift.
                from ..telemetry import Tracer, tracing

                tracer = Tracer()
                stack.enter_context(tracing(tracer))
                stack.enter_context(span("app.run", app=self.key,
                                         variant=variant))
            if profile_path is not None:
                # RunConfig(profile=...): same never-perturb contract as
                # trace — the collector only observes the engines, and
                # the profile is written after the run completes.
                from ..perf import profiling

                collector = stack.enter_context(profiling())
            original_threshold = self.threshold
            if threshold is not None:
                self.threshold = threshold
            try:
                source, report = self.variant_source(
                    variant, config=config, spec=spec, strategy=strategy)
                device = engine_for(engine).make_device(
                    spec=spec, cost=cost, allocator=allocator,
                    heap_bytes=heap_bytes)
                program = device.load(source)
                result = self.host_run(device, program, dataset, variant)
                metrics = device.synchronize()
            finally:
                self.threshold = original_threshold
            checked = False
            if verify:
                with span("app.verify", app=self.key):
                    good = self.check(result, dataset)
                if not good:
                    raise AssertionError(
                        f"{self.label} [{variant}] produced a wrong result "
                        f"on {getattr(dataset, 'name', dataset)}"
                    )
                checked = True
        if tracer is not None:
            from ..telemetry import write_chrome_trace

            write_chrome_trace(trace_path, tracer)
        if collector is not None:
            from ..perf.report import build_profile, write_profile

            write_profile(profile_path, build_profile(
                collector, label=f"{self.key} {variant}"))
        return AppRun(
            app=self.key, variant=variant,
            dataset=getattr(dataset, "name", str(dataset)),
            metrics=metrics, result=result, report=report, checked=checked,
            strategy=strategy, engine=engine,
        )


#: populated by repro.apps.__init__
REGISTRY: dict[str, App] = {}


def register(app_cls):
    """Class decorator: instantiate and register an App."""
    app = app_cls()
    if not app.key or not app.label:
        raise ValueError(f"{app_cls.__name__} must define key and label")
    if not app.default_workload:
        raise ValueError(
            f"{app_cls.__name__} must name a default_workload (a "
            "repro.workloads registry reference)")
    REGISTRY[app.key] = app
    return app_cls


def get_app(key: str) -> App:
    return REGISTRY[key]


def all_apps() -> list[App]:
    return [REGISTRY[k] for k in sorted(REGISTRY)]
