"""The unified run configuration — one value for every run axis.

The repo grew one axis per PR (variant, then strategy, then threshold,
then workload, then the executing engine), each threaded as its own
keyword through ``App.run``, :class:`~repro.experiments.plan.RunSpec`,
the experiment runner, the service wire format, and the CLI.
:class:`RunConfig` collapses them into one frozen, canonicalizing
value::

    cfg = RunConfig(variant="consolidated", strategy="warp", threshold=16)
    app.run(cfg, dataset=ds)                      # App entry point
    runner.run_config("sssp", cfg)                # cached runner entry
    RunSpec.from_config("sssp", cfg)              # plan/service entry

Canonicalization happens at construction, so two configs describing the
same run compare (and hash) equal: redundant (variant, strategy)
spellings collapse (``('consolidated', 'warp')`` == ``('warp-level',
None)``), the default engine folds onto ``None``, and a live
:class:`~repro.sim.occupancy.LaunchConfig` folds to its hashable triple.
The legacy per-axis keywords on ``App.run`` / ``ExperimentRunner.run``
remain as compatibility shims and lower onto the same code paths, so
every pre-existing cache key is preserved byte-for-byte (the
frozen-payload regression test in ``tests/test_run_config.py`` holds the
key function to it).

Workload references are deliberately *not* folded here: collapsing an
app's default workload onto ``None`` needs the app, which a RunConfig
does not name — the runner and ``App.run`` apply
:func:`repro.workloads.canonical_for_app` exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .apps.common import BASIC, canonicalize_variant


@dataclass(frozen=True)
class RunConfig:
    """Every axis of one application run, as canonical hashable data.

    ``config`` is the ``(mode, blocks, threads)`` launch-config triple
    (a live :class:`~repro.sim.occupancy.LaunchConfig` is accepted and
    folded); ``threshold=None`` means the app default, ``workload=None``
    the app's default dataset, ``engine=None`` the default engine
    (:mod:`repro.engines`).
    """

    variant: str = BASIC
    strategy: Optional[str] = None
    threshold: Optional[int] = None
    workload: Optional[str] = None
    engine: Optional[str] = None
    allocator: str = "custom"
    config: Optional[tuple] = None
    #: profiling hook, NOT a run axis: a path to write a Chrome trace
    #: of this run to (``repro.telemetry``). ``compare=False`` keeps it
    #: out of equality/hash, and :meth:`axes` skips it, so two configs
    #: differing only in ``trace`` share one cache entry and telemetry
    #: can never perturb a cache key.
    trace: Optional[str] = field(default=None, compare=False)
    #: deep-profiling hook, same contract as ``trace``: a path to write
    #: the per-kernel attribution profile of this run to as JSON
    #: (:mod:`repro.perf`). Structurally excluded from identity, so a
    #: profiled run shares its cache entry with the plain run and its
    #: ``RunMetrics`` are regression-tested bitwise identical.
    profile: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        variant, strategy = canonicalize_variant(self.variant, self.strategy)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "engine", canonical_engine(self.engine))
        config = self.config
        if config is not None and not isinstance(config, tuple):
            from .experiments.plan import RunSpec

            config = RunSpec.config_key(config)
        object.__setattr__(self, "config", config)
        if self.threshold is not None:
            object.__setattr__(self, "threshold", int(self.threshold))
        if self.trace is not None:
            import os

            object.__setattr__(self, "trace", os.fspath(self.trace))
        if self.profile is not None:
            import os

            object.__setattr__(self, "profile", os.fspath(self.profile))

    def describe(self) -> str:
        """Compact one-line spelling (CLI/report output)."""
        parts = [self.variant]
        for name in ("strategy", "threshold", "workload", "engine"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.allocator != "custom":
            parts.append(f"allocator={self.allocator}")
        if self.config is not None:
            parts.append(f"config={self.config}")
        return " ".join(parts)

    def axes(self) -> dict:
        """The axes as a plain dict (wire formats, logging).

        Only identity axes (``compare=True`` fields) appear: ``trace``
        and ``profile`` are observability hooks, not part of what the
        run *is*.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.compare}


def canonical_engine(engine: Optional[str]) -> Optional[str]:
    """Validate an engine name (:mod:`repro.engines`); the default folds
    onto ``None``, so naming it leaves every cache key unchanged. The
    one canonicalizer of the engine axis: RunConfig, the runner,
    ``App.run``, the service decoder and the CLI all call it."""
    if engine is None:
        return None
    from .engines import DEFAULT_ENGINE, get_engine

    name = get_engine(engine).name
    return None if name == DEFAULT_ENGINE else name
