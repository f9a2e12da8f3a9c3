"""Work plans: declarative run matrices for the experiment harnesses.

Each figure module declares the set of application executions it needs as
a list of :class:`RunSpec` values (its ``plan()`` function). Plans are
plain data, so ``repro all`` can take the *union* of every requested
figure's plan, deduplicate it, and hand the whole batch to
:meth:`repro.experiments.runner.ExperimentRunner.prefetch` for parallel
dispatch — the figures then render against a warm cache and never trigger
a simulation themselves.

A :class:`RunSpec` is deliberately hashable plain data (no live
:class:`~repro.sim.occupancy.LaunchConfig` or dataset objects) so it can
serve directly as the in-memory cache key and be shipped to worker
processes; see DESIGN.md §8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..sim.occupancy import LaunchConfig
from ..sim.specs import CostModel, DeviceSpec


@dataclass(frozen=True)
class RunSpec:
    """One application execution, as plain hashable data.

    ``config`` is the ``(mode, blocks, threads)`` triple of a
    :class:`LaunchConfig` (the spec field is supplied by the runner);
    ``cost`` / ``threshold`` of ``None`` mean "the runner's / the app's
    default" and are filled in by the runner when the spec is resolved.
    ``strategy`` names a registered consolidation strategy for the
    ``'consolidated'`` variant; the runner canonicalizes built-in
    strategies onto their legacy per-granularity variants
    (:func:`repro.apps.common.canonicalize_variant`), so
    ``('consolidated', strategy='warp')`` and ``('warp-level', None)``
    share one cache entry.

    ``workload`` is a :mod:`repro.workloads` registry reference naming
    the dataset to run on (``None`` means the app's default); the runner
    canonicalizes references (parameter spellings collapse) and folds
    the app's own default workload onto ``None``, so the axis preserves
    every pre-existing cache key. ``dataset`` names a dataset explicitly
    registered on the runner (:meth:`ExperimentRunner.register_dataset`,
    e.g. Fig. 6's tree datasets) — at most one of the two may be set.

    ``engine`` names a registered engine (:mod:`repro.engines`) that
    executes the run; ``None`` means the default, which an explicit
    ``'vectorized'`` folds onto, so default-engine cache keys are the
    ones written before the axis existed.
    """

    app: str
    variant: str
    allocator: str = "custom"
    config: Optional[tuple] = None
    dataset: Optional[str] = None
    cost: Optional[CostModel] = None
    threshold: Optional[int] = None
    strategy: Optional[str] = None
    workload: Optional[str] = None
    engine: Optional[str] = None

    @classmethod
    def from_config(cls, app: str, config: "object",
                    dataset: Optional[str] = None,
                    cost: Optional[CostModel] = None) -> "RunSpec":
        """Lift a :class:`repro.run_config.RunConfig` onto a spec for
        one app (the unified entry point the runner/service/CLI share)."""
        return cls(app=app, variant=config.variant,
                   allocator=config.allocator, config=config.config,
                   dataset=dataset, cost=cost,
                   threshold=config.threshold, strategy=config.strategy,
                   workload=config.workload, engine=config.engine)

    @staticmethod
    def config_key(config: Optional[LaunchConfig]) -> Optional[tuple]:
        """Collapse a LaunchConfig to its hashable identity."""
        if config is None:
            return None
        return (config.mode, config.blocks, config.threads)

    def launch_config(self, spec: DeviceSpec) -> Optional[LaunchConfig]:
        """Rebuild the live LaunchConfig against a device spec."""
        if self.config is None:
            return None
        mode, blocks, threads = self.config
        return LaunchConfig(mode=mode, blocks=blocks, threads=threads,
                            spec=spec)


class WorkPlan:
    """An ordered, duplicate-free collection of :class:`RunSpec`.

    Insertion order is preserved so serial execution visits runs in the
    order the figures declared them — parallel execution merges results
    by key, so completion order never affects output.
    """

    def __init__(self, specs: Iterable[RunSpec] = ()):
        self._specs: dict[RunSpec, None] = {}
        self.extend(specs)

    def add(self, spec: RunSpec) -> None:
        self._specs.setdefault(spec, None)

    def extend(self, specs: Iterable[RunSpec]) -> None:
        for spec in specs:
            self.add(spec)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, spec: RunSpec) -> bool:
        return spec in self._specs

    def __repr__(self) -> str:
        return f"WorkPlan({len(self)} runs)"


def union(plans: Iterable[Iterable[RunSpec]]) -> WorkPlan:
    """Union several plans (or bare RunSpec iterables), deduplicated."""
    out = WorkPlan()
    for plan in plans:
        out.extend(plan)
    return out
