"""The engine axis: what executes a run.

Every run executes on exactly one registered :class:`Engine`, which
builds the device the app's host driver talks to. Built-ins:

``vectorized``
    the simulator on the batched functional engine (the default;
    :data:`repro.sim.device.DEFAULT_ENGINE`);
``scalar``
    the simulator on the scalar reference engine, which the
    differential harness holds every other engine to;
``cpu``
    the NumPy interpreter :class:`repro.backends.CpuDevice`, an
    implementation not built on codegen, with no timing model.

The two simulator entries come from :data:`repro.sim.device.ENGINES`, so
a new functional engine there is a new entry here. Engines are named on
:class:`~repro.run_config.RunConfig` / ``RunSpec`` / ``App.run`` as
``engine=`` and on the CLI as ``repro run --engine``; the default folds
onto ``None`` (:func:`repro.run_config.canonical_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ReproError
from .registry import Registry
from .sim.device import DEFAULT_ENGINE, ENGINES as SIM_ENGINES, Device
from .sim.specs import CostModel, DEFAULT_COST_MODEL, DeviceSpec, K20C


class EngineError(ReproError, ValueError):
    """An engine name (or a deprecated spelling of one) is not known."""


@dataclass(frozen=True)
class Engine:
    """One registered executor."""

    name: str
    #: one-line description for ``repro list``
    summary: str
    #: ``(spec, cost, allocator, heap_bytes) -> device``: a fresh object
    #: with the :class:`~repro.sim.device.Device` facade
    factory: Callable[..., object]
    #: whether runs are priced by the timing model; only those feed the
    #: surrogate's training log
    timed: bool = True

    def make_device(self, spec: DeviceSpec = K20C,
                    cost: CostModel = DEFAULT_COST_MODEL,
                    allocator: str = "custom",
                    heap_bytes: Optional[int] = None):
        return self.factory(spec, cost, allocator, heap_bytes)


def _sim_factory(engine: str):
    def make(spec, cost, allocator, heap_bytes):
        extra = {} if heap_bytes is None else {"heap_bytes": heap_bytes}
        return Device(spec=spec, cost=cost, allocator=allocator,
                      engine=engine, **extra)
    return make


def _cpu_device(spec, cost, allocator, heap_bytes):
    from .backends.cpu import CpuDevice

    return CpuDevice(spec=spec, cost=cost, allocator=allocator,
                     heap_bytes=heap_bytes)


REGISTRY: Registry[Engine] = Registry("engine", Engine, error=EngineError)
register_engine = REGISTRY.register
unregister_engine = REGISTRY.unregister
get_engine = REGISTRY.get
available_engines = REGISTRY.names

for _name in sorted(SIM_ENGINES, key=lambda n: n != DEFAULT_ENGINE):
    register_engine(Engine(
        _name, f"the simulator on the {_name} functional engine"
        + (" (default)" if _name == DEFAULT_ENGINE else ""),
        _sim_factory(_name)))
register_engine(Engine(
    "cpu", "NumPy interpreter (independent semantics cross-check; no "
    "timing model)", _cpu_device, timed=False))


def engine_for(name: Optional[str]) -> Engine:
    """The engine a canonical name selects (``None``: the default)."""
    return get_engine(DEFAULT_ENGINE if name is None else name)


#: The engines' spellings from before the engine axis, when ``backend``
#: (sim|cpu) and ``oracle`` (sim|sim-scalar) both named the executor.
#: ``run_key`` writes a non-default engine under its (field, value)
#: here, so every store address written then is unchanged; engines
#: added later key as ``("engine", name)``. Read backwards, the table
#: lowers the deprecated ``--backend``/``--oracle`` flags and the v1
#: wire field ``oracle`` (``"sim"`` under either field is the default).
LEGACY_SPELLING = {"scalar": ("oracle", "sim-scalar"),
                   "cpu": ("backend", "cpu")}


def key_field(engine: str) -> tuple[str, str]:
    """The run-key payload entry of a non-default canonical engine."""
    return LEGACY_SPELLING.get(engine, ("engine", engine))


def from_legacy(field: str, value: Optional[str]) -> Optional[str]:
    """The engine a deprecated ``backend``/``oracle`` value names."""
    if value is None or value == "sim":
        return None
    for engine, spelling in LEGACY_SPELLING.items():
        if spelling == (field, value):
            return engine
    raise EngineError(
        f"{field} {value!r} names no engine; use engine= (available: "
        f"{', '.join(available_engines())})")
