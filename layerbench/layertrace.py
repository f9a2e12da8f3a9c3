"""Layer tracing from outside the program.

The benchmark wraps the public entry points of each layer of ``repro``
(the table :data:`LAYERS`) with :class:`LayerTracer` spans and puts every
wrapped attribute back afterwards. Spans nest on one stack, so a layer's
*self time* is its wall time minus the time of the child layers it
called; the traced pass's wall time minus all self time is what no layer
claims (``trace.other_s``).

Nothing here edits ``repro``'s source: module-level functions are
rebound in every ``repro`` module that imported them by name, methods
are replaced on their class. :class:`ProbeCounter` is kept apart: it is
the only wrapper on ``L2Cache.probe`` (millions of calls per pass), so
it runs in its own counting pass and never inside a timed one.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: layer -> what it wraps: ``("module", "repro.mod", "function")`` for a
#: function (rebound wherever it was imported by name) or
#: ``("class", "repro.mod", "Class.method")`` for a method. ``check`` is
#: wrapped on App *and* every registered app class that overrides it.
LAYERS = {
    "workloads": [("module", "repro.workloads.spec", "materialize_for_app")],
    "frontend": [("module", "repro.frontend.parser", "parse"),
                 ("module", "repro.frontend.typecheck", "check_module")],
    "compiler": [("module", "repro.compiler.pipeline", "consolidate_source")],
    "codegen": [("module", "repro.backend.codegen", "compile_module")],
    "engine": [("class", "repro.sim.device", "Device.launch")],
    "dp": [("class", "repro.sim.dp", "DPRuntime.handle_intrinsic"),
           ("class", "repro.sim.dp", "DPRuntime.push_many"),
           ("class", "repro.sim.dp", "DPRuntime.get_many"),
           ("class", "repro.sim.dp", "DPRuntime.size_many")],
    "cache": [("class", "repro.sim.cache", "MemorySystem.access_segments")],
    "timing": [("class", "repro.sim.timing", "DeviceScheduler.run")],
    "profiler": [("module", "repro.sim.profiler", "collect_metrics")],
    "verify": [("class", "repro.apps.common", "App.check")],
    "store": [("class", "repro.experiments.store", "ResultStore.get"),
              ("class", "repro.experiments.store", "ResultStore.put")],
    "runner": [("class", "repro.experiments.runner",
                "ExperimentRunner.prefetch"),
               ("class", "repro.experiments.runner",
                "ExperimentRunner.run_spec")],
    "tuning": [("class", "repro.tuning.tuner", "Tuner.tune")],
}

_MISSING = object()


class Patches:
    """Attribute replacements that are all undone by :meth:`restore`."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value) -> None:
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def rebind_function(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every loaded
        ``repro`` module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro"
                                   or modname.startswith("repro.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


class LayerTracer:
    """A span stack with per-layer self time, call counts and counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        #: extra per-layer counts, keyed ``"<layer>.<name>"``
        self.counts = Counter()
        self._stack = []

    def wrap(self, layer: str, fn, after=None):
        """``fn`` inside a ``layer`` span. A call made while ``layer`` is
        already the innermost span (an override calling ``super()``) is
        part of that span. ``after(args, result)`` runs inside the span."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            now = clock()
            if stack:
                top = stack[-1]
                self_s[top[0]] += now - top[1]
            frame = [layer, now]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                self_s[layer] += end - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] = end

        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, patches: Patches) -> None:
        """Wrap every entry point in :data:`LAYERS` (restored through
        ``patches``)."""
        import importlib

        from repro.apps import REGISTRY

        counts = self.counts

        def rows(n):
            return lambda args, result: counts.update(
                {"dp.batched_rows": n(args)} if result is not None else {})

        after = {
            "compile_module": lambda args, result: counts.update(
                {"codegen.out_bytes": len(result.python_source)}),
            "handle_intrinsic": lambda args, result: counts.update(
                {"dp.scalar_rows": 1}),
            "push_many": rows(lambda args: len(args[2])),
            "get_many": rows(lambda args: len(args[2])),
            "size_many": rows(lambda args: args[2]),
            "get": lambda args, result: counts.update(
                {"store.get_hits": result is not None}),
            "put": lambda args, result: counts.update({"store.puts": 1}),
        }
        for layer, targets in LAYERS.items():
            for kind, modname, attr in targets:
                mod = importlib.import_module(modname)
                if kind == "module":
                    fn = getattr(mod, attr)
                    patches.rebind_function(
                        fn, self.wrap(layer, fn, after.get(attr)))
                    continue
                clsname, method = attr.split(".")
                classes = [getattr(mod, clsname)]
                if method == "check":
                    classes += [type(app) for app in REGISTRY.values()
                                if "check" in vars(type(app))]
                for cls in classes:
                    fn = vars(cls)[method]
                    patches.set(cls, method,
                                self.wrap(layer, fn, after.get(method)))

    def attributed_s(self) -> float:
        return sum(self.self_s.values())


class ProbeCounter:
    """Counts ``L2Cache.probe`` calls and how many repeat the segment the
    same cache probed just before (what run-length folding would skip)."""

    def __init__(self):
        self.probes = 0
        self.repeats = 0

    def install(self, patches: Patches) -> None:
        from repro.sim.cache import L2Cache

        probe = vars(L2Cache)["probe"]
        last = [None, None]

        def counting_probe(cache, segment):
            self.probes += 1
            if last[0] is cache and last[1] == segment:
                self.repeats += 1
            last[0] = cache
            last[1] = segment
            return probe(cache, segment)

        patches.set(L2Cache, "probe", counting_probe)
