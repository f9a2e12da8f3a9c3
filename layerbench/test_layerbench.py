"""The benchmark's own tests: every workload at a tiny scale.

Run with ``PYTHONPATH=src python -m pytest layerbench -q``.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import lbsuite
from hostclock import REF_UNIT_S, HostClock
from layertrace import LAYERS, LayerTracer, Patches, ProbeCounter

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = 0.05


def tiny_workloads(tmp_path):
    return [
        lbsuite.CellWorkload("dp-consolidated", lbsuite.DP_CONSOLIDATED,
                             seed=0, scale=TINY),
        lbsuite.CellWorkload("dp-baselines", lbsuite.DP_BASELINES, seed=3,
                             scale=TINY),
        lbsuite.TuneWorkload(seed=0, tmp_root=tmp_path, apps=("th",),
                             budget=2),
    ]


def _originals():
    """Every attribute the tracer and the probe counter replace."""
    import importlib

    from repro.apps import REGISTRY
    from repro.sim.cache import L2Cache

    found = {("L2Cache", "probe"): vars(L2Cache)["probe"]}
    for app in REGISTRY.values():
        found[(type(app).__name__, "check")] = vars(type(app)).get("check")
    for targets in LAYERS.values():
        for kind, modname, attr in targets:
            mod = importlib.import_module(modname)
            if kind == "module":
                found[(modname, attr)] = getattr(mod, attr)
            else:
                cls, method = attr.split(".")
                found[(modname, attr)] = vars(getattr(mod, cls))[method]
    return found


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("layerbench")
    before = _originals()
    out = {}
    for workload in tiny_workloads(tmp):
        try:
            with HostClock() as clock:
                start = time.perf_counter()
                lbsuite.set_up(workload)
                setup = clock.seconds(start, time.perf_counter())
                timed = lbsuite.measure(workload, 0, False, [setup], clock)
            out[workload.name] = (timed, lbsuite.measure(workload, 0, True))
        finally:
            workload.close()
    return out, before, tmp


@pytest.mark.parametrize("name", ["dp-consolidated", "dp-baselines",
                                  "tune-sweep"])
def test_workload_emits_every_metric_correctly(measured, name):
    timed, traced = measured[0][name]
    assert timed.correct and traced.correct
    assert timed.attempted >= lbsuite.MIN_PASSES
    assert list(timed.metrics) == list(lbsuite.END_TO_END)
    assert list(traced.metrics) == list(lbsuite.PER_LAYER)
    for metric in (*timed.metrics, *traced.metrics):
        assert NAME.fullmatch(metric)
    assert all(value > 0 for value in timed.metrics.values())
    assert timed.passes["n"] == timed.walls["n"] >= lbsuite.MIN_PASSES
    assert 0 < traced.metrics["trace.coverage"] <= 1
    assert traced.metrics["trace.other_s"] >= 0


def test_layers_separate_the_workloads(measured):
    cons = measured[0]["dp-consolidated"][1].metrics
    base = measured[0]["dp-baselines"][1].metrics
    tune = measured[0]["tune-sweep"][1].metrics
    assert cons["dp.calls"] > 0 and cons["dp.batched_calls"] > 0
    assert base["dp.calls"] == 0 and base["dp.buffer_pushes"] == 0
    assert base["timing.instances"] > base["engine.host_launches"]
    assert cons["cache.probes"] > 0
    assert 0 < cons["cache.repeat_probe_ratio"] < 1
    assert tune["store.put_calls"] > 0 and tune["runner.executed"] > 0
    assert tune["store.get_hit_ratio"] > 0
    assert tune["tuning.tuned_gain"] >= 1.0
    assert cons["store.get_calls"] == 0 and cons["tuning.tuned_gain"] == 0


def test_wrappers_are_removed(measured):
    _, before, tmp = measured
    assert _originals() == before
    assert lbsuite.leftover_wrappers() == []
    # the tune-sweep scratch stores are gone
    assert not list(Path(tmp).glob(".layerbench-tune-*"))


def test_restore_after_an_exception():
    before = _originals()
    patches = Patches()
    try:
        LayerTracer().install(patches)
        ProbeCounter().install(patches)
        assert lbsuite.leftover_wrappers()
        raise RuntimeError("pass failed")
    except RuntimeError:
        pass
    finally:
        patches.restore()
    assert _originals() == before
    assert lbsuite.leftover_wrappers() == []


def test_self_time_excludes_child_layers():
    tracer = LayerTracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])
    import layertrace

    real = layertrace.time.perf_counter
    layertrace.time.perf_counter = lambda: next(clock)
    try:
        inner = tracer.wrap("dp", lambda: None)
        outer = tracer.wrap("engine", lambda: inner())
    finally:
        layertrace.time.perf_counter = real
    outer()
    assert tracer.self_s == {"engine": 8.0, "dp": 2.0}
    assert tracer.calls == {"engine": 1, "dp": 1}


def test_host_clock_rescales_by_the_unit_time():
    clock = HostClock()
    # one unit a second: the first five ran at half, the rest at
    # reference speed
    clock._starts[:] = [float(t) for t in range(10)]
    clock._durations[:] = [2 * REF_UNIT_S] * 5 + [REF_UNIT_S] * 5
    assert clock.seconds(0.0, 2.0) == pytest.approx(1.0)
    assert clock.seconds(8.0, 9.0) == pytest.approx(1.0)
    # before the first unit and after the last, that unit's speed holds
    assert clock.seconds(-1.0, 0.0) == pytest.approx(0.5)
    assert clock.seconds(9.0, 11.0) == pytest.approx(2.0)
    with HostClock() as running:
        time.sleep(0.1)
        now = time.perf_counter()
        assert running.seconds(now - 0.05, now) > 0
    assert not running._thread.is_alive()


def test_a_wrong_result_fails_the_run(monkeypatch):
    from repro.apps.spmv import SpMVApp

    monkeypatch.setattr(SpMVApp, "check", lambda self, result, dataset: False)
    workload = lbsuite.CellWorkload(
        "dp-consolidated", [("spmv", "grid-level"), ("th", "grid-level")],
        seed=0, scale=TINY)
    workload.materialize()
    m = lbsuite.measure(workload, 0, True)
    assert not m.correct
    assert m.failed == 3 and m.attempted == 6


def test_benchmark_json_matches_the_suite():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(lbsuite.WORKLOADS)
    for section, table in (("end_to_end", lbsuite.END_TO_END),
                           ("per_layer", lbsuite.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"])
                for m in spec[section]} == table
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
