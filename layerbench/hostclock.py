"""A clock that reads host time at a fixed reference speed.

On a machine whose cores are shared with other tenants, the speed of a
core drifts by a quarter and more over minutes, with what the neighbours
run. A pass of the same workload then takes 12 s in one minute and 17 s
in the next, and no statistic over one run can take that out.

:class:`HostClock` measures the host's speed while the benchmark runs. A
background thread on the benchmark's own CPU runs a fixed pure-Python
loop (one *unit*) about every :data:`PERIOD_S` seconds and records how
long each unit took. A unit does what the simulator's inner loops do:
attribute loads, list indexing, integer arithmetic and dict stores.
:meth:`HostClock.seconds` rescales a wall interval by the speed the
units saw during it: each stretch between two units counts
``REF_UNIT_S / unit time`` times its length. The result is the
interval's length in *reference seconds*, the wall seconds it would
have taken on a host that runs one unit in exactly :data:`REF_UNIT_S`.

The units are pure bytecode, independent of the program under test: a
change to the program moves the reference seconds it takes, never the
reference. The sampler costs the benchmark about a tenth of its CPU,
the same on every run.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

#: how many times one unit walks :data:`_ITEMS`
UNIT_ROUNDS = 16
#: the seconds one unit takes at reference speed (about an uncontended
#: 2.0 GHz Xeon vCPU running CPython 3.11)
REF_UNIT_S = 0.8e-3
#: the pause between two units
PERIOD_S = 0.008
#: each unit's time is the median of this many neighbouring units
SMOOTH = 5


class _Item:
    __slots__ = ("key", "values")

    def __init__(self, key: int):
        self.key = key
        self.values = [key, key + 1]


_ITEMS = [_Item(key) for key in range(512)]


def _unit() -> int:
    table = {}
    for step in range(UNIT_ROUNDS):
        for item in _ITEMS:
            table[item.key] = item.values[step & 1] * step + item.key % 7
    return len(table)


def pin_to_one_cpu() -> None:
    """Keep this process, and every thread and process it starts later,
    on one CPU, so that the sampler and the work it rescales share the
    core whose speed is measured."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostClock:
    """Samples the host's speed from ``__enter__`` to ``__exit__``."""

    def __init__(self):
        self._starts: list = []
        self._durations: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="hostclock", daemon=True)

    def __enter__(self) -> "HostClock":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            _unit()
            self._durations.append(time.perf_counter() - start)
            self._starts.append(start)

    def seconds(self, t0: float, t1: float) -> float:
        """The wall interval ``[t0, t1]`` (``time.perf_counter`` values)
        in reference seconds. A stretch before the first unit or after
        the last is priced at that unit's speed."""
        # the sampler appends a unit's duration before its start, so the
        # first n durations are complete whenever n starts are
        n = len(self._starts)
        if n == 0:
            raise RuntimeError("the host clock has taken no sample yet")
        starts, durations = self._starts[:n], self._durations[:n]
        first = bisect.bisect_right(starts, t0)
        last = bisect.bisect_left(starts, t1)
        cuts = [t0, *starts[first:last], t1]
        total = 0.0
        for k in range(len(cuts) - 1):
            i = min(max(first - 1 + k, 0), n - 1)
            lo = max(i - SMOOTH // 2, 0)
            unit_s = statistics.median(durations[lo:lo + SMOOTH])
            total += (cuts[k + 1] - cuts[k]) * REF_UNIT_S / unit_s
        return total
