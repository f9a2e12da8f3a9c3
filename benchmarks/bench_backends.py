"""CPU-engine bench: ``cpu`` vs simulator wall-clock, per app/variant.

The NumPy/multiprocessing CPU interpreter exists for *cross-checking* — it
replays the simulator's canonical schedule without the timing model, so
its only performance question is how much interpreter overhead the
differential harness pays per run. This bench times both engines on the
same datasets, asserts their functional results still match element for
element (a bench that silently diverged would be timing two different
computations), and reports the cpu/sim wall-clock ratio.

A second section times :func:`repro.backends.run_jobs` fan-out: the same
batch of independent :class:`~repro.backends.CpuJob` programs executed
in-process vs across worker processes.

Emits ``BENCH_backends.json`` through :mod:`_emit`::

    PYTHONPATH=src python benchmarks/bench_backends.py --scale 0.1
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _emit import emit_json

from repro.apps import BASIC, GRID, get_app
from repro.backends import CpuJob, run_jobs

#: the differential harness's hot pairs: the cheapest and the most
#: consolidation-heavy variant of two paper apps
CASES = [("sssp", BASIC), ("sssp", GRID), ("spmv", BASIC), ("spmv", GRID)]

_FANOUT_SRC = """
__global__ void scale_add(int* out, int n, int k) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { out[i] = out[i] * k + i; }
}
"""


def time_pairs(scale: float) -> dict:
    rows = {}
    for key, variant in CASES:
        app = get_app(key)
        dataset = app.default_dataset(scale)
        t0 = time.perf_counter()
        sim = app.run(variant, dataset=dataset, verify=False)
        t1 = time.perf_counter()
        cpu = app.run(variant, dataset=dataset, verify=False, engine="cpu")
        t2 = time.perf_counter()
        if not np.array_equal(sim.result, cpu.result):
            raise AssertionError(f"cpu engine diverged on {key} [{variant}]")
        rows[f"{key}:{variant}"] = {
            "sim_s": round(t1 - t0, 4),
            "cpu_s": round(t2 - t1, 4),
            "cpu_over_sim": round((t2 - t1) / max(t1 - t0, 1e-9), 2),
        }
    return rows


def time_fanout(jobs: int, processes: int) -> dict:
    batch = [
        CpuJob(
            source=_FANOUT_SRC,
            arrays={"out": np.arange(4096, dtype=np.int32)},
            launches=[("scale_add", 16, 256, ("out", 4096, j + 1))],
        )
        for j in range(jobs)
    ]
    t0 = time.perf_counter()
    serial = run_jobs(batch, processes=1)
    t1 = time.perf_counter()
    fanned = run_jobs(batch, processes=processes)
    t2 = time.perf_counter()
    for s, f in zip(serial, fanned):
        if not np.array_equal(s["out"], f["out"]):
            raise AssertionError("run_jobs fan-out changed results")
    return {
        "jobs": jobs,
        "processes": processes,
        "serial_s": round(t1 - t0, 4),
        "parallel_s": round(t2 - t1, 4),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scale", type=float, default=0.1,
                    help="dataset scale for the app pairs (default 0.1)")
    ap.add_argument("--jobs", type=int, default=8,
                    help="batch size for the run_jobs fan-out section")
    ap.add_argument("--processes", type=int, default=2,
                    help="worker processes for the fan-out section")
    args = ap.parse_args(argv)

    pairs = time_pairs(args.scale)
    fanout = time_fanout(args.jobs, args.processes)

    print(f"{'case':24s} {'sim':>8s} {'cpu':>8s} {'cpu/sim':>8s}")
    for case, row in pairs.items():
        print(f"{case:24s} {row['sim_s']:7.3f}s {row['cpu_s']:7.3f}s "
              f"{row['cpu_over_sim']:7.2f}x")
    print(f"run_jobs x{fanout['jobs']}: serial {fanout['serial_s']:.3f}s, "
          f"{fanout['processes']} procs {fanout['parallel_s']:.3f}s")

    path = emit_json("backends", {
        "scale": args.scale,
        "pairs": pairs,
        "fanout": fanout,
    })
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
