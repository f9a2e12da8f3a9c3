"""The repository benchmark: one command, every metric, every output checked.

Run from the repository root::

    python3 layerbench/run.py --workload dp-consolidated --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` runs a traced pass and prints the per-layer metrics.
Host times (``pass_s``, ``setup_s``) are in reference seconds: wall
seconds rescaled by the host's measured speed (see hostclock.py).
``--workload all`` runs every workload both ways in this one process
and prints both sets, as ``<workload>.<metric>``. Each metric
is printed as ``name value unit``; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every run verified against its NumPy/SciPy reference and
every repeated run reproduced its ``RunMetrics`` exactly.
``--emit DIR`` also writes each result as ``BENCH_layerbench-<workload>
[-trace].json`` in the ``benchmarks/_emit.py`` envelope, for ``repro
perf ingest``.

The benchmark needs the repository's ``src/`` beside this directory and
fails (exit 2, no result) without it. See README.md here for the
workloads, the metrics and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from hostclock import HostClock, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up is measured in this many fresh processes
SETUP_PROBES = 3
#: where tune-sweep keeps its scratch result stores (removed after use)
TMP_ROOT = ROOT


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["dp-consolidated", "dp-baselines", "tune-sweep",
                            "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="dataset seed offset; 0 is each app's paper dataset")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long the untraced passes run (at least "
                        "two passes are made)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--emit", metavar="DIR",
                   help="also write a BENCH_*.json envelope into DIR")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up reference seconds of a fresh process: imports, datasets,
    warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


def _run_one(name, seed, seconds, trace, lbsuite):
    # the probes run first, while this process's host clock is not
    # sampling on the CPU they share
    setup = ([] if trace else
             [_setup_probe(name, seed) for _ in range(SETUP_PROBES)])
    workload = lbsuite.make_workload(name, seed, TMP_ROOT)
    try:
        if trace:
            lbsuite.set_up(workload)
            return lbsuite.measure(workload, seconds, True)
        with HostClock() as clock:
            lbsuite.set_up(workload)
            return lbsuite.measure(workload, seconds, False, setup, clock)
    finally:
        workload.close()


def _print_measurement(m, units) -> None:
    print(f"== {m.workload}: {m.failed}/{m.attempted} failed "
          f"(failed_ratio {m.failed / m.attempted:.4f})")
    for name, value in m.metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name][0]}")
    for label, stats in (("pass_s (reference s)", m.passes),
                         ("pass wall (host s)", m.walls)):
        if stats:
            print(f"  {label}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in stats.items()))


def main(argv=None) -> int:
    start = time.perf_counter()
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(src))
    if args.setup_probe:
        with HostClock() as clock:
            import lbsuite

            workload = lbsuite.make_workload(args.workload, args.seed,
                                             TMP_ROOT)
            try:
                lbsuite.set_up(workload)
                print(clock.seconds(start, time.perf_counter()))
            finally:
                workload.close()
        return 0
    import lbsuite

    if args.workload == "all":
        plan = [(name, trace) for name in lbsuite.WORKLOADS
                for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    units = {**lbsuite.END_TO_END, **lbsuite.PER_LAYER}
    results = []
    for name, trace in plan:
        m = _run_one(name, args.seed, args.seconds, trace, lbsuite)
        _print_measurement(m, units)
        results.append(m)
        if args.emit:
            sys.path.insert(0, str(ROOT / "benchmarks"))
            from _emit import emit_json

            emit_json(f"layerbench-{name}" + ("-trace" if trace else ""), {
                "workload": name, "seed": args.seed, "trace": int(trace),
                "attempted": m.attempted, "failed": m.failed,
                "failed_ratio": m.failed / m.attempted,
                "metrics": m.metrics, "pass_s_samples": m.passes,
                "pass_wall_samples": m.walls,
            }, args.emit)

    def key(m, metric):
        return metric if len(results) == 1 else f"{m.workload}.{metric}"

    attempted = sum(m.attempted for m in results)
    failed = sum(m.failed for m in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key(m, metric): {"value": value,
                                     "unit": units[metric][0]}
                    for m in results for metric, value in m.metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
