"""Surrogate-tune bench: exhaustive grid vs surrogate-assisted halving.

Three tunes of the same bounded space, each against a fresh result
store (so every executed count is real simulations, not cache hits):

1. **grid** — every candidate at full fidelity: the ground-truth
   winner, and the most simulations;
2. **halving-sim** — successive halving with the simulation oracle:
   fewer simulations, same winner class;
3. **halving-surrogate** — successive halving with the learned
   surrogate as prefilter, trained on the grid run's training log: the
   cheap rungs are answered by prediction (zero simulations), only the
   final rung simulates. Strictly fewer simulations than halving-sim,
   and the reported winner is always a full-fidelity simulated trial.

The bench asserts tuned-quality parity (the surrogate tune's winner
value must match the grid winner's within ``--quality-rtol``) and
reports the surrogate's rank correlation against the grid's
full-fidelity values — the number that says the model orders candidates
like the simulator does.

Emits ``BENCH_surrogate_tune.json`` through :mod:`_emit`::

    PYTHONPATH=src python benchmarks/bench_surrogate_tune.py --scale 0.15
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from _emit import emit_json

from repro.apps import CONS, get_app
from repro.apps.common import canonicalize_variant
from repro.experiments import ResultStore
from repro.oracle import (SurrogateModel, TrainingLog, cost_fingerprint,
                          spearman)
from repro.sim.specs import DEFAULT_COST_MODEL, K20C
from repro.tuning import ConfigChoice, Tuner, TuningSpace, get_objective

#: bounded space (24 candidates) keeping three full tunes in bench time
SPACE = TuningSpace(strategies=(None, "warp", "grid"),
                    thresholds=(None, 8, 32, 128),
                    configs=(ConfigChoice(), ConfigChoice(kc_x=1)))


def _tune(app, scale, root, algorithm, prefilter=None, training_log=None):
    tuner = Tuner(scale=scale, store=ResultStore(root), prefilter=prefilter,
                  training_log=training_log)
    t0 = time.perf_counter()
    result = tuner.tune(app, "cycles", algorithm=algorithm, space=SPACE)
    seconds = time.perf_counter() - t0
    return result, {
        "seconds": round(seconds, 2),
        "executed": result.stats.executed,
        "best_value": result.best.value,
        "best": result.config.describe()
        if hasattr(result.config, "describe") else str(result.best.candidate),
    }


def _rank_correlation(app, grid_result, log, scale):
    """Spearman between the model's predictions and the grid's true
    full-fidelity values, over the whole space."""
    objective = get_objective("cycles")
    rows = log.rows(app=app, device=K20C.name,
                    cost_fp=cost_fingerprint(DEFAULT_COST_MODEL),
                    verify=True)
    model = SurrogateModel.fit(rows, objective,
                               default_threshold=get_app(app).threshold)
    if model is None:
        return float("nan"), 0
    axes, truth = [], []
    for trial in grid_result.trials:
        cand = trial.candidate
        variant, strategy = canonicalize_variant(CONS, cand.strategy)
        axes.append((variant, strategy, cand.threshold,
                     cand.config_key(K20C)))
        truth.append(trial.value)
    predicted = model.predict_axes(axes, scale)
    return float(spearman(predicted, truth)), model.n_rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--app", default="sssp")
    ap.add_argument("--scale", type=float, default=0.15,
                    help="dataset scale (must exceed the 0.05 rung floor "
                         "or every rung is full fidelity)")
    ap.add_argument("--quality-rtol", type=float, default=0.05,
                    help="allowed relative gap between the surrogate "
                         "tune's winner and the grid winner")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-surrogate-") as tmp:
        tmp = Path(tmp)
        grid_result, grid = _tune(args.app, args.scale, tmp / "grid",
                                  "grid")
        warm_log = TrainingLog.for_store(ResultStore(tmp / "grid"))

        _, halving = _tune(args.app, args.scale, tmp / "halving", "halving")

        surr_result, surrogate = _tune(
            args.app, args.scale, tmp / "surrogate", "halving",
            prefilter="surrogate", training_log=warm_log)

        rho, train_rows = _rank_correlation(args.app, grid_result, warm_log,
                                            args.scale)

    # the tuner's winner is always a full-fidelity simulated trial; hold
    # it to the exhaustive baseline
    gap = abs(surrogate["best_value"] - grid["best_value"]) / \
        max(grid["best_value"], 1e-9)
    if gap > args.quality_rtol:
        raise AssertionError(
            f"surrogate tune lost quality: {surrogate['best_value']} vs "
            f"grid {grid['best_value']} (gap {gap:.1%})")
    if surrogate["executed"] >= halving["executed"]:
        raise AssertionError(
            f"surrogate did not save simulations: {surrogate['executed']}"
            f" >= {halving['executed']}")

    for name, row in (("grid", grid), ("halving-sim", halving),
                      ("halving-surrogate", surrogate)):
        print(f"{name:<19} {row['seconds']:>7.2f}s "
              f"{row['executed']:>4} executed  best={row['best_value']}")
    print(f"quality gap vs grid: {gap:.2%}; "
          f"rank correlation (n={train_rows} rows): {rho:.3f}")

    path = emit_json("surrogate_tune", {
        "app": args.app,
        "scale": args.scale,
        "space_size": SPACE.size() if hasattr(SPACE, "size")
        else len(list(SPACE.candidates())),
        "grid": grid,
        "halving_sim": halving,
        "halving_surrogate": surrogate,
        "quality_gap": round(gap, 4),
        "rank_correlation": round(rho, 4),
        "train_rows": train_rows,
        "tune_speedup_vs_grid": round(
            grid["seconds"] / max(surrogate["seconds"], 1e-9), 1),
        "sims_saved_vs_grid": grid["executed"] - surrogate["executed"],
    })
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
