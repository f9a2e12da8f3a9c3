"""The learned surrogate oracle: ridge regression over run axes.

The tuner's multi-fidelity searches (successive halving) spend their
cheap rungs *ranking* candidates — the absolute score only matters at
the final full-fidelity rung, where the simulator confirms the winner.
A surrogate therefore only has to rank well to be useful, which a small
linear model over engineered configuration features achieves from a few
dozen logged runs.

Implementation notes:

* **Pure NumPy.** Ridge regression is a closed-form solve
  (``(XᵀX + λI) w = Xᵀy`` over standardized features), so no learning
  framework is needed and predictions are exactly reproducible.
* **Log-space targets.** Cycle and DRAM counts span orders of magnitude
  across dataset scales; training on ``log1p`` linearizes the scale
  axis. Maximized ratio objectives (warp efficiency) train raw.
* **Honest fallback.** Below :data:`MIN_TRAIN_ROWS` usable rows the
  model refuses to fit, and :class:`SurrogateOracle` transparently
  delegates to its embedded simulation oracle — a cold store tunes
  exactly like a tune without the prefilter, never off a garbage model.

:class:`SurrogateOracle` implements the scorer contract of
:class:`repro.tuning.oracle.SimulationOracle` (``evaluate`` /
``is_full_fidelity`` / ``stats``), so every registered search algorithm
works unmodified: reduced-fidelity rungs are answered by prediction
(zero simulations), full-fidelity evaluations always go to the
simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..apps.common import BASIC, BLOCK, CONS, FLAT, GRID, WARP
from ..telemetry import span
from .training import TrainingLog, cost_fingerprint

#: fewest usable training rows before the model consents to fit;
#: below this the surrogate oracle falls back to pure simulation
MIN_TRAIN_ROWS = 8

#: L2 penalty on the standardized design matrix
RIDGE_LAMBDA = 1e-3

#: canonical variant spellings the one-hot encoding distinguishes
#: (non-builtin strategies share the generic ``consolidated`` bucket)
_VARIANT_KEYS = (BASIC, FLAT, WARP, BLOCK, GRID, CONS)

#: launch-config modes (:meth:`repro.tuning.space.Candidate.config_key`)
_CONFIG_MODES = ("one2one", "explicit", "kc")


def _features(variant: str, strategy: Optional[str],
              threshold: Optional[int], config: Optional[tuple],
              scale: float, default_threshold: int) -> list[float]:
    """Feature vector for one run configuration.

    The same encoder serves training rows (already canonicalized by the
    runner) and tuning candidates, so train and predict can never skew.
    """
    feats = [1.0 if variant == key else 0.0 for key in _VARIANT_KEYS]
    t = threshold if threshold is not None else default_threshold
    feats.append(math.log2(1.0 + max(0, t)))
    if config is None:
        mode, blocks, threads = None, None, None
    else:
        mode, blocks, threads = config
    feats.extend(1.0 if mode == m else 0.0 for m in _CONFIG_MODES)
    feats.append(0.0 if config is None else 1.0)
    feats.append(math.log2(float(blocks)) if blocks else 0.0)
    feats.append(math.log2(float(threads)) if threads else 0.0)
    feats.append(math.log2(max(scale, 1e-6)))
    return feats


def spearman(a, b) -> float:
    """Spearman rank correlation of two equal-length sequences (the
    bench's surrogate-quality number). NaN when either side is
    constant (no ranking to correlate)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # double-argsort ranks a constant vector 0..n-1, so the no-ranking
    # case must be detected on the raw values, not the ranks
    if len(a) < 2 or a.min() == a.max() or b.min() == b.max():
        return float("nan")
    ra = np.argsort(np.argsort(a, kind="stable"), kind="stable")
    rb = np.argsort(np.argsort(b, kind="stable"), kind="stable")
    sa, sb = ra.std(), rb.std()
    if sa == 0.0 or sb == 0.0:
        return float("nan")
    cov = float(((ra - ra.mean()) * (rb - rb.mean())).mean())
    return cov / float(sa * sb)


@dataclass
class SurrogateModel:
    """A fitted ridge regressor predicting one objective metric."""

    weights: np.ndarray
    x_mean: np.ndarray
    x_scale: np.ndarray
    #: True when the target was trained as ``log1p(metric)``
    log_target: bool
    default_threshold: int
    n_rows: int

    @classmethod
    def fit(cls, rows: list[dict], objective, *, default_threshold: int,
            min_rows: int = MIN_TRAIN_ROWS,
            ridge: float = RIDGE_LAMBDA) -> Optional["SurrogateModel"]:
        """Fit on training-log rows; None when too few are usable."""
        xs, ys = [], []
        log_target = not objective.maximize
        for row in rows:
            metric = row.get("metrics", {}).get(objective.metric)
            if metric is None:
                continue
            xs.append(_features(row["variant"], row["strategy"],
                                row["threshold"],
                                tuple(row["config"]) if row["config"]
                                else None,
                                row["scale"], default_threshold))
            ys.append(math.log1p(metric) if log_target else float(metric))
        if len(xs) < min_rows:
            return None
        x = np.asarray(xs, dtype=np.float64)
        y = np.asarray(ys, dtype=np.float64)
        x_mean = x.mean(axis=0)
        x_scale = x.std(axis=0)
        x_scale[x_scale == 0.0] = 1.0
        xn = np.hstack([(x - x_mean) / x_scale,
                        np.ones((x.shape[0], 1))])
        gram = xn.T @ xn + ridge * np.eye(xn.shape[1])
        weights = np.linalg.solve(gram, xn.T @ y)
        return cls(weights=weights, x_mean=x_mean, x_scale=x_scale,
                   log_target=log_target,
                   default_threshold=default_threshold, n_rows=len(xs))

    def predict_axes(self, axes: list[tuple], scale: float) -> np.ndarray:
        """Predicted metric values (natural units) for run-axis tuples
        ``(variant, strategy, threshold, config)`` at one dataset scale."""
        x = np.asarray(
            [_features(v, s, t, c, scale, self.default_threshold)
             for v, s, t, c in axes], dtype=np.float64)
        xn = np.hstack([(x - self.x_mean) / self.x_scale,
                        np.ones((x.shape[0], 1))])
        z = xn @ self.weights
        return np.expm1(z) if self.log_target else z

    def predict_rows(self, rows: list[dict],
                     objective) -> tuple[np.ndarray, np.ndarray]:
        """(predicted, actual) over training-log rows with a usable
        objective metric — the pairing behind the training-set Spearman
        number ``repro tune`` reports. Uses each row's own scale, so the
        fit is judged on exactly what it was trained on."""
        xs, actual = [], []
        for row in rows:
            metric = row.get("metrics", {}).get(objective.metric)
            if metric is None:
                continue
            xs.append(_features(row["variant"], row["strategy"],
                                row["threshold"],
                                tuple(row["config"]) if row["config"]
                                else None,
                                row["scale"], self.default_threshold))
            actual.append(float(metric))
        if not xs:
            return np.empty(0), np.empty(0)
        x = np.asarray(xs, dtype=np.float64)
        xn = np.hstack([(x - self.x_mean) / self.x_scale,
                        np.ones((x.shape[0], 1))])
        z = xn @ self.weights
        pred = np.expm1(z) if self.log_target else z
        return pred, np.asarray(actual, dtype=np.float64)


class SurrogateOracle:
    """Multi-fidelity prefilter: predict the cheap rungs, simulate the
    final one.

    Drop-in for :class:`repro.tuning.oracle.SimulationOracle` wherever a
    search algorithm consumes one. Full-fidelity evaluations — and every
    evaluation while the training log is too cold to fit — delegate to
    the embedded simulation oracle unchanged, so the tuner's winner is
    always a real simulated score.
    """

    def __init__(self, sim, training_log: Optional[TrainingLog] = None,
                 *, min_rows: int = MIN_TRAIN_ROWS):
        self.sim = sim
        self.training_log = training_log
        self.min_rows = min_rows
        #: predictions served instead of simulations (reporting/tests)
        self.predicted = 0
        #: low-fidelity batches that fell back to simulation (cold log)
        self.fallbacks = 0
        #: per-batch decision trail, in evaluation order: dicts of
        #: ``{scale, mode, candidates}`` with mode one of ``predicted``
        #: / ``simulated`` (full fidelity) / ``fallback`` (cold log) —
        #: surfaced by ``repro tune`` via :meth:`surrogate_report`
        self.decisions: list[dict] = []
        self._model: Optional[SurrogateModel] = None
        self._model_fitted = False
        self._train_rows: list[dict] = []

    # mirror the attributes tuner/search read off a simulation oracle
    @property
    def app(self):
        return self.sim.app

    @property
    def objective(self):
        return self.sim.objective

    @property
    def scale(self):
        return self.sim.scale

    @property
    def workload(self):
        return self.sim.workload

    @property
    def cost(self):
        return self.sim.cost

    @property
    def spec(self):
        return self.sim.spec

    @property
    def verify(self):
        return self.sim.verify

    def model(self) -> Optional[SurrogateModel]:
        """The fitted model (trained lazily, once per oracle)."""
        if not self._model_fitted:
            self._model_fitted = True
            if self.training_log is not None:
                rows = self.training_log.rows(
                    app=self.sim.app, workload=self.sim.workload,
                    device=self.sim.spec.name,
                    cost_fp=cost_fingerprint(self.sim.cost),
                    verify=self.sim.verify)
                self._train_rows = rows
                self._model = SurrogateModel.fit(
                    rows, self.sim.objective,
                    default_threshold=self._default_threshold(),
                    min_rows=self.min_rows)
        return self._model

    def _default_threshold(self) -> int:
        from ..apps import get_app

        return get_app(self.sim.app).threshold

    # -- scorer contract -------------------------------------------------------

    def evaluate(self, candidates, factor: float = 1.0):
        """Score a batch: predictions for reduced fidelity, simulation
        for full fidelity (and as the cold-log fallback)."""
        from ..tuning.oracle import Trial

        candidates = list(candidates)
        scale = self.sim._rung_scale(factor)
        if scale >= self.sim.scale:
            # full fidelity is always simulated — a prediction must
            # never be eligible as the tuner's winner
            self.decisions.append({"scale": scale, "mode": "simulated",
                                   "candidates": len(candidates)})
            return self.sim.evaluate(candidates, factor)
        model = self.model()
        if model is None:
            self.fallbacks += 1
            self.decisions.append({"scale": scale, "mode": "fallback",
                                   "candidates": len(candidates)})
            return self.sim.evaluate(candidates, factor)
        from ..apps.common import canonicalize_variant

        self.decisions.append({"scale": scale, "mode": "predicted",
                               "candidates": len(candidates)})
        with span("oracle.predict", app=self.sim.app,
                  candidates=len(candidates), scale=scale):
            axes = []
            for cand in candidates:
                variant, strategy = canonicalize_variant(CONS, cand.strategy)
                axes.append((variant, strategy, cand.threshold,
                             cand.config_key(self.sim.spec)))
            values = model.predict_axes(axes, scale)
        self.predicted += len(candidates)
        obj = self.sim.objective
        return [Trial(candidate=cand, value=float(v),
                      loss=obj.loss(float(v)), scale=scale)
                for cand, v in zip(candidates, values)]

    def is_full_fidelity(self, trial) -> bool:
        return self.sim.is_full_fidelity(trial)

    def stats(self):
        return self.sim.stats()

    def surrogate_report(self) -> dict:
        """What the surrogate decided during this tune, for ``repro
        tune`` output and telemetry: per-batch decision trail, aggregate
        predicted/fallback counts, training-set size, and the model's
        Spearman rank correlation on its own training rows (the
        inspectable counterpart of BENCH_surrogate_tune.json's claim)."""
        model = self.model()
        rho = None
        if model is not None and self._train_rows:
            pred, actual = model.predict_rows(self._train_rows,
                                              self.sim.objective)
            if len(pred) >= 2:
                value = spearman(pred, actual)
                if not math.isnan(value):
                    rho = round(float(value), 4)
        return {
            "oracle": "surrogate",
            "predicted": self.predicted,
            "fallbacks": self.fallbacks,
            "train_rows": 0 if model is None else model.n_rows,
            "spearman": rho,
            "decisions": list(self.decisions),
        }
