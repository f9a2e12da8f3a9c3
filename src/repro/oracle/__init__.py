"""The learned surrogate: a tuning prefilter trained on logged runs.

:class:`SurrogateOracle` (``repro tune --prefilter surrogate``) answers
the cheap successive-halving rungs by prediction and simulates the final
rung; :class:`TrainingLog` is the JSONL log of executed simulator runs
the experiment runner appends beside its result store. Predictions are
not exact, so they only ever rank tuning candidates — runs themselves
execute on a registered engine (:mod:`repro.engines`).
"""

from __future__ import annotations

from .surrogate import (
    MIN_TRAIN_ROWS, SurrogateModel, SurrogateOracle, spearman,
)
from .training import LOG_FILENAME, TrainingLog, cost_fingerprint

__all__ = [
    "SurrogateModel",
    "SurrogateOracle",
    "TrainingLog",
    "spearman",
    "cost_fingerprint",
    "MIN_TRAIN_ROWS",
    "LOG_FILENAME",
]
