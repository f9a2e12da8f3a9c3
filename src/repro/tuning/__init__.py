"""``repro.tuning`` — a search-based autotuner for the consolidation
configuration space.

The paper fixes its knobs by hand: per-app delegation thresholds are
chosen without study (§V), and Fig. 6 shows the consolidated kernels are
sensitive to the child kernel configuration. This subsystem makes the
system choose its own configuration instead: a :class:`Tuner` searches
the joint space (consolidation strategy x delegation threshold x child
launch config x KC_X concurrency) per app x objective, using the
simulator as the cost oracle through the cache-backed experiment runner
— so tuning is parallel (``--jobs``) and warm-start cached (a repeated
tune executes zero simulations) for free. DESIGN.md §11 documents the
layer; ``repro tune <app>`` and ``repro tuned-vs-paper`` drive it from
the CLI.

Layout mirrors the compiler's strategy layer:

* :mod:`~repro.tuning.space` — :class:`TuningSpace` / :class:`Candidate`
  (the four knob axes; all-``None`` is the paper default);
* :mod:`~repro.tuning.objectives` — cycles / warp efficiency / DRAM
  transactions as pluggable :class:`Objective` values;
* :mod:`~repro.tuning.oracle` — :class:`SimulationOracle`, batching
  every candidate evaluation through ``ExperimentRunner.prefetch``;
* :mod:`~repro.tuning.search` — the :class:`SearchAlgorithm` registry
  (grid, seeded random, successive halving; plugins register more);
* :mod:`~repro.tuning.registry` — :class:`TunedConfig` persistence
  (JSON beside the result store) feeding the ``tuned`` app variant.
"""

from .objectives import OBJECTIVES, Objective, get_objective  # noqa: F401
from .oracle import MIN_RUNG_SCALE, SimulationOracle, Trial  # noqa: F401
from .registry import (  # noqa: F401
    TUNED_FILE,
    TunedConfig,
    TunedConfigRegistry,
    default_tuned_path,
    tuned_key,
)
from .search import (  # noqa: F401
    GridSearch,
    RandomSearch,
    SearchAlgorithm,
    SuccessiveHalving,
    available_searches,
    get_search,
    register_search,
    unregister_search,
)
from .space import (  # noqa: F401
    Candidate,
    ConfigChoice,
    TuningSpace,
)
from .tuner import (  # noqa: F401
    PREFILTERS,
    Tuner,
    TuningResult,
    WEAK_SURROGATE_RHO,
    best_threshold,
    weak_surrogate_warning,
)
