"""Parallel trial-execution runtime.

Monte-Carlo estimation and detector evaluation are embarrassingly
parallel across trials: each trial derives its own deterministic seed
from ``(base_seed, labels, trial)``, so trials share no state. This
subsystem fans independent trials out over a process pool while
preserving the exact per-trial randomness of serial execution, and
optionally caches per-trial results on disk so re-running a benchmark
skips already-computed trials.

Entry points:

* :class:`RuntimeConfig` — shared knob bundle (``workers``,
  ``cache_dir``, ``chunk_size``) accepted by ``simulate_many``,
  ``estimate_spread``, ``run_detection_trials`` and the experiment
  drivers.
* :func:`run_trials` — the generic fan-out engine.
* :class:`TrialCache` — content-addressed on-disk JSON result store.
"""

from repro.codec import CacheCodecError
from repro.runtime.cache import (
    TrialCache,
    graph_digest,
    model_digest,
    seeds_digest,
    stable_digest,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import (
    TrialOutcome,
    TrialReport,
    TrialTiming,
    run_trials,
)

__all__ = [
    "RuntimeConfig",
    "run_trials",
    "TrialOutcome",
    "TrialReport",
    "TrialTiming",
    "TrialCache",
    "CacheCodecError",
    "stable_digest",
    "graph_digest",
    "model_digest",
    "seeds_digest",
]
