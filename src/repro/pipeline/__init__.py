"""Staged RID detection pipeline with caching and per-component fan-out.

The paper's detection pipeline (Sec. III-E) as an explicit stage graph:

    PruneStage -> ComponentSplitStage
        -> [per component]  ArborescenceStage
        -> [per tree]       TreeDPStage (binarize + k-ISOMIT-BT DP)
        -> SelectionStage   (β merge, or budget knapsack; never cached)

composed by :class:`DetectionEngine`, which treats every infected
component (and every cascade tree) as an independent work unit:

* **parallelism** — work units fan out over the PR-1 process-pool
  runtime (``RuntimeConfig(workers=N)``), bit-identical to serial runs;
* **artifact caching** — stage outputs are content-addressed and reused
  across detect calls, budgets and processes
  (:mod:`repro.pipeline.cache`);
* **observability** — every stage records the established ``rid.*``
  spans and counters (docs/architecture.md maps span names to stages).

``RID.detect`` / ``RID.detect_with_budget`` are thin wrappers over
:meth:`DetectionEngine.detect`, and the RID-Tree / RID-Positive
baselines take their cascade trees from its front half,
:meth:`DetectionEngine.forest`; use the engine directly for shared
caches or custom wiring.
"""

from repro.pipeline.cache import ArtifactCache, artifact_key
from repro.pipeline.engine import DetectionEngine, EngineOutcome
from repro.pipeline.stage import Stage, StageContext
from repro.pipeline.stages import (
    ArborescenceStage,
    ComponentSplitStage,
    CurveArtifact,
    PruneStage,
    SelectionStage,
    TreeDPStage,
)

__all__ = [
    "ArtifactCache",
    "artifact_key",
    "DetectionEngine",
    "EngineOutcome",
    "Stage",
    "StageContext",
    "PruneStage",
    "ComponentSplitStage",
    "ArborescenceStage",
    "TreeDPStage",
    "SelectionStage",
    "CurveArtifact",
]
