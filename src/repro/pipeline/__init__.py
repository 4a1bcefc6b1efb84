"""The steps of RID's detection pipeline and their artifact cache.

The paper's detection pipeline (Sec. III-E) as five cached steps, each
one :class:`Stage` row in :mod:`repro.pipeline.stages`:

    prune -> components
        -> [per component]  arborescence
        -> [per tree]       tree_dp[greedy] (β pass) or tree_dp[curve]
                            (budget curve): binarize + k-ISOMIT-BT DP
        -> SelectionStage   (β merge, or budget knapsack; never cached)

run by :class:`repro.core.rid.RID` through one cached-step loop, which
treats every infected component (and every cascade tree) as an
independent work unit:

* **parallelism** — work units fan out over the PR-1 process-pool
  runtime (``RuntimeConfig(workers=N)``), bit-identical to serial runs;
* **artifact caching** — step outputs are content-addressed and reused
  across detect calls, budgets and processes
  (:mod:`repro.pipeline.cache`);
* **observability** — every step records the established ``rid.*``
  spans and counters (docs/architecture.md maps span names to steps).

The RID-Tree / RID-Positive baselines take their cascade trees from the
front half, :meth:`RID.forest <repro.core.rid.RID.forest>`, and the
streaming layer detects through :meth:`RID.detect_components
<repro.core.rid.RID.detect_components>`.
"""

from repro.pipeline.cache import ArtifactCache, artifact_key
from repro.pipeline.stages import CurveArtifact, SelectionStage, Stage

__all__ = [
    "ArtifactCache",
    "artifact_key",
    "Stage",
    "SelectionStage",
    "CurveArtifact",
]
