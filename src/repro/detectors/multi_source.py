"""Community-partitioned multi-source identification (Nguyen et al.).

The centrality classics assume one source per component; real cascades
started by several initiators inside the *same* component defeat them.
This detector reuses the pipeline's component split and Jordan-center
scoring, but allows ``k ≥ 1`` sources per component:

1. pick ``k`` well-separated partition seeds by farthest-first traversal
   over hop distance (the first seed is the component's Jordan center);
2. partition the component's nodes by nearest seed (Voronoi communities,
   ties to the earlier seed);
3. report each community's Jordan center — the node minimising the
   maximum hop distance to its community, measured in the full
   component so fragmented communities stay well-defined.

The partition radius (the largest community eccentricity) is the
goodness measure: more sources shrink it monotonically. Open-ended
``detect`` grows ``k`` while each extra source still buys at least
``min_radius_improvement`` hops of radius (the elbow rule, capped by
``max_sources_per_component``); ``detect_with_budget`` distributes an
exact global budget across components, repeatedly granting the next
source to the component with the largest current radius.

Deterministic throughout: farthest-first, nearest-seed assignment, and
Jordan-center selection all break ties repr-sorted, independent of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.components import infected_components
from repro.detectors.base import DetectionResult, Detector
from repro.detectors.centrality import undirected_distances
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder
from repro.types import Node


@dataclass
class MultiSourceConfig:
    """Hyper-parameters of :class:`MultiSourceDetector`.

    Attributes:
        max_sources_per_component: cap on the open-ended ``detect``'s
            per-component source count (budgeted detection is bounded by
            the budget instead).
        min_radius_improvement: hops of partition-radius reduction an
            extra source must buy for the open-ended scan to keep it.
    """

    max_sources_per_component: int = 4
    min_radius_improvement: int = 1

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range settings."""
        if self.max_sources_per_component < 1:
            raise ConfigError(
                f"max_sources_per_component must be >= 1, "
                f"got {self.max_sources_per_component}"
            )
        if self.min_radius_improvement < 0:
            raise ConfigError(
                f"min_radius_improvement must be >= 0, "
                f"got {self.min_radius_improvement}"
            )


class _Component:
    """All-pairs hop distances plus partition scoring for one component."""

    def __init__(self, component: SignedDiGraph) -> None:
        self.nodes = sorted(component.nodes(), key=repr)
        self.size = len(self.nodes)
        self.dist: Dict[Node, Dict[Node, int]] = {
            node: undirected_distances(component, node) for node in self.nodes
        }
        #: Radius by source count, filled lazily by :meth:`partition`.
        self._cache: Dict[int, Tuple[List[Node], int]] = {}

    def _distance(self, u: Node, v: Node) -> int:
        # Components are live-connected, but stay defensive: treat a
        # missing entry as far-away rather than KeyError.
        return self.dist[u].get(v, self.size + 1)

    def _farthest_first(self, k: int) -> List[Node]:
        """k partition seeds: Jordan center first, then max-min distance.

        Among nodes at the same max-min distance from the chosen seeds,
        the repr-smallest wins — deterministic under any hash seed.
        """
        first = min(
            self.nodes, key=lambda n: (max(self.dist[n].values()), repr(n))
        )
        seeds = [first]
        chosen = {first}
        while len(seeds) < k:
            gaps = {
                node: min(self._distance(seed, node) for seed in seeds)
                for node in self.nodes
                if node not in chosen
            }
            best_gap = max(gaps.values())
            best = min(
                (node for node, gap in gaps.items() if gap == best_gap),
                key=repr,
            )
            seeds.append(best)
            chosen.add(best)
        return seeds

    def partition(self, k: int) -> Tuple[List[Node], int]:
        """``k`` community Jordan centers and the partition radius."""
        k = max(1, min(k, self.size))
        cached = self._cache.get(k)
        if cached is not None:
            return cached
        seeds = self._farthest_first(k)
        groups: Dict[Node, List[Node]] = {seed: [] for seed in seeds}
        for node in self.nodes:
            owner = min(
                seeds, key=lambda s: (self._distance(s, node), seeds.index(s))
            )
            groups[owner].append(node)
        centers: List[Node] = []
        radius = 0
        for seed in seeds:
            members = groups[seed]
            if not members:
                continue
            center = min(
                members,
                key=lambda u: (
                    max(self._distance(u, v) for v in members),
                    repr(u),
                ),
            )
            centers.append(center)
            radius = max(
                radius, max(self._distance(center, v) for v in members)
            )
        outcome = (centers, radius)
        self._cache[k] = outcome
        return outcome


class MultiSourceDetector(Detector):
    """Farthest-first community split + per-community Jordan centers."""

    name = "multi-source"

    def __init__(self, config: Optional[MultiSourceConfig] = None) -> None:
        self.config = config or MultiSourceConfig()
        self.config.validate()

    def _components(
        self, infected: SignedDiGraph, rec: Recorder
    ) -> List[_Component]:
        out: List[_Component] = []
        for component in infected_components(infected):
            with rec.span(
                "multi_source.distances", nodes=component.number_of_nodes()
            ):
                out.append(_Component(component))
        return out

    def _detect(self, infected: SignedDiGraph, recorder: Recorder) -> DetectionResult:
        """Grow each component's source count while the radius improves."""
        initiators: Set[Node] = set()
        total_radius = 0
        for comp in self._components(infected, recorder):
            centers, radius = comp.partition(1)
            cap = min(self.config.max_sources_per_component, comp.size)
            for k in range(2, cap + 1):
                next_centers, next_radius = comp.partition(k)
                if radius - next_radius < self.config.min_radius_improvement:
                    break
                centers, radius = next_centers, next_radius
            initiators.update(centers)
            total_radius += radius
            if recorder.enabled:
                recorder.incr("detector.multi_source.sources", len(centers))
        return DetectionResult(
            method=self.name,
            initiators=initiators,
            objective=-float(total_radius),
        )

    def _select(
        self, infected: SignedDiGraph, budget: int, recorder: Recorder
    ) -> Set[Node]:
        """Distribute exactly ``budget`` sources across the components.

        Every component gets one source (feasibility floor, as in RID's
        every-tree-needs-its-root rule); each remaining unit goes to the
        component whose current partition radius is largest — the
        greedy step that buys the most explanation per extra source.
        """
        comps = self._components(infected, recorder)
        total = sum(c.size for c in comps)
        low = len(comps)
        if not low <= budget <= total:
            raise ConfigError(
                f"{self.name}.detect_with_budget: budget must be in "
                f"[{low}, {total}] (one source per infected component, "
                f"at most every infected node), got {budget}"
            )
        counts = [1] * len(comps)
        remaining = budget - low
        while remaining > 0:
            # The component with the largest current radius (ties to
            # the earliest — components() order is deterministic)
            # that can still absorb a source.
            candidates = [
                (-(comps[i].partition(counts[i])[1]), i)
                for i in range(len(comps))
                if counts[i] < comps[i].size
            ]
            candidates.sort()
            _, index = candidates[0]
            counts[index] += 1
            remaining -= 1
        initiators: Set[Node] = set()
        for comp, count in zip(comps, counts):
            centers, _radius = comp.partition(count)
            initiators.update(centers)
        return initiators
