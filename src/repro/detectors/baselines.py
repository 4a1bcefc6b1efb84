"""The paper's comparison methods (Sec. IV-B1).

* :class:`RIDTreeDetector` — the first two stages of RID (component
  detection + maximum-likelihood cascade-tree extraction); the extracted
  tree roots are reported as the rumor initiators. Roots have no incoming
  diffusion links from other infected users, so they are guaranteed true
  initiators (precision 1) but recall is low.
* :class:`RIDPositiveDetector` — the unsigned variant: negative links
  are discarded entirely and the tree extraction runs on the positive
  subnetwork only, generalising the unsigned effectors approach.

Both baselines identify initiator *identities* only; per the paper they
cannot infer initial states, so their results carry no state map. Each
holds a private :class:`~repro.core.rid.RID` configured with just its
score and pruning flag, takes its trees from that RID's front half,
:meth:`~repro.core.rid.RID.forest`, and exposes the RID's artifact
cache as ``cache``: repeated detections on one instance reuse the
cached per-component trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.binarize import find_tree_root
from repro.detectors.base import DetectionResult, Detector
from repro.graphs.signed_digraph import SignedDiGraph
from repro.graphs.transforms import positive_subgraph
from repro.obs.recorder import Recorder


@dataclass
class RIDTreeConfig:
    """Knobs of :class:`RIDTreeDetector` (registry name ``rid_tree``)."""

    #: Arborescence score transform: ``'log'`` likelihood-product
    #: default, ``'raw'`` for the paper-literal Algorithm 3.
    score: str = "log"
    #: Drop sign-inconsistent links before tree extraction. Off by
    #: default: the precision-1 guarantee is a property of the unpruned
    #: network.
    prune_inconsistent: bool = False

    def validate(self) -> None:
        from repro.errors import ConfigError

        if self.score not in ("log", "raw"):
            raise ConfigError(f"score must be 'log' or 'raw', got {self.score!r}")


@dataclass
class RIDPositiveConfig:
    """Knobs of :class:`RIDPositiveDetector` (registry name ``rid_positive``)."""

    #: Arborescence score transform (as in :class:`RIDTreeConfig`).
    score: str = "log"

    def validate(self) -> None:
        from repro.errors import ConfigError

        if self.score not in ("log", "raw"):
            raise ConfigError(f"score must be 'log' or 'raw', got {self.score!r}")


def _forest_rid(score: str, prune_inconsistent: bool):
    """A private RID whose :meth:`~repro.core.rid.RID.forest` only reads
    ``score`` and ``prune_inconsistent``."""
    # Imported lazily: repro.core.rid imports repro.detectors, which
    # loads this module while repro.core.rid is still initialising.
    from repro.core.rid import RID, RIDConfig

    return RID(RIDConfig(score=score, prune_inconsistent=prune_inconsistent))


class RIDTreeDetector(Detector):
    """RID-Tree: cascade-tree roots as initiators.

    Args:
        config: the :class:`RIDTreeConfig` (defaults when omitted).
    """

    name = "rid-tree"

    def __init__(self, config: Optional[RIDTreeConfig] = None) -> None:
        self.config = config or RIDTreeConfig()
        self.config.validate()
        self._rid = _forest_rid(self.config.score, self.config.prune_inconsistent)
        self.cache = self._rid.cache

    def _detect(self, infected: SignedDiGraph, recorder: Recorder) -> DetectionResult:
        # No consistency pruning by default: the paper's guarantee that
        # "the detected rumor initiators by RID-Tree are all real rumor
        # initiators" is exactly the property of in-degree-0 nodes in the
        # *unpruned* infected network (an infected node with no infected
        # in-neighbour at all must be an initiator).
        trees = self._rid.forest(infected, recorder=recorder)
        roots = {find_tree_root(tree) for tree in trees}
        return DetectionResult(method=self.name, initiators=roots, trees=trees)


class RIDPositiveDetector(Detector):
    """RID-Positive: discard negative links, then take tree roots.

    Dropping the negative links fragments the infected network into many
    more components, so this baseline reports many more (and mostly
    wrong) initiators — the high-recall / low-precision corner of
    Figure 4.
    """

    name = "rid-positive"

    def __init__(self, config: Optional[RIDPositiveConfig] = None) -> None:
        self.config = config or RIDPositiveConfig()
        self.config.validate()
        # The unsigned method of [13] is sign-blind: no consistency pruning.
        self._rid = _forest_rid(self.config.score, False)
        self.cache = self._rid.cache

    def _detect(self, infected: SignedDiGraph, recorder: Recorder) -> DetectionResult:
        positive_only = positive_subgraph(infected)
        trees = self._rid.forest(positive_only, recorder=recorder)
        roots = {find_tree_root(tree) for tree in trees}
        return DetectionResult(method=self.name, initiators=roots, trees=trees)
