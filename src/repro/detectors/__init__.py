"""The detector zoo: one home for every initiator-detection method.

The package owns the detector abstraction (:mod:`repro.detectors.base`),
the paper's comparison baselines (:mod:`repro.detectors.baselines`), the
unsigned centrality classics (:mod:`repro.detectors.centrality`), the
literature estimators — suspect-prior MAP
(:mod:`repro.detectors.map_suspect`), community-partitioned
multi-source identification (:mod:`repro.detectors.multi_source`),
k-effectors (:mod:`repro.detectors.effectors`), simulation matching
(:mod:`repro.detectors.simulation_matching`) and the Lemma 3.1
certainty cover (:mod:`repro.detectors.certainty_cover`) — and the
string-addressable registry (:mod:`repro.detectors.registry`) every
layer resolves ``detector="name"`` through:

>>> import repro
>>> repro.detect(snapshot, detector="rumor_centrality", budget=3)  # doctest: +SKIP

Every detector is built as ``Cls(config)`` from its config dataclass;
:func:`resolve_detector` does that from a name.

RID itself lives in :mod:`repro.core.rid` (it is the paper's
contribution, not a baseline) but subclasses the same
:class:`Detector` protocol and is registered here under ``"rid"``.
See docs/detectors.md for the registry table and tradeoffs.
"""

from repro.detectors.base import DetectionResult, Detector, check_runtime
from repro.detectors.baselines import (
    RIDPositiveConfig,
    RIDPositiveDetector,
    RIDTreeConfig,
    RIDTreeDetector,
)
from repro.detectors.centrality import (
    CentralityConfig,
    CentralityDetector,
    DistanceCenterDetector,
    JordanCenterDetector,
    RumorCentralityDetector,
    rumor_centralities,
    rumor_centrality,
    select_with_budget,
    undirected_distances,
)
from repro.detectors.certainty_cover import (
    CertaintyCoverConfig,
    CertaintyCoverDetector,
)
from repro.detectors.effectors import KEffectorsConfig, KEffectorsDetector
from repro.detectors.map_suspect import MapSuspectConfig, MapSuspectDetector
from repro.detectors.multi_source import MultiSourceConfig, MultiSourceDetector
from repro.detectors.simulation_matching import (
    SimulationMatchingConfig,
    SimulationMatchingDetector,
)
from repro.detectors.registry import (
    DETECTOR_REGISTRY,
    TIER_ROUTING,
    DetectorSpec,
    canonical_detector_name,
    coerce_detector_config,
    detector_config_to_json,
    detector_digest,
    detector_names,
    detector_spec,
    resolve_detector,
)

__all__ = [
    "DETECTOR_REGISTRY",
    "TIER_ROUTING",
    "CentralityConfig",
    "CentralityDetector",
    "CertaintyCoverConfig",
    "CertaintyCoverDetector",
    "DetectionResult",
    "Detector",
    "DetectorSpec",
    "DistanceCenterDetector",
    "JordanCenterDetector",
    "KEffectorsConfig",
    "KEffectorsDetector",
    "MapSuspectConfig",
    "MapSuspectDetector",
    "MultiSourceConfig",
    "MultiSourceDetector",
    "RIDPositiveConfig",
    "RIDPositiveDetector",
    "RIDTreeConfig",
    "RIDTreeDetector",
    "RumorCentralityDetector",
    "SimulationMatchingConfig",
    "SimulationMatchingDetector",
    "canonical_detector_name",
    "check_runtime",
    "coerce_detector_config",
    "detector_config_to_json",
    "detector_digest",
    "detector_names",
    "detector_spec",
    "resolve_detector",
    "rumor_centralities",
    "rumor_centrality",
    "select_with_budget",
    "undirected_distances",
]
