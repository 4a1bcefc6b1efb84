"""Detectors and scores beyond the paper, kept outside the detector registry.

* :class:`KEffectorsDetector` — the unsigned k-effectors baseline
  (Lappas et al., KDD 2010);
* :class:`SimulationMatchingDetector` — candidates scored by forward
  MFC simulation;
* :class:`CertaintyCoverDetector` — greedy set cover over the Lemma 3.1
  certainty closures;
* :func:`rumor_centrality` / :func:`rumor_centralities` — the Shah &
  Zaman tree score.

The registered single-source classics (rumor centrality, Jordan center,
distance center) live in :mod:`repro.detectors`.
"""

from repro.extensions.certainty_cover import CertaintyCoverDetector
from repro.extensions.effectors import KEffectorsDetector
from repro.extensions.rumor_centrality import rumor_centralities, rumor_centrality
from repro.extensions.simulation_matching import SimulationMatchingDetector

__all__ = [
    "KEffectorsDetector",
    "SimulationMatchingDetector",
    "CertaintyCoverDetector",
    "rumor_centrality",
    "rumor_centralities",
]
