"""repro — reproduction of *Rumor Initiator Detection in Infected Signed
Networks* (Zhang, Aggarwal, Yu; ICDCS 2017).

The package implements, from scratch:

* a weighted signed directed graph substrate with node states
  (:mod:`repro.graphs`);
* the **MFC** (asyMmetric Flipping Cascade) diffusion model and the
  classic baselines it is contrasted with (:mod:`repro.diffusion`);
* the **RID** (Rumor Initiator Detector) framework — component
  detection, Chu-Liu/Edmonds cascade-tree extraction, binarisation, the
  k-ISOMIT-BT dynamic program and β-penalised model selection
  (:mod:`repro.core`);
* the Lemma 3.1 set-cover reduction (:mod:`repro.complexity`);
* evaluation metrics, dataset-profiled synthetic generators, and an
  experiment harness regenerating every table and figure
  (:mod:`repro.metrics`, :mod:`repro.experiments`).

Quickstart (the stable facade — see :mod:`repro.api`)::

    import repro

    social = repro.generate_epinions_like(scale=0.01, rng=7)
    diffusion = repro.to_diffusion_network(social)
    repro.assign_jaccard_weights(diffusion, social, rng=7)
    seeds = repro.plant_random_initiators(diffusion, count=10, rng=7)
    cascade = repro.simulate(diffusion, seeds, model="mfc", rng=7)
    detected = repro.detect(diffusion, cascade)
"""

from repro.api import detect, detect_stream, evaluate, simulate
from repro.core.rid import RID, RIDConfig
from repro.detectors import (
    DetectionResult,
    Detector,
    RIDPositiveDetector,
    RIDTreeDetector,
    detector_names,
    resolve_detector,
)
from repro.diffusion import (
    DiffusionResult,
    ICModel,
    LTModel,
    MFCModel,
    PICModel,
    SIRModel,
    SignedVoterModel,
    plant_random_initiators,
)
from repro.errors import ReproError
from repro.graphs import SignedDiGraph, to_diffusion_network
from repro.graphs.generators import (
    generate_epinions_like,
    generate_slashdot_like,
)
from repro.metrics import identity_metrics, state_metrics
from repro.obs import (
    MetricsRecorder,
    NullRecorder,
    Recorder,
    TraceRecorder,
    format_report,
    using_recorder,
)
from repro.pipeline import ArtifactCache
from repro.runtime import RuntimeConfig, TrialReport
from repro.stream import (
    SnapshotDelta,
    StreamingDetectionEngine,
    StreamReplay,
    read_event_log,
    write_event_log,
)
from repro.types import NodeState, Sign
from repro.weights import assign_jaccard_weights

__version__ = "1.0.0"

__all__ = [
    "detect",
    "detect_stream",
    "simulate",
    "evaluate",
    "SnapshotDelta",
    "StreamingDetectionEngine",
    "StreamReplay",
    "read_event_log",
    "write_event_log",
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "TraceRecorder",
    "format_report",
    "using_recorder",
    "TrialReport",
    "SignedDiGraph",
    "Sign",
    "NodeState",
    "ReproError",
    "to_diffusion_network",
    "assign_jaccard_weights",
    "generate_epinions_like",
    "generate_slashdot_like",
    "MFCModel",
    "ICModel",
    "LTModel",
    "SIRModel",
    "SignedVoterModel",
    "PICModel",
    "DiffusionResult",
    "plant_random_initiators",
    "RID",
    "RIDConfig",
    "ArtifactCache",
    "Detector",
    "DetectionResult",
    "RIDTreeDetector",
    "RIDPositiveDetector",
    "detector_names",
    "resolve_detector",
    "identity_metrics",
    "state_metrics",
    "RuntimeConfig",
    "__version__",
]
