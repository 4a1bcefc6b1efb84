"""String-addressable detector registry.

Every detector the system can run is registered here under a canonical
snake_case name (hyphens are accepted and normalised), together with its
config dataclass, so each layer — the :func:`repro.detect` facade, the
``--detector`` CLI flag, the ``repro.serve/v1`` wire schema, and the
streaming engine — resolves names through one table:

>>> detector = resolve_detector("rumor_centrality")
>>> detector = resolve_detector("map_suspect", config={"trials": 16})

:func:`detector_digest` gives a content-addressed identity for a
``(name, config)`` pair — the key the serving tier's per-worker warm
caches use, so two requests naming the same detector with the same
hyper-parameters share a warm instance and different configs never
collide.

Tier routing (documented in docs/detectors.md): the serving layer maps
``tier='fast'`` and ``tier='accurate'`` onto the registry entries in
:data:`TIER_ROUTING` — a cheap sublinear-quality detector for latency-
sensitive callers, the full RID pipeline for accuracy-sensitive ones.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.detectors.base import Detector
from repro.detectors.baselines import (
    RIDPositiveConfig,
    RIDPositiveDetector,
    RIDTreeConfig,
    RIDTreeDetector,
)
from repro.detectors.centrality import (
    CentralityConfig,
    DistanceCenterDetector,
    JordanCenterDetector,
    RumorCentralityDetector,
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
from repro.errors import ConfigError
from repro.obs.recorder import resolve_recorder
from repro.runtime.cache import stable_digest
from repro.utils.validation import config_from_dict


@dataclasses.dataclass(frozen=True)
class DetectorSpec:
    """One registry row.

    Every registered detector is built as ``detector_cls(config)`` from
    a validated instance of ``config_cls``.

    Attributes:
        name: canonical registry name (snake_case).
        detector: the :class:`Detector` subclass, or a lazy
            ``'module:Class'`` reference — RID's row, because
            :mod:`repro.core.rid` imports this package back.
        config: the config dataclass, or a lazy ``'module:Class'``
            reference (RID's row).
    """

    name: str
    detector: Union[type, str]
    config: Union[type, str]

    @property
    def detector_cls(self) -> type:
        return _load(self.detector)

    @property
    def config_cls(self) -> type:
        return _load(self.config)


def _load(ref: Union[type, str]) -> type:
    """A class, or the class a lazy ``'module:Class'`` reference names."""
    if isinstance(ref, str):
        module, _, attr = ref.partition(":")
        return getattr(importlib.import_module(module), attr)
    return ref


#: The registry table — one row per runnable detector (docs/detectors.md
#: documents each row's budget support and routing tier).
DETECTOR_REGISTRY: Dict[str, DetectorSpec] = {
    spec.name: spec
    for spec in (
        DetectorSpec("rid", "repro.core.rid:RID", "repro.core.rid:RIDConfig"),
        DetectorSpec("rid_tree", RIDTreeDetector, RIDTreeConfig),
        DetectorSpec("rid_positive", RIDPositiveDetector, RIDPositiveConfig),
        DetectorSpec("rumor_centrality", RumorCentralityDetector, CentralityConfig),
        DetectorSpec("jordan_center", JordanCenterDetector, CentralityConfig),
        DetectorSpec("distance_center", DistanceCenterDetector, CentralityConfig),
        DetectorSpec("map_suspect", MapSuspectDetector, MapSuspectConfig),
        DetectorSpec("multi_source", MultiSourceDetector, MultiSourceConfig),
        DetectorSpec("k_effectors", KEffectorsDetector, KEffectorsConfig),
        DetectorSpec(
            "simulation_matching", SimulationMatchingDetector, SimulationMatchingConfig
        ),
        DetectorSpec("certainty_cover", CertaintyCoverDetector, CertaintyCoverConfig),
    )
}

#: The serve layer's documented two-tier routing policy.
TIER_ROUTING: Dict[str, str] = {
    "fast": "distance_center",
    "accurate": "rid",
}


def canonical_detector_name(name: str) -> str:
    """Normalise a detector name (hyphens → underscores, lower-cased).

    Raises:
        ConfigError: when the name is not registered.
    """
    if not isinstance(name, str):
        raise ConfigError(
            f"detector name must be a string, got {type(name).__name__}"
        )
    canonical = name.strip().lower().replace("-", "_")
    if canonical not in DETECTOR_REGISTRY:
        raise ConfigError(
            f"unknown detector {name!r}; registered detectors: "
            f"{sorted(DETECTOR_REGISTRY)}"
        )
    return canonical


def detector_names() -> List[str]:
    """All registered canonical names, sorted."""
    return sorted(DETECTOR_REGISTRY)


def detector_spec(name: str) -> DetectorSpec:
    """The registry row for ``name`` (any accepted spelling)."""
    return DETECTOR_REGISTRY[canonical_detector_name(name)]


def coerce_detector_config(name: str, config: Any = None) -> Any:
    """Build the validated config instance a registry entry expects.

    ``None`` means defaults; a dict is coerced field- and type-checked
    by :func:`~repro.utils.validation.config_from_dict` (unknown keys
    and wrong-typed values raise :class:`ConfigError`); an instance of
    the right dataclass passes through (validated).
    """
    spec = detector_spec(name)
    cls = spec.config_cls
    if config is None:
        config = cls()
    elif isinstance(config, dict):
        config = config_from_dict(cls, config, f" for detector {spec.name!r}")
    elif not isinstance(config, cls):
        raise ConfigError(
            f"detector {spec.name!r} takes a {cls.__name__} (or a dict of "
            f"its fields, or None), got {type(config).__name__}"
        )
    config.validate()
    return config


def resolve_detector(
    detector: Union[str, Detector], config: Any = None
) -> Detector:
    """Materialise a detector from a registry name (or pass one through).

    Args:
        detector: a canonical registry name (``'rid'``,
            ``'rumor_centrality'``, ...; hyphen spellings accepted) or
            an already-built :class:`Detector`, returned unchanged.
        config: per-detector configuration — ``None`` (defaults), a dict
            of config fields, or the entry's config dataclass instance.
            Must be ``None`` when passing a pre-built detector.

    Raises:
        ConfigError: unknown name, wrong config type/fields, or a config
            passed alongside a pre-built instance.
    """
    if isinstance(detector, Detector):
        if config is not None:
            raise ConfigError(
                "config= only applies to registry names; the pre-built "
                "detector instance already carries its configuration"
            )
        return detector
    spec = detector_spec(detector)
    resolved = coerce_detector_config(spec.name, config)
    rec = resolve_recorder(None)
    if rec.enabled:
        rec.incr(f"detector.resolved.{spec.name}")
    return spec.detector_cls(resolved)


def detector_config_to_json(config: Any) -> Optional[Dict[str, Any]]:
    """Encode a detector config for the wire (None stays None)."""
    if config is None:
        return None
    return dataclasses.asdict(config)


def detector_digest(name: str, config: Any = None) -> str:
    """Content-addressed identity of a ``(detector, config)`` pair.

    Stable across processes and platforms (``repr``-based blake2b via
    :func:`repro.runtime.cache.stable_digest`); the serving tier keys
    its per-worker warm-detector caches with it, and any cache layered
    on named detectors should too.
    """
    spec = detector_spec(name)
    resolved = coerce_detector_config(spec.name, config)
    fields: Tuple = tuple(
        (f.name, repr(getattr(resolved, f.name)))
        for f in dataclasses.fields(resolved)
    )
    return stable_digest(
        "repro.detector/v1", spec.name, type(resolved).__name__, fields
    )
