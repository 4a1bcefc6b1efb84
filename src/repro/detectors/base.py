"""The detector protocol: :class:`Detector`, :class:`DetectionResult`.

This module is the single home of the detector abstraction and of the
contract every in-process detector keeps. :class:`Detector`'s two entry
points run it once for the whole zoo, around each class's own hooks:

* ``detect(infected, recorder=None, *, runtime=None)`` — open-ended
  detection. ``runtime=`` is validated and, when it asks for fan-out or
  an artifact store, **rejected** with :class:`~repro.errors.ConfigError`
  rather than silently ignored (:func:`check_runtime`); an empty
  infected network raises :class:`~repro.errors.EmptyInfectionError`.
* ``detect_with_budget(infected, budget, *, recorder=None,
  runtime=None)`` — exact-count detection, for detectors that have an
  exact-count rule (:class:`NotImplementedError` otherwise). ``budget``
  is required and ``None`` is a :class:`~repro.errors.ConfigError`; on
  an empty network exactly ``budget=0`` is accepted and returns a
  well-formed empty result, any other budget raising
  :class:`~repro.errors.ConfigError`.

:class:`repro.core.rid.RID` subclasses :class:`Detector` but keeps its
own two entry points, which honour ``runtime=`` and apply the same
empty-input rules inside its pipeline, stated once for RID in
:mod:`repro.core.rid`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.codec import (
    CacheCodecError,
    decode_graph,
    decode_node,
    decode_states,
    encode_graph,
    encode_node,
    encode_states,
)
from repro.errors import ConfigError, EmptyInfectionError, ResultFormatError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.obs.recorder import Recorder, resolve_recorder, using_recorder
from repro.runtime.config import RuntimeConfig
from repro.types import Node, NodeState


def check_runtime(name: str, runtime: Optional[RuntimeConfig]) -> None:
    """Reject a runtime a detector cannot honour — never ignore it.

    Detectors without per-component fan-out or an artifact store accept
    ``runtime=None`` and the inert serial default (``workers=1``, no
    ``cache_dir`` — behaviourally identical to no runtime at all, and
    what the CLI always passes). An invalid runtime raises the
    :class:`ConfigError` of :meth:`RuntimeConfig.validate`, as it does
    in RID. Anything that would change behaviour if it were honoured
    (``workers > 1`` or a cache directory) raises :class:`ConfigError`,
    so a caller asking for fan-out finds out it is not happening rather
    than silently paying serial latency.
    """
    if runtime is None:
        return
    if not isinstance(runtime, RuntimeConfig):
        raise ConfigError(
            f"runtime must be a RuntimeConfig or None, got {type(runtime).__name__}"
        )
    runtime.validate()
    if runtime.workers > 1 or runtime.cache_dir is not None:
        raise ConfigError(
            f"detector {name!r} runs in-process and has no artifact store; "
            f"it cannot honour runtime=RuntimeConfig(workers={runtime.workers}, "
            f"cache_dir={runtime.cache_dir!r}) — drop runtime= or use 'rid'"
        )


@dataclass
class DetectionResult:
    """Output of a rumor-initiator detector.

    Attributes:
        method: detector name.
        initiators: detected initiator identities.
        states: inferred initial states for detectors that provide them
            (RID); empty for identity-only baselines.
        trees: the cascade trees the detection was based on.
        objective: detector-specific objective value, when meaningful.
    """

    method: str
    initiators: Set[Node]
    states: Dict[Node, NodeState] = field(default_factory=dict)
    trees: List[SignedDiGraph] = field(default_factory=list)
    objective: Optional[float] = None

    def num_detected(self) -> int:
        """Number of detected initiators."""
        return len(self.initiators)

    def to_dict(self) -> dict:
        """JSON-ready summary (tree structures reduced to sizes).

        Lossy by design — for logs and experiment tables. Use
        :meth:`to_json` when the result must round-trip.
        """
        return {
            "method": self.method,
            "initiators": sorted(self.initiators, key=repr),
            "states": {repr(n): int(s) for n, s in sorted(
                self.states.items(), key=lambda kv: repr(kv[0])
            )},
            "num_trees": len(self.trees),
            "tree_sizes": sorted(
                (t.number_of_nodes() for t in self.trees), reverse=True
            ),
            "objective": self.objective,
        }

    # -- stable JSON codec ----------------------------------------------

    #: Format tag stamped by :meth:`to_json`; :meth:`from_json` accepts
    #: only this tag (shared with the ``repro.serve/v1`` wire schema).
    JSON_FORMAT = "repro.detection-result/v1"

    def to_json(self) -> dict:
        """Full round-trip encoding, cascade trees included.

        Initiators and states are emitted repr-sorted in the
        :mod:`repro.codec` spelling, so encoding the same result always
        produces the same JSON — the serving tier's identity gate
        compares these payloads bit-for-bit. Inverse: :meth:`from_json`.

        Raises:
            CacheCodecError: when a node identifier is not int or str.
        """
        return {
            "format": self.JSON_FORMAT,
            "method": self.method,
            "initiators": [encode_node(n) for n in sorted(self.initiators, key=repr)],
            "states": encode_states(dict(sorted(self.states.items(), key=lambda kv: repr(kv[0])))),
            "trees": [encode_graph(t) for t in self.trees],
            "objective": self.objective,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "DetectionResult":
        """Inverse of :meth:`to_json`.

        Raises:
            ResultFormatError: on a non-dict payload, a wrong/missing
                format tag, or a missing or malformed field (the method
                is a string, the objective a JSON number or null).
        """
        if not isinstance(payload, dict) or payload.get("format") != cls.JSON_FORMAT:
            raise ResultFormatError(
                f"payload is not a serialised DetectionResult "
                f"(expected format {cls.JSON_FORMAT!r})"
            )
        try:
            method, initiators = payload["method"], payload["initiators"]
            trees, objective = payload["trees"], payload["objective"]
            if type(method) is not str or type(objective) not in (int, float, type(None)):
                raise CacheCodecError("'method' must be a string, 'objective' a number or null")
            if type(initiators) is not list or type(trees) is not list:
                raise CacheCodecError("'initiators' and 'trees' must be lists")
            return cls(
                method=method,
                initiators={decode_node(n) for n in initiators},
                states=decode_states(payload["states"]),
                trees=[decode_graph(t) for t in trees],
                objective=None if objective is None else float(objective),
            )
        except (KeyError, CacheCodecError, OverflowError) as exc:
            raise ResultFormatError(
                f"malformed DetectionResult payload: {exc}"
            ) from exc


class Detector(abc.ABC):
    """Base of the rumor-initiator detectors, and the one home of their contract.

    A detector consumes an infected diffusion network ``G_I`` — nodes
    carrying observed states in ``{-1, +1}`` — and returns a
    :class:`DetectionResult`. A subclass sets :attr:`name` and
    implements hooks that only ever see a non-empty snapshot and the
    resolved recorder, inside the ``detect`` span and with that recorder
    installed as the ambient one, so the layers a hook calls without a
    ``recorder=`` (the Monte-Carlo batch tier) record into it too:

    * ``_detect(infected, recorder)`` — the open-ended
      :class:`DetectionResult`;
    * ``_select(infected, budget, recorder)`` — exactly ``budget``
      initiators, for a detector with an exact-count rule; without it,
      :meth:`detect_with_budget` raises :class:`NotImplementedError`.

    :class:`repro.core.rid.RID` overrides both entry points instead: it
    honours ``runtime=``, its pipeline owns its empty-input rules, and
    its spans are ``rid.detect`` and ``rid.detect_with_budget``.
    """

    name: str = "detector"

    def detect(
        self,
        infected: SignedDiGraph,
        recorder: Optional[Recorder] = None,
        *,
        runtime: Optional[RuntimeConfig] = None,
    ) -> DetectionResult:
        """Identify the most likely rumor initiators of ``infected``.

        Args:
            infected: the infected diffusion network ``G_I``.
            recorder: receives the detector's spans and counters
                (ambient recorder when omitted).
            runtime: accepted when inert, rejected otherwise
                (:func:`check_runtime`).

        Raises:
            ConfigError: on a runtime the detector cannot honour.
            EmptyInfectionError: when ``infected`` has no nodes, as RID
                raises from cascade-forest extraction.
        """
        check_runtime(self.name, runtime)
        if infected.number_of_nodes() == 0:
            raise EmptyInfectionError(
                f"{self.name}: infected network has no nodes; detection needs at "
                f"least one infected node (budgeted entry points accept "
                f"budget=0 and return an empty result)"
            )
        rec = resolve_recorder(recorder)
        with using_recorder(rec), rec.span("detect", method=self.name):
            return self._detect(infected, rec)

    def detect_with_budget(
        self,
        infected: SignedDiGraph,
        budget: int,
        *,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> DetectionResult:
        """Detect exactly ``budget`` initiators; the result's method is
        ``name(k=budget)``.

        On an empty snapshot ``budget=0`` is the one feasible request
        and returns an empty result, RID's budget-0 contract.

        Raises:
            ConfigError: on a ``None`` budget, a runtime the detector
                cannot honour, or a non-zero budget on an empty snapshot.
            NotImplementedError: for a detector without an exact-count
                rule (no ``_select`` hook), before any span opens.
        """
        if budget is None:
            raise ConfigError(
                f"{self.name}.detect_with_budget() needs an initiator budget "
                f"(budget=...)"
            )
        check_runtime(self.name, runtime)
        if infected.number_of_nodes() == 0:
            if budget != 0:
                raise ConfigError(
                    f"budget must be in [0, 0] (the infected network is empty), "
                    f"got {budget}"
                )
            return DetectionResult(method=f"{self.name}(k=0)", initiators=set())
        if type(self)._select is Detector._select:
            raise NotImplementedError(
                f"{self.name} does not support budgeted detection"
            )
        rec = resolve_recorder(recorder)
        with using_recorder(rec), rec.span("detect", method=self.name, budget=budget):
            initiators = self._select(infected, budget, rec)
        return DetectionResult(method=f"{self.name}(k={budget})", initiators=initiators)

    def _detect(self, infected: SignedDiGraph, recorder: Recorder) -> DetectionResult:
        """The open-ended result of a non-empty snapshot."""
        raise NotImplementedError(f"{self.name} defines no detection rule")

    def _select(
        self, infected: SignedDiGraph, budget: int, recorder: Recorder
    ) -> Set[Node]:
        """Exactly ``budget`` initiators of a non-empty snapshot."""
        raise NotImplementedError
