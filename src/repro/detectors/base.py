"""The detector protocol: :class:`Detector`, :class:`DetectionResult`.

This module is the single home of the detector abstraction (every
concrete detector in :mod:`repro.detectors` — and :class:`repro.core.rid.RID`
— subclasses :class:`Detector`). The unified protocol:

* ``detect(infected, recorder=None, *, runtime=None)`` — open-ended
  detection. Every implementation accepts the ``runtime=`` keyword;
  detectors that cannot use a non-trivial runtime (no per-component
  fan-out, no artifact store) **raise** :class:`~repro.errors.ConfigError`
  instead of silently ignoring it (:func:`check_runtime`).
* ``detect_with_budget(infected, budget=..., recorder=None, runtime=None)``
  — fixed-count detection for detectors that support it
  (:func:`resolve_budget_kwargs` validates the unified keyword).

Empty-infection contract (shared with RID since the pipeline refactor):
``detect`` on an empty infected network raises
:class:`~repro.errors.EmptyInfectionError`; ``detect_with_budget``
accepts exactly ``budget=0`` on an empty network and returns a
well-formed empty result (:func:`empty_infection_budget_result`), any
other budget raising :class:`~repro.errors.ConfigError`.
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
from repro.obs.recorder import Recorder
from repro.runtime.config import RuntimeConfig
from repro.types import Node, NodeState


def resolve_budget_kwargs(
    budget: Optional[int],
    k: Optional[int] = None,
    max_k: Optional[int] = None,
    method: str = "detect_with_budget",
) -> int:
    """Validate the unified ``budget=`` keyword.

    Detectors grew up with three names for the same number — ``budget``
    (RID's knapsack entry point), ``k`` (the k-ISOMIT problem
    statement), and ``max_k`` (the extension detectors). The legacy two
    went through a :class:`DeprecationWarning` cycle and are now
    removed: passing either raises :class:`ConfigError` naming the
    replacement, so stale call sites fail with a pointed message rather
    than a generic ``TypeError``.

    Raises:
        ConfigError: when no budget is given, or a removed legacy
            spelling (``k=``/``max_k=``) is used.
    """
    for name, value in (("k", k), ("max_k", max_k)):
        if value is not None:
            raise ConfigError(
                f"{method}({name}=...) was removed after its deprecation "
                f"cycle; pass budget={value!r} instead"
            )
    if budget is None:
        raise ConfigError(f"{method}() needs an initiator budget (budget=...)")
    return budget


def check_runtime(name: str, runtime: Optional[RuntimeConfig]) -> None:
    """Reject a runtime a detector cannot honour — never ignore it.

    Detectors without per-component fan-out or an artifact store accept
    ``runtime=None`` and the inert serial default (``workers=1``, no
    ``cache_dir`` — behaviourally identical to no runtime at all, and
    what the CLI always passes). Anything that would change behaviour
    if it were honoured (``workers > 1`` or a cache directory) raises
    :class:`ConfigError`, so a caller asking for fan-out finds out it
    is not happening rather than silently paying serial latency.
    """
    if runtime is None:
        return
    if not isinstance(runtime, RuntimeConfig):
        raise ConfigError(
            f"runtime must be a RuntimeConfig or None, got {type(runtime).__name__}"
        )
    if runtime.workers > 1 or runtime.cache_dir is not None:
        raise ConfigError(
            f"detector {name!r} runs in-process and has no artifact store; "
            f"it cannot honour runtime=RuntimeConfig(workers={runtime.workers}, "
            f"cache_dir={runtime.cache_dir!r}) — drop runtime= or use 'rid'"
        )


def require_infected(name: str, infected: SignedDiGraph) -> None:
    """The zoo-wide empty-infection contract for open-ended ``detect``.

    Raises:
        EmptyInfectionError: when the infected network has no nodes —
            the same failure RID surfaces from cascade-forest extraction,
            so every detector fails empty input the same way.
    """
    if infected.number_of_nodes() == 0:
        raise EmptyInfectionError(
            f"{name}: infected network has no nodes; detection needs at "
            f"least one infected node (budgeted entry points accept "
            f"budget=0 and return an empty result)"
        )


def empty_infection_budget_result(
    name: str, infected: SignedDiGraph, budget: int
) -> Optional["DetectionResult"]:
    """RID's budget-0 contract, shared by the whole zoo.

    On an empty infected network, ``budget=0`` is the only feasible
    request and yields a well-formed empty result; any other budget is a
    :class:`ConfigError`. On a non-empty network returns ``None`` — the
    caller proceeds with real detection.
    """
    if infected.number_of_nodes() > 0:
        return None
    if budget != 0:
        raise ConfigError(
            f"budget must be in [0, 0] (the infected network is empty), "
            f"got {budget}"
        )
    return DetectionResult(method=f"{name}(k=0)", initiators=set())


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
    """Abstract base for rumor-initiator detectors.

    A detector consumes an infected diffusion network ``G_I`` — nodes
    carrying observed states in ``{-1, +1}`` — and returns a
    :class:`DetectionResult`.

    The unified protocol (every implementation honours it):

    * ``detect(infected, recorder=None, *, runtime=None)`` — open-ended
      detection; the optional :class:`~repro.obs.recorder.Recorder`
      receives the detector's stage spans and counters (ambient recorder
      used when omitted). ``runtime=`` is either honoured (RID fans out
      per-component work and persists artifacts) or **rejected** with
      :class:`ConfigError` — never silently dropped.
    * ``detect_with_budget(infected, budget=..., recorder=None,
      runtime=None)`` — fixed-count detection for detectors that support
      it. The legacy keyword spellings ``k=`` and ``max_k=`` completed
      their deprecation cycle and now raise :class:`ConfigError`
      pointing at ``budget=``.
    * an empty infected network raises
      :class:`~repro.errors.EmptyInfectionError` from ``detect`` and is
      accepted by ``detect_with_budget`` at exactly ``budget=0``
      (returning a well-formed empty result).
    """

    name: str = "detector"

    @abc.abstractmethod
    def detect(
        self,
        infected: SignedDiGraph,
        recorder: Optional[Recorder] = None,
        *,
        runtime: Optional[RuntimeConfig] = None,
    ) -> DetectionResult:
        """Identify the most likely rumor initiators of ``infected``."""

    def detect_with_budget(
        self,
        infected: SignedDiGraph,
        budget: Optional[int] = None,
        *,
        k: Optional[int] = None,
        max_k: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        runtime: Optional[RuntimeConfig] = None,
    ) -> DetectionResult:
        """Detect exactly ``budget`` initiators (where supported).

        The base implementation validates the budget keyword, honours
        the empty-network budget-0 contract, and otherwise rejects the
        call: only detectors that can honour an exact count override it.

        Raises:
            NotImplementedError: for detectors without budget support.
            ConfigError: on a missing budget, or the removed ``k=`` /
                ``max_k=`` legacy spellings.
        """
        budget = resolve_budget_kwargs(
            budget, k=k, max_k=max_k, method=f"{self.name}.detect_with_budget"
        )
        check_runtime(self.name, runtime)
        empty = empty_infection_budget_result(self.name, infected, budget)
        if empty is not None:
            return empty
        raise NotImplementedError(
            f"{self.name} does not support budgeted detection"
        )
