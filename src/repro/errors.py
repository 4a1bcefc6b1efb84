"""Exception hierarchy for the library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with one clause. Sub-hierarchies mirror
the package layout: graph substrate, diffusion simulation, detection
pipeline, complexity tooling, and experiment configuration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# --------------------------------------------------------------------------
# Graph substrate
# --------------------------------------------------------------------------


class GraphError(ReproError):
    """Base class for errors from the signed-graph substrate."""


class NodeNotFoundError(GraphError, KeyError):
    """A referenced node is not present in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """A referenced directed edge is not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r} -> {v!r}) is not in the graph")
        self.edge = (u, v)


class InvalidSignError(GraphError, ValueError):
    """A link sign is outside ``{-1, +1}``."""


class InvalidWeightError(GraphError, ValueError):
    """A link weight is outside the closed interval ``[0, 1]``."""


class NotATreeError(GraphError, ValueError):
    """An operation that requires a (binary) tree received something else."""


class GraphFormatError(GraphError, ValueError):
    """A serialized graph (SNAP edge list, JSON, ...) is malformed."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


# --------------------------------------------------------------------------
# Diffusion simulation
# --------------------------------------------------------------------------


class DiffusionError(ReproError):
    """Base class for diffusion-model errors."""


class InvalidSeedError(DiffusionError, ValueError):
    """The initiator set / state assignment handed to a model is invalid."""


class InvalidModelParameterError(DiffusionError, ValueError):
    """A diffusion-model parameter (alpha, thresholds, ...) is out of range."""


# --------------------------------------------------------------------------
# Detection pipeline (RID and baselines)
# --------------------------------------------------------------------------


class DetectionError(ReproError):
    """Base class for errors from the RID pipeline and baselines."""


class EmptyInfectionError(DetectionError, ValueError):
    """The infected snapshot contains no active node — nothing to detect."""


class ArborescenceError(DetectionError):
    """No spanning arborescence / cascade forest could be extracted."""


class DynamicProgramError(DetectionError):
    """The tree dynamic program was driven with inconsistent arguments."""


class ResultFormatError(ReproError, ValueError):
    """A serialised result payload is malformed or carries an unknown
    format/version tag (the ``to_json``/``from_json`` codecs of
    :class:`~repro.detectors.base.DetectionResult` and
    :class:`~repro.diffusion.base.DiffusionResult`, shared with the
    ``repro.serve/v1`` wire schema)."""


# --------------------------------------------------------------------------
# Streaming re-detection
# --------------------------------------------------------------------------


class StreamError(ReproError):
    """Base class for errors from the streaming re-detection layer."""


class EventLogFormatError(StreamError, ValueError):
    """A streamed event log (JSONL) is malformed or uses an unknown record."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DeltaApplicationError(StreamError, ValueError):
    """A snapshot delta references state the live snapshot does not have."""


# --------------------------------------------------------------------------
# Serving tier (repro.serve)
# --------------------------------------------------------------------------


class ServeError(ReproError):
    """Base class for errors from the detection-as-a-service tier."""


class WireFormatError(ServeError, ValueError):
    """A ``repro.serve/v1`` wire payload is malformed (bad JSON, missing
    fields, unknown schema tag)."""


class ServerOverloadedError(ServeError):
    """Admission control shed the request: the target worker's queue is
    full. Maps to HTTP 503 with a ``Retry-After`` header."""

    def __init__(self, message: str = "server overloaded", retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RequestTimeoutError(ServeError):
    """The request missed its deadline before (or while) computing.
    Maps to HTTP 504."""


class SessionNotFoundError(ServeError, KeyError):
    """A streaming request referenced a session name the server does not
    hold. Maps to HTTP 404."""

    def __init__(self, session: str) -> None:
        super().__init__(f"unknown stream session {session!r}")
        self.session = session


class SessionExistsError(ServeError, ValueError):
    """Attempted to create a stream session under a name already in use.
    Maps to HTTP 409."""

    def __init__(self, session: str) -> None:
        super().__init__(f"stream session {session!r} already exists")
        self.session = session


class ServeClientError(ServeError):
    """The client received an error envelope it could not map back onto a
    concrete :class:`ReproError` subclass; carries the raw envelope."""

    def __init__(self, message: str, status: int, envelope: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.envelope = envelope or {}


# --------------------------------------------------------------------------
# Complexity tooling (set-cover reduction)
# --------------------------------------------------------------------------


class ComplexityError(ReproError):
    """Base class for errors from the NP-hardness tooling."""


class InvalidSetCoverError(ComplexityError, ValueError):
    """A set-cover instance is malformed (e.g., subsets not covering)."""


class InfeasibleCoverError(ComplexityError):
    """The set-cover instance admits no feasible cover."""


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------


class ExperimentError(ReproError):
    """Base class for experiment-harness errors."""


class ConfigError(ExperimentError, ValueError):
    """An experiment configuration value is out of range or inconsistent."""
