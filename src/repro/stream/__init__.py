"""Streaming re-detection: snapshot deltas, event logs, incremental engine.

See :mod:`repro.stream.engine` for the identity guarantee (streamed
results give the same initiators and states as a cold run on the
materialised snapshot)
and :mod:`repro.stream.events` for the JSONL event-log format.
"""

from repro.stream.delta import SnapshotDelta, apply_delta
from repro.stream.engine import (
    DeltaReport,
    StreamingDetectionEngine,
    StreamReplay,
    StreamStep,
)
from repro.stream.events import (
    EVENT_LOG_FORMAT,
    EventLog,
    read_event_log,
    write_event_log,
)
from repro.stream.synthetic import synthetic_snapshot, synthetic_stream

__all__ = [
    "SnapshotDelta",
    "apply_delta",
    "DeltaReport",
    "StreamStep",
    "StreamReplay",
    "StreamingDetectionEngine",
    "EVENT_LOG_FORMAT",
    "EventLog",
    "read_event_log",
    "write_event_log",
    "synthetic_snapshot",
    "synthetic_stream",
]
