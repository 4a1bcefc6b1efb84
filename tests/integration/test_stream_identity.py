"""The streaming tentpole's identity guarantee, end to end.

Replays a ≥20-delta synthetic event log — containing component merges,
recoveries, re-infections, fresh-node arrivals, node removals and edge
churn — and asserts after *every* delta that the incremental engine's
detection is bit-identical to a cold ``RID`` run on the
materialised snapshot, for serial and ``workers=2`` execution.
"""

import pytest

from repro.core.rid import RID, RIDConfig
from repro.runtime.config import RuntimeConfig
from repro.stream import StreamingDetectionEngine, synthetic_stream
from repro.types import NodeState

DELTAS = 22


def results_equal(a, b) -> bool:
    return (
        a.initiators == b.initiators
        and a.states == b.states
        and a.objective == b.objective
        and [sorted(t.nodes()) for t in a.trees] == [sorted(t.nodes()) for t in b.trees]
    )


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(components=6, size=14, deltas=DELTAS, seed=7)


def test_stream_exercises_the_interesting_transitions(stream):
    _, deltas = stream
    assert len(deltas) >= 20
    recoveries = sum(
        1 for d in deltas for s in d.states.values() if s is NodeState.INACTIVE
    )
    cross_component = sum(
        1
        for d in deltas
        for u, v, _, _ in d.add_edges
        if u // 10**6 != v // 10**6  # merge or fresh-node attachment
    )
    assert recoveries >= 5
    assert cross_component >= 5
    assert sum(len(d.remove_edges) for d in deltas) >= 15
    assert sum(len(d.add_edges) for d in deltas) >= 15
    assert any(d.remove_nodes for d in deltas)


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_detection_bit_identical_to_cold_after_every_delta(stream, workers):
    snapshot, deltas = stream
    runtime = RuntimeConfig(workers=workers)
    config = RIDConfig()
    engine = StreamingDetectionEngine(
        snapshot, detector=RID(config), runtime=runtime
    )
    cold = RID(config)
    total_reused = 0
    for index, delta in enumerate(deltas):
        step = engine.step(delta)
        total_reused += step.reused_artifacts
        materialised = engine.materialise()
        if materialised.number_of_nodes() == 0:
            assert step.result.initiators == set()
            continue
        want = cold.detect(materialised)
        assert results_equal(step.result, want), f"divergence at delta {index}"
    # The whole point: untouched components came back from the cache.
    assert total_reused > 0


def test_budget_mode_spot_check(stream):
    snapshot, deltas = stream
    config = RIDConfig()
    engine = StreamingDetectionEngine(snapshot, detector=RID(config))
    for delta in deltas[:5]:
        engine.apply(delta)
    materialised = engine.materialise()
    cold = RID(config)
    budget = len(cold.detect(materialised).trees) + 2
    got = engine.detect(budget=budget)
    want = cold.detect_with_budget(materialised, budget)
    assert results_equal(got, want)


@pytest.mark.parametrize("name", ["jordan_center", "multi_source"])
def test_named_detector_stream_matches_cold_detect(stream, name):
    """The detector pass-through: each step re-runs the named detector
    on the materialised snapshot — identical to a cold direct call."""
    from repro.detectors import resolve_detector

    snapshot, deltas = stream
    engine = StreamingDetectionEngine(snapshot, detector=name)
    cold = resolve_detector(name)
    for index, delta in enumerate(deltas[:8]):
        step = engine.step(delta)
        materialised = engine.materialise()
        if materialised.number_of_nodes() == 0:
            assert step.result.initiators == set()
            continue
        want = cold.detect(materialised)
        assert step.result.initiators == want.initiators, f"delta {index}"
        assert step.result.method == want.method


def test_named_rid_string_uses_the_incremental_path(stream):
    snapshot, deltas = stream
    named = StreamingDetectionEngine(snapshot, detector="rid")
    reference = StreamingDetectionEngine(snapshot, detector=RID(RIDConfig()))
    for delta in deltas[:6]:
        got = named.step(delta)
        want = reference.step(delta)
        assert results_equal(got.result, want.result)
    # the string spelling must keep the incremental engine's reuse
    assert isinstance(named.detector, RID)
