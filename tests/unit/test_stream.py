"""Unit tests for repro.stream: deltas, event logs, incremental engine."""

import json

import pytest

from repro.codec import CacheCodecError
from repro.core.rid import RID, RIDConfig
from repro.errors import (
    ConfigError,
    DeltaApplicationError,
    EventLogFormatError,
)
from repro.graphs.signed_digraph import SignedDiGraph
from repro.stream import (
    EventLog,
    SnapshotDelta,
    StreamingDetectionEngine,
    StreamReplay,
    apply_delta,
    read_event_log,
    synthetic_stream,
    write_event_log,
)
from repro.types import NodeState


def two_component_snapshot() -> SignedDiGraph:
    """Two positive chains (1->2->3 and 10->11), plus inactive bystanders
    20 and 21 wired to each other only."""
    g = SignedDiGraph(name="two-comp")
    g.add_edge(1, 2, 1, 0.9)
    g.add_edge(2, 3, 1, 0.8)
    g.add_edge(10, 11, 1, 0.7)
    g.add_edge(20, 21, 1, 0.6)
    g.set_states({n: NodeState.POSITIVE for n in (1, 2, 3, 10, 11)})
    return g


def results_equal(a, b) -> bool:
    return (
        a.initiators == b.initiators
        and a.states == b.states
        and a.objective == b.objective
        and [sorted(t.nodes()) for t in a.trees] == [sorted(t.nodes()) for t in b.trees]
    )


class TestSnapshotDelta:
    def test_empty_and_touched(self):
        assert SnapshotDelta().is_empty()
        delta = SnapshotDelta(
            states={1: NodeState.POSITIVE},
            add_edges=[(1, 2, 1, 0.5)],
            remove_edges=[(3, 4)],
            remove_nodes=[5],
        )
        assert not delta.is_empty()
        assert delta.touched() == {1, 2, 3, 4, 5}

    def test_json_round_trip(self):
        delta = SnapshotDelta(
            states={1: NodeState.NEGATIVE, "x": NodeState.INACTIVE},
            add_edges=[("x", 1, -1, 0.25)],
            remove_edges=[(1, 2)],
            remove_nodes=["y"],
        )
        back = SnapshotDelta.from_json(delta.to_json())
        assert back == delta

    def test_from_json_rejects_a_coerced_node_id(self):
        # ["i", 1.9] would otherwise decode as node 1.
        with pytest.raises(CacheCodecError):
            SnapshotDelta.from_json({"remove_nodes": [["i", 1.9]]})

    @pytest.mark.parametrize(
        "payload",
        [
            # A sign is a JSON int in {-1, 1}: 1.9 and true are not +1.
            {"add_edges": [[["i", 1], ["i", 2], 1.9, 0.5]]},
            {"add_edges": [[["i", 1], ["i", 2], True, 0.5]]},
            {"add_edges": [[["i", 1], ["i", 2], 1.0, 0.5]]},
            # A weight is a JSON number in [0, 1], never a string or bool.
            {"add_edges": [[["i", 1], ["i", 2], 1, "0.5"]]},
            {"add_edges": [[["i", 1], ["i", 2], 1, True]]},
            {"add_edges": [[["i", 1], ["i", 2], 1, 1.5]]},
            # A state is a JSON int in {-1, 0, 1, 2}.
            {"states": [[["i", 1], True]]},
            {"states": [[["i", 1], 1.0]]},
            {"states": [[["i", 1], 1], [["i", 1], -1]]},  # a node listed twice
            {"remove_edges": [[["i", 1]]]},
            {"remove_nodes": {"i": 1}},
            [],
        ],
    )
    def test_from_json_rejects_values_it_would_coerce(self, payload):
        with pytest.raises(CacheCodecError):
            SnapshotDelta.from_json(payload)

    def test_apply_creates_unknown_state_node(self):
        g = two_component_snapshot()
        touched = apply_delta(g, SnapshotDelta(states={99: NodeState.POSITIVE}))
        assert touched == {99}
        assert g.state(99) is NodeState.POSITIVE

    def test_apply_reports_removed_node_neighbors(self):
        g = two_component_snapshot()
        touched = apply_delta(g, SnapshotDelta(remove_nodes=[2]))
        assert touched == {1, 2, 3}
        assert not g.has_node(2)

    def test_apply_missing_edge_raises(self):
        g = two_component_snapshot()
        with pytest.raises(DeltaApplicationError):
            apply_delta(g, SnapshotDelta(remove_edges=[(1, 3)]))

    def test_apply_missing_node_raises(self):
        g = two_component_snapshot()
        with pytest.raises(DeltaApplicationError):
            apply_delta(g, SnapshotDelta(remove_nodes=[99]))


class TestEventLog:
    def test_round_trip_with_snapshot(self, tmp_path):
        snapshot, deltas = synthetic_stream(components=2, size=5, deltas=4, seed=11)
        path = tmp_path / "events.jsonl"
        assert write_event_log(path, deltas, snapshot=snapshot) == 4
        log = read_event_log(path)
        assert len(log) == 4
        assert log.deltas == deltas
        assert sorted(log.snapshot.nodes()) == sorted(snapshot.nodes())
        assert log.snapshot.states() == snapshot.states()

    def test_round_trip_without_snapshot(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_event_log(path, [SnapshotDelta(states={1: NodeState.POSITIVE})])
        log = read_event_log(path)
        assert log.snapshot is None and len(log) == 1

    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "delta"}\nnot json\n')
        with pytest.raises(EventLogFormatError, match="line 2"):
            read_event_log(path)

    def test_snapshot_must_be_first(self, tmp_path):
        snapshot, deltas = synthetic_stream(components=2, size=4, deltas=1, seed=1)
        path = tmp_path / "events.jsonl"
        write_event_log(path, deltas, snapshot=snapshot)
        with open(path) as fh:
            lines = fh.readlines()
        path.write_text(lines[1] + lines[0])
        with pytest.raises(EventLogFormatError, match="first line"):
            read_event_log(path)

    def test_unknown_record_type(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(EventLogFormatError, match="mystery"):
            read_event_log(path)

    def test_unsupported_format_tag(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "snapshot", "format": "repro.stream/v99", "graph": {}}\n')
        with pytest.raises(EventLogFormatError, match="v99"):
            read_event_log(path)

    @pytest.mark.parametrize(
        "graph",
        [
            [],  # an array, not a graph object
            {"nodes": [[["i", 1], 1], [["i", 1], 1]], "edges": []},
            {"nodes": [[["i", 1], 1]], "edges": [[["i", 1], ["i", 2], 1, 0.5]]},
            {
                "nodes": [[["i", 1], 1], [["i", 2], 1]],
                "edges": [[["i", 1], ["i", 2], 1, 0.5], [["i", 1], ["i", 2], -1, 0.5]],
            },
        ],
    )
    def test_malformed_snapshot_graph_reports_line_number(self, tmp_path, graph):
        path = tmp_path / "events.jsonl"
        record = {"type": "snapshot", "format": "repro.stream/v1", "graph": graph}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(EventLogFormatError, match="line 1"):
            read_event_log(path)

    def test_over_deep_line_reports_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "delta"}\n' + "[" * 50_000 + "]" * 50_000 + "\n")
        with pytest.raises(EventLogFormatError, match="line 2"):
            read_event_log(path)


class TestStreamingEngine:
    def assert_identical_to_cold(self, engine):
        mat = engine.materialise()
        got = engine.detect()
        if mat.number_of_nodes() == 0:
            assert got.initiators == set() and got.trees == []
            return
        want = RID(engine.detector.config).detect(mat)
        assert results_equal(got, want)

    def test_initial_partition_matches_cold_components(self):
        engine = StreamingDetectionEngine(two_component_snapshot())
        comps = engine.components()
        assert [sorted(c.nodes()) for c in comps] == [[1, 2, 3], [10, 11]]
        self.assert_identical_to_cold(engine)

    def test_copy_semantics_protect_caller_graph(self):
        g = two_component_snapshot()
        engine = StreamingDetectionEngine(g)
        engine.apply(SnapshotDelta(remove_nodes=[3]))
        assert g.has_node(3)  # caller's graph untouched

    def test_zero_dirty_component_delta_is_full_reuse(self):
        """A delta touching only inactive bystanders invalidates nothing:
        re-detection must be 100% artifact-cache hits."""
        engine = StreamingDetectionEngine(two_component_snapshot())
        engine.detect()  # warm the cache
        warm_reuse = engine.last_reused_artifacts
        report = engine.apply(SnapshotDelta(add_edges=[(21, 20, 1, 0.5)]))
        assert report.invalidated_components == 0
        assert report.recomputed_components == 0
        assert report.total_components == 2
        engine.detect()
        assert engine.last_computed_artifacts == 0
        assert engine.last_reused_artifacts >= max(warm_reuse, 1)
        self.assert_identical_to_cold(engine)

    def test_merge_two_components(self):
        engine = StreamingDetectionEngine(two_component_snapshot())
        report = engine.apply(SnapshotDelta(add_edges=[(3, 10, 1, 0.5)]))
        assert report.invalidated_components == 2
        assert report.recomputed_components == 1
        assert engine.component_count() == 1
        assert sorted(engine.components()[0].nodes()) == [1, 2, 3, 10, 11]
        self.assert_identical_to_cold(engine)

    def test_merge_via_reinfection_absorbs_untouched_component(self):
        """Re-activating a bystander wired to an untouched component must
        absorb that component on contact (the BFS reaches it through a
        resurrected live edge)."""
        g = two_component_snapshot()
        g.add_edge(11, 20, 1, 0.5)  # dormant link into inactive 20
        engine = StreamingDetectionEngine(g)
        assert engine.component_count() == 2
        engine.apply(SnapshotDelta(states={20: NodeState.POSITIVE}))
        assert engine.component_count() == 2  # {1,2,3} and {10,11,20}
        assert sorted(engine.components()[1].nodes()) == [10, 11, 20]
        self.assert_identical_to_cold(engine)

    def test_recovery_splits_component(self):
        engine = StreamingDetectionEngine(two_component_snapshot())
        report = engine.apply(SnapshotDelta(states={2: NodeState.INACTIVE}))
        assert report.invalidated_components == 1
        assert report.recomputed_components == 2  # {1} and {3}
        assert engine.component_count() == 3
        self.assert_identical_to_cold(engine)

    def test_emptying_the_infection_yields_empty_result(self):
        """Cold detect raises EmptyInfectionError on zero nodes; the
        stream must instead produce a well-formed empty result."""
        engine = StreamingDetectionEngine(two_component_snapshot())
        engine.apply(
            SnapshotDelta(states={n: NodeState.INACTIVE for n in (1, 2, 3, 10, 11)})
        )
        assert engine.component_count() == 0
        result = engine.detect()
        assert result.initiators == set()
        assert result.states == {}
        assert result.trees == []
        assert result.objective == 0.0
        # Budget mode: only budget=0 is feasible on an empty infection.
        assert engine.detect(budget=0).initiators == set()
        with pytest.raises(ConfigError):
            engine.detect(budget=1)

    def test_reinfection_after_empty(self):
        engine = StreamingDetectionEngine(two_component_snapshot())
        engine.apply(
            SnapshotDelta(states={n: NodeState.INACTIVE for n in (1, 2, 3, 10, 11)})
        )
        engine.apply(SnapshotDelta(states={2: NodeState.POSITIVE, 3: NodeState.POSITIVE}))
        assert engine.component_count() == 1
        self.assert_identical_to_cold(engine)

    def test_sign_flip_prunes_live_edge(self):
        """An opinion flip that breaks Definition 5 consistency must
        split the component exactly like the cold Prune stage would."""
        engine = StreamingDetectionEngine(two_component_snapshot())
        engine.apply(SnapshotDelta(states={3: NodeState.NEGATIVE}))
        # Edge 2->3 (sign +1) now inconsistent: +1 * +1 != -1.
        assert engine.component_count() == 3
        self.assert_identical_to_cold(engine)

    def test_budget_mode_matches_cold(self):
        engine = StreamingDetectionEngine(two_component_snapshot())
        engine.apply(SnapshotDelta(states={11: NodeState.NEGATIVE}))
        mat = engine.materialise()
        cold = RID(engine.detector.config)
        trees = len(cold.detect(mat).trees)
        got = engine.detect(budget=trees + 1)
        want = cold.detect_with_budget(mat, trees + 1)
        assert results_equal(got, want)

    def test_partition_invariant_after_synthetic_replay(self):
        """After any replay, the partition must exactly cover the active
        nodes, one component per live-connected piece."""
        snapshot, deltas = synthetic_stream(components=3, size=8, deltas=7, seed=5)
        engine = StreamingDetectionEngine(snapshot)
        for delta in deltas:
            engine.apply(delta)
            covered = set()
            for comp in engine.components():
                nodes = set(comp.nodes())
                assert not (covered & nodes)
                covered |= nodes
            active = {
                n for n in engine.graph.nodes() if engine.graph.state(n).is_active
            }
            assert covered == active
        self.assert_identical_to_cold(engine)


class TestStreamReplay:
    """The replay result object: sequence-compatible plus named views."""

    def _replay(self, deltas=3, seed=2):
        snapshot, stream = synthetic_stream(
            components=2, size=6, deltas=deltas, seed=seed
        )
        return StreamingDetectionEngine(snapshot).replay(stream)

    def test_is_a_sequence_over_steps(self):
        replay = self._replay()
        assert isinstance(replay, StreamReplay)
        assert len(replay) == 3
        assert list(replay) == replay.steps
        assert replay[0] is replay.steps[0]
        assert replay[-1] is replay.steps[-1]
        assert replay[1:] == replay.steps[1:]
        assert replay.steps[0] in replay

    def test_final_is_last_step_result(self):
        replay = self._replay()
        assert replay.final is replay.steps[-1].result

    def test_latencies_align_with_steps(self):
        replay = self._replay()
        assert len(replay.latencies) == len(replay.steps)
        assert all(lat > 0.0 for lat in replay.latencies)

    def test_empty_replay(self):
        snapshot, _ = synthetic_stream(components=2, size=5, deltas=1, seed=3)
        replay = StreamingDetectionEngine(snapshot).replay([])
        assert len(replay) == 0
        assert replay.final is None
        assert replay.latencies == []

    def test_misaligned_latencies_rejected(self):
        with pytest.raises(ValueError, match="align"):
            StreamReplay([], latencies=[0.1])


class TestFacade:
    def test_detect_stream_accepts_deltas_iterable(self):
        snapshot, deltas = synthetic_stream(components=2, size=6, deltas=3, seed=2)
        import repro

        replay = repro.detect_stream(deltas, snapshot)
        assert isinstance(replay, StreamReplay)
        assert len(replay) == 3
        # Positional access stays sequence-compatible...
        assert replay[-1].result.method.startswith("rid(")
        # ...and the named accessor is the same object.
        assert replay.final is replay[-1].result

    def test_detect_stream_requires_a_graph(self):
        with pytest.raises(ConfigError):
            import repro

            repro.detect_stream([SnapshotDelta()])

    def test_detect_stream_rejects_double_snapshot(self, tmp_path):
        snapshot, deltas = synthetic_stream(components=2, size=5, deltas=2, seed=3)
        path = tmp_path / "events.jsonl"
        write_event_log(path, deltas, snapshot=snapshot)
        import repro

        with pytest.raises(ConfigError):
            repro.detect_stream(str(path), snapshot)

    def test_detect_stream_event_log_object(self):
        snapshot, deltas = synthetic_stream(components=2, size=5, deltas=2, seed=4)
        import repro

        steps = repro.detect_stream(EventLog(snapshot=snapshot, deltas=deltas))
        assert len(steps) == 2
