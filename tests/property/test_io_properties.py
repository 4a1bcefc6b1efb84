"""Property-based round-trip tests for graph serialisation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import decode_graph, encode_graph
from repro.graphs.io import iter_snap_edges
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


@st.composite
def serialisable_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    graph = SignedDiGraph(name=draw(st.text(max_size=8)))
    graph.add_nodes(range(n))
    for node in range(n):
        graph.set_state(
            node,
            draw(
                st.sampled_from(
                    [
                        NodeState.POSITIVE,
                        NodeState.NEGATIVE,
                        NodeState.INACTIVE,
                        NodeState.UNKNOWN,
                    ]
                )
            ),
        )
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        u = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
        v = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
        if n and u != v:
            graph.add_edge(
                u,
                v,
                draw(st.sampled_from([-1, 1])),
                draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
            )
    return graph


class TestJsonRoundTripProperties:
    @given(serialisable_graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_everything(self, graph):
        clone = decode_graph(encode_graph(graph))
        assert clone.name == graph.name
        assert set(clone.nodes()) == set(graph.nodes())
        assert clone.states() == graph.states()
        assert {(u, v) for u, v, _ in clone.iter_edges()} == {
            (u, v) for u, v, _ in graph.iter_edges()
        }
        for u, v, data in graph.iter_edges():
            assert clone.sign(u, v) is data.sign
            assert clone.weight(u, v) == data.weight


class TestSnapLineProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=0, max_value=1000),
                st.sampled_from([-1, 1]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_formatting_round_trip(self, triples):
        lines = [f"{u}\t{v}\t{s}" for u, v, s in triples]
        parsed = list(iter_snap_edges(iter(lines)))
        assert parsed == triples

    @given(st.lists(st.sampled_from(["# comment", "", "   ", "# x\ty\tz"]), max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_comments_and_blanks_ignored(self, lines):
        assert list(iter_snap_edges(iter(lines))) == []
