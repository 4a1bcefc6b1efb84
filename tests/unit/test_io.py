"""Unit tests for graph (de)serialisation: SNAP edge lists and the JSON codec."""

import gzip

import pytest

from repro.codec import decode_graph, encode_graph
from repro.errors import GraphFormatError
from repro.graphs.io import (
    iter_snap_edges,
    read_snap_signed_edgelist,
    write_snap_signed_edgelist,
)
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState, Sign

SNAP_SAMPLE = """# Directed graph: soc-sign-epinions
# Nodes: 4 Edges: 4
# FromNodeId\tToNodeId\tSign
0\t1\t1
1\t2\t-1
2\t3\t1
3\t3\t1
"""


@pytest.fixture
def snap_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text(SNAP_SAMPLE)
    return path


class TestSnapParsing:
    def test_reads_edges_and_signs(self, snap_file):
        g = read_snap_signed_edgelist(snap_file)
        assert g.number_of_edges() == 3  # self-loop dropped
        assert g.sign(1, 2) is Sign.NEGATIVE
        assert g.sign(0, 1) is Sign.POSITIVE

    def test_self_loops_kept_on_request(self, snap_file):
        g = read_snap_signed_edgelist(snap_file, skip_self_loops=False)
        assert g.number_of_edges() == 4
        assert g.has_edge(3, 3)

    def test_default_weight_applied(self, snap_file):
        g = read_snap_signed_edgelist(snap_file, default_weight=0.5)
        assert g.weight(0, 1) == 0.5

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "sample.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(SNAP_SAMPLE)
        g = read_snap_signed_edgelist(path)
        assert g.number_of_edges() == 3

    def test_malformed_row_rejected(self):
        with pytest.raises(GraphFormatError) as err:
            list(iter_snap_edges(iter(["0 1"])))
        assert "line 1" in str(err.value)

    def test_non_integer_rejected(self):
        with pytest.raises(GraphFormatError):
            list(iter_snap_edges(iter(["a b 1"])))

    def test_bad_sign_rejected(self):
        with pytest.raises(GraphFormatError):
            list(iter_snap_edges(iter(["0 1 2"])))

    def test_write_read_round_trip(self, tmp_path):
        g = SignedDiGraph(name="rt")
        g.add_edge(10, 20, -1, 1.0)
        g.add_edge(20, 30, 1, 1.0)
        path = tmp_path / "out.txt"
        write_snap_signed_edgelist(g, path)
        loaded = read_snap_signed_edgelist(path)
        assert {(u, v, int(d.sign)) for u, v, d in loaded.iter_edges()} == {
            (10, 20, -1),
            (20, 30, 1),
        }


class TestJsonRoundTrip:
    def build(self) -> SignedDiGraph:
        g = SignedDiGraph(name="json-rt")
        g.add_edge("a", "b", 1, 0.25)
        g.add_edge("b", "c", -1, 0.75)
        g.set_state("a", NodeState.POSITIVE)
        g.set_state("c", NodeState.UNKNOWN)
        return g

    def test_dict_round_trip(self):
        g = self.build()
        clone = decode_graph(encode_graph(g))
        assert clone.name == "json-rt"
        assert clone.weight("a", "b") == 0.25
        assert clone.sign("b", "c") is Sign.NEGATIVE
        assert clone.state("a") is NodeState.POSITIVE
        assert clone.state("c") is NodeState.UNKNOWN

