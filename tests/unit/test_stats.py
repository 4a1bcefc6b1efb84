"""Unit tests for graph statistics (Table II substrate)."""

import pytest

from repro.graphs.signed_digraph import SignedDiGraph
from repro.graphs.stats import positive_fraction, reciprocity, summarize


def mixed_graph() -> SignedDiGraph:
    g = SignedDiGraph(name="mixed")
    g.add_edge("a", "b", 1, 0.5)
    g.add_edge("b", "a", 1, 0.5)
    g.add_edge("b", "c", -1, 0.5)
    g.add_edge("c", "a", 1, 0.5)
    return g


class TestPositiveFraction:
    def test_mixed(self):
        assert positive_fraction(mixed_graph()) == pytest.approx(3 / 4)

    def test_empty_graph(self):
        assert positive_fraction(SignedDiGraph()) == 0.0


class TestReciprocity:
    def test_mixed(self):
        # (a,b) and (b,a) are mutual: 2 of 4 edges.
        assert reciprocity(mixed_graph()) == pytest.approx(0.5)

    def test_empty(self):
        assert reciprocity(SignedDiGraph()) == 0.0


class TestSummarize:
    def test_fields(self):
        summary = summarize(mixed_graph())
        assert summary.name == "mixed"
        assert summary.num_nodes == 3
        assert summary.num_edges == 4
        assert summary.max_in_degree == 2
        assert summary.mean_degree == pytest.approx(8 / 3)
        assert summary.link_type == "directed"

    def test_as_row_matches_table2_columns(self):
        row = summarize(mixed_graph()).as_row()
        assert row == ("mixed", 3, 4, "directed")

    def test_empty_graph(self):
        summary = summarize(SignedDiGraph(), name="empty")
        assert summary.num_nodes == 0
        assert summary.mean_degree == 0.0
