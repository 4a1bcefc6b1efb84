"""Unit tests for the certainty-cover detector."""

import pytest

from repro.detectors import CertaintyCoverConfig, CertaintyCoverDetector
from repro.detectors.certainty_cover import consistent_certainty_closure
from repro.errors import ConfigError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


def cover(**fields) -> CertaintyCoverDetector:
    return CertaintyCoverDetector(CertaintyCoverConfig(**fields))


def certain_chain() -> SignedDiGraph:
    """r(+) -> a(+) -> b(-): all links certain at alpha=3."""
    g = SignedDiGraph()
    g.add_edge("r", "a", 1, 0.5)   # boosted to 1
    g.add_edge("a", "b", -1, 1.0)  # weight-1 negative link
    g.set_states(
        {
            "r": NodeState.POSITIVE,
            "a": NodeState.POSITIVE,
            "b": NodeState.NEGATIVE,
        }
    )
    return g


class TestClosure:
    def test_full_chain_covered(self):
        g = certain_chain()
        assert consistent_certainty_closure(g, "r", alpha=3.0) == {"r", "a", "b"}

    def test_weak_link_blocks(self):
        g = certain_chain()
        g.set_weight("r", "a", 0.2)  # boosted 0.6 < 1
        assert consistent_certainty_closure(g, "r", alpha=3.0) == {"r"}

    def test_inconsistent_link_blocks(self):
        g = certain_chain()
        g.set_state("a", NodeState.NEGATIVE)  # r(+) -+-> a(-): inconsistent
        assert consistent_certainty_closure(g, "r", alpha=3.0) == {"r"}

    def test_negative_link_needs_full_weight(self):
        g = certain_chain()
        g.set_weight("a", "b", 0.9)  # negative links are not boosted
        assert consistent_certainty_closure(g, "r", alpha=3.0) == {"r", "a"}


class TestParameters:
    @pytest.mark.parametrize(
        "fields, message",
        [({"budget": 0}, "budget must be >= 1 or None"), ({"alpha": 0.5}, "alpha")],
        ids=["budget", "alpha"],
    )
    def test_bad_parameters_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            cover(**fields)


class TestDetector:
    def test_single_root_explains_chain(self):
        result = cover(alpha=3.0).detect(certain_chain())
        assert result.initiators == {"r"}
        assert result.states["r"] is NodeState.POSITIVE

    def test_residual_nodes_become_initiators(self):
        g = certain_chain()
        g.add_node("island", NodeState.NEGATIVE)
        result = cover(alpha=3.0).detect(g)
        assert result.initiators == {"r", "island"}
        assert result.states["island"] is NodeState.NEGATIVE

    def test_weak_link_splits_cover(self):
        g = certain_chain()
        g.set_weight("a", "b", 0.5)
        result = cover(alpha=3.0).detect(g)
        assert result.initiators == {"r", "b"}

    def test_max_initiators_caps_cover(self):
        g = certain_chain()
        g.set_weight("a", "b", 0.5)
        result = cover(alpha=3.0, budget=1).detect(g)
        assert len(result.initiators) == 1

    def test_greedy_prefers_bigger_closure(self):
        g = SignedDiGraph()
        g.add_edge("big", "x1", 1, 1.0)
        g.add_edge("big", "x2", 1, 1.0)
        g.add_edge("small", "y1", 1, 1.0)
        for node in g.nodes():
            g.set_state(node, NodeState.POSITIVE)
        result = cover(alpha=1.0, budget=1).detect(g)
        assert result.initiators == {"big"}

    def test_unknown_state_nodes_do_not_conduct_certainty(self):
        # The detector targets fully observed snapshots: a '?' node's
        # outgoing influence cannot be certified (its state is needed
        # for the consistency check), so it conducts nothing and ends
        # up self-covered. (The Lemma 3.1 gadget solver in
        # repro.complexity deliberately uses the weaker state-free
        # closure instead.)
        g = certain_chain()
        g.set_state("a", NodeState.UNKNOWN)
        result = cover(alpha=3.0).detect(g)
        assert result.initiators == {"r", "a", "b"}
