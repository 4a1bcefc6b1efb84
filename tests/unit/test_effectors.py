"""Unit tests for the k-effectors baseline."""

import pytest

from repro.detectors import KEffectorsConfig, KEffectorsDetector
from repro.errors import ConfigError
from repro.graphs.generators.trees import path_graph, star_graph
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


def effectors(**fields) -> KEffectorsDetector:
    return KEffectorsDetector(KEffectorsConfig(**fields))


def infected(graph: SignedDiGraph) -> SignedDiGraph:
    for node in graph.nodes():
        graph.set_state(node, NodeState.POSITIVE)
    return graph


class TestParameters:
    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            effectors(budget=0)

    def test_bad_trials_rejected(self):
        with pytest.raises(ConfigError):
            effectors(trials=0)

    def test_bad_candidate_limit_rejected(self):
        with pytest.raises(ConfigError, match="candidate_limit"):
            effectors(candidate_limit=0)


class TestDetection:
    def test_star_hub_detected(self):
        # The hub explains all leaves with certainty; any leaf explains
        # almost nothing.
        g = infected(star_graph(5, weight=1.0))
        result = effectors(trials=5, seed=1).detect(g)
        assert result.initiators == {0}

    def test_path_source_detected(self):
        g = infected(path_graph(5, weight=1.0))
        result = effectors(trials=5, seed=1).detect(g)
        assert result.initiators == {0}  # only node 0 reaches everything

    def test_one_per_component(self):
        g = infected(path_graph(3, weight=1.0))
        h = path_graph(3, weight=1.0)
        for u, v, d in h.iter_edges():
            g.add_edge(f"h{u}", f"h{v}", int(d.sign), d.weight)
        for node in list(g.nodes()):
            g.set_state(node, NodeState.POSITIVE)
        result = effectors(trials=5, seed=1).detect(g)
        assert len(result.initiators) == 2

    def test_singleton_components_are_effectors(self):
        g = SignedDiGraph()
        g.add_node("solo", NodeState.POSITIVE)
        result = effectors(trials=3, seed=1).detect(g)
        assert result.initiators == {"solo"}

    def test_k_budget_respected(self):
        g = infected(path_graph(6, weight=0.5))
        result = effectors(budget=2, trials=5, seed=1).detect(g)
        assert 1 <= len(result.initiators) <= 2

    def test_candidate_limit_bounds_work(self):
        g = infected(path_graph(10, weight=0.5))
        result = effectors(
            budget=1, trials=3, candidate_limit=3, seed=1
        ).detect(g)
        assert len(result.initiators) == 1


class TestCost:
    def test_cost_zero_for_perfect_explanation(self):
        g = infected(star_graph(4, weight=1.0))
        detector = effectors(trials=4, seed=1)
        assert detector.cost(g, {0}, stream=0) == pytest.approx(0.0)

    def test_cost_counts_unexplained_nodes(self):
        g = infected(path_graph(4, weight=0.0))  # nothing propagates
        detector = effectors(trials=4, seed=1)
        # Choosing node 0 leaves nodes 1..3 unexplained.
        assert detector.cost(g, {0}, stream=0) == pytest.approx(3.0)

    def test_better_explainers_cost_less(self):
        g = infected(path_graph(4, weight=1.0))
        detector = effectors(trials=4, seed=1)
        assert detector.cost(g, {0}, stream=0) < detector.cost(g, {3}, stream=0)
