"""Unit tests for the simulation-matching detector."""

import pytest

from repro.detectors import SimulationMatchingConfig, SimulationMatchingDetector
from repro.errors import ConfigError
from repro.graphs.generators.trees import path_graph, star_graph
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState


def matcher(**fields) -> SimulationMatchingDetector:
    return SimulationMatchingDetector(SimulationMatchingConfig(**fields))


def infected(graph: SignedDiGraph) -> SignedDiGraph:
    for node in graph.nodes():
        graph.set_state(node, NodeState.POSITIVE)
    return graph


class TestParameters:
    def test_bad_trials_rejected(self):
        with pytest.raises(ConfigError):
            matcher(trials=0)

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigError):
            matcher(budget=0)

    def test_bad_candidate_limit_rejected(self):
        with pytest.raises(ConfigError, match="candidate_limit"):
            matcher(candidate_limit=0)


class TestDetection:
    def test_star_hub_detected(self):
        g = infected(star_graph(5, weight=1.0))
        result = matcher(trials=4, seed=1).detect(g)
        assert "0" not in result.initiators or True  # hub label is int 0
        assert 0 in result.initiators

    def test_path_source_detected(self):
        g = infected(path_graph(4, weight=1.0))
        result = matcher(trials=4, seed=1).detect(g)
        assert 0 in result.initiators

    def test_states_reported(self):
        g = infected(star_graph(3, weight=1.0))
        result = matcher(trials=4, seed=1).detect(g)
        assert set(result.states) == result.initiators
        assert all(s is NodeState.POSITIVE for s in result.states.values())

    def test_singleton_component(self):
        g = SignedDiGraph()
        g.add_node("solo", NodeState.NEGATIVE)
        result = matcher(trials=2, seed=1).detect(g)
        assert result.initiators == {"solo"}
        assert result.states["solo"] is NodeState.NEGATIVE

    def test_budget_respected(self):
        g = infected(path_graph(6, weight=0.6))
        result = matcher(
            trials=4, budget=2, seed=1
        ).detect(g)
        assert 1 <= len(result.initiators) <= 2


class TestMatchScore:
    def test_perfect_match_scores_one(self):
        g = infected(star_graph(3, weight=1.0))
        detector = matcher(trials=3, seed=1)
        score = detector.match_score(g, {0: NodeState.POSITIVE}, stream=0)
        assert score == pytest.approx(1.0)

    def test_partial_match_scores_less(self):
        g = infected(star_graph(3, weight=1.0))
        detector = matcher(trials=3, seed=1)
        leaf_score = detector.match_score(g, {1: NodeState.POSITIVE}, stream=0)
        assert leaf_score < 1.0

    def test_hub_beats_leaf(self):
        g = infected(star_graph(4, weight=1.0))
        detector = matcher(trials=3, seed=1)
        hub = detector.match_score(g, {0: NodeState.POSITIVE}, stream=0)
        leaf = detector.match_score(g, {2: NodeState.POSITIVE}, stream=0)
        assert hub > leaf
