"""Unit tests for the k-ISOMIT-BT dynamic program."""

import pytest

from repro.core.binarize import binarize_cascade_tree
from repro.errors import DynamicProgramError
from repro.graphs.generators.trees import random_general_tree
from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.tree_dp import TreeDPKernel
from repro.types import NodeState
from repro.utils.rng import derive_seed
from tests.oracles.tree_dp import RecursiveTreeDP, brute_force_k_isomit


def binarized(tree, alpha=3.0):
    return binarize_cascade_tree(tree, alpha=alpha)


def solve_once(tree, k):
    """One solve on a fresh kernel."""
    return TreeDPKernel(tree).solve(k)


def consistent_chain(weights, alpha=3.0):
    """A positive all-consistent path 0 -> 1 -> ... with given weights."""
    g = SignedDiGraph()
    g.add_node(0, NodeState.POSITIVE)
    for i, w in enumerate(weights):
        g.add_edge(i, i + 1, 1, w)
        g.set_state(i + 1, NodeState.POSITIVE)
    return binarized(g, alpha)


class TestSingleNode:
    def test_k1_selects_the_node(self):
        g = SignedDiGraph()
        g.add_node("x", NodeState.NEGATIVE)
        result = solve_once(binarized(g), 1)
        assert result.score == 1.0
        assert result.initiators == {"x": NodeState.NEGATIVE}

    def test_k0_scores_zero(self):
        g = SignedDiGraph()
        g.add_node("x", NodeState.POSITIVE)
        result = solve_once(binarized(g), 0)
        assert result.score == 0.0
        assert result.initiators == {}

    def test_k_out_of_range_raises(self):
        g = SignedDiGraph()
        g.add_node("x", NodeState.POSITIVE)
        with pytest.raises(DynamicProgramError):
            solve_once(binarized(g), 2)
        with pytest.raises(DynamicProgramError):
            solve_once(binarized(g), -1)


class TestChain:
    def test_k1_root_scores_one_plus_products(self):
        # weights 0.2 at alpha 3 -> g = 0.6 per hop.
        binary = consistent_chain([0.2, 0.2])
        result = solve_once(binary, 1)
        assert result.score == pytest.approx(1.0 + 0.6 + 0.36)
        assert set(result.initiators) == {0}

    def test_k2_places_second_initiator_at_weakest_link(self):
        # Hop 1 strong (g=1), hop 2 weak (g=0.15): second initiator at node 2.
        binary = consistent_chain([0.5, 0.05])
        result = solve_once(binary, 2)
        assert set(result.initiators) == {0, 2}
        assert result.score == pytest.approx(1.0 + 1.0 + 1.0)

    def test_scores_monotone_in_k(self):
        binary = consistent_chain([0.1, 0.2, 0.3, 0.05])
        scores = [solve_once(binary, k).score for k in range(1, 6)]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_full_budget_explains_everything(self):
        binary = consistent_chain([0.1, 0.1, 0.1])
        result = solve_once(binary, 4)
        assert result.score == pytest.approx(4.0)
        assert len(result.initiators) == 4


class TestInferredStates:
    def test_initiator_state_is_observed_state(self):
        g = SignedDiGraph()
        g.add_node("r", NodeState.POSITIVE)
        g.add_edge("r", "c", -1, 1.0)
        g.set_state("c", NodeState.NEGATIVE)
        result = solve_once(binarized(g), 2)
        assert result.initiators == {
            "r": NodeState.POSITIVE,
            "c": NodeState.NEGATIVE,
        }


class TestDummyHandling:
    def test_dummies_never_selected(self):
        g = SignedDiGraph()
        g.add_node("r", NodeState.POSITIVE)
        for i in range(6):
            g.add_edge("r", f"c{i}", 1, 0.1)
            g.set_state(f"c{i}", NodeState.POSITIVE)
        binary = binarized(g)
        assert binary.size() > binary.num_real  # dummies exist
        result = solve_once(binary, binary.num_real)
        assert set(result.initiators) == {"r"} | {f"c{i}" for i in range(6)}

    def test_dummy_transparency_in_scoring(self):
        # A wide star: with k=1 at the root, each child is explained with
        # its own direct g regardless of the inserted dummy layer.
        g = SignedDiGraph()
        g.add_node("r", NodeState.POSITIVE)
        for i in range(5):
            g.add_edge("r", f"c{i}", 1, 0.2)
            g.set_state(f"c{i}", NodeState.POSITIVE)
        result = solve_once(binarized(g), 1)
        assert result.score == pytest.approx(1.0 + 5 * 0.6)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("size,k", [(5, 1), (5, 2), (7, 2), (7, 3), (9, 3)])
    def test_dp_matches_exhaustive_nearest_scoring(self, size, k):
        for trial in range(4):
            tree = random_general_tree(
                size, max_children=3, positive_probability=0.7,
                rng=derive_seed(size * 100 + k, trial),
            )
            # Assign sign-consistent-ish random states.
            from repro.utils.rng import spawn_rng

            rng = spawn_rng(derive_seed(size, k, trial), "states")
            for node in tree.nodes():
                tree.set_state(
                    node,
                    NodeState.POSITIVE if rng.random() < 0.6 else NodeState.NEGATIVE,
                )
            binary = binarized(tree)
            dp = solve_once(binary, k)
            brute = brute_force_k_isomit(binary, k, scoring="nearest")
            assert dp.score == pytest.approx(brute.score), (
                f"DP {dp.score} vs brute {brute.score} "
                f"(size={size}, k={k}, trial={trial})"
            )

    def test_noisy_or_upper_bounds_nearest(self):
        tree = random_general_tree(8, max_children=3, rng=5)
        for node in tree.nodes():
            tree.set_state(node, NodeState.POSITIVE)
        binary = binarized(tree)
        nearest = brute_force_k_isomit(binary, 2, scoring="nearest")
        noisy = brute_force_k_isomit(binary, 2, scoring="noisy_or")
        assert noisy.score >= nearest.score - 1e-12

    def test_unknown_scoring_rejected(self):
        binary = consistent_chain([0.5])
        with pytest.raises(DynamicProgramError):
            brute_force_k_isomit(binary, 1, scoring="bogus")


class TestSolverReuse:
    def test_memo_shared_across_k(self):
        binary = consistent_chain([0.3, 0.2, 0.4])
        solver = TreeDPKernel(binary)
        first = solver.solve(1)
        second = solver.solve(2)
        assert second.score >= first.score
        # Re-solving k=1 reads the swept tables and reproduces the result.
        states = solver.memo_states
        assert solver.solve(1).score == first.score
        assert solver.memo_states == states

    def test_path_product_memoised(self):
        binary = consistent_chain([0.2, 0.2])
        solver = RecursiveTreeDP(binary)
        root = binary.root
        leaf = [n.uid for n in binary.nodes if n.left is None and n.right is None][0]
        assert solver.path_product(root, leaf) == pytest.approx(0.36)
        assert solver.path_product(root, leaf) == pytest.approx(0.36)
