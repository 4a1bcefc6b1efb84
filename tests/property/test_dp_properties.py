"""Property-based tests for binarisation and the tree DP."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binarize import binarize_cascade_tree
from repro.graphs.generators.trees import random_general_tree
from repro.kernel.tree_dp import TreeDPKernel
from repro.types import NodeState
from repro.utils.rng import spawn_rng
from tests.oracles.tree_dp import brute_force_k_isomit


@st.composite
def stated_trees(draw):
    """Random general trees with random opinion states."""
    size = draw(st.integers(min_value=1, max_value=9))
    max_children = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    tree = random_general_tree(size, max_children=max_children, rng=seed)
    rng = spawn_rng(seed, "states")
    for node in tree.nodes():
        tree.set_state(
            node, NodeState.POSITIVE if rng.random() < 0.6 else NodeState.NEGATIVE
        )
    alpha = draw(st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
    return tree, alpha


class TestBinarisationProperties:
    @given(stated_trees())
    @settings(max_examples=60, deadline=None)
    def test_real_nodes_preserved(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        originals = {n.original for n in binary.nodes if not n.is_dummy}
        assert originals == set(tree.nodes())

    @given(stated_trees())
    @settings(max_examples=60, deadline=None)
    def test_binary_fanout(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        for node in binary.nodes:
            children = [c for c in (node.left, node.right) if c is not None]
            assert len(children) <= 2

    @given(stated_trees())
    @settings(max_examples=60, deadline=None)
    def test_dummy_g_is_one(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        for node in binary.nodes:
            if node.is_dummy:
                assert node.g_in == 1.0


class TestDPProperties:
    @given(stated_trees(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_dp_optimal_vs_brute_force(self, world, k):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        budget = min(k, binary.num_real)
        solver = TreeDPKernel(binary)
        dp = solver.solve(budget)
        brute = brute_force_k_isomit(binary, budget, scoring="nearest")
        assert abs(dp.score - brute.score) < 1e-9

    @given(stated_trees())
    @settings(max_examples=40, deadline=None)
    def test_score_monotone_in_k(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        solver = TreeDPKernel(binary)
        previous = float("-inf")
        for k in range(1, binary.num_real + 1):
            score = solver.solve(k).score
            assert score >= previous - 1e-12
            previous = score

    @given(stated_trees(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction_consistent_with_score(self, world, k):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        budget = min(k, binary.num_real)
        result = TreeDPKernel(binary).solve(budget)
        # Exactly `budget` initiators, all real tree nodes, states match
        # the observed snapshot states.
        assert len(result.initiators) == budget
        for node, state in result.initiators.items():
            assert tree.has_node(node)
            assert tree.state(node) is state

    @given(stated_trees())
    @settings(max_examples=40, deadline=None)
    def test_full_budget_score_equals_real_size(self, world):
        tree, alpha = world
        binary = binarize_cascade_tree(tree, alpha=alpha)
        result = TreeDPKernel(binary).solve(binary.num_real)
        assert abs(result.score - binary.num_real) < 1e-9
