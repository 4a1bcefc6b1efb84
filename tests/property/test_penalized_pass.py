"""RID's β mode: the one-pass penalised tree DP against the budget curve.

``TreeDPKernel.solve_penalized(β)`` charges β to each initiator inside
the DP and returns the placement maximising ``OPT(k) − (k − 1)·β`` over
every ``k >= 1`` in one pass. The oracles in ``tests/oracles/tree_dp.py``
read the same selection off the kernel's budget curve:
``greedy_stop`` is the paper's rule (grow k until the objective stops
improving) and ``best_over_k`` scans every k. ``beta_interval`` is
checked against the breakpoints of the same curve.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binarize import binarize_cascade_tree
from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.tree_dp import TreeDPKernel
from repro.types import NodeState
from tests.oracles.tree_dp import best_over_k, greedy_stop, paper_stop_is_exact
from tests.property.tree_strategies import saturated_trees

betas = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


def objective(result, beta):
    return result.score - (result.k - 1) * beta


class TestPenalizedPass:
    @given(saturated_trees(max_size=40), betas)
    @settings(max_examples=150, deadline=None)
    def test_pass_is_the_exact_selection(self, drawn, beta):
        tree, alpha = drawn
        binary = binarize_cascade_tree(tree, alpha=alpha)
        found = TreeDPKernel(binary).solve_penalized(beta)
        assert found.k >= 1
        assert found.k == len(found.initiators)
        paper = greedy_stop(binary, beta)
        assert objective(found, beta) >= objective(paper, beta) - 1e-9
        assert objective(found, beta) == pytest.approx(
            objective(best_over_k(binary, beta), beta), abs=1e-9
        )
        if paper_stop_is_exact(binary, beta):
            assert (found.k, found.initiators) == (paper.k, paper.initiators)
        # Rescored in the sweep's order: bit-equal on the same placement.
        budgeted = TreeDPKernel(binary).solve(found.k)
        if budgeted.initiators == found.initiators:
            assert found.score.hex() == budgeted.score.hex()

    @given(saturated_trees(max_size=40), st.sampled_from((1.0, 2.0)))
    @settings(max_examples=60, deadline=None)
    def test_at_least_one_initiator_at_high_beta(self, drawn, beta):
        tree, alpha = drawn
        binary = binarize_cascade_tree(tree, alpha=alpha)
        found = TreeDPKernel(binary).solve_penalized(beta)
        assert found.k >= 1
        assert objective(found, beta) >= objective(greedy_stop(binary, beta), beta) - 1e-9

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_single_node_tree_keeps_its_node(self, beta):
        tree = SignedDiGraph()
        tree.add_node("x", NodeState.NEGATIVE)
        found = TreeDPKernel(binarize_cascade_tree(tree, alpha=3.0)).solve_penalized(beta)
        assert (found.k, found.score, found.initiators) == (1, 1.0, {"x": NodeState.NEGATIVE})

    def test_exact_tie_keeps_the_smaller_k(self):
        # g = 0.5 on r -> x and beta = 0.5: {r} scores 1.5, {r, x} scores
        # 2 - 0.5 = 1.5. The pass keeps x out, as the paper's stop does.
        tree = SignedDiGraph()
        tree.add_edge("r", "x", -1, 0.5)  # negative links are not boosted
        tree.set_states({"r": NodeState.POSITIVE, "x": NodeState.NEGATIVE})
        binary = binarize_cascade_tree(tree, alpha=3.0)
        found = TreeDPKernel(binary).solve_penalized(0.5)
        assert (found.k, found.score) == (1, 1.5)
        assert found.initiators == greedy_stop(binary, 0.5).initiators


def breakpoints(binary, k):
    """The β interval on which ``k`` is optimal, read off ``OPT(k)``."""
    curve = [0.0] + [r.score for r in TreeDPKernel(binary).solve_curve(binary.num_real)]
    more = [(curve[j] - curve[k]) / (j - k) for j in range(k + 1, binary.num_real + 1)]
    fewer = [(curve[k] - curve[j]) / (k - j) for j in range(1, k)]
    return max(more + [0.0]), min(fewer) if fewer else None


class TestBetaInterval:
    @given(saturated_trees(max_size=25), st.floats(min_value=0.0, max_value=1.5))
    @settings(max_examples=100, deadline=None)
    def test_ends_are_the_curve_breakpoints(self, drawn, beta):
        tree, alpha = drawn
        binary = binarize_cascade_tree(tree, alpha=alpha)
        kernel = TreeDPKernel(binary)
        found = kernel.solve_penalized(beta)
        low, high = kernel.beta_interval(found)
        want_low, want_high = breakpoints(binary, found.k)
        assert low == pytest.approx(want_low, abs=1e-7)
        if want_high is None:
            assert high is None
        else:
            assert high == pytest.approx(want_high, abs=1e-7)
            assert low <= beta + 1e-7 and beta <= high + 1e-7
