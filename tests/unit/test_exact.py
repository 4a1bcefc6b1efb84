"""Unit tests for the exact ISOMIT solvers.

The two RID comparisons below pin one hand-checked chain; that the
optimum bounds RID's on every small snapshot is a property test:
``tests/property/test_exact_bounds_rid.py``.
"""

import pytest

from repro.core.rid import RID, RIDConfig
from repro.errors import DetectionError, EmptyInfectionError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import NodeState
from tests.oracles.exact import exact_isomit_additive, exact_isomit_likelihood


def chain(weights, signs=None) -> SignedDiGraph:
    """A consistent positive-state chain with given weights/signs."""
    signs = signs or [1] * len(weights)
    g = SignedDiGraph()
    g.add_node(0, NodeState.POSITIVE)
    state = NodeState.POSITIVE
    for i, (w, s) in enumerate(zip(weights, signs)):
        g.add_edge(i, i + 1, s, w)
        state = state.times(g.sign(i, i + 1))
        g.set_state(i + 1, state)
    return g


class TestGuards:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInfectionError):
            exact_isomit_likelihood(SignedDiGraph())

    def test_oversize_rejected(self):
        g = chain([0.5] * 15)
        with pytest.raises(DetectionError):
            exact_isomit_likelihood(g, max_nodes=10)

    def test_non_infected_rejected(self):
        g = chain([0.5])
        g.set_state(1, NodeState.INACTIVE)
        with pytest.raises(DetectionError):
            exact_isomit_likelihood(g)


class TestLikelihoodSolver:
    def test_single_root_explains_strong_chain(self):
        # alpha 3, w 0.4 -> every link certain: root alone has likelihood 1.
        g = chain([0.4, 0.4])
        solution = exact_isomit_likelihood(g, alpha=3.0)
        assert solution.initiators == {0: NodeState.POSITIVE}
        assert solution.objective == pytest.approx(1.0)

    def test_prefers_fewer_initiators_on_ties(self):
        g = chain([0.4])
        solution = exact_isomit_likelihood(g, alpha=3.0)
        assert len(solution.initiators) == 1

    def test_weak_link_forces_second_initiator(self):
        # Middle link near-zero: explaining node 2 requires it (or an
        # ancestor chain through probability ~0); two initiators win.
        g = chain([0.4, 0.001])
        solution = exact_isomit_likelihood(g, alpha=3.0)
        assert set(solution.initiators) == {0, 2}
        assert solution.objective == pytest.approx(1.0)

    def test_observed_states_only_matches_full_search_without_flips(self):
        g = chain([0.3, 0.2], signs=[1, -1])
        fast = exact_isomit_likelihood(g, alpha=3.0, observed_states_only=True)
        full = exact_isomit_likelihood(g, alpha=3.0, observed_states_only=False)
        assert fast.objective == pytest.approx(full.objective)
        assert fast.evaluated < full.evaluated

    def test_negative_chain_states_respected(self):
        g = chain([0.4], signs=[-1])
        solution = exact_isomit_likelihood(g, alpha=3.0)
        # Node 1 observed NEGATIVE; a single negative-link hop has
        # probability 0.4 < 1, so the optimum adds node 1 as initiator.
        assert solution.initiators[0] is NodeState.POSITIVE
        if 1 in solution.initiators:
            assert solution.initiators[1] is NodeState.NEGATIVE


class TestAdditiveSolver:
    def test_penalty_controls_initiator_count(self):
        g = chain([0.05, 0.05])  # weak everywhere: splitting is tempting
        cheap = exact_isomit_additive(g, alpha=3.0, beta=0.0)
        expensive = exact_isomit_additive(g, alpha=3.0, beta=2.0)
        assert len(cheap.initiators) >= len(expensive.initiators)
        assert len(expensive.initiators) == 1

    def test_objective_accounts_for_beta(self):
        g = chain([0.05])
        solution = exact_isomit_additive(g, alpha=3.0, beta=0.5)
        # Either {0} scoring 1 + 0.15, or {0,1} scoring 2 - 0.5 = 1.5.
        assert solution.objective == pytest.approx(1.5)
        assert set(solution.initiators) == {0, 1}

    def test_upper_bounds_rid_on_same_snapshot(self):
        g = chain([0.2, 0.05, 0.3])
        beta = 0.4
        exact = exact_isomit_additive(g, alpha=3.0, beta=beta)
        detector = RID(RIDConfig(alpha=3.0, beta=beta))
        rid_result = detector.detect(g)
        assert exact.objective >= (rid_result.objective or 0.0) - 1e-9

    def test_nearest_ancestor_collapse_gap_is_small(self):
        # The DP collapses the noisy-or over all ancestor initiators to
        # the nearest one (DESIGN.md §6.4). The exact solver quantifies
        # the resulting optimality gap; on this chain it is the tiny
        # second-ancestor term (~0.02), far below one β.
        g = chain([0.2, 0.05, 0.3])
        beta = 0.4
        exact = exact_isomit_additive(g, alpha=3.0, beta=beta)
        detector = RID(RIDConfig(alpha=3.0, beta=beta))
        rid_result = detector.detect(g)
        gap = exact.objective - (rid_result.objective or 0.0)
        assert 0.0 <= gap < 0.1
        # Both agree on the dominant structure: the root plus a split
        # below the weakest link.
        assert {0, 2} <= set(exact.initiators)
        assert {0, 2} <= rid_result.initiators
