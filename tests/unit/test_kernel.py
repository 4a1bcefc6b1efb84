"""Unit tests for the CSR cascade kernel (`repro.kernel`)."""

import pickle

import pytest

from repro.diffusion.ic import ICModel
from repro.diffusion.mfc import MFCModel
from repro.diffusion.monte_carlo import estimate_spread, simulate_many
from repro.errors import InvalidSeedError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.kernel.cascade import check_seeds_compiled
from repro.kernel.compile import compile_graph
from repro.runtime import RuntimeConfig
from repro.runtime.cache import graph_digest, model_digest
from repro.types import NodeState
from tests.oracles.cascades import ReferenceICModel, ReferenceMFCModel


def diamond() -> SignedDiGraph:
    g = SignedDiGraph(name="diamond")
    g.add_edge("s", "a", 1, 0.8)
    g.add_edge("s", "b", -1, 0.4)
    g.add_edge("a", "t", 1, 0.5)
    g.add_edge("b", "t", 1, 0.9)
    return g


class TestCompile:
    def test_csr_layout_pinned(self):
        compiled = compile_graph(diamond())
        # repr-sorted node order: 'a' < 'b' < 's' < 't'.
        assert compiled.nodes == ["a", "b", "s", "t"]
        assert compiled.index == {"a": 0, "b": 1, "s": 2, "t": 3}
        assert list(compiled.indptr) == [0, 1, 2, 4, 4]
        assert list(compiled.targets) == [3, 3, 0, 1]  # a->t, b->t, s->a, s->b
        assert list(compiled.signs) == [1, 1, 1, 0]
        assert list(compiled.weights) == [0.5, 0.9, 0.8, 0.4]
        assert compiled.num_nodes == 4
        assert compiled.num_edges == 4

    def test_targets_ascending_within_each_row(self):
        g = SignedDiGraph()
        # Insert successors of 0 in scrambled order.
        for v in (7, 3, 11, 5):
            g.add_edge(0, v, 1, 0.5)
        compiled = compile_graph(g)
        row = list(compiled.targets[compiled.indptr[0] : compiled.indptr[1]])
        assert row == sorted(row)

    def test_probabilities_boost_and_clamp(self):
        compiled = compile_graph(diamond())
        probs = list(compiled.probabilities(3.0))
        # positive slots boosted min(1, 3w); the negative slot keeps w=0.4.
        assert probs == [1.0, 1.0, 1.0, 0.4]
        assert list(compiled.probabilities(1.0)) == [0.5, 0.9, 0.8, 0.4]

    def test_probabilities_cached_per_alpha(self):
        compiled = compile_graph(diamond())
        assert compiled.probabilities(2.0) is compiled.probabilities(2.0)

    def test_has_node(self):
        compiled = compile_graph(diamond())
        assert compiled.has_node("a")
        assert not compiled.has_node("zzz")


class TestCompileCache:
    def test_unmutated_graph_compiles_once(self):
        g = diamond()
        assert compile_graph(g) is compile_graph(g)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge("t", "s", 1, 0.2),
            lambda g: g.remove_edge("s", "a"),
            lambda g: g.set_weight("s", "b", 0.7),
            lambda g: g.add_node("new"),
            lambda g: g.remove_node("t"),
        ],
        ids=["add_edge", "remove_edge", "set_weight", "add_node", "remove_node"],
    )
    def test_structural_mutation_invalidates(self, mutate):
        g = diamond()
        before = compile_graph(g)
        mutate(g)
        after = compile_graph(g)
        assert after is not before

    def test_set_state_keeps_compiled_form(self):
        # The CSR form encodes no states; state churn must stay cache-hot.
        g = diamond()
        before = compile_graph(g)
        g.set_state("a", NodeState.POSITIVE)
        assert compile_graph(g) is before

    def test_recompiled_form_reflects_mutation(self):
        g = diamond()
        compile_graph(g)
        g.set_weight("s", "a", 0.1)
        compiled = compile_graph(g)
        slot = compiled.indptr[compiled.index["s"]]
        assert compiled.weights[slot] == 0.1

    def test_distinct_graphs_do_not_share(self):
        assert compile_graph(diamond()) is not compile_graph(diamond())


class TestPickling:
    def test_roundtrip_preserves_arrays_and_results(self):
        g = diamond()
        compiled = compile_graph(g)
        compiled.probabilities(3.0)  # warm the per-alpha cache
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.nodes == compiled.nodes
        assert list(clone.indptr) == list(compiled.indptr)
        assert list(clone.targets) == list(compiled.targets)
        assert list(clone.signs) == list(compiled.signs)
        assert list(clone.weights) == list(compiled.weights)
        assert list(clone.probabilities(3.0)) == list(compiled.probabilities(3.0))
        model = MFCModel(alpha=3.0)
        seeds = {"s": NodeState.POSITIVE}
        a = model.run_compiled(compiled, seeds, rng=4)
        b = model.run_compiled(clone, seeds, rng=4)
        assert a.events == b.events and a.final_states == b.final_states

    def test_compiled_form_pickles_smaller_than_graph(self):
        g = SignedDiGraph()
        for i in range(300):
            g.add_edge(i, (i + 1) % 300, 1 if i % 3 else -1, 0.3)
            g.add_edge(i, (i + 7) % 300, 1, 0.2)
        compact = len(pickle.dumps(compile_graph(g)))
        full = len(pickle.dumps(g))
        assert compact < full * 0.7  # the point of shipping the CSR form


class TestCompiledSeedValidation:
    def test_empty_seeds_rejected(self):
        with pytest.raises(InvalidSeedError):
            check_seeds_compiled(compile_graph(diamond()), {})

    def test_unknown_node_rejected(self):
        with pytest.raises(InvalidSeedError):
            check_seeds_compiled(
                compile_graph(diamond()), {"zzz": NodeState.POSITIVE}
            )

    def test_inactive_state_rejected(self):
        with pytest.raises(InvalidSeedError):
            check_seeds_compiled(
                compile_graph(diamond()), {"s": NodeState.INACTIVE}
            )

    def test_run_compiled_matches_run(self):
        g = diamond()
        compiled = compile_graph(g)
        for model in (MFCModel(alpha=2.0), ICModel()):
            direct = model.run(g, {"s": NodeState.POSITIVE}, rng=3)
            via_compiled = model.run_compiled(compiled, {"s": NodeState.POSITIVE}, rng=3)
            assert direct.events == via_compiled.events
            assert direct.final_states == via_compiled.final_states
            assert direct.rounds == via_compiled.rounds


class TestGraphDigestMemoization:
    def test_digest_cached_until_mutation(self):
        g = diamond()
        first = graph_digest(g)
        assert g._digest_cache == (g.version, first)
        assert graph_digest(g) == first
        g.set_weight("s", "a", 0.9)
        second = graph_digest(g)
        assert second != first
        assert g._digest_cache == (g.version, second)

    def test_memoized_digest_equals_fresh_computation(self):
        g = diamond()
        graph_digest(g)  # warm the memo
        g.set_state("a", NodeState.NEGATIVE)
        fresh = diamond()
        fresh.set_state("a", NodeState.NEGATIVE)
        assert graph_digest(g) == graph_digest(fresh)

    def test_state_mutation_changes_digest(self):
        g = diamond()
        before = graph_digest(g)
        g.set_state("t", NodeState.POSITIVE)
        assert graph_digest(g) != before


class TestModelDigest:
    def test_oracle_shares_production_digest(self):
        # Same name and public parameters: the reference loops and the
        # kernel-backed models read and write the same trial-cache keys.
        assert model_digest(ReferenceMFCModel(alpha=2.0)) == model_digest(
            MFCModel(alpha=2.0)
        )
        assert model_digest(ReferenceICModel(propagate_signs=False)) == model_digest(
            ICModel(propagate_signs=False)
        )

    def test_real_parameters_still_fork(self):
        assert model_digest(MFCModel(alpha=2.0)) != model_digest(MFCModel(alpha=3.0))


def ladder(n: int = 30) -> SignedDiGraph:
    g = SignedDiGraph()
    for i in range(n - 1):
        g.add_edge(i, i + 1, 1 if i % 4 else -1, 0.45)
        if i % 2:
            g.add_edge(i + 1, i, 1, 0.3)
    return g


class TestCompiledShipping:
    def test_simulate_many_kernel_matches_reference_model(self):
        seeds = {0: NodeState.POSITIVE, 7: NodeState.NEGATIVE}
        fast = simulate_many(
            MFCModel(alpha=2.0), ladder(), seeds, trials=6, base_seed=11
        )
        slow = simulate_many(
            ReferenceMFCModel(alpha=2.0), ladder(), seeds, trials=6, base_seed=11
        )
        for a, b in zip(fast, slow):
            assert a.events == b.events
            assert a.final_states == b.final_states
            assert a.rounds == b.rounds

    def test_parallel_compiled_payload_bit_identical(self):
        seeds = {0: NodeState.POSITIVE, 7: NodeState.NEGATIVE}
        serial = simulate_many(
            MFCModel(alpha=2.0), ladder(), seeds, trials=8, base_seed=5
        )
        parallel = simulate_many(
            MFCModel(alpha=2.0),
            ladder(),
            seeds,
            trials=8,
            base_seed=5,
            runtime=RuntimeConfig(workers=2),
        )
        for a, b in zip(serial, parallel):
            assert a.events == b.events
            assert a.final_states == b.final_states


class TestSpreadStateMix:
    def test_negative_fraction_complements_positive(self):
        estimate = estimate_spread(
            MFCModel(alpha=2.0), ladder(), {0: NodeState.POSITIVE}, trials=8, base_seed=1
        )
        assert 0.0 <= estimate.mean_negative_fraction <= 1.0
        assert estimate.mean_positive_fraction + estimate.mean_negative_fraction == (
            pytest.approx(1.0)
        )

    def test_all_negative_cascade(self):
        g = SignedDiGraph()
        g.add_edge(0, 1, 1, 1.0)
        estimate = estimate_spread(
            MFCModel(alpha=3.0), g, {0: NodeState.NEGATIVE}, trials=3
        )
        assert estimate.mean_negative_fraction == 1.0
        assert estimate.mean_positive_fraction == 0.0
