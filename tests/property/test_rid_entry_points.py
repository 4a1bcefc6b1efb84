"""One answer from every RID entry point.

``RID.detect`` / ``RID.detect_with_budget``, ``RID.detect_components``
on the cold Prune+ComponentSplit partition, and the sequential reference
in ``tests/oracles/`` must agree exactly on random MFC worlds —
initiators, states, the objective's ``float.hex``, the trees in node and
edge order, the per-tree selections (``scanned_k`` in budget mode only:
β mode scans no budget) — or all raise the same exception type.

In β mode the reference is the paper's greedy stop and RID the exact
penalised optimum. They must agree exactly wherever every tree's
``OPT(k)`` is concave and free of near-ties
(``tests.oracles.tree_dp.paper_stop_is_exact``). Elsewhere RID's
entry points still agree with each other exactly, the trees equal the
reference's, and RID's objective is at least the reference's. The front half is checked the same way: ``RID.forest`` against
the reference forest, and RID-Tree's initiators against those trees'
roots.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binarize import binarize_cascade_tree, find_tree_root
from repro.core.rid import RID, RIDConfig
from repro.detectors import RIDTreeConfig, RIDTreeDetector
from repro.errors import ConfigError, EmptyInfectionError
from repro.graphs.signed_digraph import SignedDiGraph
from repro.pipeline.stages import prune_graph, split_components
from tests.oracles.rid_reference import (
    reference_detect,
    reference_detect_with_budget,
    reference_forest,
)
from tests.oracles.tree_dp import paper_stop_is_exact
from tests.property.test_detection_properties import infected_worlds


def tree_signature(tree: SignedDiGraph) -> tuple:
    return (
        list(tree.nodes()),
        [(u, v, int(d.sign), d.weight.hex()) for u, v, d in tree.iter_edges()],
    )


def signature(result, selections, budgeted: bool) -> tuple:
    return (
        result.method,
        sorted(result.initiators, key=repr),
        list(result.states.items()),
        result.objective.hex(),
        [tree_signature(tree) for tree in result.trees],
        [
            (
                s.tree_size,
                s.k,
                s.score.hex(),
                s.penalized_objective.hex(),
                list(s.initiators.items()),
                s.scanned_k if budgeted else None,
            )
            for s in selections
        ],
    )


def attempt(run, budgeted: bool) -> tuple:
    """``('ok', signature)`` or ``('raises', exception type)``."""
    try:
        return ("ok", signature(*run(), budgeted))
    except (ConfigError, EmptyInfectionError) as exc:
        return ("raises", type(exc))


def cold_partition(config, infected):
    pruned = prune_graph(config, infected) if config.prune_inconsistent else infected
    return split_components(config, pruned)


def entry_points(config, infected, budget) -> dict:
    def rid():
        detector = RID(config)
        if budget is None:
            result = detector.detect(infected)
        else:
            result = detector.detect_with_budget(infected, budget=budget)
        return result, detector.last_selections

    def components():
        detector = RID(config)
        result = detector.detect_components(
            cold_partition(config, infected), budget=budget
        )
        return result, detector.last_selections

    budgeted = budget is not None
    return {
        "rid": attempt(rid, budgeted),
        "rid.detect_components": attempt(components, budgeted),
    }


def reference(config, infected, budget) -> tuple:
    if budget is None:
        return attempt(lambda: reference_detect(config, infected), False)
    return attempt(
        lambda: reference_detect_with_budget(config, infected, budget), True
    )


configs = st.builds(
    RIDConfig,
    beta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    prune_inconsistent=st.booleans(),
)


class TestEntryPointsAgree:
    @given(infected_worlds(), configs)
    @settings(max_examples=40, deadline=None)
    def test_every_entry_point_gives_the_reference_answer(self, world, config):
        _, _, infected = world
        forest = reference_forest(config, infected)
        trees = len(forest)
        exact = all(
            paper_stop_is_exact(
                binarize_cascade_tree(
                    tree, alpha=config.alpha, inconsistent_value=config.inconsistent_value
                ),
                config.beta,
            )
            for tree in forest
        )
        n = infected.number_of_nodes()
        for budget in (None, 0, trees - 1, trees, trees + 1, n, n + 1):
            expected = reference(config, infected, budget)
            got = entry_points(config, infected, budget)
            assert got["rid"] == got["rid.detect_components"], budget
            if budget is None and not exact:
                (status, mine), (_, theirs) = got["rid"], expected
                assert status == "ok"
                assert mine[4] == theirs[4]  # the trees
                objective = float.fromhex(mine[3])
                assert objective >= float.fromhex(theirs[3]) - 1e-9 * trees
            else:
                assert got["rid"] == expected, budget

    def test_empty_snapshot_follows_the_documented_contract(self):
        # The reference raises on an empty snapshot in every mode; RID's
        # contract is narrower: beta mode raises (the stream's partition
        # entry point answers with an empty result instead), budget 0 is
        # an empty result and any other budget a ConfigError.
        config = RIDConfig()
        empty = SignedDiGraph()
        beta = entry_points(config, empty, None)
        assert beta["rid"] == ("raises", EmptyInfectionError)
        nothing = ("ok", ("rid(beta=0.1)", [], [], (0.0).hex(), [], []))
        assert beta["rid.detect_components"] == nothing
        zero = ("ok", ("rid(k=0)", [], [], (0.0).hex(), [], []))
        assert list(entry_points(config, empty, 0).values()) == [zero] * 2
        for budget in (-1, 1):
            outcomes = list(entry_points(config, empty, budget).values())
            assert outcomes == [("raises", ConfigError)] * 2


class TestFrontHalfAgrees:
    @given(infected_worlds(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_forest_and_rid_tree_match_the_reference_forest(self, world, prune):
        _, _, infected = world
        config = RIDConfig(prune_inconsistent=prune)
        expected = [tree_signature(t) for t in reference_forest(config, infected)]
        forest = RID(config).forest(infected)
        assert [tree_signature(t) for t in forest] == expected
        result = RIDTreeDetector(RIDTreeConfig(prune_inconsistent=prune)).detect(infected)
        assert [tree_signature(t) for t in result.trees] == expected
        assert result.initiators == {find_tree_root(t) for t in forest}
