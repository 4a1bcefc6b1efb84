"""Pins what the detector zoo's results and metrics must not move.

For every registry detector but RID (whose pins are the pipeline's:
``test_pipeline_pins.py`` and the identity gates), on one fixed
two-component snapshot:

* ``detect``: a digest of the result's ``to_json()``, its method and
  initiators, the recorder's counters, and its timer names with their
  counts;
* ``detect_with_budget`` at components + 1: the same for the five
  detectors with an exact-count rule, and ``NotImplementedError`` with
  nothing recorded for the other five (the budget column of
  docs/detectors.md's table).

The detector runs with the recorder both passed and ambient, so
counters from the Monte-Carlo layers the simulation-based detectors
call without a ``recorder=`` are pinned too.
"""

import hashlib
import json

import pytest

from repro.detectors import resolve_detector
from repro.obs.metrics import MetricsRecorder
from repro.obs.recorder import using_recorder
from repro.stream import synthetic_snapshot

#: components + 1 (the snapshot has two components).
BUDGET = 3

#: ``(json digest, method, initiators, counters, timer counts)`` of
#: ``detect`` per registry name.
OPEN = {
    "certainty_cover": (
        "52bd34631469f4df7bb4768d2a6a615e",
        "certainty-cover",
        [0, 1, 2, 5, 6, 7, 12, 15, 16, 100, 101, 102, 104, 105, 106, 107],
        {},
        {"detect": 1},
    ),
    "distance_center": (
        "6b529bf1dec634078283dc70d67a99cd",
        "distance-center",
        [2, 101],
        {},
        {"centrality.score_component": 2, "detect": 1},
    ),
    "jordan_center": (
        "6f32aeb26b98ab821154758040775838",
        "jordan-center",
        [2, 100],
        {},
        {"centrality.score_component": 2, "detect": 1},
    ),
    "k_effectors": (
        "fbf964ebfc58d086c70fadad6fd42410",
        "k-effectors",
        [2, 101],
        {
            "kernel.ic.batch.attempts": 441,
            "kernel.ic.batch.backend.python": 26,
            "kernel.ic.batch.calls": 26,
            "kernel.ic.batch.cascades": 260,
            "kernel.ic.batch.flips": 0,
            "kernel.ic.batch.rounds": 404,
            "mc.batch.fastpath": 26,
            "mc.batch.trials": 260,
        },
        {"detect": 1, "kernel.ic.batch.run": 26, "mc.simulate_batch": 26},
    ),
    "map_suspect": (
        "07ae5ed16fe7dfe1e29d36ad377fceee",
        "map-suspect",
        [0, 100],
        {
            "detector.map_suspect.simulations": 192,
            "kernel.mfc.batch.attempts": 470,
            "kernel.mfc.batch.backend.python": 24,
            "kernel.mfc.batch.calls": 24,
            "kernel.mfc.batch.cascades": 192,
            "kernel.mfc.batch.flips": 0,
            "kernel.mfc.batch.rounds": 398,
            "mc.batch.fastpath": 24,
            "mc.batch.trials": 192,
        },
        {
            "detect": 1,
            "kernel.mfc.batch.run": 24,
            "map_suspect.score_component": 2,
            "mc.simulate_batch": 24,
        },
    ),
    "multi_source": (
        "dbe561b2b39c9d100182258508139777",
        "multi-source",
        [2, 100, 103],
        {"detector.multi_source.sources": 3},
        {"detect": 1, "multi_source.distances": 2},
    ),
    "rid_positive": (
        "13e917e459dd8670ed786bb59028addd",
        "rid-positive",
        [0, 1, 5, 6, 15, 16, 100, 104, 105, 106, 107],
        {"rid.components": 11, "rid.trees": 11},
        {"detect": 1, "rid.components": 1, "rid.extract_trees": 11},
    ),
    "rid_tree": (
        "3e1d3cff54357f647e24f24369d168f0",
        "rid-tree",
        [0, 100],
        {"rid.components": 2, "rid.trees": 2},
        {"detect": 1, "rid.components": 1, "rid.extract_trees": 2},
    ),
    "rumor_centrality": (
        "e56890898393f962354f68a665bb236c",
        "rumor-centrality",
        [2, 101],
        {},
        {"centrality.score_component": 2, "detect": 1},
    ),
    "simulation_matching": (
        "1d72d453fca1f11786773b4e1ee17917",
        "simulation-matching",
        [1, 2, 6, 100, 101, 107],
        {
            "kernel.mfc.batch.attempts": 3854,
            "kernel.mfc.batch.backend.python": 72,
            "kernel.mfc.batch.calls": 72,
            "kernel.mfc.batch.cascades": 576,
            "kernel.mfc.batch.flips": 0,
            "kernel.mfc.batch.rounds": 1728,
            "mc.batch.fastpath": 72,
            "mc.batch.trials": 576,
        },
        {"detect": 1, "kernel.mfc.batch.run": 72, "mc.simulate_batch": 72},
    ),
}

#: The same for ``detect_with_budget(snapshot, BUDGET)``.
BUDGETED = {
    "distance_center": (
        "7656b5233cc6308773019005acfbe1d6",
        "distance-center(k=3)",
        [2, 100, 101],
        {},
        {"centrality.score_component": 2, "detect": 1},
    ),
    "jordan_center": (
        "ab2122855bfea11673c960318ab38e0b",
        "jordan-center(k=3)",
        [2, 100, 101],
        {},
        {"centrality.score_component": 2, "detect": 1},
    ),
    "map_suspect": (
        "fc78e521364e29e3f19f63cd7c9d98d0",
        "map-suspect(k=3)",
        [0, 100, 101],
        {
            "detector.map_suspect.simulations": 192,
            "kernel.mfc.batch.attempts": 470,
            "kernel.mfc.batch.backend.python": 24,
            "kernel.mfc.batch.calls": 24,
            "kernel.mfc.batch.cascades": 192,
            "kernel.mfc.batch.flips": 0,
            "kernel.mfc.batch.rounds": 398,
            "mc.batch.fastpath": 24,
            "mc.batch.trials": 192,
        },
        {
            "detect": 1,
            "kernel.mfc.batch.run": 24,
            "map_suspect.score_component": 2,
            "mc.simulate_batch": 24,
        },
    ),
    "multi_source": (
        "fb80a8b3495a80e2dc77016b3988f98e",
        "multi-source(k=3)",
        [2, 13, 100],
        {},
        {"detect": 1, "multi_source.distances": 2},
    ),
    "rumor_centrality": (
        "e511aa57b3c0744b71d863108ba48113",
        "rumor-centrality(k=3)",
        [2, 3, 101],
        {},
        {"centrality.score_component": 2, "detect": 1},
    ),
}

#: The names whose ``detect_with_budget`` is not implemented.
NO_BUDGET = (
    "certainty_cover",
    "k_effectors",
    "rid_positive",
    "rid_tree",
    "simulation_matching",
)


def snapshot():
    """An 18-node and an 8-node component.

    The large one is above ``map_suspect``'s default 16-candidate cap
    and the small one below it, so both branches of its candidate rule
    are pinned.
    """
    graph = synthetic_snapshot(components=1, size=18, seed=1)
    small = synthetic_snapshot(components=1, size=8, seed=2)
    for u, v, data in small.iter_edges():
        graph.add_edge(u + 100, v + 100, int(data.sign), data.weight)
    for node in small.nodes():
        graph.set_state(node + 100, small.state(node))
    return graph


def observe(name, budget=None):
    """Run one registry detector; return its pinned observables."""
    detector, rec = resolve_detector(name), MetricsRecorder()
    with using_recorder(rec):
        if budget is None:
            result = detector.detect(snapshot(), recorder=rec)
        else:
            result = detector.detect_with_budget(snapshot(), budget, recorder=rec)
    blob = json.dumps(result.to_json(), sort_keys=True).encode()
    return (
        hashlib.blake2b(blob, digest_size=16).hexdigest(),
        result.method,
        sorted(result.initiators),
        dict(rec.metrics.counters),
        {timer: stat.count for timer, stat in rec.metrics.timers.items()},
    )


def test_the_pins_cover_every_registry_name_but_rid():
    from repro.detectors import detector_names

    names = sorted(n for n in detector_names() if n != "rid")
    assert sorted(OPEN) == names
    assert sorted(list(BUDGETED) + list(NO_BUDGET)) == names


@pytest.mark.parametrize("name", sorted(OPEN))
def test_open_ended_detect_is_pinned(name):
    assert observe(name) == OPEN[name]


@pytest.mark.parametrize("name", sorted(BUDGETED))
def test_budgeted_detect_is_pinned(name):
    assert observe(name, BUDGET) == BUDGETED[name]


@pytest.mark.parametrize("name", NO_BUDGET)
def test_budget_is_not_implemented(name):
    detector, rec = resolve_detector(name), MetricsRecorder()
    with using_recorder(rec), pytest.raises(NotImplementedError):
        detector.detect_with_budget(snapshot(), BUDGET, recorder=rec)
    assert rec.metrics.empty
