"""Parallel execution must be bit-identical to serial execution.

The runtime's whole determinism story rests on shipping
``(base_seed, labels)`` to workers and deriving each trial's seed there;
these tests pin that contract end-to-end for the Monte-Carlo estimator,
the detection-trial runner, and the Figure 2 driver.
"""

import dataclasses

from repro.detectors import RIDTreeDetector
from repro.core.rid import RID, RIDConfig
from repro.diffusion.mfc import MFCModel
from repro.diffusion.monte_carlo import estimate_spread, simulate_many
from repro.experiments import fig2
from repro.experiments.config import WorkloadConfig
from repro.experiments.runner import run_detection_trials
from repro.graphs.signed_digraph import SignedDiGraph
from repro.runtime import RuntimeConfig
from repro.types import NodeState

PARALLEL = RuntimeConfig(workers=2)


def ladder(n: int = 40) -> SignedDiGraph:
    g = SignedDiGraph()
    for i in range(n - 1):
        g.add_edge(i, i + 1, 1 if i % 4 else -1, 0.45)
        if i % 2:
            g.add_edge(i + 1, i, 1, 0.3)
    return g


class TestMonteCarloIdentity:
    def test_simulate_many_bit_identical(self):
        model = MFCModel(alpha=2.0)
        seeds = {0: NodeState.POSITIVE, 7: NodeState.NEGATIVE}
        serial = simulate_many(model, ladder(), seeds, trials=10, base_seed=11)
        parallel = simulate_many(
            model, ladder(), seeds, trials=10, base_seed=11, runtime=PARALLEL
        )
        for a, b in zip(serial, parallel):
            assert a.seeds == b.seeds
            assert a.final_states == b.final_states
            assert a.events == b.events
            assert a.rounds == b.rounds

    def test_estimate_spread_bit_identical(self):
        model = MFCModel(alpha=1.5)
        seeds = {0: NodeState.POSITIVE}
        serial = estimate_spread(model, ladder(), seeds, trials=12, base_seed=5)
        parallel = estimate_spread(
            model, ladder(), seeds, trials=12, base_seed=5, runtime=PARALLEL
        )
        assert serial == parallel  # dataclass equality: every field exact


class TestDetectionTrialsIdentity:
    def test_aggregated_evaluations_bit_identical(self):
        config = WorkloadConfig(
            dataset="epinions", scale=0.002, seed=11, num_initiators=8
        )
        factories = {
            "rid": lambda: RID(RIDConfig(beta=0.5)),
            "rid-tree": lambda: RIDTreeDetector(),
        }
        serial = run_detection_trials(config, factories, trials=2)
        parallel = run_detection_trials(config, factories, trials=2, runtime=PARALLEL)
        assert serial.keys() == parallel.keys()
        for name in serial:
            # Everything except the measured wall-clock must match exactly.
            a = dataclasses.replace(serial[name], seconds=0.0)
            b = dataclasses.replace(parallel[name], seconds=0.0)
            assert a == b


class TestFig2Identity:
    def test_fig2_bit_identical(self):
        serial = fig2.run(trials=40, seed=3)
        parallel = fig2.run(trials=40, seed=3, runtime=PARALLEL)
        assert serial == parallel
