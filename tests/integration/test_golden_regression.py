"""Golden end-to-end regression pins.

These tests freeze the exact outcome of the full pipeline for fixed
seeds. They are deliberately brittle: any change to the generator, the
weighting, the MFC engine, the tree extraction or the DP that alters
behaviour — intentionally or not — must show up here and be
acknowledged by updating the pinned values.
"""

from repro.detectors import RIDTreeConfig, RIDTreeDetector
from repro.core.rid import RID, RIDConfig
from repro.experiments.config import WorkloadConfig
from repro.experiments.workload import build_workload


def make_workload():
    return build_workload(WorkloadConfig(dataset="epinions", scale=0.003, seed=123))


class TestGoldenPipeline:
    def test_workload_shape_pinned(self):
        # Pins re-derived when derive_seed moved to the full-width
        # blake2b digest (the weak crc32/shift mixing could collide
        # distinct base seeds); the network shape is count-driven and
        # unchanged, the cascade stream legitimately shifted.
        workload = make_workload()
        assert workload.diffusion.number_of_nodes() == 395
        assert workload.diffusion.number_of_edges() == 2525
        assert len(workload.seeds) == 40
        assert workload.infected.number_of_nodes() == 308
        assert workload.cascade.rounds == 4

    def test_seed_identities_pinned(self):
        workload = make_workload()
        assert sorted(workload.seeds)[:5] == [3, 4, 19, 25, 33]

    def test_rid_tree_detection_pinned(self):
        workload = make_workload()
        result = RIDTreeDetector().detect(workload.infected)
        assert result.initiators == set(sorted(result.initiators))  # stable type
        assert len(result.initiators) == 5

    def test_rid_detection_pinned(self):
        workload = make_workload()
        result = RID(RIDConfig(beta=0.8)).detect(workload.infected)
        # Pin the size and a couple of members rather than the whole set,
        # so failure messages stay readable.
        assert len(result.initiators) == 5
        tree_roots = RIDTreeDetector(RIDTreeConfig(prune_inconsistent=True)).detect(
            workload.infected
        )
        assert set(tree_roots.initiators) <= result.initiators

    def test_detection_is_repeatable(self):
        a = RID(RIDConfig(beta=0.5)).detect(make_workload().infected)
        b = RID(RIDConfig(beta=0.5)).detect(make_workload().infected)
        assert a.initiators == b.initiators
        assert a.objective == b.objective
