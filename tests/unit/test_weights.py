"""Unit tests for Jaccard-coefficient weighting (Sec. IV-B3)."""

import pytest

from repro.graphs.signed_digraph import SignedDiGraph
from repro.graphs.transforms import to_diffusion_network
from repro.weights.jaccard import (
    assign_jaccard_weights,
    jaccard_coefficient,
)


def social_square() -> SignedDiGraph:
    """a and b both follow c and d; plus a follows b."""
    g = SignedDiGraph()
    g.add_edge("a", "c", 1, 1.0)
    g.add_edge("a", "d", 1, 1.0)
    g.add_edge("b", "c", 1, 1.0)
    g.add_edge("b", "d", 1, 1.0)
    g.add_edge("a", "b", -1, 1.0)
    return g


class TestJaccardCoefficient:
    def test_formula(self):
        g = social_square()
        # JC(a, b) = |out(a) ∩ in(b)| / |out(a) ∪ in(b)|
        # out(a) = {b, c, d}; in(b) = {a}; intersection empty.
        assert jaccard_coefficient(g, "a", "b") == 0.0

    def test_shared_neighbourhood(self):
        g = social_square()
        g.add_edge("c", "d", 1, 1.0)
        # out(a) = {b, c, d}; in(d) = {a, b, c}; ∩ = {b, c}; ∪ = {a, b, c, d}.
        assert jaccard_coefficient(g, "a", "d") == pytest.approx(2 / 4)

    def test_empty_neighbourhoods(self):
        g = SignedDiGraph()
        g.add_nodes(["x", "y"])
        assert jaccard_coefficient(g, "x", "y") == 0.0


class TestAssignJaccardWeights:
    def test_weights_from_reversed_social_link(self):
        social = social_square()
        social.add_edge("c", "d", 1, 1.0)
        diffusion = to_diffusion_network(social)
        assign_jaccard_weights(diffusion, social, rng=1)
        # Diffusion link (d, a) corresponds to social (a, d): JC = 0.5.
        assert diffusion.weight("d", "a") == pytest.approx(0.5)

    def test_zero_scores_filled_from_range(self):
        social = social_square()
        diffusion = to_diffusion_network(social)
        assign_jaccard_weights(diffusion, social, zero_fill_range=(0.0, 0.1), rng=1)
        # Social (a, b) had JC 0 -> diffusion (b, a) in [0, 0.1].
        assert 0.0 <= diffusion.weight("b", "a") <= 0.1

    def test_zero_fill_deterministic(self):
        social = social_square()
        d1 = assign_jaccard_weights(to_diffusion_network(social), social, rng=42)
        d2 = assign_jaccard_weights(to_diffusion_network(social), social, rng=42)
        assert [w.weight for _, _, w in d1.edges()] == [
            w.weight for _, _, w in d2.edges()
        ]

    def test_gain_amplifies_positive_nonzero_scores(self):
        social = social_square()
        social.add_edge("c", "d", 1, 1.0)
        diffusion = to_diffusion_network(social)
        assign_jaccard_weights(diffusion, social, rng=1, gain=1.6)
        assert diffusion.weight("d", "a") == pytest.approx(0.8)

    def test_gain_clamped_at_one(self):
        social = social_square()
        social.add_edge("c", "d", 1, 1.0)
        diffusion = to_diffusion_network(social)
        assign_jaccard_weights(diffusion, social, rng=1, gain=10.0)
        assert diffusion.weight("d", "a") == 1.0

    def test_gain_skips_negative_links(self):
        social = social_square()
        # Make (a, d) negative and give it a non-zero JC.
        social.add_edge("c", "d", 1, 1.0)
        social.add_edge("a", "d", -1, 1.0)
        diffusion = to_diffusion_network(social)
        assign_jaccard_weights(diffusion, social, rng=1, gain=1.6)
        assert diffusion.weight("d", "a") == pytest.approx(0.5)  # unamplified

    def test_signs_untouched(self):
        social = social_square()
        diffusion = to_diffusion_network(social)
        signs_before = {(u, v): int(d.sign) for u, v, d in diffusion.iter_edges()}
        assign_jaccard_weights(diffusion, social, rng=1)
        assert {(u, v): int(d.sign) for u, v, d in diffusion.iter_edges()} == signs_before


class TestCalibrateGain:
    def build_overlapping(self, jc_scale: int, dilution: int = 0) -> SignedDiGraph:
        """A graph whose positive edges have controllable JC magnitude.

        ``jc_scale`` common neighbours u -> w_i -> t give edge (u, t) a
        non-zero JC; ``dilution`` extra leaves u -> x_j shrink it.
        """
        g = SignedDiGraph()
        g.add_edge("u", "t", 1, 1.0)
        for i in range(jc_scale):
            g.add_edge("u", f"w{i}", 1, 1.0)
            g.add_edge(f"w{i}", "t", 1, 1.0)
        for j in range(dilution):
            g.add_edge("u", f"x{j}", 1, 1.0)
        return g

    def test_pivot_lands_at_saturation(self):
        from repro.weights.jaccard import calibrate_gain

        # Dilute so the pivot JC is well below 1/alpha and the gain floor
        # does not bind.
        g = self.build_overlapping(2, dilution=20)
        alpha = 3.0
        gain = calibrate_gain(g, alpha=alpha, saturation_quantile=0.0)
        scores = sorted(
            jc
            for u, v, _ in g.iter_edges()
            if (jc := jaccard_coefficient(g, u, v)) > 0
        )
        assert gain > 1.0
        assert gain * alpha * scores[0] == pytest.approx(1.0)

    def test_no_positive_jc_returns_one(self):
        from repro.weights.jaccard import calibrate_gain

        g = SignedDiGraph()
        g.add_edge("a", "b", 1, 1.0)  # JC(a, b) = 0 (no overlap)
        assert calibrate_gain(g) == 1.0

    def test_gain_capped(self):
        from repro.weights.jaccard import calibrate_gain

        g = self.build_overlapping(1)
        # Huge alpha shrinks the needed gain; tiny alpha grows it but
        # never past max_gain.
        assert calibrate_gain(g, alpha=0.001, max_gain=10.0) == 10.0

    def test_gain_at_least_one(self):
        from repro.weights.jaccard import calibrate_gain

        g = self.build_overlapping(30)  # strong overlap: no gain needed
        assert calibrate_gain(g, alpha=3.0) >= 1.0

    def test_more_overlap_means_less_gain(self):
        from repro.weights.jaccard import calibrate_gain

        weak = calibrate_gain(self.build_overlapping(1), alpha=3.0)
        strong = calibrate_gain(self.build_overlapping(8), alpha=3.0)
        assert strong <= weak

    def test_workload_auto_mode(self):
        from repro.experiments.config import WorkloadConfig
        from repro.experiments.workload import build_workload

        config = WorkloadConfig(dataset="slashdot", scale=0.003, seed=3, jaccard_gain="auto")
        config.validate()
        workload = build_workload(config)
        assert workload.infected.number_of_nodes() >= len(workload.seeds)

    def test_config_rejects_bad_gain_strings(self):
        from repro.errors import ConfigError
        from repro.experiments.config import WorkloadConfig

        with pytest.raises(ConfigError):
            WorkloadConfig(jaccard_gain="automatic").validate()
        with pytest.raises(ConfigError):
            WorkloadConfig(jaccard_gain=0.5).validate()

