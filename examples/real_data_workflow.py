#!/usr/bin/env python
"""The real-data workflow: SNAP files → sample → weight → detect.

The paper's experiments run on SNAP's ``soc-sign-epinions.txt`` and
``soc-sign-Slashdot*.txt``. This example demonstrates the exact pipeline
a user with those downloads would run — parsing the SNAP format,
forest-fire sampling the graph down to laptop scale, Jaccard weighting,
simulating an infection and detecting its sources. So that it runs
offline, the "download" is stood in for by writing a profiled
synthetic network in the genuine SNAP format first, into a temporary
directory that is removed afterwards; call ``detect_from_snap`` on the
real file to run on the actual dataset.

Run:  python examples/real_data_workflow.py
"""

import tempfile
from pathlib import Path

from repro import (
    MFCModel,
    RID,
    RIDConfig,
    assign_jaccard_weights,
    generate_epinions_like,
    identity_metrics,
    plant_random_initiators,
    to_diffusion_network,
)
from repro.graphs.io import read_snap_signed_edgelist, write_snap_signed_edgelist
from repro.graphs.sampling import forest_fire_sample
from repro.graphs.stats import summarize
from repro.weights.jaccard import calibrate_gain

SEED = 9


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-snap-") as workdir:
        # --- Stand-in for the SNAP download (skip when using real data) ---
        snap_file = Path(workdir) / "soc-sign-epinions.txt"
        pretend_download = generate_epinions_like(scale=0.02, rng=SEED)
        write_snap_signed_edgelist(pretend_download, snap_file)
        print(f"wrote stand-in SNAP file: {snap_file}")
        detect_from_snap(snap_file)


def detect_from_snap(snap_file: Path) -> None:
    """The actual workflow, from a SNAP signed edge list to detections."""
    # 1. Parse the SNAP signed edge list (gzip supported via .gz suffix).
    social = read_snap_signed_edgelist(snap_file)
    print(f"parsed: {summarize(social, 'epinions')}")

    # 2. Down-sample to laptop scale with forest fire (preserves the
    #    heavy-tailed degree structure that uniform sampling destroys).
    social = forest_fire_sample(social, target_nodes=800, rng=SEED)
    print(
        f"forest-fire sample: {social.number_of_nodes()} nodes, "
        f"{social.number_of_edges()} edges"
    )

    # 3. Reverse into the diffusion network and weight by Jaccard
    #    coefficients (Sec. IV-B3; zero scores filled from U[0, 0.1]).
    #    The gain is auto-calibrated from this network's own overlap
    #    statistics (see DESIGN.md §7).
    diffusion = to_diffusion_network(social)
    gain = calibrate_gain(social, alpha=3.0)
    print(f"auto-calibrated Jaccard gain: {gain:.1f}")
    assign_jaccard_weights(diffusion, social, rng=SEED, gain=gain)

    # 4. Simulate an infection and detect its sources.
    seeds = plant_random_initiators(diffusion, count=25, rng=SEED)
    cascade = MFCModel(alpha=3.0).run(diffusion, seeds, rng=SEED)
    infected = cascade.infected_network(diffusion)
    result = RID(RIDConfig(beta=0.6)).detect(infected)
    metrics = identity_metrics(result.initiators, set(seeds))
    print(
        f"detection on the sampled real-format data: "
        f"{len(result.initiators)} detected, precision={metrics.precision:.3f} "
        f"recall={metrics.recall:.3f} F1={metrics.f1:.3f}"
    )
    print(
        "note: forest-fire samples keep the hubs, so the sampled graph is "
        "denser than the original and nearly everything gets infected — "
        "source detection on such saturated snapshots is intrinsically "
        "hard (see EXPERIMENTS.md on infected-density effects)."
    )


if __name__ == "__main__":
    main()
