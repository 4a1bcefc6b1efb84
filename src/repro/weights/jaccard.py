"""Jaccard-coefficient diffusion-link weighting.

The paper (Sec. IV-B3) weights each diffusion link ``(u, v)`` — which
corresponds to social link ``(v, u)`` — by the Jaccard coefficient

    JC(v, u) = |Γ_out(v) ∩ Γ_in(u)| / |Γ_out(v) ∪ Γ_in(u)|

where ``Γ_out(v)`` is the set of users ``v`` follows and ``Γ_in(u)`` is
the set of followers of ``u``. Because real networks are sparse, links
whose JC score is 0 receive a weight sampled uniformly from ``[0, 0.1]``,
"just as existing works do for the IC diffusion model".
"""

from __future__ import annotations

from typing import Tuple

from repro.graphs.signed_digraph import SignedDiGraph
from repro.types import Node
from repro.utils.rng import RandomSource, spawn_rng


def jaccard_coefficient(social: SignedDiGraph, v: Node, u: Node) -> float:
    """JC of social link ``(v, u)``: overlap of v's followees and u's followers.

    Returns 0.0 when both neighbourhoods are empty.
    """
    followees_of_v = set(social.successors(v))
    followers_of_u = set(social.predecessors(u))
    union = followees_of_v | followers_of_u
    if not union:
        return 0.0
    return len(followees_of_v & followers_of_u) / len(union)


def assign_jaccard_weights(
    diffusion: SignedDiGraph,
    social: SignedDiGraph,
    zero_fill_range: Tuple[float, float] = (0.0, 0.1),
    rng: RandomSource = None,
    gain: float = 1.0,
    negative_gain_fraction: float = 0.5,
) -> SignedDiGraph:
    """Weight every diffusion link by the JC of its underlying social link.

    Mutates and returns ``diffusion``. Diffusion link ``(u, v)`` maps back
    to social link ``(v, u)`` (Definition 2's reversal), so its weight is
    ``JC(v, u)`` computed on the *social* graph; zero scores are replaced
    by uniform draws from ``zero_fill_range``.

    Args:
        diffusion: the (reversed) diffusion network to weight.
        social: the original social network the JC is computed on.
        zero_fill_range: uniform range for links with JC = 0.
        rng: seed or generator for the zero-fill draws.
        gain: multiplier applied to non-zero JC scores of *positive*
            links (clamped at 1). Downscaled miniature networks
            systematically deflate neighbourhood overlap — sampling 1%
            of a graph removes 99% of each neighbourhood, so
            connected-pair Jaccard scores shrink roughly with the
            sampling factor. Experiments on scaled-down synthetic
            datasets use ``gain`` to restore the full-scale coefficient
            magnitude (see DESIGN.md §3). The compensation is sign-aware:
            distrust is not transitive, so negative links' overlap in the
            full datasets is genuinely lower — they receive only
            ``negative_gain_fraction`` of the gain. The zero-fill
            convention is untouched.
        negative_gain_fraction: fraction of ``gain`` applied to negative
            links' non-zero JC scores.
    """
    random = spawn_rng(rng, "jaccard-zero-fill")
    lo, hi = zero_fill_range
    for u, v, data in diffusion.iter_edges():
        score = jaccard_coefficient(social, v, u)
        if score <= 0.0:
            score = lo + (hi - lo) * random.random()
        elif int(data.sign) == 1:
            score *= gain
        else:
            score *= max(1.0, gain * negative_gain_fraction)
        data.weight = min(1.0, score)
    # Payloads were mutated in place, bypassing set_weight's bookkeeping.
    diffusion.bump_version()
    return diffusion


def calibrate_gain(
    social: SignedDiGraph,
    alpha: float = 3.0,
    saturation_quantile: float = 0.4,
    max_gain: float = 64.0,
) -> float:
    """Choose a Jaccard gain that lands the paper's weight regime.

    The β mechanism of Sec. III-E3 presumes that the *typical* realised
    activation link is boost-saturated (``α·w ≥ 1``) while a graded tail
    remains below saturation (DESIGN.md §7). This helper computes the
    gain that pushes the ``saturation_quantile``-th percentile of the
    network's non-zero positive-link Jaccard scores exactly to the
    saturation threshold ``1/α`` — i.e. after amplification, a fraction
    ``1 − saturation_quantile`` of those links saturates.

    Deterministic and scale-adaptive: as the graph (and with it the
    overlap statistics) grows or shrinks, the calibrated gain follows.

    Args:
        social: the social network whose JC statistics drive the choice.
        alpha: MFC boosting coefficient.
        saturation_quantile: which quantile of non-zero positive-link JC
            scores to place at the saturation threshold.
        max_gain: cap for degenerate graphs with vanishing overlap.

    Returns:
        The calibrated gain (1.0 when the graph has no positive-JC
        links to calibrate on).
    """
    scores = sorted(
        score
        for u, v, data in social.iter_edges()
        if int(data.sign) == 1 and (score := jaccard_coefficient(social, u, v)) > 0.0
    )
    if not scores:
        return 1.0
    index = min(len(scores) - 1, int(saturation_quantile * len(scores)))
    pivot = scores[index]
    if pivot <= 0.0:
        return max_gain
    return max(1.0, min(max_gain, 1.0 / (alpha * pivot)))

