"""Edge-weight assignment schemes (paper Sec. IV-B3)."""

from repro.weights.jaccard import (
    assign_jaccard_weights,
    jaccard_coefficient,
)

__all__ = [
    "jaccard_coefficient",
    "assign_jaccard_weights",
]
