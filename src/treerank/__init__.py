"""Exact rank statistics of labeled 1-2 trees.

Counting recurrences, exhaustive enumeration oracles, exact limiting
probabilities in Q(sqrt3)[pi, 1/pi], and rigorous truncation brackets,
all in exact arithmetic with certified decimal enclosures.
"""

from .constants import Enclosure, ExactConst
from .counting import (
    CountSequences,
    joint_vertex_counts,
    rank_vertex_counts,
    root_ranks,
    size_vertex_counts,
)
from .enumeration import (
    Census,
    SizeLimitError,
    census,
    check_inequalities,
    enumerate_texts,
    plane_multiplicity_total,
    weighted_onechild_mean,
)
from .limits import (
    BoundReport,
    bound_interval,
    limit_joint_prob,
    limit_rank_fraction,
    limit_subtree_prob,
)
from .series import InvariantError, SeriesOrderError
from .variety import TreeVariety

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Census",
    "CountSequences",
    "Enclosure",
    "ExactConst",
    "InvariantError",
    "SeriesOrderError",
    "SizeLimitError",
    "TreeVariety",
    "bound_interval",
    "census",
    "check_inequalities",
    "enumerate_texts",
    "joint_vertex_counts",
    "limit_joint_prob",
    "limit_rank_fraction",
    "limit_subtree_prob",
    "plane_multiplicity_total",
    "rank_vertex_counts",
    "root_ranks",
    "size_vertex_counts",
    "weighted_onechild_mean",
    "__version__",
]
