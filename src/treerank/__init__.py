"""Exact rank statistics of labeled 1-2 trees.

Counting recurrences, exhaustive enumeration oracles, exact limiting
probabilities in Q(sqrt3)[pi, 1/pi], and rigorous truncation brackets,
all in exact arithmetic with certified decimal enclosures.
"""

from .constants import Enclosure, ExactConst
from .counting import (
    CountSequences,
    RootRankTable,
    joint_vertex_counts,
    rank_vertex_counts,
    root_rank_counts,
    size_vertex_counts,
)
from .enumeration import (
    Census,
    LabeledTree,
    SizeLimitError,
    census,
    check_inequalities,
    enumerate_trees,
    plane_multiplicity_total,
    weighted_onechild_mean,
)
from .limits import (
    BoundReport,
    ClosedFormUnavailableError,
    bound_interval,
    bound_report_json,
    limit_joint_prob,
    limit_rank_fraction,
    limit_subtree_prob,
)
from .series import (
    EgfSeries,
    InvariantError,
    SeriesOrderError,
    base_series,
)
from .variety import TreeVariety

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Census",
    "ClosedFormUnavailableError",
    "CountSequences",
    "EgfSeries",
    "Enclosure",
    "ExactConst",
    "InvariantError",
    "LabeledTree",
    "RootRankTable",
    "SeriesOrderError",
    "SizeLimitError",
    "TreeVariety",
    "base_series",
    "bound_interval",
    "bound_report_json",
    "census",
    "check_inequalities",
    "enumerate_trees",
    "joint_vertex_counts",
    "limit_joint_prob",
    "limit_rank_fraction",
    "limit_subtree_prob",
    "plane_multiplicity_total",
    "rank_vertex_counts",
    "root_rank_counts",
    "size_vertex_counts",
    "weighted_onechild_mean",
    "__version__",
]
