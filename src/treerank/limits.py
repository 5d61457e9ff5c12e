"""Exact limiting probabilities and rigorous truncation brackets.

Every counting generating function produced by this package is entire
divided by an integrating-factor weight g with a double zero at the
dominant singularity z0 (1 - sin z at pi/2 for non-plane trees, the
cosine-square weight at 2 sqrt3 pi/9 for plane trees).  A count series
f/g therefore has count(n)/n! ~ D (n+1) z0^-(n+2) with D = 2 f(z0)/g''(z0),
while the tree counts have T_n/n! ~ l z0^-n, l being minus the base
series' residue at z0 divided by z0 (Flajolet-Sedgewick, Analytic
Combinatorics, Ch. VII).  The per-vertex probability count(n)/((n+1) T_n)
thus tends to D/(z0^2 l) = kappa_v f(z0), with one factor per variety,
kappa_v = 2/(g''(z0) z0^2 l):

* non-plane: the base series (1 + sin z)/cos z has residue -2 at
  z0 = pi/2, so l = 4/pi; g'' = sin = 1 there; kappa = 2/pi.
* plane: the base series 1/2 + (sqrt3/2) tan(sqrt3 z/2 + pi/6) has
  residue -1 at z0 = 2 sqrt3 pi/9 (the tangent's numerator is 1, the
  derivative of its denominator -sqrt3/2, and the prefactor sqrt3/2),
  so l = 3 sqrt3/(2 pi); the
  weight 1/2 + cos(sqrt3 z)/4 - sqrt3 sin(sqrt3 z)/4 has second
  derivative -(3/4) cos(sqrt3 z) + (3 sqrt3/4) sin(sqrt3 z) = 3/8 + 9/8
  = 3/2 there; kappa = 2 sqrt3/pi.

With corrections that are polynomials, f(z0) is a finite combination of
the moment integrals from `constants`, so every limit is exact in
Q(sqrt3)[pi, 1/pi].

Higher ranks admit no closed form; they get two-sided brackets instead:
the rank-k mass restricted to subtree sizes <= r is a certified lower
bound, and adding the limiting probability of a subtree larger than r
gives the upper bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .constants import Enclosure, ExactConst, halfpi_moment, plane_moment
from .counting import RootRankTable, root_rank_counts
from .series import InvariantError, tree_counts
from .variety import TreeVariety

DEFAULT_BOUND_TERMS = 12
DEFAULT_DIGITS = 12

# kappa_v = 2/(g''(z0) z0^2 l): every limit is kappa_v times f(z0).
KAPPA = {
    TreeVariety.NONPLANE: ExactConst.pi_power(-1, 2),
    TreeVariety.PLANE: ExactConst.pi_power(-1, 0, 2),
}


class ClosedFormUnavailableError(ValueError):
    """Ranks beyond 1 have no elementary closed form; use bound_interval."""


@lru_cache(maxsize=None)
def weight_moment(variety: TreeVariety, m: int) -> ExactConst:
    """Integral of t^m times the variety's weight from 0 to z0."""
    if variety is TreeVariety.NONPLANE:
        return halfpi_moment(m)
    return (
        plane_moment(m, "const") * Fraction(1, 2)
        + plane_moment(m, "cos") * Fraction(1, 4)
        - ExactConst.sqrt3(Fraction(1, 4)) * plane_moment(m, "sin")
    )


def _polynomial_correction_limit(variety: TreeVariety, count: int, degree: int) -> ExactConst:
    """Limit for a count series whose correction is count * z^degree / degree!."""
    if count == 0:
        return ExactConst.zero()
    return weight_moment(variety, degree) * (KAPPA[variety] * Fraction(count, factorial(degree)))


@lru_cache(maxsize=None)
def limit_subtree_prob(variety: TreeVariety, r: int) -> ExactConst:
    """Limiting probability that a random vertex heads a subtree of size r."""
    if r < 1:
        raise ValueError("subtree size must be at least 1")
    count_r = tree_counts(variety, r)[r]
    return _polynomial_correction_limit(variety, count_r, r - 1)


def limit_joint_prob(
    variety: TreeVariety, k: int, i: int, table: RootRankTable | None = None
) -> ExactConst:
    """Limiting probability of rank k together with subtree size i."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    if i < 1:
        raise ValueError("subtree size must be at least 1")
    if table is None:
        table = root_rank_counts(variety, max(i, 1))
    return _polynomial_correction_limit(variety, table.count(k, i), i - 1)


# Closed-form numerators of the four solvable count series, evaluated at
# the singularity where sin(pi/2) = 1, cos(pi/2) = 0, and respectively
# sin(sqrt3 z0) = sqrt3/2, cos(sqrt3 z0) = -1/2.  Each solved form is
# f/(c g) for the variety's weight g, and its numerator on g is f(z0)/c.
def _closed_form_numerator(variety: TreeVariety, k: int) -> ExactConst:
    if variety is TreeVariety.NONPLANE:
        if k == 0:
            # (z - 1 + cos z)/(1 - sin z)
            return ExactConst.pi_power(1, Fraction(1, 2)) - 1
        # (12 z sin z + 12 cos z - 12 - 3 z^2 cos z - z^3) / (6 (1 - sin z))
        f = ExactConst.pi_power(1, 6) - ExactConst.pi_power(3, Fraction(1, 8)) - 12
        return f * Fraction(1, 6)
    if k == 0:
        # (6z + sqrt3 sin(sqrt3 z) + 3 cos(sqrt3 z) - 3)
        #   / (-3 sqrt3 sin(sqrt3 z) + 3 cos(sqrt3 z) + 6), a denominator of 12 g
        f = ExactConst.pi_power(1, 0, Fraction(4, 3)) - 3
        return f * Fraction(1, 12)
    # (6z^3 + sqrt3 (3z^2 - 15z - 5) sin(sqrt3 z) + 3 (3z^2 + 5z - 5) cos(sqrt3 z) + 15)
    #   / (9 (sqrt3 sin(sqrt3 z) - cos(sqrt3 z) - 2)), a denominator of 9 (-4 g);
    # f is the numerator over 9.
    f = (
        ExactConst.pi_power(3, 0, Fraction(16, 729))
        - ExactConst.pi_power(1, 0, Fraction(20, 27))
        + Fraction(5, 3)
    )
    return f * Fraction(-1, 4)


def limit_rank_fraction(variety: TreeVariety, k: int) -> ExactConst:
    """Exact limiting fraction of rank-k vertices, for k = 0 or 1 only."""
    if k not in (0, 1):
        raise ClosedFormUnavailableError(
            f"rank {k} has no closed form; use bound_interval"
        )
    return KAPPA[variety] * _closed_form_numerator(variety, k)


@dataclass(frozen=True)
class BoundTerm:
    i: int
    t_ki: int
    w: ExactConst
    v: ExactConst


@dataclass(frozen=True)
class BoundReport:
    """Certified bracket: lower <= a_k <= upper, with the truncation data."""

    variety: TreeVariety
    k: int
    r: int
    lower: ExactConst
    upper: ExactConst
    lower_enc: Enclosure
    upper_enc: Enclosure
    partial_v_sum: ExactConst
    terms: tuple[BoundTerm, ...]

    @property
    def gap(self) -> ExactConst:
        return self.upper - self.lower


def bound_interval(
    variety: TreeVariety,
    k: int,
    r: int = DEFAULT_BOUND_TERMS,
    table: RootRankTable | None = None,
    digits: int = DEFAULT_DIGITS,
) -> BoundReport:
    """Two-sided bracket for the limiting rank-k fraction at truncation r.

    lower = sum of the joint limits over subtree sizes 1..r; the upper
    bound adds the limiting mass of subtrees larger than r, which the
    truncated subtree-size limits determine exactly.
    """
    if k < 0:
        raise ValueError("rank must be nonnegative")
    if r < 1:
        raise ValueError("truncation must be at least 1")
    if table is None:
        table = root_rank_counts(variety, max(r, 1))
    terms = []
    w_sum = ExactConst.zero()
    v_sum = ExactConst.zero()
    for i in range(1, r + 1):
        w = limit_joint_prob(variety, k, i, table)
        v = limit_subtree_prob(variety, i)
        w_sum = w_sum + w
        v_sum = v_sum + v
        terms.append(BoundTerm(i=i, t_ki=table.count(k, i), w=w, v=v))
    upper = w_sum + (ExactConst.rational(1) - v_sum)
    report = BoundReport(
        variety=variety,
        k=k,
        r=r,
        lower=w_sum,
        upper=upper,
        lower_enc=w_sum.enclosure(digits),
        upper_enc=upper.enclosure(digits),
        partial_v_sum=v_sum,
        terms=tuple(terms),
    )
    if report.lower_enc.lo > report.upper_enc.hi:
        raise InvariantError(f"bracket for k={k}, r={r} has lower above upper")
    return report


def bound_report_dict(report: BoundReport) -> dict:
    """Canonical JSON-ready form of a bound report (stable key order).

    Decimals carry the digits the report's enclosures were made with.
    """
    digits = report.lower_enc.digits

    def pair(value: ExactConst, enc: Enclosure) -> dict:
        return {"exact": value.render(), "decimal": enc.decimal()}

    return {
        "variety": str(report.variety),
        "k": report.k,
        "r": report.r,
        "lower": pair(report.lower, report.lower_enc),
        "upper": pair(report.upper, report.upper_enc),
        "v_partial_sum": pair(report.partial_v_sum, report.partial_v_sum.enclosure(digits)),
        "per_i_terms": [
            {
                "i": term.i,
                "t_ki": term.t_ki,
                "w_exact": term.w.render(),
                "w_decimal": term.w.enclosure(digits).decimal(),
                "v_exact": term.v.render(),
                "v_decimal": term.v.enclosure(digits).decimal(),
            }
            for term in report.terms
        ],
    }


def bound_report_json(report: BoundReport) -> str:
    return json.dumps(bound_report_dict(report), indent=2)
