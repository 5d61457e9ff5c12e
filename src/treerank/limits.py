"""Exact limiting probabilities and rigorous truncation brackets.

Every counting generating function produced by this package is entire
divided by an integrating-factor weight with a double zero at the
dominant singularity z0 (1 - sin z at pi/2 for non-plane trees, the
cosine-square weight at 2 sqrt3 pi/9 for plane trees).  The coefficient
asymptotics therefore come from one double-pole Laurent coefficient, and
per-vertex probability limits are that coefficient divided by z0^2 times
the base growth constant.  With corrections that are polynomials, the
numerator at z0 is a finite combination of the moment integrals from
`constants`, so every limit is exact in Q(sqrt3)[pi, 1/pi].

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
from typing import Union

from .constants import Enclosure, ExactConst, UnsupportedDivisorError, halfpi_moment, plane_moment
from .counting import RootRankTable, root_rank_counts
from .series import InvariantError, tree_counts
from .variety import TreeVariety

Rational = Union[int, Fraction]

DEFAULT_BOUND_TERMS = 12
DEFAULT_DIGITS = 12


class ClosedFormUnavailableError(ValueError):
    """Ranks beyond 1 have no elementary closed form; use bound_interval."""


@dataclass(frozen=True)
class PoleData:
    """Location and leading Laurent data of a dominant pole."""

    location: ExactConst
    order: int
    coefficient: ExactConst

    def __post_init__(self) -> None:
        if self.order not in (1, 2):
            raise ValueError("only poles of order 1 or 2 occur here")
        if self.coefficient.is_zero():
            raise ValueError("a pole needs a nonzero leading coefficient")


def simple_pole_residue(f_at_z0: ExactConst, gprime_at_z0: ExactConst) -> ExactConst:
    """Residue f(z0)/g'(z0) of f/g at a simple zero z0 of g."""
    try:
        return f_at_z0 / gprime_at_z0
    except UnsupportedDivisorError:
        raise UnsupportedDivisorError(
            "g'(z0) must be a nonzero rational or monomial"
        ) from None


def double_pole_coefficient(f_at_z0: ExactConst, gpp_at_z0: Union[ExactConst, Rational]) -> ExactConst:
    """Leading coefficient 2 f(z0)/g''(z0) of f/g at a double zero of g."""
    gpp = gpp_at_z0 if isinstance(gpp_at_z0, ExactConst) else ExactConst.rational(gpp_at_z0)
    if gpp.is_zero():
        raise UnsupportedDivisorError("g''(z0) must be nonzero")
    return (f_at_z0 * 2) / gpp


def singularity(variety: TreeVariety) -> ExactConst:
    """Dominant singularity: pi/2, or 2 sqrt3 pi / 9."""
    if variety is TreeVariety.NONPLANE:
        return ExactConst.pi_power(1, Fraction(1, 2))
    return ExactConst.pi_power(1, 0, Fraction(2, 9))


def weight_second_derivative(variety: TreeVariety) -> Fraction:
    """g''(z0) for the integrating-factor weight g of the variety.

    Non-plane: g = 1 - sin has g'' = sin = 1 at pi/2.  Plane: the weight
    1/2 + cos(sqrt3 z)/4 - sqrt3 sin(sqrt3 z)/4 has second derivative
    -(3/4) cos(sqrt3 z) + (3 sqrt3/4) sin(sqrt3 z), which is 3/8 + 9/8 at
    the singularity.
    """
    return Fraction(1) if variety is TreeVariety.NONPLANE else Fraction(3, 2)


@lru_cache(maxsize=None)
def base_pole(variety: TreeVariety) -> PoleData:
    """Simple-pole data of the tree-count series at its singularity.

    Non-plane: (1 + sin z)/cos z with f(z0) = 2, g'(z0) = -1.  Plane: the
    base series is 1/2 + (sqrt3/2) tan(sqrt3 z/2 + pi/6); at the
    singularity the tangent's numerator is 1 and the derivative of its
    denominator is -sqrt3/2, leaving residue -1 after the prefactor.
    """
    if variety is TreeVariety.NONPLANE:
        residue = simple_pole_residue(ExactConst.rational(2), ExactConst.rational(-1))
    else:
        inner = simple_pole_residue(
            ExactConst.rational(1), ExactConst.sqrt3(Fraction(-1, 2))
        )
        residue = ExactConst.sqrt3(Fraction(1, 2)) * inner
    return PoleData(location=singularity(variety), order=1, coefficient=residue)


@lru_cache(maxsize=None)
def growth_normalization(variety: TreeVariety) -> tuple[ExactConst, ExactConst]:
    """(z0, leading) with tree_count(n)/n! ~ leading * z0^-n."""
    pole = base_pole(variety)
    leading = (-pole.coefficient) / pole.location
    return pole.location, leading


def probability_limit(variety: TreeVariety, f_at_z0: ExactConst) -> ExactConst:
    """Limit of count(n)/((n+1) tree_count(n)) for a count series K/g.

    count(n)/n! ~ D (n+1) z0^-(n+2) with D = 2 f(z0)/g''(z0), so the
    quotient tends to D / (z0^2 * leading).
    """
    d = double_pole_coefficient(f_at_z0, weight_second_derivative(variety))
    z0, leading = growth_normalization(variety)
    return d / (z0 * z0 * leading)


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
    f_at_z0 = weight_moment(variety, degree) * Fraction(count, factorial(degree))
    return probability_limit(variety, f_at_z0)


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
# sin(sqrt3 z0) = sqrt3/2, cos(sqrt3 z0) = -1/2.  Each entry is (f(z0),
# g''(z0)) for the solved form f/g of the series.
def _closed_form_pole(variety: TreeVariety, k: int) -> tuple[ExactConst, ExactConst]:
    if variety is TreeVariety.NONPLANE:
        if k == 0:
            # (z - 1 + cos z)/(1 - sin z)
            f = ExactConst.pi_power(1, Fraction(1, 2)) - 1
            return f, ExactConst.rational(1)
        # (12 z sin z + 12 cos z - 12 - 3 z^2 cos z - z^3) / (6 (1 - sin z))
        f = ExactConst.pi_power(1, 6) - ExactConst.pi_power(3, Fraction(1, 8)) - 12
        return f, ExactConst.rational(6)
    if k == 0:
        # (6z + sqrt3 sin(sqrt3 z) + 3 cos(sqrt3 z) - 3)
        #   / (-3 sqrt3 sin(sqrt3 z) + 3 cos(sqrt3 z) + 6)
        f = ExactConst.pi_power(1, 0, Fraction(4, 3)) - 3
        return f, ExactConst.rational(18)
    # (6z^3 + sqrt3 (3z^2 - 15z - 5) sin(sqrt3 z) + 3 (3z^2 + 5z - 5) cos(sqrt3 z) + 15)
    #   / (9 (sqrt3 sin(sqrt3 z) - cos(sqrt3 z) - 2))
    f = (
        ExactConst.pi_power(3, 0, Fraction(16, 729))
        - ExactConst.pi_power(1, 0, Fraction(20, 27))
        + Fraction(5, 3)
    )
    return f, ExactConst.rational(-6)


@lru_cache(maxsize=None)
def limit_rank_fraction(variety: TreeVariety, k: int) -> ExactConst:
    """Exact limiting fraction of rank-k vertices, for k = 0 or 1 only."""
    if k not in (0, 1):
        raise ClosedFormUnavailableError(
            f"rank {k} has no closed form; use bound_interval"
        )
    f_at_z0, gpp = _closed_form_pole(variety, k)
    d = double_pole_coefficient(f_at_z0, gpp)
    z0, leading = growth_normalization(variety)
    return d / (z0 * z0 * leading)


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


def bound_report_dict(report: BoundReport, digits: int = DEFAULT_DIGITS) -> dict:
    """Canonical JSON-ready form of a bound report (stable key order)."""

    def pair(value: ExactConst) -> dict:
        return {"exact": value.render(), "decimal": value.enclosure(digits).decimal()}

    return {
        "variety": str(report.variety),
        "k": report.k,
        "r": report.r,
        "lower": pair(report.lower),
        "upper": pair(report.upper),
        "v_partial_sum": pair(report.partial_v_sum),
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


def bound_report_json(report: BoundReport, digits: int = DEFAULT_DIGITS) -> str:
    return json.dumps(bound_report_dict(report, digits), indent=2)
