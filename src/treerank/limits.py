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
the weight moments W_m = int_0^{z0} t^m g(t) dt, so every limit is exact
in Q(sqrt3)[pi, 1/pi].  Both weights are a constant plus a sinusoid,
g = c - b g'', with the double zero g(z0) = g'(z0) = 0.  So W_m is
c z0^(m+1)/(m+1) - b int_0^{z0} t^m g''; integrating by parts twice, the
terms at z0 vanish, and so do those at 0 for m >= 2, which leaves one
recurrence for both varieties:

    W_m = c z0^(m+1)/(m+1) - b m(m-1) W_(m-2)        (m >= 2),
    W_m = c z0^(m+1)/(m+1) - b g(0)                  (m = 0, 1),

where at m = 0 the boundary term -g'(0) equals g(0) in both varieties:

* non-plane: g = 1 - sin t, g'' = sin t, so (c, b) = (1, 1) and g(0) = 1.
* plane: g = 1/2 + cos(theta)/2 with theta = sqrt3 t + pi/3, which runs
  from pi/3 at t = 0 to pi at z0, so g'' = -(3/2) cos(theta),
  (c, b) = (1/2, 1/3) and g(0) = 3/4.

Unrolled, the recurrence is a sum of floor(m/2) + 2 terms:

    W_m = c sum_{j=0}^{floor(m/2)} (-b)^j m!/(m+1-2j)! z0^(m+1-2j)
          + (-b)^(floor(m/2)+1) g(0) m!,

so `weight_moment` builds any degree directly, with no table of lower
ones.  The count series of subtree size i has the correction
T_i z^(i-1)/(i-1)!, so its limit is v_i = kappa_v T_i W_(i-1)/(i-1)!; that
of rank k with size i has t[k][i] in place of T_i, so its limit is
w_{k,i} = v_i t[k][i]/T_i.

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

from .constants import Enclosure, ExactConst
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

# (z0, c, b, g(0)) per variety: the weight is g = c - b g'', and the
# moment sum in the docstring reads nothing else.
_WEIGHT = {
    TreeVariety.NONPLANE: (ExactConst.pi_power(1, Fraction(1, 2)), 1, 1, 1),
    TreeVariety.PLANE: (ExactConst.pi_power(1, 0, Fraction(2, 9)),
                        Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)),
}


class ClosedFormUnavailableError(ValueError):
    """Ranks beyond 1 have no elementary closed form; use bound_interval."""


def weight_moment(variety: TreeVariety, m: int) -> ExactConst:
    """W_m = int_0^{z0} t^m g(t) dt for the variety's weight g, exact.

    The unrolled sum of the module docstring, on integer numerators over
    one denominator, reduced once.  With z0 = x sqrt(root) pi, each pi^n
    term is the one before it times rho n(n-1), rho = -b pi^2/z0^2, and
    all of them take the sqrt3 slot or all the rational one.
    """
    if m < 0:
        raise ValueError("moment degree must be nonnegative")
    z0, c, b, g0 = _WEIGHT[variety]
    ((a, s),) = z0.terms.values()  # z0 = (a + s sqrt3) pi with a or s zero
    root, x = (3, s) if s else (1, a)
    half, top = m // 2, m + 1
    # c z0^(m+1)/(m+1), the pi^(m+1) term, without its pi and sqrt3 factors
    lead = c * x**top * Fraction(root ** (top // 2), top)
    rho = -b / (x * x * root)
    tail = (-b) ** (half + 1) * g0 * factorial(m)
    den = lead.denominator * tail.denominator * rho.denominator**half
    num = {0: (tail.numerator * (den // tail.denominator), 0)}
    term = lead.numerator * (den // lead.denominator)
    for n in range(top, 0, -2):
        num[n] = (0, term) if root == 3 and top % 2 else (term, 0)
        if n > 2:  # each step uses one of den's half factors rho.denominator
            term = term * rho.numerator * n * (n - 1) // rho.denominator
    return ExactConst.reduced(num, den)


@lru_cache(maxsize=None)
def limit_subtree_prob(variety: TreeVariety, r: int) -> ExactConst:
    """Limiting probability that a random vertex heads a subtree of size r: v_r."""
    if r < 1:
        raise ValueError("subtree size must be at least 1")
    count_r = tree_counts(variety, r)[r]
    return weight_moment(variety, r - 1) * (KAPPA[variety] * Fraction(count_r, factorial(r - 1)))


def limit_joint_prob(
    variety: TreeVariety, k: int, i: int, table: RootRankTable | None = None
) -> ExactConst:
    """Limiting probability of rank k with subtree size i: w_{k,i} = v_i t[k][i]/T_i."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    if i < 1:
        raise ValueError("subtree size must be at least 1")
    if table is None:
        table = root_rank_counts(variety, max(i, 1))
    return limit_subtree_prob(variety, i) * Fraction(table.count(k, i),
                                                     tree_counts(variety, i)[i])


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
