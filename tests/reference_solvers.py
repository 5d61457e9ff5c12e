"""Term-by-term reference solvers, for differential tests.

No count or limit path uses them: `series.solve_linear_counts` and the
suffix rows are compared against the `EgfSeries` solvers, and
`limits.moment_sum` against the unrolled weight moment and the per-term
bracket sum.  The tree-count series `base_series` lives here too, since
only these solvers and the tests read it, and so does an extrapolation
of a_k from the exact finite-n ratios.  The `Fraction` decimals that the
integer ones in `constants` replaced close the file.
"""

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath

from treerank.constants import ExactConst
from treerank.counting import rank_vertex_counts, root_ranks
from treerank.limits import _WEIGHT, KAPPA, limit_joint_prob, limit_subtree_prob, moment_sum
from treerank.series import EgfSeries, Rational, SeriesOrderError, tree_counts
from treerank.variety import TreeVariety


@lru_cache(maxsize=None)
def base_series(variety: TreeVariety, order: int) -> EgfSeries:
    """Tree-count series of the given variety through the given order.

    The ordinary coefficients T_n / n! of `tree_counts`: the solution of
    y' = (1 + y^2)/2 for non-plane and y' = 1 - y + y^2 for plane trees,
    with y(0) = 1.
    """
    counts = tree_counts(variety, order)
    return EgfSeries(Fraction(c, factorial(n)) for n, c in enumerate(counts))


def solve_linear_ode(m: EgfSeries, p: EgfSeries, y0: Rational, order: int) -> EgfSeries:
    """Unique series y with y(0)=y0 and y' = m*y + p, through the given order.

    Forward recurrence: (n+1) y_{n+1} = [z^n](m*y) + p_n.  Both m and p
    must carry coefficients at least through order-1.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > 0 and (m.order < order - 1 or p.order < order - 1):
        raise SeriesOrderError(
            f"m and p must reach order {order - 1}; got {m.order} and {p.order}"
        )
    mc, pc = m.coeffs, p.coeffs
    ys = [Fraction(y0)]
    for n in range(order):
        conv = sum(mc[i] * ys[n - i] for i in range(n + 1))
        ys.append((conv + pc[n]) / (n + 1))
    return EgfSeries(ys)


def solve_plane_linear_ode(p: EgfSeries, y0: Rational, order: int) -> EgfSeries:
    """Solve f' = 2*f*(B - 1) + f + p for the plane base series B."""
    b = base_series(TreeVariety.PLANE, max(order - 1, 0))
    m = b * 2 - EgfSeries.constant(1, b.order)
    return solve_linear_ode(m, p, y0, order)


def correction_series(variety: TreeVariety, k: int, order: int) -> EgfSeries:
    """The generating function sum_i t[k][i] z^i / i! through `order`."""
    ranks = root_ranks(variety, k, order)
    return EgfSeries([0] + [Fraction(c, factorial(i)) for i, c in enumerate(ranks, 1)])


def kernel_weight_moment(variety: TreeVariety, m: int) -> ExactConst:
    """W_m through `moment_sum`: the monomial correction m! at degree m."""
    if m < 0:
        raise ValueError("moment degree must be nonnegative")
    return moment_sum(variety, [0] * m + [factorial(m)])


def unrolled_weight_moment(variety: TreeVariety, m: int) -> ExactConst:
    """W_m = int_0^{z0} t^m g(t) dt as the unrolled sum of floor(m/2) + 2 terms,

        W_m = c sum_{j=0}^{floor(m/2)} (-b)^j m!/(m+1-2j)! z0^(m+1-2j)
              + (-b)^(floor(m/2)+1) g(0) m!,

    on integer numerators over one denominator, reduced once.  With
    z0 = x sqrt(root) pi, each pi^n term is the one before it times
    rho n(n-1), rho = -b pi^2/z0^2, and all of them take the sqrt3 slot or
    all the rational one.
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


def reference_bracket(variety: TreeVariety, k: int, r: int
                      ) -> tuple[ExactConst, ExactConst, ExactConst]:
    """(lower, upper, v partial sum) of the rank-k bracket, summed term by term.

    lower = w_{k,1} + ... + w_{k,r} and upper = lower + 1 - (v_1 + ... + v_r),
    one exact addition per subtree size.
    """
    w_sum = v_sum = ExactConst.zero()
    for i in range(1, r + 1):
        w_sum = w_sum + limit_joint_prob(variety, k, i)
        v_sum = v_sum + limit_subtree_prob(variety, i)
    return w_sum, w_sum + (ExactConst.rational(1) - v_sum), v_sum


def reference_moment_sum(variety: TreeVariety, p: list[int]) -> ExactConst:
    """sum_n P_n W_n/n! term by term, from the unrolled weight moments."""
    total = ExactConst.zero()
    for n, value in enumerate(p):
        if value:
            total = total + unrolled_weight_moment(variety, n) * Fraction(value, factorial(n))
    return total


def extrapolated_rank_limit(variety: TreeVariety, k: int, order: int, terms: int,
                            log_powers: int = 1) -> mpmath.mpf:
    """a_k extrapolated from the exact `rank_vertex_counts(variety, k, order)`.

    Fits prob_next(n) = a + sum over 1 <= j <= terms and 0 <= e <= log_powers
    of c_je (log n)^e / n^j exactly through as many sizes as unknowns,
    order // 24 apart and ending at order - 1, at 80 digits, and returns a.
    A reference for tests, not a certified value.
    """
    seq = rank_vertex_counts(variety, k, order)
    step = order // 24
    with mpmath.workdps(80):
        sizes = [order - 1 - i * step for i in range(1 + terms * (log_powers + 1))]
        rows = [[mpmath.mpf(1)] + [mpmath.log(n) ** e / mpmath.mpf(n) ** j
                                   for j in range(1, terms + 1) for e in range(log_powers + 1)]
                for n in sizes]
        values = [mpmath.mpf(p.numerator) / p.denominator for p in map(seq.prob_next, sizes)]
        return +mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(values))[0]


# The decimal rounding on `Fraction`s that enclosures printed through before
# the integer routine `constants.decimal_string`, kept verbatim.


def _round_half_up(x: Fraction, places: int) -> int:
    """x 10^places rounded to an integer, halves away from zero."""
    n, d = x.numerator, x.denominator
    q = (2 * abs(n) * 10**places + d) // (2 * d)
    return q if n >= 0 else -q


def decimal_string(x: Fraction, places: int) -> str:
    scaled = _round_half_up(x, places)
    sign = "-" if scaled < 0 else ""
    # Decimal converts without the interpreter's cap on int -> str digits.
    digits = str(Decimal(abs(scaled))).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _rounds_alike(lo: Fraction, hi: Fraction, digits: int) -> bool:
    """Whether lo and hi round half-up alike at every number of places 1..digits.

    If they round alike, to n, at `digits` places, both lie in the cell
    of values that round to n, and the only coarser rounding boundary in
    that cell is its centre n/10^digits.  The centre is a boundary at p
    places exactly when n = (10m + 5) 10^(digits-p-1), so comparing the
    roundings at that one p settles every coarser place.
    """
    n = _round_half_up(lo, digits)
    if n != _round_half_up(hi, digits):
        return False
    zeros, head = 0, abs(n)
    while head and head % 10 == 0:
        zeros, head = zeros + 1, head // 10
    places = digits - 1 - zeros
    if head % 10 != 5 or places < 1:
        return True
    return _round_half_up(lo, places) == _round_half_up(hi, places)


def enclosure_decimal(lo: Fraction, hi: Fraction, places: int) -> str:
    """What `Enclosure(lo, hi, ...).decimal(places)` prints, on `Fraction`s:
    the midpoint, or ValueError for an interval wider than 10^-places."""
    if hi - lo > Fraction(1, 10**places):
        raise ValueError(f"interval wider than 10^-{places}")
    return decimal_string((lo + hi) / 2, places)
