"""Term-by-term reference solvers, for differential tests.

No count or limit path uses them: `series.solve_linear_counts` and the
suffix rows are compared against the `EgfSeries` solvers, and
`limits.moment_sum` against the unrolled weight moment and the per-term
bracket sum.
"""

from fractions import Fraction
from math import factorial

from treerank.constants import ExactConst
from treerank.counting import RootRankTable, root_rank_counts
from treerank.limits import _WEIGHT, KAPPA, limit_joint_prob, limit_subtree_prob, moment_sum
from treerank.series import EgfSeries, Rational, SeriesOrderError, base_series
from treerank.variety import TreeVariety


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


def correction_series(table: RootRankTable, k: int, order: int) -> EgfSeries:
    """The generating function sum_i t[k][i] z^i / i! through `order`."""
    if order > table.max_size:
        raise ValueError(f"order {order} exceeds table size {table.max_size}")
    coeffs = [Fraction(0)] * (order + 1)
    for i in range(1, order + 1):
        c = table.count(k, i)
        if c:
            coeffs[i] = Fraction(c, factorial(i))
    return EgfSeries(coeffs)


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
