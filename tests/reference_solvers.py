"""Term-by-term reference solvers on `EgfSeries`, for differential tests.

No count path uses them: `series.solve_linear_counts` and the suffix
rows are compared against them.
"""

from fractions import Fraction
from math import factorial

from treerank.counting import RootRankTable
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
