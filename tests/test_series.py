"""Exact series arithmetic and the term-by-term recurrence solvers."""

import sys
import threading
from fractions import Fraction
from math import factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerank import series
from treerank.series import (
    EgfSeries,
    InvariantError,
    SeriesOrderError,
    _binomials,
    base_series,
    solve_linear_counts,
    tree_counts,
)
from treerank.variety import TreeVariety

from reference_solvers import solve_linear_ode, solve_plane_linear_ode

NONPLANE_COUNTS = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]
PLANE_COUNTS = [1, 1, 1, 3, 9, 39, 189, 1107, 7281, 54351, 448821]

# Ordinary coefficients of sec and tan through z^4, by hand:
# sec = 1 + z^2/2 + 5 z^4/24, tan = z + z^3/3.
SEC4 = EgfSeries([1, 0, Fraction(1, 2), 0, Fraction(5, 24)])
TAN4 = EgfSeries([0, 1, 0, Fraction(1, 3), 0])


def convolve(a, b, order):
    """Independent Cauchy-product oracle used to freeze expected products."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]


def reciprocal(coeffs):
    """Forward-substitution reciprocal, an oracle independent of EgfSeries."""
    inv = [Fraction(1) / coeffs[0]]
    for n in range(1, len(coeffs)):
        acc = sum(coeffs[i] * inv[n - i] for i in range(1, n + 1))
        inv.append(-acc / coeffs[0])
    return inv


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def series_strategy(order):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(EgfSeries)


class TestArithmetic:
    def test_add_zero_identity(self):
        e = base_series(TreeVariety.NONPLANE, 4)
        assert e + EgfSeries.zero(4) == e

    def test_sec_plus_tan_is_base_series(self):
        assert SEC4 + TAN4 == base_series(TreeVariety.NONPLANE, 4)
        assert (SEC4 + TAN4).coeffs == (1, 1, Fraction(1, 2), Fraction(1, 3), Fraction(5, 24))

    @settings(max_examples=50)
    @given(series_strategy(6), series_strategy(6))
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    def test_mul_against_convolution_oracle(self):
        e = base_series(TreeVariety.NONPLANE, 3)
        expected = convolve(e.coeffs, e.coeffs, 3)
        assert expected == [1, 2, 2, Fraction(5, 3)]  # frozen from the oracle
        assert (e * e).coeffs == tuple(expected)

    def test_mul_one_identity(self):
        e = base_series(TreeVariety.NONPLANE, 5)
        assert e * EgfSeries.constant(1, 5) == e

    def test_mul_reciprocal_recovers_one(self):
        order = 9
        # 1 - sin z has ordinary coefficients 1, -1, 0, 1/6, 0, -1/120, ...
        one_minus_sin = [Fraction(1)]
        sign, fact = -1, 1
        for n in range(1, order + 1):
            fact *= n
            one_minus_sin.append(Fraction(sign, fact) if n % 2 == 1 else Fraction(0))
            if n % 2 == 1:
                sign = -sign
        g = EgfSeries(one_minus_sin)
        h = EgfSeries(reciprocal(one_minus_sin))
        assert g * h == EgfSeries.constant(1, order)

    def test_order_mismatch_is_an_error(self):
        a = EgfSeries.zero(4)
        b = EgfSeries.zero(5)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(SeriesOrderError):
                op()
        assert (b.truncate(4) + a).order == 4

    def test_truncate_cannot_extend(self):
        with pytest.raises(SeriesOrderError):
            EgfSeries.zero(3).truncate(5)


class TestCalculus:
    def test_derivative_of_z(self):
        z = EgfSeries([0, 1, 0, 0])
        assert z.derivative() == EgfSeries([1, 0, 0])

    def test_integral_inverts_derivative(self):
        e = base_series(TreeVariety.NONPLANE, 8)
        rebuilt = e.derivative().integral() + EgfSeries.constant(1, 8)
        assert rebuilt == e

    def test_leaf_series_integral_closed_form(self):
        # Solution of y' = E y + 1 integrates to 1 - (1 - z) E(z).
        order = 6
        e = base_series(TreeVariety.NONPLANE, order + 1)
        y = solve_linear_ode(e.truncate(order), EgfSeries.constant(1, order), 0, order)
        lhs = y.integral()
        one_minus_z = EgfSeries.constant(1, order + 1) - EgfSeries.monomial(1, order + 1)
        rhs = EgfSeries.constant(1, order + 1) - one_minus_z * e
        assert lhs == rhs
        # Count form of the same identity: (n+1) E_n - E_(n+1).
        counts = y.counts()
        e_counts = tree_counts(TreeVariety.NONPLANE, order + 1)
        for n in range(order + 1):
            assert counts[n] == (n + 1) * e_counts[n] - e_counts[n + 1]


class TestBaseSeries:
    def test_nonplane_counts(self):
        assert tree_counts(TreeVariety.NONPLANE, 10) == tuple(NONPLANE_COUNTS)

    def test_plane_counts(self):
        assert tree_counts(TreeVariety.PLANE, 5) == tuple(PLANE_COUNTS[:6])
        assert tree_counts(TreeVariety.PLANE, 10) == tuple(PLANE_COUNTS)

    def test_order_zero(self):
        assert base_series(TreeVariety.NONPLANE, 0).coeffs == (1,)

    def test_nonplane_defining_equation(self):
        order = 30
        e = base_series(TreeVariety.NONPLANE, order)
        lhs = e.derivative()
        rhs = ((e * e + EgfSeries.constant(1, order)) * Fraction(1, 2)).truncate(order - 1)
        assert lhs == rhs

    def test_plane_defining_equation(self):
        order = 30
        b = base_series(TreeVariety.PLANE, order)
        rhs = (EgfSeries.constant(1, order) - b + b * b).truncate(order - 1)
        assert b.derivative() == rhs

    def test_counting_coefficients_are_integers(self):
        for variety in TreeVariety:
            counts = base_series(variety, 40).counts()
            assert all(c >= 0 for c in counts)

    def test_counts_rejects_non_integers(self):
        with pytest.raises(ValueError):
            EgfSeries([Fraction(1, 3), 1]).counts()


def fraction_tree_counts(variety, order):
    """T_0..T_order from the base equations in Fraction arithmetic."""
    cs = [Fraction(1)]
    for n in range(order):
        square = sum(cs[i] * cs[n - i] for i in range(n + 1))
        if variety is TreeVariety.NONPLANE:
            rhs = ((1 if n == 0 else 0) + square) / 2
        else:
            rhs = (1 if n == 0 else 0) - cs[n] + square
        cs.append(rhs / (n + 1))
    return tuple(int(c * factorial(n)) for n, c in enumerate(cs))


# The tree-count store that row 1 of the suffix rows replaced, kept
# verbatim as the reference.
_TREE_COUNTS: dict[TreeVariety, list[int]] = {v: [1] for v in TreeVariety}
_TREE_COUNTS_LOCK = threading.Lock()


def _extend_tree_counts(variety: TreeVariety, order: int) -> list[int]:
    """The variety's tree counts through `order`, extending the shared prefix.

    n!-scaled forms of y' = (1 + y^2)/2 (non-plane) and y' = 1 - y + y^2
    (plane), y(0) = 1:
        non-plane  T_{n+1} = (d_n + sum_i C(n,i) T_i T_{n-i}) / 2
        plane      T_{n+1} = d_n - T_n + sum_i C(n,i) T_i T_{n-i}
    with d_n = 1 for n = 0 and 0 otherwise.  The square's terms pair up
    as i <-> n-i, so half of them are summed and doubled.
    """
    t = _TREE_COUNTS[variety]
    plane = variety is TreeVariety.PLANE
    with _TREE_COUNTS_LOCK:
        for n in range(len(t) - 1, order):
            lo = (n + 1) // 2  # terms i < lo pair with n-i > n-lo
            row = _binomials(n)
            square = 2 * sum(map(mul, map(mul, row, t[:lo]), t[n:n - lo:-1]))
            if n % 2 == 0:
                square += row[lo] * t[lo] ** 2
            rhs = (1 if n == 0 else 0) + square
            if plane:
                t.append(rhs - t[n])
            else:
                half, rem = divmod(rhs, 2)
                if rem:
                    raise InvariantError(f"non-plane tree count {n + 1} is not an integer")
                t.append(half)
    return t


@pytest.fixture
def cold(monkeypatch):
    """Start from the initial suffix rows and an empty cache, and leave them so."""
    monkeypatch.setattr(series, "_SUFFIX_ROWS", {v: [[0, 1], [0, 0]] for v in TreeVariety})
    tree_counts.cache_clear()
    yield
    tree_counts.cache_clear()


class TestTreeCountPrefix:
    @pytest.mark.parametrize("variety", list(TreeVariety))
    def test_call_order_does_not_matter(self, cold, variety):
        expected = fraction_tree_counts(variety, 80)
        for order in (50, 10, 80, 0, 79):
            assert tree_counts(variety, order) == expected[: order + 1]

    @pytest.mark.parametrize("variety", list(TreeVariety))
    def test_matches_the_tree_count_recurrence_through_320(self, cold, variety):
        assert tree_counts(variety, 320) == tuple(_extend_tree_counts(variety, 320))

    def test_concurrent_extensions_append_each_count_once(self, cold):
        # Threads that start together, switching as often as the interpreter
        # allows, must leave one count per size.
        expected = fraction_tree_counts(TreeVariety.NONPLANE, 120)
        start = threading.Barrier(4)

        def extend():
            start.wait(timeout=60)
            series._suffix_rows(TreeVariety.NONPLANE, 1, 120)

        threads = [threading.Thread(target=extend) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert tree_counts(TreeVariety.NONPLANE, 120) == expected
        assert [len(row) for row in series._SUFFIX_ROWS[TreeVariety.NONPLANE]] == [121, 121]

    def test_base_series_is_a_view_of_the_counts(self, cold):
        for variety in TreeVariety:
            assert base_series(variety, 12).counts() == list(tree_counts(variety, 12))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            tree_counts(TreeVariety.PLANE, -1)


counts_strategy = st.lists(st.integers(min_value=0, max_value=10**6), min_size=12, max_size=12)


class TestIntegerKernel:
    @settings(max_examples=60, deadline=None)
    @given(counts_strategy, counts_strategy, st.integers(min_value=0, max_value=12))
    def test_matches_fraction_solver(self, m, p, order):
        got = solve_linear_counts(m, p, order)
        m_series = EgfSeries(Fraction(c, factorial(n)) for n, c in enumerate(m))
        p_series = EgfSeries(Fraction(c, factorial(n)) for n, c in enumerate(p))
        reference = solve_linear_ode(m_series, p_series, 0, order)
        assert got == reference.counts()

    def test_leaf_counts(self):
        m = tree_counts(TreeVariety.NONPLANE, 5)
        assert solve_linear_counts(m, [1, 0, 0, 0, 0, 0], 6) == [0, 1, 1, 3, 9, 35, 155]

    def test_order_zero(self):
        assert solve_linear_counts([], [], 0) == [0]

    def test_short_inputs_raise(self):
        with pytest.raises(SeriesOrderError):
            solve_linear_counts([1, 1, 1], [0, 0, 0, 0], 4)
        with pytest.raises(ValueError):
            solve_linear_counts([], [], -1)


class TestLinearSolver:
    def test_leaf_counts(self):
        e = base_series(TreeVariety.NONPLANE, 5)
        y = solve_linear_ode(e, EgfSeries.constant(1, 5), 0, 6)
        assert y.counts() == [0, 1, 1, 3, 9, 35, 155]

    def test_rank_one_counts(self):
        order = 6
        e = base_series(TreeVariety.NONPLANE, order - 1)
        # correction z E(z) - z^2/2
        p = EgfSeries([Fraction(0)] + list(e.coeffs[:-1])) - \
            EgfSeries.monomial(2, order - 1, Fraction(1, 2))
        y = solve_linear_ode(e, p, 0, order)
        assert y.counts() == [0, 0, 1, 2, 8, 30, 135]

    def test_zero_correction_zero_start(self):
        e = base_series(TreeVariety.NONPLANE, 7)
        y = solve_linear_ode(e, EgfSeries.zero(7), 0, 8)
        assert y.is_zero()

    def test_plane_leaf_counts(self):
        y = solve_plane_linear_ode(EgfSeries.constant(1, 5), 0, 6)
        assert y.counts() == [0, 1, 1, 5, 17, 93, 513]

    def test_plane_rank_one_counts(self):
        order = 10
        b = base_series(TreeVariety.PLANE, order - 1)
        two_z_b_minus_one = (b - EgfSeries.constant(1, order - 1)) * 2
        p = EgfSeries([Fraction(0)] + list(two_z_b_minus_one.coeffs[:-1])) \
            + EgfSeries.monomial(1, order - 1) \
            - EgfSeries.monomial(2, order - 1)
        y = solve_plane_linear_ode(p, 0, order)
        assert y.counts() == [0, 0, 1, 3, 15, 75, 435, 2883, 21447, 177435, 1613835]

    def test_plane_zero_case(self):
        assert solve_plane_linear_ode(EgfSeries.zero(5), 0, 6).is_zero()

    def test_insufficient_order_raises(self):
        e = base_series(TreeVariety.NONPLANE, 3)
        with pytest.raises(SeriesOrderError):
            solve_linear_ode(e, EgfSeries.zero(3), 0, 6)

    @settings(max_examples=25, deadline=None)
    @given(series_strategy(7), series_strategy(7), rationals)
    def test_solution_satisfies_equation(self, m, p, y0):
        y = solve_linear_ode(m, p, y0, 8)
        residual = y.derivative() - (m * y.truncate(7) + p)
        assert residual == EgfSeries.zero(7)
        assert y.coeff(0) == y0
