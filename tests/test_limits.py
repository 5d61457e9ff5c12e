"""Exact limiting probabilities and certified brackets, checked against the
earlier pole-data chain kept here as the reference."""

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path
from typing import Union

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

import treerank.constants as constants
import treerank.limits as limits
import treerank.series as series
from treerank.constants import ExactConst
from treerank.counting import rank_vertex_counts, root_ranks, size_vertex_counts
from treerank.limits import (
    KAPPA,
    bound_interval,
    limit_joint_prob,
    limit_rank_fraction,
    limit_subtree_prob,
    moment_sum,
    row_enclosures,
    row_texts,
)
from treerank.series import InvariantError, tree_counts
from treerank.variety import TreeVariety

from reference_solvers import (
    extrapolated_rank_limit,
    kernel_weight_moment,
    reference_bracket,
    reference_moment_sum,
    unrolled_weight_moment,
)

NP = TreeVariety.NONPLANE
PL = TreeVariety.PLANE
SRC = Path(__file__).resolve().parents[1] / "src"

Rational = Union[int, Fraction]

# Dominant singularity z0, growth constant l of T_n/n! ~ l z0^-n, and the
# weight's g''(z0), derived by hand for each variety.
Z0 = {NP: ExactConst.pi_power(1, Fraction(1, 2)), PL: ExactConst.pi_power(1, 0, Fraction(2, 9))}
ELL = {NP: ExactConst.pi_power(-1, 4), PL: ExactConst.pi_power(-1, 0, Fraction(3, 2))}
ELL_INVERSE = {NP: ExactConst.pi_power(1, Fraction(1, 4)), PL: ExactConst.pi_power(1, 0, Fraction(2, 9))}
G_SECOND = {NP: Fraction(1), PL: Fraction(3, 2)}


def mp_fraction(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


# ---------------------------------------------------------------------------
# Reference: the earlier pole-data chain, kept verbatim except that ExactConst
# no longer divides or has `is_zero`: each `x / y` is `_div(x, y)`, a copy of
# the removed `ExactConst.__truediv__`, and each `x.is_zero()` is `x == 0`.


class UnsupportedDivisorError(ZeroDivisionError):
    """Division is only defined by nonzero rationals and single monomials."""


def _div(x: ExactConst, other: Union[ExactConst, Rational]) -> ExactConst:
    if isinstance(other, (int, Fraction)):
        if other == 0:
            raise UnsupportedDivisorError("division by zero")
        return x * (Fraction(1) / Fraction(other))
    if other == 0:
        raise UnsupportedDivisorError("division by zero")
    if len(other.terms) != 1:
        raise UnsupportedDivisorError(
            "division is only supported by rationals and monomials c*pi^j"
        )
    ((j, (a, b)),) = other.terms.items()
    # 1/(a + b sqrt3) = (a - b sqrt3)/(a^2 - 3 b^2); the norm cannot vanish.
    norm = a * a - 3 * b * b
    inv = ExactConst({-j: (a / norm, -b / norm)})
    return x * inv


@dataclass(frozen=True)
class PoleData:
    """Location and leading Laurent data of a dominant pole."""

    location: ExactConst
    order: int
    coefficient: ExactConst

    def __post_init__(self) -> None:
        if self.order not in (1, 2):
            raise ValueError("only poles of order 1 or 2 occur here")
        if self.coefficient == 0:
            raise ValueError("a pole needs a nonzero leading coefficient")


def simple_pole_residue(f_at_z0: ExactConst, gprime_at_z0: ExactConst) -> ExactConst:
    """Residue f(z0)/g'(z0) of f/g at a simple zero z0 of g."""
    try:
        return _div(f_at_z0, gprime_at_z0)
    except UnsupportedDivisorError:
        raise UnsupportedDivisorError(
            "g'(z0) must be a nonzero rational or monomial"
        ) from None


def double_pole_coefficient(f_at_z0: ExactConst, gpp_at_z0: Union[ExactConst, Rational]) -> ExactConst:
    """Leading coefficient 2 f(z0)/g''(z0) of f/g at a double zero of g."""
    gpp = gpp_at_z0 if isinstance(gpp_at_z0, ExactConst) else ExactConst.rational(gpp_at_z0)
    if gpp == 0:
        raise UnsupportedDivisorError("g''(z0) must be nonzero")
    return _div(f_at_z0 * 2, gpp)


def singularity(variety: TreeVariety) -> ExactConst:
    """Dominant singularity: pi/2, or 2 sqrt3 pi / 9."""
    if variety is TreeVariety.NONPLANE:
        return ExactConst.pi_power(1, Fraction(1, 2))
    return ExactConst.pi_power(1, 0, Fraction(2, 9))


def weight_second_derivative(variety: TreeVariety) -> Fraction:
    """g''(z0) for the integrating-factor weight g of the variety."""
    return Fraction(1) if variety is TreeVariety.NONPLANE else Fraction(3, 2)


@lru_cache(maxsize=None)
def base_pole(variety: TreeVariety) -> PoleData:
    """Simple-pole data of the tree-count series at its singularity."""
    if variety is TreeVariety.NONPLANE:
        residue = simple_pole_residue(ExactConst.rational(2), ExactConst.rational(-1))
    else:
        inner = simple_pole_residue(
            ExactConst.rational(1), ExactConst.pi_power(0, 0, Fraction(-1, 2))
        )
        residue = ExactConst.pi_power(0, 0, Fraction(1, 2)) * inner
    return PoleData(location=singularity(variety), order=1, coefficient=residue)


@lru_cache(maxsize=None)
def growth_normalization(variety: TreeVariety) -> tuple[ExactConst, ExactConst]:
    """(z0, leading) with tree_count(n)/n! ~ leading * z0^-n."""
    pole = base_pole(variety)
    leading = _div(-pole.coefficient, pole.location)
    return pole.location, leading


def probability_limit(variety: TreeVariety, f_at_z0: ExactConst) -> ExactConst:
    """Limit of count(n)/((n+1) tree_count(n)) for a count series K/g."""
    d = double_pole_coefficient(f_at_z0, weight_second_derivative(variety))
    z0, leading = growth_normalization(variety)
    return _div(d, z0 * z0 * leading)


def reference_correction_limit(variety: TreeVariety, count: int, degree: int) -> ExactConst:
    if count == 0:
        return ExactConst()
    f_at_z0 = unrolled_weight_moment(variety, degree) * Fraction(count, factorial(degree))
    return probability_limit(variety, f_at_z0)


def reference_subtree_prob(variety: TreeVariety, r: int) -> ExactConst:
    count_r = tree_counts(variety, r)[r]
    return reference_correction_limit(variety, count_r, r - 1)


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


def reference_rank_fraction(variety: TreeVariety, k: int) -> ExactConst:
    f_at_z0, gpp = _closed_form_pole(variety, k)
    d = double_pole_coefficient(f_at_z0, gpp)
    z0, leading = growth_normalization(variety)
    return _div(d, z0 * z0 * leading)


class TestPoles:
    """The reference chain's own pieces, against hand-derived values."""

    def test_simple_residue_examples(self):
        # (1 + sin z)/cos z at pi/2: numerator 2, denominator derivative -1.
        res = simple_pole_residue(ExactConst.rational(2), ExactConst.rational(-1))
        assert res == ExactConst.rational(-2)
        # Vanishing numerator gives residue zero.
        assert simple_pole_residue(ExactConst(), ExactConst.rational(1)) == \
            ExactConst()
        c = ExactConst.pi_power(1, Fraction(3, 7))
        assert simple_pole_residue(c, ExactConst.rational(1)) == c

    def test_simple_residue_divisor_shape(self):
        with pytest.raises(UnsupportedDivisorError):
            simple_pole_residue(ExactConst.rational(1), ExactConst.pi_power(1) + 1)

    def test_double_pole_examples(self):
        # Leaf series numerator at pi/2 with weight 1 - sin.
        d = double_pole_coefficient(ExactConst.pi_power(1, Fraction(1, 2)) - 1, 1)
        assert d == ExactConst.pi_power(1) - 2
        # Rank-1 series numerator with its factor-6 denominator.
        f = ExactConst.pi_power(1, 6) - ExactConst.pi_power(3, Fraction(1, 8)) - 12
        d = double_pole_coefficient(f, 6)
        expected = ExactConst.pi_power(1, 2) - ExactConst.pi_power(3, Fraction(1, 24)) - 4
        assert d == expected
        assert double_pole_coefficient(ExactConst(), 5) == ExactConst()
        with pytest.raises(UnsupportedDivisorError):
            double_pole_coefficient(ExactConst.rational(1), 0)

    def test_pole_data_validation(self):
        with pytest.raises(ValueError):
            PoleData(ExactConst.pi_power(1), 3, ExactConst.rational(1))
        with pytest.raises(ValueError):
            PoleData(ExactConst.pi_power(1), 1, ExactConst())

    def test_base_poles(self):
        np_pole = base_pole(NP)
        assert np_pole.location == ExactConst.pi_power(1, Fraction(1, 2))
        assert np_pole.coefficient == ExactConst.rational(-2)
        pl_pole = base_pole(PL)
        assert pl_pole.location == ExactConst.pi_power(1, 0, Fraction(2, 9))
        assert pl_pole.coefficient == ExactConst.rational(-1)

    def test_weight_second_derivatives(self):
        for variety in (NP, PL):
            assert weight_second_derivative(variety) == G_SECOND[variety]


class TestGrowth:
    def test_normalization_values(self):
        for variety in (NP, PL):
            assert growth_normalization(variety) == (Z0[variety], ELL[variety])
            assert ELL[variety] * ELL_INVERSE[variety] == 1

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_kappa_is_two_over_gpp_z0_squared_growth(self, variety):
        z0 = Z0[variety]
        assert KAPPA[variety] * G_SECOND[variety] * z0 * z0 * ELL[variety] == 2

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_counts_approach_growth_estimate(self, variety):
        counts = tree_counts(variety, 44)
        z0, inverse = Z0[variety], ELL_INVERSE[variety]
        gaps = []
        for n in (11, 22, 44):
            z0_pow = ExactConst.rational(1)
            for _ in range(n):
                z0_pow = z0_pow * z0
            ratio = z0_pow * Fraction(counts[n], factorial(n)) * inverse
            gap = (ratio - 1).enclosure(20)
            gaps.append(max(abs(gap.lo), abs(gap.hi)))
        assert gaps[0] < Fraction(1, 10)
        assert gaps[2] < gaps[1] < gaps[0]


@pytest.mark.parametrize("variety", [NP, PL])
class TestAgainstReferenceChain:
    def test_subtree_limits(self, variety):
        for r in range(1, 41):
            assert limit_subtree_prob(variety, r) == reference_subtree_prob(variety, r)

    def test_joint_limits(self, variety):
        rows = [root_ranks(variety, k, 30) for k in range(30)]
        for i in range(1, 31):
            for k in range(i):
                expected = reference_correction_limit(variety, rows[k][i - 1], i - 1)
                assert limit_joint_prob(variety, k, i) == expected

    def test_joint_limits_by_their_own_moment(self, variety):
        # w_{k,i} is read off v_i; here it is kappa_v t[k][i] W_(i-1)/(i-1)!.
        rows = [root_ranks(variety, k, 40) for k in range(5)]
        for i in range(1, 41):
            moment = kernel_weight_moment(variety, i - 1) * KAPPA[variety]
            for k in range(5):
                expected = moment * Fraction(rows[k][i - 1], factorial(i - 1))
                assert limit_joint_prob(variety, k, i) == expected, (k, i)

    def test_rank_fractions(self, variety):
        for k in (0, 1):
            assert limit_rank_fraction(variety, k) == reference_rank_fraction(variety, k)

    def test_bracket(self, variety):
        lower = ExactConst()
        v_sum = ExactConst()
        for i, t_ki in enumerate(root_ranks(variety, 2, 12), 1):
            lower = lower + reference_correction_limit(variety, t_ki, i - 1)
            v_sum = v_sum + reference_subtree_prob(variety, i)
        report = bound_interval(variety, 2, 12)
        assert report.lower == lower
        assert report.upper == lower + (ExactConst.rational(1) - v_sum)


class TestMomentSum:
    """`moment_sum` against sum_n P_n W_n/n! from the unrolled moments."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(list(TreeVariety)),
           st.lists(st.integers(-10**30, 10**30), max_size=40))
    def test_random_integer_corrections(self, variety, p):
        assert moment_sum(variety, p) == reference_moment_sum(variety, p)

    def test_zero_corrections(self):
        for variety in TreeVariety:
            assert moment_sum(variety, []) == ExactConst()
            assert moment_sum(variety, [0] * 7) == ExactConst()


def assert_same_row(row: tuple[int, int, int], reference: constants.Enclosure) -> None:
    """Same printed decimal, and intervals that overlap."""
    lo, hi, prec = row
    assert constants.decimal_string(lo, hi, 1 << prec, reference.digits) == reference.decimal()
    assert max(Fraction(lo, 1 << prec), reference.lo) <= min(Fraction(hi, 1 << prec), reference.hi)


class TestRowEnclosures:
    """`row_enclosures` against the Horner path of `ExactConst.enclosure`."""

    @pytest.mark.parametrize("variety", list(TreeVariety), ids=str)
    def test_bracket_rows_match_the_horner_path(self, variety):
        size = 150
        counts = tree_counts(variety, size)[1:]
        v = [limit_subtree_prob(variety, i) for i in range(1, size + 1)]
        for k in (0, 1, 2, 5):
            t_k = root_ranks(variety, k, size)
            w = [limit_joint_prob(variety, k, i) for i in range(1, size + 1)]
            report = bound_interval(variety, k, size)
            values = [value for pair in zip(w, v) for value in pair]
            values += [report.lower, report.upper, report.partial_v_sum]
            for digits in (1, 6, 12, 30, 60):
                rows = row_enclosures(variety, t_k, counts, digits)
                assert len(rows) == len(values)
                for row, value in zip(rows, values):
                    assert_same_row(row, value.enclosure(digits))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(TreeVariety)),
           st.lists(st.tuples(*[st.one_of(st.just(0), st.integers(0, 2**3000))] * 2),
                    min_size=1, max_size=60),
           st.integers(1, 60))
    # Small weights start on a low rung, which 60 digits outgrow.
    @example(NP, [(1, 1), (0, 0), (3, 0)], 60)
    @example(PL, [(0, 0)], 1)
    def test_drawn_weights_match_the_horner_path(self, variety, pairs, digits):
        # Each row against its own moment sum, and the three values against
        # the sums of the columns: lower = kappa_v moment_sum(t_k), and so on.
        t_k, counts = map(list, zip(*pairs))
        rows = row_enclosures(variety, t_k, counts, digits)
        kappa = KAPPA[variety]
        values = [kappa * moment_sum(variety, [0] * i + [n])
                  for i, pair in enumerate(pairs) for n in pair]
        lower, v_sum = kappa * moment_sum(variety, t_k), kappa * moment_sum(variety, counts)
        values += [lower, lower + 1 - v_sum, v_sum]
        assert len(rows) == len(values) == 2 * len(pairs) + 3
        for row, value in zip(rows, values):
            assert_same_row(row, value.enclosure(digits))

    def test_ladder_that_runs_out_raises(self, monkeypatch):
        # The stop rule is checked in code, not by an assert, so this also
        # holds under python -O.
        monkeypatch.setattr(constants, "_MAX_PREC", 128)
        with pytest.raises(RuntimeError):
            row_enclosures(PL, root_ranks(PL, 2, 10), tree_counts(PL, 10)[1:], 60)


class TestRowTexts:
    """`row_texts` against `render` of the limits the rows stand for."""

    @pytest.mark.parametrize("variety", list(TreeVariety), ids=str)
    def test_bracket_rows_match_render(self, variety):
        size = 150
        columns = [tree_counts(variety, size)[1:]]
        columns += [root_ranks(variety, k, size) for k in (0, 1, 2, 5)]
        rows = list(row_texts(variety, *columns))
        assert len(rows) == size
        for i, (v, *ws) in enumerate(rows, start=1):
            assert v == limit_subtree_prob(variety, i).render(), i
            for k, w in zip((0, 1, 2, 5), ws):
                assert w == limit_joint_prob(variety, k, i).render(), (k, i)

    @pytest.mark.parametrize("variety", list(TreeVariety), ids=str)
    def test_one_row_and_an_all_zero_column(self, variety):
        # r = 1; and no tree of size <= 6 has a root of rank 6.
        assert list(row_texts(variety, [1])) == [(limit_subtree_prob(variety, 1).render(),)]
        zeros = root_ranks(variety, 6, 6)
        assert zeros == [0] * 6
        assert list(row_texts(variety, zeros)) == [("0",)] * 6

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(TreeVariety)),
           st.lists(st.one_of(st.just(0), st.integers(0, 2**3000)), min_size=1, max_size=60))
    @example(NP, [1])
    @example(PL, [0, 0])
    def test_drawn_weights_match_render(self, variety, weights):
        rows = list(row_texts(variety, weights))
        assert len(rows) == len(weights)
        for i, (n, (text,)) in enumerate(zip(weights, rows), start=1):
            value = KAPPA[variety] * moment_sum(variety, [0] * (i - 1) + [n])
            assert text == value.render(), i

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(list(TreeVariety)),
           st.lists(st.integers(0, 2**64), min_size=1, max_size=40))
    def test_weights_rich_in_small_primes_match_render(self, variety, multiples):
        # N_i = m i! 6^i shares most of its small primes with the row's
        # denominators, so the per-column gcd G is above 1 and the per-term
        # gcds cancel.
        weights = [m * factorial(i) * 6**i for i, m in enumerate(multiples, start=1)]
        rows = list(row_texts(variety, weights, multiples))
        for i, (n, m, (text, plain)) in enumerate(zip(weights, multiples, rows), start=1):
            for weight, got in ((n, text), (m, plain)):
                value = KAPPA[variety] * moment_sum(variety, [0] * (i - 1) + [weight])
                assert got == value.render(), i


EXPECTED_CLOSED_FORMS = {
    (NP, 0): ExactConst.rational(1) - ExactConst.pi_power(-1, 2),
    (NP, 1): ExactConst.rational(2) - ExactConst.pi_power(2, Fraction(1, 24))
    - ExactConst.pi_power(-1, 4),
    (PL, 0): ExactConst.rational(Fraction(2, 3)) - ExactConst.pi_power(-1, 0, Fraction(1, 2)),
    (PL, 1): ExactConst.rational(Fraction(10, 9)) - ExactConst.pi_power(2, Fraction(8, 243))
    - ExactConst.pi_power(-1, 0, Fraction(5, 6)),
}


def closed_form_oracle(variety, k) -> Fraction:
    """Independent numeric evaluation of the four closed forms."""
    with mpmath.workdps(50):
        pi = mpmath.pi
        s3 = mpmath.sqrt(3)
        if (variety, k) == (NP, 0):
            return mp_fraction(1 - 2 / pi)
        if (variety, k) == (NP, 1):
            return mp_fraction(2 - pi**2 / 24 - 4 / pi)
        if (variety, k) == (PL, 0):
            return mp_fraction(mpmath.mpf(2) / 3 - s3 / (2 * pi))
        return mp_fraction(mpmath.mpf(10) / 9 - 5 / (2 * s3 * pi) - 8 * pi**2 / 243)


class TestClosedFormLimits:
    @pytest.mark.parametrize("variety,k", list(EXPECTED_CLOSED_FORMS))
    def test_exact_forms(self, variety, k):
        assert limit_rank_fraction(variety, k) == EXPECTED_CLOSED_FORMS[(variety, k)]

    @pytest.mark.parametrize("variety,k", list(EXPECTED_CLOSED_FORMS))
    def test_against_numeric_oracle(self, variety, k):
        enc = limit_rank_fraction(variety, k).enclosure(20)
        assert enc.contains(closed_form_oracle(variety, k))

    def test_higher_rank_refused(self):
        with pytest.raises(ValueError):
            limit_rank_fraction(NP, 2)

    def test_rank_zero_equals_size_one(self):
        for variety in (NP, PL):
            assert limit_rank_fraction(variety, 0) == limit_subtree_prob(variety, 1)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_rank_zero_is_every_bracket_lower_bound(self, variety):
        # t[0] = [1, 0, 0, ...]: a rank-0 root is a lone leaf, so cutting
        # the rank-0 correction at any r >= 1 loses nothing.
        a0 = limit_rank_fraction(variety, 0)
        for r in range(1, 13):
            assert bound_interval(variety, 0, r).lower == a0, r


class TestSubtreeAndJointLimits:
    def test_joint_degenerate(self):
        for variety in (NP, PL):
            assert limit_joint_prob(variety, 0, 1) == limit_subtree_prob(variety, 1)
            assert limit_joint_prob(variety, 0, 2) == ExactConst()

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_joint_sums_to_subtree_limit(self, variety):
        for i in range(1, 13):
            total = ExactConst()
            for k in range(i):
                total = total + limit_joint_prob(variety, k, i)
            assert total == limit_subtree_prob(variety, i)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_joint_between_zero_and_subtree_limit(self, variety):
        for i in range(1, 9):
            v = limit_subtree_prob(variety, i)
            for k in range(i):
                w = limit_joint_prob(variety, k, i)
                assert w.sign() >= 0
                assert (v - w).sign() >= 0

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_subtree_limits_positive_and_summable(self, variety):
        partial = ExactConst()
        for r in range(1, 21):
            v = limit_subtree_prob(variety, r)
            assert v.sign() == 1
            partial = partial + v
        assert (ExactConst.rational(1) - partial).sign() == 1

    def test_nonplane_outputs_sqrt3_free(self):
        for r in range(1, 13):
            assert limit_subtree_prob(NP, r).is_sqrt3_free()
        assert limit_rank_fraction(NP, 0).is_sqrt3_free()
        assert limit_rank_fraction(NP, 1).is_sqrt3_free()

    def test_validation(self):
        with pytest.raises(ValueError, match="subtree size must be at least 1"):
            limit_subtree_prob(NP, 0)
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            limit_joint_prob(NP, -1, 2)
        with pytest.raises(ValueError, match="subtree size must be at least 1"):
            limit_joint_prob(NP, 0, 0)


class TestConvergenceToFiniteSizes:
    @pytest.mark.parametrize("variety", [NP, PL])
    def test_subtree_probability_gap_small(self, variety):
        order = 40
        for r in (1, 2, 3):
            seq = size_vertex_counts(variety, r, order)
            v = limit_subtree_prob(variety, r).enclosure(20)
            gap = abs(v.midpoint - seq.prob_next(order))
            assert gap < Fraction(1, 10**4), f"r={r}, gap={float(gap)}"

    def test_rank_probability_gap_small(self):
        order = 40
        seq = rank_vertex_counts(NP, 0, order)
        a0 = limit_rank_fraction(NP, 0).enclosure(20)
        assert abs(a0.midpoint - seq.prob_next(order)) < Fraction(1, 10**8)


def inflated_tree_counts(variety: TreeVariety, order: int) -> tuple[int, ...]:
    """`tree_counts` with every count doubled: a planted fault."""
    return tuple(2 * count for count in tree_counts(variety, order))


# a_2, a_3, a_4, a_5 to 12 digits, from ROADMAP's Baselines.
REFERENCE_LIMITS = {
    NP: [Fraction(x) for x in ("0.202781379014", "0.089347458653", "0.024385939924",
                               "0.004025124401")],
    PL: [Fraction(x) for x in ("0.190238558746", "0.072508503559", "0.016767708813",
                               "0.002429004090")],
}


class TestExtrapolatedLimits:
    """a_2 and a_3 extrapolated from the exact counts to size 300 agree with
    `REFERENCE_LIMITS`, and a fit with one more term moves them little."""

    @pytest.mark.parametrize("variety", list(TreeVariety), ids=str)
    @pytest.mark.parametrize("k, log_powers, apart, off", [(2, 1, 1e-13, 1e-12),
                                                          (3, 2, 2e-9, 2e-9)])
    def test_the_fit_agrees_with_the_reference(self, variety, k, log_powers, apart, off):
        # Measured at k = 2: fits 3.4e-14 (non-plane) and 6.3e-14 (plane)
        # apart, within 2.1e-13 of the reference; at k = 3, with (log n)^2
        # terms, 4.8e-10 and 8.7e-10 apart, within 1.4e-9.
        fits = [extrapolated_rank_limit(variety, k, 300, terms, log_powers) for terms in (6, 7)]
        ref = REFERENCE_LIMITS[variety][k - 2]
        reference = mpmath.mpf(ref.numerator) / ref.denominator
        assert abs(fits[0] - fits[1]) < apart
        for fit in fits:
            assert abs(fit - reference) < off


class TestBoundIntervals:
    def test_gap_is_unassigned_mass(self):
        report = bound_interval(NP, 2, 8)
        assert report.gap == ExactConst.rational(1) - report.partial_v_sum

    def test_bracket_contains_closed_forms(self):
        for variety in (NP, PL):
            for k in (0, 1):
                limit = limit_rank_fraction(variety, k)
                for r in (2, 5, 9):
                    rep = bound_interval(variety, k, r)
                    assert (limit - rep.lower).sign() >= 0
                    assert (rep.upper - limit).sign() >= 0

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_nesting(self, variety):
        reports = [bound_interval(variety, 2, r) for r in (4, 8, 12)]
        for wide, tight in zip(reports, reports[1:]):
            assert (tight.lower - wide.lower).sign() >= 0
            assert (wide.upper - tight.upper).sign() >= 0

    def test_pi_exponents_bounded_below(self):
        for variety in (NP, PL):
            rep = bound_interval(variety, 2, 12)
            assert min(rep.lower.terms) >= -2
            assert min(rep.upper.terms) >= -2

    def test_nonplane_bounds_sqrt3_free(self):
        rep = bound_interval(NP, 3, 10)
        assert rep.lower.is_sqrt3_free()
        assert rep.upper.is_sqrt3_free()

    @pytest.fixture
    def cold(self, monkeypatch):
        """A function that empties every cache a bracket fills; it runs once
        before the test, and the caches are left empty after it."""
        caches = (limits.limit_subtree_prob, constants._pi_bounds, series._binomials, tree_counts)

        def empty():
            monkeypatch.setattr(series, "_SUFFIX_ROWS",
                                {v: [[0, 1], [0, 0]] for v in TreeVariety})
            for cache in caches:
                cache.cache_clear()

        empty()
        yield empty
        for cache in caches:
            cache.cache_clear()

    def test_r200_budget_from_cold_caches(self, cold):
        # From cold caches, both r = 200 brackets take about 0.05 s of CPU on
        # a 2-core Xeon with Python 3.11 (0.5 s summed term by term), and
        # both r = 400 brackets about 0.55 s (4.8 s term by term).
        for r, budget in ((200, 1.5), (400, 2.0)):
            cold()
            start = time.process_time()
            for variety in (NP, PL):
                bound_interval(variety, 2, r)
            assert time.process_time() - start < budget, r

    def test_brackets_equal_the_term_by_term_sums(self):
        for variety in (NP, PL):
            for k in range(5):
                for r in (1, 2, 3, 12, 48, 100):
                    report = bound_interval(variety, k, r)
                    got = (report.lower, report.upper, report.partial_v_sum)
                    assert got == reference_bracket(variety, k, r), (variety, k, r)

    def test_a_v_sum_above_one_is_caught(self, monkeypatch):
        # Planted fault: every tree count in the v sum doubled, so that
        # v_1 + ... + v_12 exceeds 1 and the upper bound falls below the lower.
        monkeypatch.setattr(limits, "tree_counts", inflated_tree_counts)
        for variety in (NP, PL):
            with pytest.raises(InvariantError, match="k=2, r=12 has lower above upper"):
                bound_interval(variety, 2, 12)

    def test_a_v_sum_above_one_is_caught_under_python_O(self):
        # Asserts are stripped under -O; the invariant check is not.
        script = ("import sys\n"
                  f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                  "import test_limits\n"
                  "from treerank import cli, limits\n"
                  "limits.tree_counts = test_limits.inflated_tree_counts\n"
                  "sys.exit(cli.main(['bounds', '--k', '2', '--r', '12']))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == ("treerank: internal invariant failed: "
                               "bracket for k=2, r=12 has lower above upper\n")

    @pytest.mark.parametrize("variety", list(TreeVariety), ids=str)
    def test_brackets_contain_the_reference_limits(self, variety):
        # ROADMAP's 12-digit a_2..a_5 (an ODE integration in the tree-count
        # variable, independent of this package), decided by exact signs.
        for k, reference in enumerate(REFERENCE_LIMITS[variety], start=2):
            for r in (12, 48, 100):
                report = bound_interval(variety, k, r)
                assert (report.lower - reference).sign() < 0, (k, r)
                assert (report.upper - reference).sign() > 0, (k, r)

    def test_validation(self):
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            bound_interval(NP, -1, 5)
        with pytest.raises(ValueError, match="truncation must be at least 1"):
            bound_interval(NP, 2, 0)
