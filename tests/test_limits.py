"""Pole machinery, exact limiting probabilities, and certified brackets."""

import json
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from mpmath.libmp import to_rational

from treerank.constants import ExactConst, UnsupportedDivisorError
from treerank.counting import rank_vertex_counts, root_rank_counts, size_vertex_counts
from treerank.limits import (
    ClosedFormUnavailableError,
    PoleData,
    base_pole,
    bound_interval,
    bound_report_dict,
    bound_report_json,
    double_pole_coefficient,
    growth_normalization,
    limit_joint_prob,
    limit_rank_fraction,
    limit_subtree_prob,
    simple_pole_residue,
    singularity,
    weight_second_derivative,
)
from treerank.series import tree_counts
from treerank.variety import TreeVariety

NP = TreeVariety.NONPLANE
PL = TreeVariety.PLANE


def mp_fraction(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


class TestPoles:
    def test_simple_residue_examples(self):
        # (1 + sin z)/cos z at pi/2: numerator 2, denominator derivative -1.
        res = simple_pole_residue(ExactConst.rational(2), ExactConst.rational(-1))
        assert res == ExactConst.rational(-2)
        # Vanishing numerator gives residue zero.
        assert simple_pole_residue(ExactConst.zero(), ExactConst.rational(1)) == \
            ExactConst.zero()
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
        assert double_pole_coefficient(ExactConst.zero(), 5) == ExactConst.zero()
        with pytest.raises(UnsupportedDivisorError):
            double_pole_coefficient(ExactConst.rational(1), 0)

    def test_pole_data_validation(self):
        with pytest.raises(ValueError):
            PoleData(ExactConst.pi_power(1), 3, ExactConst.rational(1))
        with pytest.raises(ValueError):
            PoleData(ExactConst.pi_power(1), 1, ExactConst.zero())

    def test_base_poles(self):
        np_pole = base_pole(NP)
        assert np_pole.location == ExactConst.pi_power(1, Fraction(1, 2))
        assert np_pole.coefficient == ExactConst.rational(-2)
        pl_pole = base_pole(PL)
        assert pl_pole.location == ExactConst.pi_power(1, 0, Fraction(2, 9))
        assert pl_pole.coefficient == ExactConst.rational(-1)

    def test_weight_second_derivatives(self):
        assert weight_second_derivative(NP) == 1
        assert weight_second_derivative(PL) == Fraction(3, 2)


class TestGrowth:
    def test_normalization_values(self):
        z0, leading = growth_normalization(NP)
        assert z0 == ExactConst.pi_power(1, Fraction(1, 2))
        assert leading == ExactConst.pi_power(-1, 4)
        z0, leading = growth_normalization(PL)
        assert z0 == ExactConst.pi_power(1, 0, Fraction(2, 9))
        assert leading == ExactConst.pi_power(-1, 0, Fraction(3, 2))

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_counts_approach_growth_estimate(self, variety):
        counts = tree_counts(variety, 44)
        z0, leading = growth_normalization(variety)
        gaps = []
        for n in (11, 22, 44):
            z0_pow = ExactConst.rational(1)
            for _ in range(n):
                z0_pow = z0_pow * z0
            ratio = (z0_pow * Fraction(counts[n], factorial(n))) / leading
            gap = (ratio - 1).enclosure(20)
            gaps.append(max(abs(gap.lo), abs(gap.hi)))
        assert gaps[0] < Fraction(1, 10)
        assert gaps[2] < gaps[1] < gaps[0]


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
        with pytest.raises(ClosedFormUnavailableError):
            limit_rank_fraction(NP, 2)

    def test_rank_zero_equals_size_one(self):
        for variety in (NP, PL):
            assert limit_rank_fraction(variety, 0) == limit_subtree_prob(variety, 1)


class TestSubtreeAndJointLimits:
    def test_joint_degenerate(self):
        for variety in (NP, PL):
            assert limit_joint_prob(variety, 0, 1) == limit_subtree_prob(variety, 1)
            assert limit_joint_prob(variety, 0, 2) == ExactConst.zero()

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_joint_sums_to_subtree_limit(self, variety):
        table = root_rank_counts(variety, 12)
        for i in range(1, 13):
            total = ExactConst.zero()
            for k in range(i):
                total = total + limit_joint_prob(variety, k, i, table)
            assert total == limit_subtree_prob(variety, i)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_joint_between_zero_and_subtree_limit(self, variety):
        table = root_rank_counts(variety, 8)
        for i in range(1, 9):
            v = limit_subtree_prob(variety, i)
            for k in range(i):
                w = limit_joint_prob(variety, k, i, table)
                assert w.sign() >= 0
                assert (v - w).sign() >= 0

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_subtree_limits_positive_and_summable(self, variety):
        partial = ExactConst.zero()
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
        with pytest.raises(ValueError):
            limit_subtree_prob(NP, 0)
        with pytest.raises(ValueError):
            limit_joint_prob(NP, -1, 2)
        with pytest.raises(ValueError):
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

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_interval(NP, -1, 5)
        with pytest.raises(ValueError):
            bound_interval(NP, 2, 0)


class TestReportSerialization:
    def test_schema_keys(self):
        report = bound_interval(NP, 2, 4, digits=8)
        payload = bound_report_dict(report, digits=8)
        assert list(payload) == ["variety", "k", "r", "lower", "upper",
                                 "v_partial_sum", "per_i_terms"]
        assert payload["variety"] == "nonplane"
        assert list(payload["lower"]) == ["exact", "decimal"]
        term = payload["per_i_terms"][0]
        assert list(term) == ["i", "t_ki", "w_exact", "w_decimal", "v_exact", "v_decimal"]
        assert term["i"] == 1 and term["t_ki"] == 0  # no rank-2 root at size 1
        assert payload["per_i_terms"][2]["t_ki"] == 1  # the size-3 balanced tree

    def test_json_round_trip_is_byte_identical(self):
        report = bound_interval(PL, 1, 5, digits=10)
        text = bound_report_json(report, digits=10)
        assert json.dumps(json.loads(text), indent=2) == text
