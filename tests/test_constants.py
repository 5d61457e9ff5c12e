"""Exact constants, enclosures, and the trigonometric moment integrals."""

import sys
import threading
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

from treerank.constants import (
    Enclosure,
    ExactConst,
    halfpi_moment,
    iv_enclosure,
    plane_moment,
    sqrt3_power,
    sqrt_weighted_sum,
)


def mp_fraction(value: mpmath.mpf) -> Fraction:
    """Exact rational value of an mpf, for independent oracles."""
    return Fraction(*to_rational(value._mpf_))


def mp_eval(const: ExactConst, dps: int = 50) -> Fraction:
    """Independent floating evaluation (non-interval mpmath) of a constant."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for j, (a, b) in const.terms.items():
            coeff = mpmath.mpf(a.numerator) / a.denominator
            if b:
                coeff += mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(3)
            total += coeff * mpmath.pi**j
        return mp_fraction(total)


PI = ExactConst.pi_power(1)
INV_PI = ExactConst.pi_power(-1)


class TestArithmetic:
    def test_sqrt3_squared(self):
        assert ExactConst.sqrt3() * ExactConst.sqrt3() == ExactConst.rational(3)

    def test_distributivity_example(self):
        lhs = (PI - 2) * (ExactConst.pi_power(-2, 4))
        expected = ExactConst.pi_power(-1, 4) - ExactConst.pi_power(-2, 8)
        assert lhs == expected

    def test_add_cancels(self):
        a = ExactConst.rational(1) - ExactConst.pi_power(-1, 2)
        b = ExactConst.pi_power(-1, 2)
        assert a + b == ExactConst.rational(1)

    def test_sqrt3_free_flag(self):
        assert (PI - 2).is_sqrt3_free()
        assert not (PI - ExactConst.sqrt3()).is_sqrt3_free()

    def test_sqrt3_power(self):
        assert sqrt3_power(2) == ExactConst.rational(3)
        assert sqrt3_power(-1) == ExactConst.sqrt3(Fraction(1, 3))
        assert sqrt3_power(3) == ExactConst.sqrt3(3)

    def test_sign(self):
        # Classic tight rational neighbors of pi keep this honest.
        assert (PI - Fraction(22, 7)).sign() == -1
        assert (PI - Fraction(355, 113)).sign() == -1
        assert (PI - Fraction(333, 106)).sign() == 1
        assert ExactConst.zero().sign() == 0


class TestRendering:
    def test_examples(self):
        assert (ExactConst.rational(1) - ExactConst.pi_power(-1, 2)).render() == "1 - 2*pi^-1"
        a1 = ExactConst.rational(2) - ExactConst.pi_power(2, Fraction(1, 24)) \
            - ExactConst.pi_power(-1, 4)
        assert a1.render() == "2 - (1/24)*pi^2 - 4*pi^-1"
        assert ExactConst.pi_power(-1, 0, Fraction(5, 6)).render() == "(5/6)*sqrt3*pi^-1"
        assert ExactConst.zero().render() == "0"
        assert PI.render() == "pi"
        assert (-PI).render() == "-pi"

    def test_mixed_coefficient(self):
        # (1/6 - (5/18) sqrt3) pi is negative; the sign belongs outside.
        x = ExactConst({1: (Fraction(1, 6), Fraction(-5, 18))})
        assert x.sign() == -1
        assert x.render() == "-((-1/6) + (5/18)*sqrt3)*pi"


class TestEnclosures:
    def test_rational_is_exact(self):
        enc = ExactConst.rational(Fraction(7, 8)).enclosure(5)
        assert enc.lo == enc.hi == Fraction(7, 8)
        assert enc.decimal() == "0.87500"

    def test_leaf_limit_constant(self):
        value = ExactConst.rational(1) - ExactConst.pi_power(-1, 2)
        enc = value.enclosure(10)
        assert enc.width <= Fraction(1, 10**10)
        assert enc.contains(mp_eval(value))
        # Ten-place value of 1 - 2/pi; the last digit of the widely quoted
        # 0.3633802278 is a misrounding of ...227632.
        assert enc.decimal(10) == "0.3633802276"
        assert abs(enc.midpoint - Fraction("0.3633802278")) < Fraction(1, 10**9)

    def test_rank_one_limit_constant(self):
        value = ExactConst.rational(2) - ExactConst.pi_power(2, Fraction(1, 24)) \
            - ExactConst.pi_power(-1, 4)
        enc = value.enclosure(10)
        assert enc.width <= Fraction(1, 10**10)
        assert enc.contains(mp_eval(value))
        assert enc.decimal(10) == "0.3155269386"
        assert abs(enc.midpoint - Fraction("0.3155269391")) < Fraction(1, 10**9)

    def test_nesting_in_digits(self):
        value = PI * PI - ExactConst.sqrt3(Fraction(22, 7))
        coarse = value.enclosure(8)
        for digits in (12, 20, 33):
            fine = value.enclosure(digits)
            assert coarse.contains(fine)
            coarse = fine

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.integers(-3, 3),
                        st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=20),
                                  st.fractions(min_value=-9, max_value=9, max_denominator=20)),
                        max_size=4),
        st.dictionaries(st.integers(-3, 3),
                        st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=20),
                                  st.fractions(min_value=-9, max_value=9, max_denominator=20)),
                        max_size=4),
    )
    def test_interval_addition_soundness(self, terms_x, terms_y):
        x, y = ExactConst(terms_x), ExactConst(terms_y)
        ex, ey = x.enclosure(12), y.enclosure(12)
        summed = Enclosure(ex.lo + ey.lo, ex.hi + ey.hi, 12)
        combined = (x + y).enclosure(14)
        # Two enclosures of the same value must overlap, and the direct
        # enclosure can escape the summed one by at most its own width.
        assert max(summed.lo, combined.lo) <= min(summed.hi, combined.hi)
        padded = Enclosure(summed.lo - combined.width, summed.hi + combined.width,
                           summed.digits)
        assert padded.contains(combined)

    def test_wide_enclosure_annotates(self):
        enc = Enclosure(Fraction(1, 10), Fraction(2, 10), digits=6)
        text = enc.decimal()
        assert "±" in text
        narrow = Enclosure(Fraction(15, 100), Fraction(15, 100), digits=6)
        assert "±" not in narrow.decimal()

    def test_comparisons(self):
        a = Enclosure(Fraction(1), Fraction(2), 3)
        b = Enclosure(Fraction(3), Fraction(4), 3)
        assert a.certainly_le(b)
        assert a.certainly_lt(b)
        assert not b.certainly_le(a)
        assert a.certainly_le(2) and not a.certainly_lt(2)

    def test_digits_validation(self):
        with pytest.raises(ValueError):
            PI.enclosure(0)

    def test_global_interval_precision_untouched(self):
        seen = []

        def failing(ctx):
            seen.append(ctx)
            raise ZeroDivisionError("builder failed")

        saved = mpmath.iv.prec
        mpmath.iv.prec = 77
        try:
            PI.enclosure(40)
            assert mpmath.iv.prec == 77
            with pytest.raises(ZeroDivisionError):
                iv_enclosure(failing, 10)
            assert mpmath.iv.prec == 77
            assert seen and seen[0] is not mpmath.iv
        finally:
            mpmath.iv.prec = saved

    def test_threads_at_different_digits_match_sequential(self):
        value = PI * PI - ExactConst.sqrt3(Fraction(22, 7))
        digits = (15, 60, 150)
        expected = {d: value.enclosure(d) for d in digits}
        results = {d: set() for d in digits}
        barrier = threading.Barrier(len(digits))

        def run(d):
            barrier.wait(timeout=10)
            for _ in range(40):
                results[d].add(value.enclosure(d))

        threads = [threading.Thread(target=run, args=(d,)) for d in digits]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {d: {expected[d]} for d in digits}

    def test_sqrt_weighted_sum(self):
        enc = sqrt_weighted_sum({1: 1, 2: 1}, 20)
        with mpmath.workdps(40):
            truth = mp_fraction(1 + mpmath.sqrt(2))
        assert enc.contains(truth)
        assert enc.width <= Fraction(1, 10**20)


def quad_oracle(integrand, upper, dps=60) -> Fraction:
    """Adaptive quadrature, the independent oracle for the moment integrals."""
    with mpmath.workdps(dps):
        return mp_fraction(mpmath.quad(integrand, [0, upper]))


class TestHalfPiMoments:
    def test_base_cases(self):
        assert halfpi_moment(0) == ExactConst.pi_power(1, Fraction(1, 2)) - 1
        assert halfpi_moment(1) == ExactConst.pi_power(2, Fraction(1, 8)) - 1

    def test_against_quadrature(self):
        for m in range(21):
            enc = halfpi_moment(m).enclosure(30)
            truth = quad_oracle(lambda t, m=m: t**m * (1 - mpmath.sin(t)), mpmath.pi / 2)
            assert abs(enc.midpoint - truth) < Fraction(1, 10**25), f"m={m}"

    def test_positive(self):
        for m in range(21):
            assert halfpi_moment(m).sign() == 1

    def test_closed_sum_formula_matches_recurrence(self):
        # The antiderivative of t^m sin t evaluates at the endpoints to an
        # alternating factorial sum; it must agree with the recurrence exactly.
        from treerank.constants import _halfpi_sin_moment

        for m in range(21):
            total = ExactConst.zero()
            i = 0
            while m - 2 * i - 1 >= 0:  # sine part at the upper endpoint
                power = m - 2 * i - 1
                coeff = Fraction((-1) ** i * factorial(m), factorial(power))
                total = total + ExactConst.pi_power(power, coeff * Fraction(1, 2**power))
                i += 1
            if m % 2 == 0:  # cosine part survives only at the lower endpoint
                total = total + Fraction((-1) ** (m // 2) * factorial(m), 1)
            assert total == _halfpi_sin_moment(m), f"m={m}"


class TestPlaneMoments:
    def test_const_kind(self):
        assert plane_moment(0, "const") == ExactConst.pi_power(1, 0, Fraction(2, 9))
        # z0^(m+1)/(m+1) for m=1
        assert plane_moment(1, "const") == ExactConst.pi_power(2, Fraction(2, 27))

    def test_sin_base(self):
        assert plane_moment(0, "sin") == ExactConst.sqrt3(Fraction(1, 2))

    def test_cos_base(self):
        assert plane_moment(0, "cos") == ExactConst.rational(Fraction(1, 2))

    def test_against_quadrature(self):
        for m in range(21):
            for kind, f in (
                ("sin", lambda t, m=m: t**m * mpmath.sin(mpmath.sqrt(3) * t)),
                ("cos", lambda t, m=m: t**m * mpmath.cos(mpmath.sqrt(3) * t)),
            ):
                enc = plane_moment(m, kind).enclosure(30)
                with mpmath.workdps(60):
                    upper = 2 * mpmath.sqrt(3) * mpmath.pi / 9
                truth = quad_oracle(f, upper)
                assert abs(enc.midpoint - truth) < Fraction(1, 10**25), f"m={m} {kind}"

    def test_positive_kinds(self):
        # The integrand of the sin kind is nonnegative on [0, z0] because
        # sqrt3 t stays below pi there.
        for m in range(21):
            assert plane_moment(m, "const").sign() == 1
            assert plane_moment(m, "sin").sign() == 1

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            plane_moment(1, "tan")
        with pytest.raises(ValueError):
            plane_moment(-1, "sin")
