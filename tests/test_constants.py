"""Exact constants, enclosures, and the trigonometric moment integrals."""

import operator
import subprocess
import sys
import threading
from fractions import Fraction
from functools import lru_cache, partial
from math import ceil, factorial, gcd, isqrt, lcm, log2
from pathlib import Path
from typing import Callable, Mapping, Union

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_rational

import treerank.constants as constants
import treerank.enumeration as enumeration
from treerank.constants import (
    _GUARD_BITS,
    _LOG2_PI,
    _MAX_PREC,
    _START_PREC,
    MAX_DIGITS,
    Enclosure,
    ExactConst,
    FixedPoint,
    _check_digits,
    Rational,
    _coerce,
    _horner,
    _rounds_alike,
    _scale,
    decimal_string,
    iv_enclosure,
    iv_enclosures,
    iv_sign,
)
from treerank.limits import _WEIGHT, bound_interval, limit_joint_prob, limit_subtree_prob
from treerank.variety import TreeVariety

from reference_solvers import _rounds_alike as fraction_rounds_alike
from reference_solvers import decimal_string as fraction_decimal_string
from reference_solvers import enclosure_decimal, kernel_weight_moment, unrolled_weight_moment

SRC = Path(__file__).resolve().parents[1] / "src"


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


# The term-by-term arithmetic and evaluator that ExactConst used before
# its results were built without re-validation and its values were
# evaluated by Horner's rule; kept as references, reading the public
# `.terms`.
def reference_add(self, other):
    other = _coerce(other)
    out = self.terms
    for j, (a, b) in other.terms.items():
        ca, cb = out.get(j, (Fraction(0), Fraction(0)))
        out[j] = (ca + a, cb + b)
    return ExactConst(out)


def reference_neg(self):
    return ExactConst({j: (-a, -b) for j, (a, b) in self.terms.items()})


def reference_mul(self, other):
    other = _coerce(other)
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for j1, (a1, b1) in self.terms.items():
        for j2, (a2, b2) in other.terms.items():
            j = j1 + j2
            # (a1 + b1 s)(a2 + b2 s) with s^2 = 3
            a = a1 * a2 + 3 * b1 * b2
            b = a1 * b2 + b1 * a2
            ca, cb = out.get(j, (Fraction(0), Fraction(0)))
            out[j] = (ca + a, cb + b)
    return ExactConst(out)


def reference_iv_value(self, ctx):
    pi = ctx.pi
    s3 = ctx.sqrt(3)
    total = ctx.mpf(0)
    for j, (a, b) in self.terms.items():
        coeff = _iv_fraction(ctx, a)
        if b:
            coeff += _iv_fraction(ctx, b) * s3
        if j > 0:
            coeff *= pi ** j
        elif j < 0:
            coeff /= pi ** (-j)
        total += coeff
    return total


def _iv_fraction(ctx, q: Fraction):
    return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)


# ExactConst as it was when its coefficients were Fraction pairs, kept
# verbatim but for its name (and its coercion's) as the reference for the
# integer form over one shared denominator.
def _coeff_sign(a: Fraction, b: Fraction) -> int:
    """Exact sign of a + b*sqrt(3)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Mixed signs: compare a^2 with 3 b^2 on the side of the positive part.
    lead = 1 if a > 0 else -1
    diff = a * a - 3 * b * b
    if diff == 0:
        raise AssertionError("sqrt(3) is irrational; a^2 == 3 b^2 is impossible here")
    return lead if diff > 0 else -lead


def _fraction_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"({q.numerator}/{q.denominator})"


class FractionConst:
    """Element of Q(sqrt3)[pi, 1/pi], stored as {pi exponent: (a, b)}.

    Zero coefficient pairs are never stored, so `==` on the mapping is
    value equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, tuple[Rational, Rational]] | None = None):
        clean: dict[int, tuple[Fraction, Fraction]] = {}
        for j, (a, b) in (terms or {}).items():
            fa, fb = Fraction(a), Fraction(b)
            if fa or fb:
                clean[int(j)] = (fa, fb)
        self._terms = clean

    @classmethod
    def rational(cls, value: Rational) -> "FractionConst":
        return cls({0: (Fraction(value), Fraction(0))})

    @classmethod
    def zero(cls) -> "FractionConst":
        return cls()

    @classmethod
    def pi_power(cls, exponent: int, coeff: Rational = 1, sqrt3_coeff: Rational = 0) -> "FractionConst":
        return cls({exponent: (Fraction(coeff), Fraction(sqrt3_coeff))})

    @classmethod
    def sqrt3(cls, coeff: Rational = 1) -> "FractionConst":
        return cls({0: (Fraction(0), Fraction(coeff))})

    @property
    def terms(self) -> dict[int, tuple[Fraction, Fraction]]:
        return dict(self._terms)

    def is_sqrt3_free(self) -> bool:
        return all(b == 0 for _, b in self._terms.values())

    def is_rational(self) -> bool:
        return self.is_sqrt3_free() and all(j == 0 for j in self._terms)

    @classmethod
    def _canonical(cls, terms: dict[int, tuple[Fraction, Fraction]]) -> "FractionConst":
        """Wrap a dict that already holds only nonzero pairs of Fractions.

        The arithmetic below builds such dicts itself, so its results skip
        the public constructor's conversions and checks.
        """
        value = object.__new__(cls)
        value._terms = terms
        return value

    def __add__(self, other: Union["FractionConst", Rational]) -> "FractionConst":
        other = _fraction_coerce(other)
        out = dict(self._terms)
        for j, (a, b) in other._terms.items():
            if j in out:
                ca, cb = out[j]
                a, b = ca + a, cb + b
                if not (a or b):
                    del out[j]
                    continue
            out[j] = (a, b)
        return FractionConst._canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "FractionConst":
        return FractionConst._canonical({j: (-a, -b) for j, (a, b) in self._terms.items()})

    def __sub__(self, other: Union["FractionConst", Rational]) -> "FractionConst":
        return self + (-_fraction_coerce(other))

    def __rsub__(self, other: Rational) -> "FractionConst":
        return _fraction_coerce(other) + (-self)

    def __mul__(self, other: Union["FractionConst", Rational]) -> "FractionConst":
        if isinstance(other, (int, Fraction)):
            if not other:
                return FractionConst._canonical({})
            return FractionConst._canonical(
                {j: (a * other, b * other if b else b) for j, (a, b) in self._terms.items()}
            )
        other = _fraction_coerce(other)
        out: dict[int, tuple[Fraction, Fraction]] = {}
        for j1, (a1, b1) in self._terms.items():
            for j2, (a2, b2) in other._terms.items():
                j = j1 + j2
                a, b = _pair_product(a1, b1, a2, b2)
                if j in out:
                    ca, cb = out[j]
                    a, b = ca + a, cb + b
                out[j] = (a, b)
        return FractionConst._canonical({j: pair for j, pair in out.items() if pair[0] or pair[1]})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FractionConst.rational(other)
        if not isinstance(other, FractionConst):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Purely rational values compare equal to plain numbers, so they
        # must hash like them.
        if not self._terms:
            return hash(0)
        if self.is_rational():
            return hash(self._terms[0][0])
        return hash(frozenset(self._terms.items()))

    def _ordered_terms(self) -> list[tuple[int, tuple[Fraction, Fraction]]]:
        """Canonical term order: exponents 0,1,2,... then -1,-2,..."""
        nonneg = sorted(j for j in self._terms if j >= 0)
        neg = sorted((j for j in self._terms if j < 0), reverse=True)
        return [(j, self._terms[j]) for j in nonneg + neg]

    def render(self) -> str:
        """Canonical text form, e.g. '1 - 2*pi^-1' or '(5/6)*sqrt3*pi^-1'."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for j, (a, b) in self._ordered_terms():
            sign = _coeff_sign(a, b)
            if b == 0:
                mag = _fraction_str(abs(a))
                coeff = None if abs(a) == 1 else mag
            elif a == 0:
                coeff = "sqrt3" if abs(b) == 1 else f"{_fraction_str(abs(b))}*sqrt3"
            else:
                # Mixed pair: keep both components inside one parenthesis,
                # negated as a whole when the value is negative.
                aa, bb = (a, b) if sign > 0 else (-a, -b)
                first = _fraction_str(aa).strip("()") if aa.denominator == 1 else _fraction_str(aa)
                second = "sqrt3" if abs(bb) == 1 else f"{_fraction_str(abs(bb))}*sqrt3"
                joiner = " + " if bb > 0 else " - "
                coeff = f"({first}{joiner}{second})"
            if j == 0:
                pi_part = None
            elif j == 1:
                pi_part = "pi"
            else:
                pi_part = f"pi^{j}"
            if coeff is None and pi_part is None:
                term = "1"
            elif coeff is None:
                term = pi_part
            elif pi_part is None:
                term = coeff
            else:
                term = f"{coeff}*{pi_part}"
            if not parts:
                parts.append(term if sign > 0 else f"-{term}")
            else:
                parts.append(("+ " if sign > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"FractionConst({self.render()})"

    def _iv_value(self, ctx: "FixedPoint") -> tuple[int, int]:
        """Bounds on the value times 2^prec, as (A(pi) + sqrt3 B(pi)) pi^low / D.

        D is the lcm of every coefficient denominator, so A and B have
        integer coefficients and each is one Horner pass in pi.
        """
        low = min(self._terms)
        denom = lcm(*(c.denominator for pair in self._terms.values() for c in pair))
        a_coeffs = [0] * (max(self._terms) - low + 1)
        b_coeffs = list(a_coeffs)
        for j, (a, b) in self._terms.items():
            a_coeffs[j - low] = a.numerator * (denom // a.denominator)
            b_coeffs[j - low] = b.numerator * (denom // b.denominator)
        prec = ctx.prec
        pi = ctx.pi()
        lo, hi = _horner(a_coeffs, pi, prec)
        if any(b_coeffs):
            one = 1 << prec
            b_lo, b_hi = _scale(*_horner(b_coeffs, pi, prec), ctx.sqrt(3), (one, one))
            lo, hi = lo + b_lo, hi + b_hi
        if low >= 0:
            unit = denom << (prec * low)
            return _scale(lo, hi, (pi[0] ** low, pi[1] ** low), (unit, unit))
        unit = 1 << (prec * -low)
        return _scale(lo, hi, (unit, unit), (denom * pi[0] ** -low, denom * pi[1] ** -low))

    def _start_prec(self) -> int:
        """Lowest rung of the precision ladder that holds the largest term.

        With la > log2|a| and lb > log2|b|, a term (a + b sqrt3) pi^j is
        below 2^(max(la, lb + 1) + 1 + 1.66 j); the rung carries that many
        bits plus `_GUARD_BITS`.  Only the value decides the rung, never
        the digits asked for.  The rung sets the cost, not the soundness:
        a rung too low only costs another round.
        """
        top = max(
            max(_log2_bound(a), _log2_bound(b) + 1) + 1 + ceil(j * _LOG2_PI)
            for j, (a, b) in self._terms.items()
        )
        prec = _START_PREC
        while prec < top + _GUARD_BITS:
            prec *= 2
        return prec

    def enclosure(self, digits: int) -> "Enclosure":
        """Interval with rational endpoints of width <= 10^-digits.

        A rational value is its own point enclosure; any other value in
        this ring is irrational, so its enclosure's decimals are the
        correctly rounded ones.
        """
        _check_digits(digits)
        if self.is_rational():
            q = self._terms[0][0] if self._terms else Fraction(0)
            return Enclosure(q, q, digits)
        return iv_enclosure(self._iv_value, digits, self._start_prec())

    def sign(self) -> int:
        """Exact sign; terminates because a nonzero form has nonzero value."""
        if not self._terms:
            return 0
        digits = 10
        while True:
            enc = self.enclosure(digits)
            if enc.lo > 0:
                return 1
            if enc.hi < 0:
                return -1
            digits *= 2


def _pair_product(a1: Fraction, b1: Fraction, a2: Fraction,
                  b2: Fraction) -> tuple[Fraction, Fraction]:
    """(a1 + b1 s)(a2 + b2 s) with s^2 = 3, skipping products with a zero sqrt3 part."""
    if not b2:
        return a1 * a2, b1 * a2 if b1 else b1
    if not b1:
        return a1 * a2, a1 * b2
    return a1 * a2 + 3 * b1 * b2, a1 * b2 + b1 * a2


def _fraction_coerce(value: Union[FractionConst, Rational]) -> FractionConst:
    if isinstance(value, FractionConst):
        return value
    if isinstance(value, (int, Fraction)):
        return FractionConst.rational(value)
    raise TypeError(f"cannot use {type(value).__name__} with FractionConst")


def _log2_bound(q: Fraction) -> int:
    """An integer above log2|q|; 0 for q = 0."""
    return q.numerator.bit_length() - q.denominator.bit_length() + 1


# The mpmath interval ladder that enclosures ran on before the integer
# fixed-point kernel, kept verbatim as the reference that
# `reference_iv_value` runs on.
def _iv_endpoints(x) -> tuple[Fraction, Fraction]:
    lo_t, hi_t = x._mpi_
    return Fraction(*to_rational(lo_t)), Fraction(*to_rational(hi_t))


_IV_CONTEXTS = threading.local()


def _iv_context() -> MPIntervalContext:
    """This thread's private interval context, created on first use.

    mpmath's shared `mpmath.iv` keeps its precision as global state, so
    setting it from two threads, or from a library caller's own code,
    would race.  A context costs about half a millisecond to build, so
    each thread keeps one rather than building one per enclosure.
    """
    ctx = getattr(_IV_CONTEXTS, "ctx", None)
    if ctx is None:
        ctx = _IV_CONTEXTS.ctx = MPIntervalContext()
    return ctx


def mpmath_iv_enclosure(builder: Callable, digits: int, start_prec: int = _START_PREC) -> Enclosure:
    """Evaluate `builder(iv_context)` to an enclosure of width <= 10^-digits.

    Precision starts at `start_prec` and doubles until the interval is
    narrow enough and its endpoints round alike at every number of places
    up to `digits`, so `decimal()` prints the correctly rounded value.  Every
    narrower interval also meets the rule at fewer places, and successive
    intervals are intersected; as the ladder does not depend on `digits`,
    an enclosure requested at more digits is always nested inside one
    requested at fewer.  The builder gets a private interval context;
    `mpmath.iv` is not touched.
    """
    _check_digits(digits)
    target = Fraction(1, 10**digits)
    ctx = _iv_context()
    prec = start_prec
    best: Enclosure | None = None
    while prec <= _MAX_PREC:
        old_prec = ctx.prec  # restored for an enclosing call on this thread
        try:
            ctx.prec = prec
            value = builder(ctx)
        finally:
            ctx.prec = old_prec
        lo, hi = _iv_endpoints(value)
        enc = Enclosure(lo, hi, digits)
        if best is not None:
            enc = Enclosure(max(best.lo, enc.lo), min(best.hi, enc.hi), digits)
        best = enc
        if best.width <= target and fraction_rounds_alike(best.lo, best.hi, digits):
            return Enclosure(best.lo, best.hi, digits)
        prec *= 2
    raise RuntimeError(f"interval evaluation did not reach 10^-{digits}")


def mpmath_interval(build, prec: int = 400) -> tuple[Fraction, Fraction]:
    """Exact endpoints of `build(ctx)` in a private mpmath interval context."""
    ctx = MPIntervalContext()
    ctx.prec = prec
    return _iv_endpoints(build(ctx))


def assert_holds(enc: Enclosure, interval: tuple[Fraction, Fraction]) -> None:
    lo, hi = interval
    assert enc.lo <= lo <= hi <= enc.hi, (enc, float(lo))


# Small coefficients that cancel often, also across the sqrt3 cross terms:
# (1 + sqrt3)(-3 + sqrt3) = -2 sqrt3.
CANCELLING = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(-3),
                              Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)])
small_consts = st.dictionaries(st.integers(-2, 2), st.tuples(CANCELLING, CANCELLING),
                               max_size=4).map(ExactConst)
scalars = st.one_of(st.integers(-3, 3), CANCELLING)
wide_consts = st.dictionaries(
    st.integers(-12, 12),
    st.tuples(st.fractions(max_denominator=10**20).map(lambda q: q * 10**12),
              st.fractions(max_denominator=10**20)),
    min_size=1, max_size=6,
).map(ExactConst).filter(lambda x: not x.is_rational())


def assert_same_const(new: ExactConst, old: ExactConst) -> None:
    assert list(new.terms.items()) == list(old.terms.items())
    assert new == old and hash(new) == hash(old)
    assert new.render() == old.render()
    for a, b in new.terms.values():
        assert type(a) is Fraction and type(b) is Fraction
        assert a or b


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

    @staticmethod
    def mpmath_sign(x: ExactConst) -> int:
        lo, hi = mpmath_interval(partial(reference_iv_value, x))
        assert lo > 0 or hi < 0 or x == 0, x  # 400 bits separate these from 0
        return (lo > 0) - (hi < 0)

    @pytest.mark.parametrize("x", [PI - Fraction(22, 7), PI - Fraction(355, 113),
                                   PI - Fraction(333, 106), ExactConst.zero(),
                                   ExactConst({1: (Fraction(1, 6), Fraction(-5, 18))}),
                                   ExactConst.rational(Fraction(1, 10**40))],
                             ids=["pi-22/7", "pi-355/113", "pi-333/106", "zero", "mixed-pair",
                                  "tiny-rational"])
    def test_sign_agrees_with_mpmath(self, x):
        assert x.sign() == self.mpmath_sign(x)

    @settings(max_examples=150, deadline=None)
    @given(small_consts)
    def test_sign_agrees_with_mpmath_on_a_sample(self, x):
        assert x.sign() == self.mpmath_sign(x)

    def test_undecided_sign_of_a_nonzero_form_raises(self, monkeypatch):
        monkeypatch.setattr(constants, "iv_sign", lambda builder, start_prec: 0)
        with pytest.raises(RuntimeError, match="did not decide the sign"):
            PI.sign()


class TestArithmeticMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(small_consts, st.one_of(small_consts, scalars))
    def test_operators(self, x, y):
        # A scalar on the left reaches x's reflected operator.
        left = x if isinstance(y, (int, Fraction)) else y
        right = y if left is x else x
        assert_same_const(x + y, reference_add(x, y))
        assert_same_const(y + x, reference_add(left, right))
        assert_same_const(x * y, reference_mul(x, y))
        assert_same_const(y * x, reference_mul(left, right))
        assert_same_const(x - y, reference_add(x, reference_neg(_coerce(y))))
        assert_same_const(y - x, reference_add(_coerce(y), reference_neg(x)))
        assert_same_const(-x, reference_neg(x))

    @settings(max_examples=60, deadline=None)
    @given(small_consts, small_consts)
    def test_cancellation(self, x, y):
        zero = ExactConst.zero()
        assert_same_const(x + (-x), zero)
        assert_same_const(x - x, zero)
        for factor in (0, Fraction(0), zero):
            assert_same_const(x * factor, zero)
        restored = (x + y) - y
        assert_same_const(restored, reference_add(reference_add(x, y), reference_neg(y)))
        assert restored == x
        product = (x + y) * (x - y)
        assert_same_const(product, reference_mul(reference_add(x, y),
                                                 reference_add(x, reference_neg(y))))
        assert product == x * x - y * y

    def test_sqrt3_cross_terms_cancel(self):
        x = ExactConst({0: (1, 1), 1: (1, -1)})
        y = ExactConst({0: (-3, 1), -1: (3, 1)})
        assert_same_const(x * y, reference_mul(x, y))
        assert (ExactConst.sqrt3() + 1) * (ExactConst.sqrt3() - 3) == ExactConst.sqrt3(-2)

    def test_public_constructor_still_accepts_and_cleans(self):
        x = ExactConst({"2": ("1/3", 0.5), 0: (0, 0), 1: (Fraction(0), 0), -1: (True, 2)})
        assert list(x.terms.items()) == [(2, (Fraction(1, 3), Fraction(1, 2))),
                                         (-1, (Fraction(1), Fraction(2)))]
        assert ExactConst({3: (0, 0)}).terms == {}


# One link of a chain: an operator and, for the binary ones, an operand
# drawn as an int, a Fraction or the terms of a constant.
CHAIN_OPS = ("add", "radd", "sub", "rsub", "mul", "rmul", "neg")
chain_operands = st.one_of(
    st.integers(-6, 6), CANCELLING,
    st.dictionaries(st.integers(-2, 2), st.tuples(CANCELLING, CANCELLING), max_size=3))
chains = st.lists(st.tuples(st.sampled_from(CHAIN_OPS), chain_operands), min_size=1, max_size=8)


def apply_link(cls, value, op: str, operand):
    """One link applied to value; an "r" operator puts the operand on the left."""
    if op == "neg":
        return -value
    if isinstance(operand, dict):
        operand = cls(operand)
    binary = getattr(operator, op.removeprefix("r"))
    return binary(operand, value) if op.startswith("r") else binary(value, operand)


def assert_canonical(x: ExactConst) -> None:
    """Integer numerators, no zero pair, and nothing shared with D > 0."""
    assert type(x._den) is int and x._den > 0
    for a, b in x._num.values():
        assert type(a) is int and type(b) is int and (a or b)
    assert gcd(x._den, *(c for pair in x._num.values() for c in pair)) == 1


class TestMatchesFractionReference:
    """The integer form against the Fraction-pair form it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(-2, 2), st.tuples(CANCELLING, CANCELLING), max_size=4),
           chains)
    def test_operator_chains(self, start, links):
        new, old = ExactConst(start), FractionConst(start)
        values = [(new, old)]
        for op, operand in links:
            new, old = apply_link(ExactConst, new, op, operand), apply_link(FractionConst, old,
                                                                            op, operand)
            values.append((new, old))
        for new, old in values:
            assert_canonical(new)
            assert list(new.terms.items()) == list(old.terms.items())
            assert new.render() == old.render()
            assert hash(new) == hash(old)
            assert new.is_rational() == old.is_rational()
            assert new.enclosure(12).decimal() == old.enclosure(12).decimal()
            for q in (0, 1, Fraction(-1, 2)):
                assert (new == q) == (old == q)
        for new1, old1 in values:
            for new2, old2 in values:
                assert (new1 == new2) == (old1 == old2)
        new, old = values[-1]
        assert new.enclosure(40).decimal() == old.enclosure(40).decimal()

    def test_bracket_terms_render_alike(self):
        for variety in TreeVariety:
            for k in (2, 3, 4):
                for i in range(1, 101):
                    for value in (limit_joint_prob(variety, k, i), limit_subtree_prob(variety, i)):
                        assert_canonical(value)
                        assert FractionConst(value.terms).render() == value.render()


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

    def test_wide_enclosure_is_refused(self):
        # [0.1, 0.2] is 10^-1 wide: its midpoint 0.15 prints at one place
        # only, and a request for more places is refused, not annotated.
        enc = Enclosure(Fraction(1, 10), Fraction(2, 10), digits=6)
        for places in (None, 2, 6):
            with pytest.raises(ValueError, match="wider than 10"):
                enc.decimal(places)
        assert enc.decimal(1) == "0.2"
        with pytest.raises(ValueError, match="wider than 10\\^-6"):
            decimal_string(1, 2, 10, 6)
        assert decimal_string(1, 2, 10, 1) == "0.2"
        assert decimal_string(0, 1, 10**6, 6) == "0.000001"  # exactly 10^-6 wide
        # The repr shows the fields, not a decimal, so it never raises.
        assert repr(enc) == "Enclosure(lo=Fraction(1, 10), hi=Fraction(1, 5), digits=6)"
        narrow = Enclosure(Fraction(15, 100), Fraction(15, 100), digits=6)
        assert narrow.decimal() == "0.150000"

    def test_digits_validation(self):
        with pytest.raises(ValueError):
            PI.enclosure(0)

    def test_endpoints_out_of_order_are_refused(self):
        with pytest.raises(ValueError, match="out of order"):
            Enclosure(Fraction(2), Fraction(1), 6)
        low = Enclosure(Fraction(0), Fraction(1), 6)
        with pytest.raises(ValueError, match="out of order"):
            low._replace(lo=Fraction(2))

    def test_package_imports_without_mpmath(self):
        # Enclosures run on integers alone, so neither the package nor its
        # command line may pull in mpmath.
        code = "import sys, treerank, treerank.cli; print('mpmath' in sys.modules)"
        proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": str(SRC)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_package_imports_without_dataclasses(self):
        # The records are named tuples, so a cold start loads neither
        # dataclasses nor the inspect/ast/dis modules it imports.  -S keeps
        # imports made by site .pth files out of the check.
        code = ("import sys, treerank, treerank.cli; "
                "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-B", "-S", "-c", code], capture_output=True,
                              text=True, env={"PYTHONPATH": str(SRC)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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

    def test_rational_is_its_own_point(self):
        # An exact tie at the last place rounds half up, with no interval to
        # straddle it.
        for q, text in ((Fraction(1, 8), "0.13"), (Fraction(-1, 8), "-0.13")):
            enc = ExactConst.rational(q).enclosure(2)
            assert enc.lo == enc.hi == q
            assert enc.decimal() == text
        third = ExactConst.rational(Fraction(1, 3)).enclosure(50)
        assert third.lo == third.hi == Fraction(1, 3)

    def test_most_certifiable_digits(self):
        # 10^-MAX_DIGITS is the finest power of ten at or above 2^-_MAX_PREC.
        assert MAX_DIGITS * log2(10) <= constants._MAX_PREC < (MAX_DIGITS + 1) * log2(10)
        for call in (lambda: PI.enclosure(MAX_DIGITS + 1),
                     lambda: ExactConst.rational(1).enclosure(MAX_DIGITS + 1),
                     lambda: iv_enclosure(lambda ctx: ctx.pi(), MAX_DIGITS + 1)):
            with pytest.raises(ValueError):
                call()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**6, 10**6), st.sampled_from([5, 0, 4, 6]), st.integers(0, 7),
           st.integers(-12, 12), st.integers(0, 12), st.integers(1, 8))
    # 0.05 - 10^-12 and 0.05 + 10^-12 agree at 8 places but not at 1.
    @example(0, 5, 2, -1, 2, 8)
    @example(-1, 5, 2, -1, 2, 8)
    def test_rounds_alike_matches_every_place(self, head, last, scale, low_off, width, digits):
        # Endpoints within a few units of the 12th place of a short decimal,
        # often one ending in 5, so that they sit on or beside rounding
        # boundaries of several places.
        den = 10**12
        lo = (10 * head + last) * 10 ** (12 - scale) + low_off
        hi = lo + width
        naive = all(decimal_string(lo, lo, den, p) == decimal_string(hi, hi, den, p)
                    for p in range(1, digits + 1))
        assert _rounds_alike(lo, hi, den, digits) == naive

    @pytest.mark.parametrize("build, expected", [
        (lambda: limit_subtree_prob(TreeVariety.NONPLANE, 60), "0.000528"),
        (lambda: bound_interval(TreeVariety.PLANE, 0, 20).upper, "0.481671"),
    ], ids=["nonplane-v60", "plane-upper"])
    def test_decimals_from_the_lowest_rung_are_correctly_rounded(self, build, expected):
        # The term-by-term evaluator, climbing from 64 bits, reaches an
        # interval under 10^-6 wide whose midpoint lies across a rounding
        # boundary from the value; the stop rule climbs on past it.
        value = build()
        enc = mpmath_iv_enclosure(partial(reference_iv_value, value), 6)
        assert value.enclosure(6).decimal() == enc.decimal() == expected

    def test_decimals_past_the_int_to_str_cap(self):
        # 1/7 = 0.(142857); the digit after 5000 places is 2, so it rounds down.
        assert decimal_string(1, 1, 7, 5000) == "0." + "142857" * 833 + "14"
        assert decimal_string(1 - 10**6000, 1 - 10**6000, 3, 0) == "-" + "3" * 6000


# Denominators of both kinds: the 2^prec of the interval ladder, and any other.
DENOMINATORS = st.one_of(st.integers(0, 1100).map(lambda k: 1 << k), st.integers(1, 10**40))


class TestIntegerDecimals:
    """The integer decimals against the `Fraction` routines they replaced."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-10**60, 10**60), DENOMINATORS, st.integers(0, 40))
    @example(-1, 3, 0)  # rounds to 0: no minus sign
    @example(1, 7, 40)
    def test_point_decimals(self, n, d, places):
        assert decimal_string(n, n, d, places) == fraction_decimal_string(Fraction(n, d), places)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**20, 10**20), st.integers(0, 40), st.integers(1, 10**12))
    def test_exact_ties_at_the_last_place_round_away_from_zero(self, m, places, k):
        # (2m + 1)/(2 10^places), a half at the last place, over a scaled denominator.
        n, d = (2 * m + 1) * k, 2 * 10**places * k
        text = decimal_string(n, n, d, places)
        assert text == fraction_decimal_string(Fraction(n, d), places)
        away = abs(m + (m >= 0))  # the tie's magnitude rounded up
        assert text.lstrip("-").replace(".", "").lstrip("0") == str(away).lstrip("0")

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-10**60, 10**60), st.one_of(st.integers(0, 10), st.integers(0, 10**60)),
           DENOMINATORS, st.integers(0, 40))
    @example(1, 1, 10, 6)  # [0.1, 0.2], as in test_wide_enclosure_is_refused
    @example(0, 1, 10**6, 6)  # exactly 10^-6 wide
    def test_intervals_narrow_and_wide(self, lo, width, den, places):
        # The same text, or ValueError for an interval wider than 10^-places.
        def outcome(decimal):
            try:
                return decimal()
            except ValueError:
                return ValueError

        hi = lo + width
        expected = outcome(lambda: enclosure_decimal(Fraction(lo, den), Fraction(hi, den), places))
        assert outcome(lambda: decimal_string(lo, hi, den, places)) == expected
        enclosure = Enclosure(Fraction(lo, den), Fraction(hi, den), places)
        assert outcome(enclosure.decimal) == expected

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-10**50, 10**50), st.integers(0, 10**3), DENOMINATORS,
           st.integers(1, 40))
    @example(5 * 10**11 - 1, 2, 10**13, 8)  # 0.05 -+ 10^-13 agree at 8 places, not at 1
    def test_rounds_alike(self, lo, width, den, digits):
        hi = lo + width
        assert _rounds_alike(lo, hi, den, digits) == \
            fraction_rounds_alike(Fraction(lo, den), Fraction(hi, den), digits)

    def test_bounds_out_of_order_raise_also_under_python_O(self):
        # One value given out of order on its first rung, and one whose second
        # rung is disjoint from its first, so that the intersection is empty.
        code = ("from treerank.constants import iv_enclosure, iv_enclosures\n"
                "def crossing(ctx):\n"
                "    return [(0, 1), (3, 2)]\n"
                "def disjoint(ctx):\n"
                "    return (0, 1 << ctx.prec) if ctx.prec == 64 else (-10, -5)\n"
                "for call in (lambda: iv_enclosures(crossing, 6),\n"
                "             lambda: iv_enclosure(disjoint, 6)):\n"
                "    try:\n"
                "        call()\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-B", "-c", code], capture_output=True,
                              text=True, env={"PYTHONPATH": str(SRC)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "enclosure endpoints out of order\n" * 2

    def test_ladder_returns_integer_bounds_and_their_rung(self):
        # 1/3 within 2^(prec/2) units, 2^-32 wide at 64 bits and 2^-63 at
        # 128; and within one unit, 2^-64 wide at 64 bits.
        def thirds(ctx):
            third, half = (1 << ctx.prec) // 3, 1 << ctx.prec // 2
            return [(third - half, third + half), (third, third + 1)]

        coarse, fine = iv_enclosures(thirds, 12)
        assert coarse == ((1 << 128) // 3 - (1 << 64), (1 << 128) // 3 + (1 << 64), 128)
        assert fine == ((1 << 64) // 3, (1 << 64) // 3 + 1, 64)
        assert decimal_string(*coarse[:2], 1 << 128, 12) == "0.333333333333"
        assert iv_enclosure(lambda ctx: thirds(ctx)[0], 12) == \
            Enclosure(Fraction(coarse[0], 1 << 128), Fraction(coarse[1], 1 << 128), 12)


class TestFixedPointKernel:
    def test_pi_bounds_hold_mpmath_pi_at_every_rung(self):
        # Every rung from 64 to 2^16 bits, and odd precisions, some below one
        # Chudnovsky term.
        rungs = [_START_PREC << k for k in range(11)]
        assert rungs[-1] == 1 << 16
        for prec in rungs + list(range(1, 400, 7)):
            lo, hi = FixedPoint(prec).pi()
            assert hi - lo <= 3
            enc = Enclosure(Fraction(lo, 1 << prec), Fraction(hi, 1 << prec), 1)
            assert_holds(enc, mpmath_interval(lambda ctx: ctx.pi, prec + 64))

    def test_sign_climbs_the_ladder_and_stops_at_a_decision(self):
        rungs = []

        def straddles_zero(ctx):
            rungs.append(ctx.prec)
            return -1, 1

        assert iv_sign(straddles_zero, 100) == 0
        assert rungs == [100 << k for k in range(16)] and rungs[-1] <= _MAX_PREC < 2 * rungs[-1]

        def tiny(ctx):  # 2^-200
            rungs.append(ctx.prec)
            lo = (1 << ctx.prec) >> 200
            return lo, lo + 1

        rungs.clear()
        assert iv_sign(tiny) == 1
        assert rungs == [64, 128, 256]  # decided on the first rung that holds it

    def test_sqrt_bounds(self):
        for n in (0, 1, 2, 3, 4, 99, 100, 10**40 + 1):
            for prec in (1, 64, 129):
                lo, hi = FixedPoint(prec).sqrt(n)
                exact = isqrt(n) ** 2 == n
                assert hi - lo == (not exact)
                assert lo * lo <= n << (2 * prec) <= hi * hi

    @pytest.mark.parametrize("variety", list(TreeVariety), ids=str)
    def test_sqrt_margin_holds_the_mpmath_value_at_every_deciding_rung(self, variety):
        # The E(sqrt Z_n) bound is decided as the sign of one builder; each
        # rung up to and including the one that decides must hold the value.
        for n in range(1, 11):
            cen = enumeration.census(variety, n)
            truth = mpmath_interval(lambda ctx: ctx.mpf(cen.vertex_pairs) * (
                100 * n - 90 * ctx.sqrt(n)) - n * sum(
                (ctx.mpf(c) * ctx.sqrt(r) for r, c in enumerate(cen.size_totals) if r),
                ctx.mpf(0)))
            prec = _START_PREC
            while True:
                lo, hi = enumeration._sqrt_margin(cen, FixedPoint(prec))
                assert_holds(Enclosure(Fraction(lo, 1 << prec), Fraction(hi, 1 << prec), 1),
                             truth)
                if lo > 0 or hi < 0:
                    break
                prec *= 2
            assert lo > 0  # the bound holds
            assert iv_sign(partial(enumeration._sqrt_margin, cen)) == 1


@lru_cache(maxsize=None)
def bracket_ladder_rounds() -> tuple[list[ExactConst], list[int]]:
    """The w and v terms of both rank-2 brackets at r = 100, and the number
    of interval rounds each enclosure took when both brackets and every term
    were enclosed at 12 digits."""
    rounds: list[int] = []
    original = constants.iv_enclosure

    def counting(builder, digits, *args, **kwargs):
        calls = [0]

        def counted(ctx):
            calls[0] += 1
            return builder(ctx)

        try:
            return original(counted, digits, *args, **kwargs)
        finally:
            rounds.append(calls[0])

    values = []
    constants.iv_enclosure = counting
    try:
        for variety in TreeVariety:
            report = bound_interval(variety, 2, 100)
            for value in (report.lower, report.upper, report.partial_v_sum):
                value.enclosure(12)
            for i in range(1, 101):
                for value in (limit_joint_prob(variety, 2, i), limit_subtree_prob(variety, i)):
                    values.append(value)
                    value.enclosure(12)
    finally:
        constants.iv_enclosure = original
    return values, rounds


class TestHornerEvaluation:
    def test_every_bracket_enclosure_takes_one_round(self):
        values, rounds = bracket_ladder_rounds()
        # Per variety: lower, upper and the v partial sum, plus every term
        # that is not rational (a rational value is its own enclosure).
        assert len(rounds) == 2 * 3 + sum(not value.is_rational() for value in values)
        assert set(rounds) == {1}

    def _check(self, value: ExactConst) -> None:
        # The reference's 30-digit enclosure lies inside its 12-digit one, so
        # overlapping it is the stronger check at both digits.
        ref = mpmath_iv_enclosure(partial(reference_iv_value, value), 30)
        fine = value.enclosure(60)
        for d in (12, 30):
            new = value.enclosure(d)
            assert max(new.lo, ref.lo) <= min(new.hi, ref.hi), (value, d)
            assert new.contains(fine)
            assert fraction_decimal_string(fine.lo, d) == fraction_decimal_string(fine.hi, d) \
                == new.decimal()

    def test_bracket_terms_match_the_reference(self):
        values, _ = bracket_ladder_rounds()
        for value in values:
            self._check(value)

    @settings(max_examples=60, deadline=None)
    @given(wide_consts)
    def test_drawn_constants_match_the_reference(self, value):
        self._check(value)


# The two moment recurrences that the unrolled weight moment replaced, one
# per variety, kept verbatim as references for `moment_sum`.


def sqrt3_power(exponent: int) -> ExactConst:
    """3^(exponent/2) as an exact constant, for any integer exponent."""
    q, r = divmod(exponent, 2)
    scale = Fraction(3) ** q
    if r:
        return ExactConst.sqrt3(scale)
    return ExactConst.rational(scale)


@lru_cache(maxsize=None)
def _halfpi_sin_moment(m: int) -> ExactConst:
    """int_0^{pi/2} t^m sin t dt.  At pi/2: cos = 0, sin = 1."""
    if m < 2:
        return ExactConst.rational(1)
    # Fill the cache from below, so the call for m - 2 is a hit and the
    # recursion is one level deep at any degree.
    for k in range(m % 2, m - 2, 2):
        _halfpi_sin_moment(k)
    lead = ExactConst.pi_power(m - 1, Fraction(m, 2 ** (m - 1)))
    return lead - _halfpi_sin_moment(m - 2) * (m * (m - 1))


def halfpi_moment(m: int) -> ExactConst:
    """int_0^{pi/2} t^m (1 - sin t) dt, exact in Q[pi]."""
    if m < 0:
        raise ValueError("moment degree must be nonnegative")
    power = ExactConst.pi_power(m + 1, Fraction(1, (m + 1) * 2 ** (m + 1)))
    return power - _halfpi_sin_moment(m)


def _z0_power(m: int) -> ExactConst:
    """(2 sqrt3 pi/9)^m, a power of the plane singularity."""
    return sqrt3_power(m) * ExactConst.pi_power(m, Fraction(2**m, 9**m))


@lru_cache(maxsize=None)
def _plane_cos_theta_moment(m: int) -> ExactConst:
    """J_m = int_0^{z0} t^m cos(sqrt3 t + pi/3) dt, by the recurrence in `limits`."""
    if m < 2:
        return ExactConst.rational(Fraction(-1, 2))
    # Filled from below like `_halfpi_sin_moment`: one recursion level.
    for k in range(m % 2, m - 2, 2):
        _plane_cos_theta_moment(k)
    return (_z0_power(m - 1) * Fraction(-m, 3)
            - _plane_cos_theta_moment(m - 2) * Fraction(m * (m - 1), 3))


def reference_weight_moment(variety: TreeVariety, m: int) -> ExactConst:
    """The weight moment as the two recurrences above assemble it."""
    if variety is TreeVariety.NONPLANE:
        return halfpi_moment(m)
    if m < 0:
        raise ValueError("moment degree must be nonnegative")
    return (_z0_power(m + 1) * Fraction(1, m + 1) + _plane_cos_theta_moment(m)) * Fraction(1, 2)


# The prefix-list weight moment that the unrolled sum replaced, kept
# verbatim (under its own name, with its own lists) as a reference.
_MOMENTS: dict[TreeVariety, tuple[list[ExactConst], list[ExactConst], list[ExactConst]]] = {
    v: ([ExactConst.rational(1)], [], []) for v in TreeVariety
}
_MOMENTS_LOCK = threading.Lock()


def prefix_list_weight_moment(variety: TreeVariety, m: int) -> ExactConst:
    """W_m = int_0^{z0} t^m g(t) dt for the variety's weight g, exact.

    The first call at a degree extends the prefix list of its parity
    through it, bottom-up under the lock; entries are only ever appended,
    so reads need no lock and no degree recurses.
    """
    if m < 0:
        raise ValueError("moment degree must be nonnegative")
    powers, moments = _MOMENTS[variety][0], _MOMENTS[variety][1 + m % 2]
    if m // 2 < len(moments):
        return moments[m // 2]
    z0, c, b, g0 = _WEIGHT[variety]
    with _MOMENTS_LOCK:
        while len(powers) < m + 2:
            powers.append(powers[-1] * z0)
        for n in range(2 * len(moments) + m % 2, m + 1, 2):
            lead = powers[n + 1] * Fraction(c, n + 1)
            moments.append(lead - (moments[-1] * (b * n * (n - 1)) if n > 1 else b * g0))
    return moments[m // 2]


# The three plane moment families that the plane weight moment was built
# from before its own recurrence; kept verbatim as the reference.
# Upper endpoint u = 2 pi / 3 of the substituted plane integrals:
# sin u = sqrt3/2, cos u = -1/2.
_PLANE_SIN_U = ExactConst.sqrt3(Fraction(1, 2))
_PLANE_COS_U = ExactConst.rational(Fraction(-1, 2))


def _plane_u_power(m: int) -> ExactConst:
    return ExactConst.pi_power(m, Fraction(2, 3) ** m)


@lru_cache(maxsize=None)
def _plane_sin_moment(m: int) -> ExactConst:
    """int_0^{2pi/3} u^m sin u du."""
    if m == 0:
        return ExactConst.rational(1) - _PLANE_COS_U
    return -(_plane_u_power(m) * _PLANE_COS_U) + _plane_cos_moment(m - 1) * m


@lru_cache(maxsize=None)
def _plane_cos_moment(m: int) -> ExactConst:
    """int_0^{2pi/3} u^m cos u du."""
    if m == 0:
        return _PLANE_SIN_U
    return _plane_u_power(m) * _PLANE_SIN_U - _plane_sin_moment(m - 1) * m


def plane_moment(m: int, kind: str) -> ExactConst:
    """int_0^{2 sqrt3 pi/9} t^m * {sin(sqrt3 t) | cos(sqrt3 t) | 1} dt.

    The substitution u = sqrt3 t turns the trigonometric kinds into the
    [0, 2pi/3] moment families above, scaled by 3^-(m+1)/2.
    """
    if m < 0:
        raise ValueError("moment degree must be nonnegative")
    if kind == "const":
        scale = sqrt3_power(m + 1) * Fraction(2 ** (m + 1), 9 ** (m + 1) * (m + 1))
        return scale * ExactConst.pi_power(m + 1)
    if kind == "sin":
        return sqrt3_power(-(m + 1)) * _plane_sin_moment(m)
    if kind == "cos":
        return sqrt3_power(-(m + 1)) * _plane_cos_moment(m)
    raise ValueError(f"unknown moment kind {kind!r}; expected sin, cos or const")


def reference_plane_weight_moment(m: int) -> ExactConst:
    return (
        plane_moment(m, "const") * Fraction(1, 2)
        + plane_moment(m, "cos") * Fraction(1, 4)
        - ExactConst.sqrt3(Fraction(1, 4)) * plane_moment(m, "sin")
    )


def quad_oracle(integrand, upper, dps=60) -> Fraction:
    """Adaptive quadrature, the independent oracle for the moment integrals."""
    with mpmath.workdps(dps):
        return mp_fraction(mpmath.quad(integrand, [0, upper]))


class TestHalfPiMoments:
    """The non-plane weight moment, and the reference recurrence beside it."""

    def test_base_cases(self):
        for moment in (partial(kernel_weight_moment, TreeVariety.NONPLANE), halfpi_moment):
            assert moment(0) == ExactConst.pi_power(1, Fraction(1, 2)) - 1
            assert moment(1) == ExactConst.pi_power(2, Fraction(1, 8)) - 1

    def test_against_quadrature(self):
        for m in range(21):
            truth = quad_oracle(lambda t, m=m: t**m * (1 - mpmath.sin(t)), mpmath.pi / 2)
            for moment in (kernel_weight_moment(TreeVariety.NONPLANE, m), halfpi_moment(m)):
                enc = moment.enclosure(30)
                assert abs(enc.midpoint - truth) < Fraction(1, 10**25), f"m={m}"

    def test_positive(self):
        for m in range(21):
            assert kernel_weight_moment(TreeVariety.NONPLANE, m).sign() == 1
            assert halfpi_moment(m).sign() == 1

    def test_closed_sum_formula_matches_recurrence(self):
        # The antiderivative of t^m sin t evaluates at the endpoints to an
        # alternating factorial sum; it must agree with the recurrence exactly.
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
            # W_m = (pi/2)^(m+1)/(m+1) - int_0^{pi/2} t^m sin t dt
            power = ExactConst.pi_power(m + 1, Fraction(1, (m + 1) * 2 ** (m + 1)))
            assert kernel_weight_moment(TreeVariety.NONPLANE, m) == power - total, f"m={m}"


class TestPlaneMoments:
    """The reference families above, then the plane weight moment against them."""

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

    def test_weight_moment_matches_the_three_families(self):
        # The plane moment against the three families and against its earlier
        # recurrence; the non-plane moment against its earlier recurrence.
        for m in range(150):
            plane = kernel_weight_moment(TreeVariety.PLANE, m)
            assert plane == reference_plane_weight_moment(m), m
            for variety in TreeVariety:
                value = kernel_weight_moment(variety, m)
                reference = reference_weight_moment(variety, m)
                assert value == reference and value.render() == reference.render(), (variety, m)
        for variety in TreeVariety:
            with pytest.raises(ValueError):
                kernel_weight_moment(variety, -1)

    def test_weight_moment_against_quadrature(self):
        for m in (0, 1, 2, 7, 20):
            enc = kernel_weight_moment(TreeVariety.PLANE, m).enclosure(30)
            with mpmath.workdps(60):
                upper = 2 * mpmath.sqrt(3) * mpmath.pi / 9
            truth = quad_oracle(lambda t, m=m: t**m * (1 + mpmath.cos(mpmath.sqrt(3) * t
                                                                       + mpmath.pi / 3)) / 2,
                                upper)
            assert abs(enc.midpoint - truth) < Fraction(1, 10**25), m


class TestDeepMoments:
    def test_cold_degree_1500_at_the_default_recursion_limit(self):
        # W_1500 is the moment sum of one monomial, taken in one pass down
        # its 1501 degrees: nothing recurses, and no lower moment is kept.
        # The prefix lists of moments peaked at about 500 MiB on this request.
        code = ("import resource, sys\n"
                "from math import factorial\n"
                "from treerank.limits import moment_sum\n"
                "from treerank.variety import TreeVariety\n"
                "for variety in TreeVariety:\n"
                "    print(len(moment_sum(variety, [0] * 1500 + [factorial(1500)]).terms))\n"
                "print(sys.getrecursionlimit())\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": str(SRC)}, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        # Degree 1500 in both varieties: pi^1501, pi^1499, ..., pi^1 and pi^0.
        *terms, peak_kib = proc.stdout.split()
        assert terms == ["752", "752", "1000"]
        assert int(peak_kib) < 100 * 1024


class TestMomentPrefix:
    @pytest.mark.parametrize("variety", list(TreeVariety))
    def test_call_order_does_not_matter(self, variety):
        for m in (50, 10, 80, 0, 79):
            assert kernel_weight_moment(variety, m) == reference_weight_moment(variety, m), m

    @pytest.mark.parametrize("variety", list(TreeVariety))
    def test_sum_matches_the_prefix_lists(self, variety):
        # The kernel's monomials and the unrolled sum against the prefix lists.
        for m in range(400):
            value = kernel_weight_moment(variety, m)
            reference = prefix_list_weight_moment(variety, m)
            assert value == reference and value.render() == reference.render(), m
            assert unrolled_weight_moment(variety, m) == reference, m
