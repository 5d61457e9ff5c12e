"""Exact constants in Q(sqrt3)[pi, 1/pi] and guaranteed decimal enclosures.

Every limiting probability produced by this package lives in the ring of
Laurent polynomials in pi whose coefficients have the shape a + b*sqrt(3)
with rational a, b.  Arithmetic here is exact and canonical, so equality
of values is equality of representations.  Decimal output goes through
`Enclosure`, an interval with exact rational endpoints certified to
contain the true value; interval evaluation is delegated to mpmath's
interval context with outward rounding and escalating precision.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Union

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import to_rational

Rational = Union[int, Fraction]

_START_PREC = 64
_MAX_PREC = 1 << 22


class UnsupportedDivisorError(ZeroDivisionError):
    """Division is only defined by nonzero rationals and single monomials."""


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


class ExactConst:
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
    def rational(cls, value: Rational) -> "ExactConst":
        return cls({0: (Fraction(value), Fraction(0))})

    @classmethod
    def zero(cls) -> "ExactConst":
        return cls()

    @classmethod
    def pi_power(cls, exponent: int, coeff: Rational = 1, sqrt3_coeff: Rational = 0) -> "ExactConst":
        return cls({exponent: (Fraction(coeff), Fraction(sqrt3_coeff))})

    @classmethod
    def sqrt3(cls, coeff: Rational = 1) -> "ExactConst":
        return cls({0: (Fraction(0), Fraction(coeff))})

    @property
    def terms(self) -> dict[int, tuple[Fraction, Fraction]]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_sqrt3_free(self) -> bool:
        return all(b == 0 for _, b in self._terms.values())

    def is_rational(self) -> bool:
        return self.is_sqrt3_free() and all(j == 0 for j in self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __add__(self, other: Union["ExactConst", Rational]) -> "ExactConst":
        other = _coerce(other)
        out = dict(self._terms)
        for j, (a, b) in other._terms.items():
            ca, cb = out.get(j, (Fraction(0), Fraction(0)))
            out[j] = (ca + a, cb + b)
        return ExactConst(out)

    __radd__ = __add__

    def __neg__(self) -> "ExactConst":
        return ExactConst({j: (-a, -b) for j, (a, b) in self._terms.items()})

    def __sub__(self, other: Union["ExactConst", Rational]) -> "ExactConst":
        return self + (-_coerce(other))

    def __rsub__(self, other: Rational) -> "ExactConst":
        return _coerce(other) + (-self)

    def __mul__(self, other: Union["ExactConst", Rational]) -> "ExactConst":
        other = _coerce(other)
        out: dict[int, tuple[Fraction, Fraction]] = {}
        for j1, (a1, b1) in self._terms.items():
            for j2, (a2, b2) in other._terms.items():
                j = j1 + j2
                # (a1 + b1 s)(a2 + b2 s) with s^2 = 3
                a = a1 * a2 + 3 * b1 * b2
                b = a1 * b2 + b1 * a2
                ca, cb = out.get(j, (Fraction(0), Fraction(0)))
                out[j] = (ca + a, cb + b)
        return ExactConst(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["ExactConst", Rational]) -> "ExactConst":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise UnsupportedDivisorError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, ExactConst):
            return NotImplemented
        if other.is_zero():
            raise UnsupportedDivisorError("division by zero")
        if not other.is_monomial():
            raise UnsupportedDivisorError(
                "division is only supported by rationals and monomials c*pi^j"
            )
        ((j, (a, b)),) = other._terms.items()
        # 1/(a + b sqrt3) = (a - b sqrt3)/(a^2 - 3 b^2); the norm cannot vanish.
        norm = a * a - 3 * b * b
        inv = ExactConst({-j: (a / norm, -b / norm)})
        return self * inv

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactConst.rational(other)
        if not isinstance(other, ExactConst):
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
        return f"ExactConst({self.render()})"

    def _iv_value(self, ctx):
        pi = ctx.pi
        s3 = ctx.sqrt(3)
        total = ctx.mpf(0)
        for j, (a, b) in self._terms.items():
            coeff = _iv_fraction(ctx, a)
            if b:
                coeff += _iv_fraction(ctx, b) * s3
            if j > 0:
                coeff *= pi ** j
            elif j < 0:
                coeff /= pi ** (-j)
            total += coeff
        return total

    def enclosure(self, digits: int) -> "Enclosure":
        """Interval with rational endpoints of width <= 10^-digits."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if not self._terms:
            return Enclosure(Fraction(0), Fraction(0), digits)
        return iv_enclosure(self._iv_value, digits)

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


def _coerce(value: Union[ExactConst, Rational]) -> ExactConst:
    if isinstance(value, ExactConst):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactConst.rational(value)
    raise TypeError(f"cannot use {type(value).__name__} with ExactConst")


def sqrt3_power(exponent: int) -> ExactConst:
    """3^(exponent/2) as an exact constant, for any integer exponent."""
    q, r = divmod(exponent, 2)
    scale = Fraction(3) ** q
    if r:
        return ExactConst.sqrt3(scale)
    return ExactConst.rational(scale)


PI = ExactConst.pi_power(1)
SQRT3 = ExactConst.sqrt3()


# ---------------------------------------------------------------------------
# Enclosures


def _round_half_up(x: Fraction) -> int:
    from math import floor

    if x >= 0:
        return floor(x + Fraction(1, 2))
    return -floor(-x + Fraction(1, 2))


def decimal_string(x: Fraction, places: int) -> str:
    scaled = _round_half_up(x * 10**places)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _sci_upper(x: Fraction) -> str:
    """Upper bound of x in two significant decimal digits, scientific form."""
    if x <= 0:
        return "0"
    # Exact integer log10: 10^ic <= x < 10^(ic+1).
    ic = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** ic > x:
        ic -= 1
    while Fraction(10) ** (ic + 1) <= x:
        ic += 1
    exp = ic - 1
    q = x / Fraction(10) ** exp
    mant = -((-q.numerator) // q.denominator)  # ceil
    if mant >= 100:
        mant = (mant + 9) // 10
        exp += 1
    return f"{mant}e{exp}"


@dataclass(frozen=True)
class Enclosure:
    """[lo, hi] with exact rational endpoints certified to contain a value."""

    lo: Fraction
    hi: Fraction
    digits: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("enclosure endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value: Union[Rational, "Enclosure"]) -> bool:
        if isinstance(value, Enclosure):
            return self.lo <= value.lo and value.hi <= self.hi
        return self.lo <= value <= self.hi

    def subset_of(self, other: "Enclosure") -> bool:
        return other.contains(self)

    def certainly_le(self, other: Union[Rational, "Enclosure"]) -> bool:
        bound = other.lo if isinstance(other, Enclosure) else Fraction(other)
        return self.hi <= bound

    def certainly_lt(self, other: Union[Rational, "Enclosure"]) -> bool:
        bound = other.lo if isinstance(other, Enclosure) else Fraction(other)
        return self.hi < bound

    def certainly_ge(self, other: Union[Rational, "Enclosure"]) -> bool:
        bound = other.hi if isinstance(other, Enclosure) else Fraction(other)
        return self.lo >= bound

    def intersect(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(max(self.lo, other.lo), min(self.hi, other.hi),
                         max(self.digits, other.digits))

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi,
                         min(self.digits, other.digits))

    def decimal(self, places: int | None = None) -> str:
        """Round-to-nearest within the enclosure; annotate when too wide."""
        places = self.digits if places is None else places
        mid = decimal_string(self.midpoint, places)
        if self.width <= Fraction(1, 10**places):
            return mid
        return f"{mid}±{_sci_upper(self.width / 2)}"

    def __repr__(self) -> str:
        return f"Enclosure({self.decimal()}, digits={self.digits})"


def _iv_fraction(ctx, q: Fraction):
    return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)


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


def iv_enclosure(builder: Callable, digits: int) -> Enclosure:
    """Evaluate `builder(iv_context)` to an enclosure of width <= 10^-digits.

    Precision starts low and doubles until the interval is narrow enough;
    successive intervals are intersected, so an enclosure requested at
    more digits is always nested inside one requested at fewer.  The
    builder gets a private interval context; `mpmath.iv` is not touched.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    target = Fraction(1, 10**digits)
    ctx = _iv_context()
    prec = _START_PREC
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
        best = enc if best is None else best.intersect(enc)
        if best.width <= target:
            return Enclosure(best.lo, best.hi, digits)
        prec *= 2
    raise RuntimeError(f"interval evaluation did not reach 10^-{digits}")


def sqrt_weighted_sum(terms: Mapping[int, int], digits: int) -> Enclosure:
    """Enclosure of sum over r of terms[r] * sqrt(r)."""

    def build(ctx):
        total = ctx.mpf(0)
        for r, count in sorted(terms.items()):
            if count:
                total += ctx.mpf(count) * ctx.sqrt(r)
        return total

    return iv_enclosure(build, digits)


# ---------------------------------------------------------------------------
# Trigonometric moment integrals
#
# Two weight functions drive every limit computation: (1 - sin t) on
# [0, pi/2] and Q(t) = 1/2 + cos(sqrt3 t)/4 - sqrt3 sin(sqrt3 t)/4 on
# [0, 2 sqrt3 pi / 9].  Both reduce to the families  int t^m sin t  and
# int t^m cos t, which satisfy a two-step integration-by-parts recurrence
# whose boundary terms are exact here (the endpoints have rational sine
# and cosine up to a factor sqrt3/2).


@lru_cache(maxsize=None)
def _halfpi_sin_moment(m: int) -> ExactConst:
    """int_0^{pi/2} t^m sin t dt.  At pi/2: cos = 0, sin = 1."""
    if m == 0:
        return ExactConst.rational(1)
    if m == 1:
        return ExactConst.rational(1)
    lead = ExactConst.pi_power(m - 1, Fraction(m, 2 ** (m - 1)))
    return lead - _halfpi_sin_moment(m - 2) * (m * (m - 1))


def halfpi_moment(m: int) -> ExactConst:
    """int_0^{pi/2} t^m (1 - sin t) dt, exact in Q[pi]."""
    if m < 0:
        raise ValueError("moment degree must be nonnegative")
    power = ExactConst.pi_power(m + 1, Fraction(1, (m + 1) * 2 ** (m + 1)))
    return power - _halfpi_sin_moment(m)


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


PLANE_SINGULARITY = ExactConst.pi_power(1, 0, Fraction(2, 9))  # 2 sqrt3 pi / 9


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
