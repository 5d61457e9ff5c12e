"""Exact constants in Q(sqrt3)[pi, 1/pi] and guaranteed decimal enclosures.

Every limiting probability produced by this package lives in the ring of
Laurent polynomials in pi whose coefficients have the shape a + b*sqrt(3)
with rational a, b.  A value is stored as integer pairs (a_j, b_j) per
power of pi over one integer denominator D > 0, meaning
sum_j (a_j + b_j sqrt3) pi^j / D.  The form is canonical: no zero pair
is stored and gcd(D, every a_j, b_j) = 1, so equality of values is
equality of representations.  A sum scales both sides to the lcm of the
denominators, a product convolves the pairs over D1 D2 with sqrt3^2 = 3,
and one gcd with D first reduces the result; `Fraction`s appear only in
constructor input, in `.terms` and at the endpoints of an `Enclosure`.
Every yes/no decision, the sign of a constant among them, runs on the
precision ladder below through `iv_sign`, which stops as soon as the
bounds exclude 0 and asks for no digits.  Enclosures and decimals run
on integers too: `decimal_string` rounds [lo/den, hi/den] given as
integers, and refuses an interval wider than 10^-places, so that no
decimal it prints claims more places than its interval certifies; `cli`
formats every printed decimal with it.  `Enclosure`, an interval with
exact rational endpoints certified to contain the true value, is built
for single values only.

Interval evaluation runs in integer fixed point, on a ladder of
precisions that doubles from a start rung.  A round at precision p holds
a real x as integers lo <= x 2^p <= hi; every product and quotient
rounds its lower bound down and its upper bound up, so the bounds stay
certified.  sqrt(n) comes from `math.isqrt`.  pi comes from the
Chudnovsky series, summed to N terms by binary splitting
(Haible-Papanikolaou 1998).  The first term is below 2^24 and the ratio
of consecutive terms is below 2^-45 in magnitude, so the tail is below
2^(25 - 45N); N puts it under 2^-(p+1), and the bounds are cached per
precision.  A constant is evaluated as (A(pi) + sqrt3 B(pi)) pi^low / D
with its stored numerators as the integer coefficients of A and B and
its stored D, so each takes one Horner pass; as pi > 0, each step takes
two products, picked by the signs of the bounds.  Its start rung
is the lowest rung that holds its largest term, from the coefficient
sizes and about 1.66 bits per power of pi, plus a guard of
`_GUARD_BITS`; so up to about 15 digits the first round certifies, also
when the terms cancel to a small value.  The ladder stops once the
interval is at most 10^-digits wide and its endpoints round alike at
every number of places up to `digits`, so the printed decimals are the
correctly rounded value.  A rational constant, the only kind that can
sit exactly on a rounding boundary, is its own point enclosure.  The
start rung depends on the value alone, and an interval that meets the
stop rule at some digits meets it at fewer too, so an enclosure at more
digits stops on the same rung or a later one and nests inside one at
fewer.  The ladder bounds a list of values at once (`iv_enclosures`):
the builder returns one interval per value on each rung, and each value's
intervals are intersected across rungs and stop on their own, with the
stop rule decided on the integer bounds; each value comes back as those
bounds and its rung.  A single value is the list of one, wrapped in an
`Enclosure` (`iv_enclosure`).
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import ceil, floor, gcd, isqrt, lcm, log10
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

Rational = Union[int, Fraction]

_START_PREC = 64
_MAX_PREC = 1 << 22
# The most decimal places an enclosure can certify: 10^-MAX_DIGITS is the
# smallest power of ten not below 2^-_MAX_PREC, the finest interval the
# precision ladder reaches.
MAX_DIGITS = floor(_MAX_PREC * log10(2))
# Bits an exact constant's start rung carries beyond its largest term, so
# that about 15 decimal places certify in the first interval round.
_GUARD_BITS = 64
_LOG2_PI = 1.6514961294723187  # log2(pi); the start rung needs only an estimate


def _coeff_sign(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(3), for nonzero a and b."""
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # Mixed signs: compare a^2 with 3 b^2 on the side of the positive part.
    lead = 1 if a > 0 else -1
    diff = a * a - 3 * b * b
    if diff == 0:
        raise AssertionError("sqrt(3) is irrational; a^2 == 3 b^2 is impossible here")
    return lead if diff > 0 else -lead


def _lowest_terms(n: int, d: int) -> tuple[int, int]:
    """n/d as numerator and denominator in lowest terms, for d > 0; 0 is 0/1."""
    g = gcd(n, d)
    return n // g, d // g


def render_terms(terms: Iterable[tuple[int, int, int, int, int]]) -> str:
    """Text of a sum of terms (a/da + (b/db) sqrt3) pi^j, given as (j, a, da, b, db).

    The terms come in the canonical order, exponents 0, 1, 2, ... then
    -1, -2, ..., with no zero pair.  Each component is in lowest terms
    over its own positive denominator, a zero one as 0/1, so nothing here
    takes a gcd; no terms print '0'.  A numerator that repeats, as N/h does
    over the terms of a row of `limits.row_texts`, is converted to text once.
    """
    texts: dict[int, str] = {}

    def fraction(n: int, d: int) -> str:  # n/d for d > 0, in lowest terms
        text = texts.get(n)
        if text is None:
            text = texts[n] = str(n)
        return text if d == 1 else f"({text}/{d})"

    parts: list[str] = []
    for j, a, da, b, db in terms:
        if not b:
            sign = 1 if a > 0 else -1
            coeff = "" if da == 1 and abs(a) == 1 else fraction(abs(a), da)
        elif not a:
            sign = 1 if b > 0 else -1
            coeff = "sqrt3" if db == 1 and abs(b) == 1 else f"{fraction(abs(b), db)}*sqrt3"
        else:
            # Mixed pair: keep both components inside one parenthesis,
            # negated as a whole when the value is negative.
            sign = _coeff_sign(a * db, b * da)
            aa, bb = (a, b) if sign > 0 else (-a, -b)
            second = "sqrt3" if db == 1 and abs(bb) == 1 else \
                f"{fraction(abs(bb), db)}*sqrt3"
            joiner = " + " if bb > 0 else " - "
            coeff = f"({fraction(aa, da)}{joiner}{second})"
        pi_part = "" if j == 0 else "pi" if j == 1 else f"pi^{j}"
        term = f"{coeff}*{pi_part}" if coeff and pi_part else coeff or pi_part or "1"
        if not parts:
            parts.append(term if sign > 0 else f"-{term}")
        else:
            parts.append(("+ " if sign > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"


class ExactConst:
    """Element of Q(sqrt3)[pi, 1/pi]: sum over j of (a_j + b_j sqrt3) pi^j / D.

    Stored as {pi exponent j: (a_j, b_j)} with integer a_j, b_j over one
    integer D > 0.  No zero pair is stored and gcd(D, every a_j, b_j) = 1,
    so `==` on the representation is value equality.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[int, tuple[Rational, Rational]] | None = None):
        clean: dict[int, tuple[Fraction, Fraction]] = {}
        for j, (a, b) in (terms or {}).items():
            fa, fb = Fraction(a), Fraction(b)
            if fa or fb:
                clean[int(j)] = (fa, fb)
        # D is the lcm of the reduced denominators: the highest power of a
        # prime in D is some coefficient's own, and that coefficient's
        # numerator is free of the prime, so the form is canonical.
        den = lcm(*(q.denominator for pair in clean.values() for q in pair))
        self._num = {j: (a.numerator * (den // a.denominator),
                         b.numerator * (den // b.denominator)) for j, (a, b) in clean.items()}
        self._den = den

    @classmethod
    def rational(cls, value: Rational) -> "ExactConst":
        return cls({0: (value, 0)})

    @classmethod
    def zero(cls) -> "ExactConst":
        return cls()

    @classmethod
    def pi_power(cls, exponent: int, coeff: Rational = 1, sqrt3_coeff: Rational = 0) -> "ExactConst":
        return cls({exponent: (coeff, sqrt3_coeff)})

    @classmethod
    def sqrt3(cls, coeff: Rational = 1) -> "ExactConst":
        return cls({0: (0, coeff)})

    @property
    def terms(self) -> dict[int, tuple[Fraction, Fraction]]:
        den = self._den
        return {j: (Fraction(a, den), Fraction(b, den)) for j, (a, b) in self._num.items()}

    def is_sqrt3_free(self) -> bool:
        return all(b == 0 for _, b in self._num.values())

    def is_rational(self) -> bool:
        return self.is_sqrt3_free() and all(j == 0 for j in self._num)

    @classmethod
    def _canonical(cls, num: dict[int, tuple[int, int]], den: int) -> "ExactConst":
        """Wrap numerators and a denominator that are already canonical.

        The arithmetic below builds such forms itself, so its results skip
        the public constructor's conversions and checks.
        """
        value = object.__new__(cls)
        value._num = num
        value._den = den
        return value

    @classmethod
    def reduced(cls, num: dict[int, tuple[int, int]], den: int) -> "ExactConst":
        """Canonical form of numerators with no zero pair over den > 0.

        D goes first: once the running gcd is 1, `gcd` only checks the
        remaining arguments.
        """
        g = gcd(den, *chain.from_iterable(num.values()))
        if g > 1:
            num = {j: (a // g, b // g) for j, (a, b) in num.items()}
            den //= g
        return cls._canonical(num, den)

    def __add__(self, other: Union["ExactConst", Rational]) -> "ExactConst":
        other = _coerce(other)
        den = lcm(self._den, other._den)
        m1, m2 = den // self._den, den // other._den
        out = dict(self._num) if m1 == 1 else {
            j: (a * m1, b * m1) for j, (a, b) in self._num.items()}
        for j, (a, b) in other._num.items():
            if m2 != 1:
                a, b = a * m2, b * m2
            if j in out:
                ca, cb = out[j]
                a, b = ca + a, cb + b
                if not (a or b):
                    del out[j]
                    continue
            out[j] = (a, b)
        return ExactConst.reduced(out, den)

    __radd__ = __add__

    def __neg__(self) -> "ExactConst":
        return ExactConst._canonical({j: (-a, -b) for j, (a, b) in self._num.items()}, self._den)

    def __sub__(self, other: Union["ExactConst", Rational]) -> "ExactConst":
        return self + (-_coerce(other))

    def __rsub__(self, other: Rational) -> "ExactConst":
        return _coerce(other) + (-self)

    def __mul__(self, other: Union["ExactConst", Rational]) -> "ExactConst":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        other = _coerce(other)
        out: dict[int, tuple[int, int]] = {}
        for j1, (a1, b1) in self._num.items():
            for j2, (a2, b2) in other._num.items():
                # (a1 + b1 s)(a2 + b2 s) with s^2 = 3
                if b2:
                    a, b = (a1 * a2 + 3 * b1 * b2, a1 * b2 + b1 * a2) if b1 else (a1 * a2, a1 * b2)
                else:
                    a, b = a1 * a2, b1 * a2
                j = j1 + j2
                if j in out:
                    ca, cb = out[j]
                    a, b = ca + a, cb + b
                out[j] = (a, b)
        return ExactConst.reduced({j: pair for j, pair in out.items() if pair[0] or pair[1]},
                                  self._den * other._den)

    __rmul__ = __mul__

    def _scaled(self, p: int, q: int) -> "ExactConst":
        """self * p/q for p/q in lowest terms with q > 0.

        With g = gcd(p, D) and h = gcd(q, every numerator), the numerators
        times p/g over (D/g)(q/h) are already canonical.
        """
        if not p:
            return ExactConst._canonical({}, 1)
        g = gcd(p, self._den)
        p, den = p // g, self._den // g
        h = gcd(q, *chain.from_iterable(self._num.values())) if q > 1 else 1
        if h > 1:
            num = {j: (a // h * p, b // h * p) for j, (a, b) in self._num.items()}
        else:
            num = {j: (a * p, b * p) for j, (a, b) in self._num.items()}
        return ExactConst._canonical(num, den * (q // h))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactConst.rational(other)
        if not isinstance(other, ExactConst):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # Purely rational values compare equal to plain numbers, so they
        # must hash like them.
        if not self._num:
            return hash(0)
        if self.is_rational():
            return hash(Fraction(self._num[0][0], self._den))
        return hash(frozenset(self.terms.items()))

    def _ordered_terms(self) -> list[tuple[int, tuple[int, int]]]:
        """Canonical term order: exponents 0,1,2,... then -1,-2,..."""
        nonneg = sorted(j for j in self._num if j >= 0)
        neg = sorted((j for j in self._num if j < 0), reverse=True)
        return [(j, self._num[j]) for j in nonneg + neg]

    def render(self) -> str:
        """Canonical text form, e.g. '1 - 2*pi^-1' or '(5/6)*sqrt3*pi^-1'."""
        den = self._den
        return render_terms((j, *_lowest_terms(a, den), *_lowest_terms(b, den))
                            for j, (a, b) in self._ordered_terms())

    def __repr__(self) -> str:
        return f"ExactConst({self.render()})"

    def _iv_value(self, ctx: "FixedPoint") -> tuple[int, int]:
        """Bounds on the value times 2^prec, as (A(pi) + sqrt3 B(pi)) pi^low / D.

        A and B have the stored numerators as coefficients, so each is one
        Horner pass in pi.
        """
        low = min(self._num)
        denom = self._den
        a_coeffs = [0] * (max(self._num) - low + 1)
        b_coeffs = list(a_coeffs)
        for j, (a, b) in self._num.items():
            a_coeffs[j - low] = a
            b_coeffs[j - low] = b
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

        With la > log2|a/D| and lb > log2|b/D|, a term (a + b sqrt3) pi^j / D
        is below 2^(max(la, lb + 1) + 1 + 1.66 j); the rung carries that
        many bits plus `_GUARD_BITS`.  Only the value decides the rung,
        never the digits asked for.  The rung sets the cost, not the
        soundness: a rung too low only costs another round.
        """
        den = self._den
        top = max(
            max(_log2_bound(a, den), _log2_bound(b, den) + 1) + 1 + ceil(j * _LOG2_PI)
            for j, (a, b) in self._num.items()
        )
        return start_rung(top)

    def enclosure(self, digits: int) -> "Enclosure":
        """Interval with rational endpoints of width <= 10^-digits.

        A rational value is its own point enclosure; any other value in
        this ring is irrational, so its enclosure's decimals are the
        correctly rounded ones.
        """
        _check_digits(digits)
        if self.is_rational():
            q = Fraction(self._num[0][0], self._den) if self._num else Fraction(0)
            return Enclosure(q, q, digits)
        return iv_enclosure(self._iv_value, digits, self._start_prec())

    def sign(self) -> int:
        """Exact sign, decided on the precision ladder.

        A nonzero form has a nonzero value, so the ladder decides it long
        before its top rung; if it does not, that is an error.
        """
        if not self._num:
            return 0
        sign = iv_sign(self._iv_value, self._start_prec())
        if not sign:
            raise RuntimeError(f"interval evaluation did not decide the sign of {self.render()}")
        return sign


def _coerce(value: Union[ExactConst, Rational]) -> ExactConst:
    if isinstance(value, ExactConst):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactConst.rational(value)
    raise TypeError(f"cannot use {type(value).__name__} with ExactConst")


# ---------------------------------------------------------------------------
# Enclosures


def _round_half_up(n: int, d: int, places: int) -> int:
    """n/d 10^places rounded to an integer, halves away from zero, for d > 0."""
    q = (2 * abs(n) * 10**places + d) // (2 * d)
    return q if n >= 0 else -q


def decimal_string(lo: int, hi: int, den: int, places: int) -> str:
    """[lo/den, hi/den] for den > 0 as its midpoint rounded half up to `places`
    decimals; a single value n/d is decimal_string(n, n, d, places).  An
    interval wider than 10^-places has no such decimal: ValueError."""
    if (hi - lo) * 10**places > den:
        raise ValueError(f"interval wider than 10^-{places}")
    scaled = _round_half_up(lo + hi, 2 * den, places)
    sign = "-" if scaled < 0 else ""
    # Decimal converts without the interpreter's cap on int -> str digits.
    digits = str(Decimal(abs(scaled))).rjust(places + 1, "0")
    return sign + digits if places == 0 else f"{sign}{digits[:-places]}.{digits[-places:]}"


class _EnclosureFields(NamedTuple):
    lo: Fraction
    hi: Fraction
    digits: int


class Enclosure(_EnclosureFields):
    """[lo, hi] with exact rational endpoints certified to contain a value."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction, digits: int) -> "Enclosure":
        if lo > hi:
            raise ValueError("enclosure endpoints out of order")
        return super().__new__(cls, lo, hi, digits)

    @classmethod
    def _make(cls, iterable) -> "Enclosure":  # so that _replace checks the order too
        return cls(*iterable)

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

    def decimal(self, places: int | None = None) -> str:
        """The midpoint to `places` decimals (default `digits`); ValueError
        when the enclosure is wider than 10^-places."""
        lo, hi = self.lo, self.hi
        return decimal_string(lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                              lo.denominator * hi.denominator,
                              self.digits if places is None else places)


def _log2_bound(n: int, d: int) -> int:
    """An integer above log2|n/d|, for d > 0.

    |n| < 2^n.bit_length() and d >= 2^(d.bit_length() - 1), so n/d need
    not be in lowest terms.
    """
    return n.bit_length() - d.bit_length() + 1


# ---------------------------------------------------------------------------
# Fixed-point interval kernel


class FixedPoint:
    """One interval round: a real x is held as integers lo <= x 2^prec <= hi.

    A builder passed to `iv_enclosure` or `iv_sign` gets one and returns
    its value's bounds as such a pair.
    """

    __slots__ = ("prec",)

    def __init__(self, prec: int):
        self.prec = prec

    def pi(self) -> tuple[int, int]:
        return _pi_bounds(self.prec)

    def sqrt(self, n: int) -> tuple[int, int]:
        """Bounds on sqrt(n) 2^prec for an integer n >= 0."""
        scaled = n << (2 * self.prec)
        root = isqrt(scaled)
        return root, root + (root * root != scaled)


def _horner(coeffs: list[int], pi: tuple[int, int], prec: int) -> tuple[int, int]:
    """Bounds on coeffs[0] + coeffs[1] pi + coeffs[2] pi^2 + ..., times 2^prec.

    As pi > 0, a step's lower bound is the old one times pi's lower bound
    when it is nonnegative and times the upper bound otherwise, and the
    other way round for the upper bound; the shifts round down and up.
    """
    pl, ph = pi
    lo = hi = 0
    for c in reversed(coeffs):
        c <<= prec
        lo = (lo * (pl if lo >= 0 else ph) >> prec) + c
        hi = c - (-hi * (ph if hi >= 0 else pl) >> prec)
    return lo, hi


def _scale(lo: int, hi: int, num: tuple[int, int], den: tuple[int, int]) -> tuple[int, int]:
    """Bounds on x * n / d for x in [lo, hi], n in num and d in den, all n, d > 0."""
    lo = lo * (num[0] if lo >= 0 else num[1]) // (den[1] if lo >= 0 else den[0])
    hi = -(-hi * (num[1] if hi >= 0 else num[0]) // (den[0] if hi >= 0 else den[1]))
    return lo, hi


# pi = C^(3/2) / (12 S), S = sum_k (-1)^k (6k)! (A + B k) / ((3k)! k!^3 C^(3k)).
_CHUD_A, _CHUD_B, _CHUD_C = 13591409, 545140134, 640320
_CHUD_C3_24 = _CHUD_C**3 // 24


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    """Binary splitting of the Chudnovsky terms k = a+1 .. b.

    Term k is term k-1 times -g_k/p_k, with g_k = (6k-5)(2k-1)(6k-1) and
    p_k = k^3 C^3/24.  Returns (G, P, T): the products of g_k and of p_k,
    and T with T/P = sum over the range of (A + B k) times the product of
    -g_j/p_j for j = a+1 .. k.
    """
    if b - a == 1:
        g = (6 * b - 5) * (2 * b - 1) * (6 * b - 1)
        t = g * (_CHUD_A + _CHUD_B * b)
        return g, b**3 * _CHUD_C3_24, -t if b & 1 else t
    mid = (a + b) // 2
    g1, p1, t1 = _chudnovsky_split(a, mid)
    g2, p2, t2 = _chudnovsky_split(mid, b)
    return g1 * g2, p1 * p2, t1 * p2 + g1 * t2


@lru_cache(maxsize=None)
def _pi_bounds(prec: int) -> tuple[int, int]:
    """Integers lo <= pi 2^prec <= hi.

    With terms k < N summed to S_N, |S - S_N| < 2^(25 - 45N) < 2^-(prec+1),
    and S_N > 2^23, so S_N is within a factor 1 +- 2^-(prec+24) of S;
    isqrt gives sqrt(C) 2^prec within 2^-(prec+9) of it relatively.  So
    v = C isqrt(C 4^prec) / (12 S_N) is within 2^(prec+2) 2^-(prec+8) < 1
    of pi 2^prec, and [v - 1, v + 2] holds it after the floor.
    """
    n = (prec + 25) // 45 + 1
    _, p, t = _chudnovsky_split(0, n - 1) if n > 1 else (1, 1, 0)
    v = _CHUD_C * isqrt(_CHUD_C << (2 * prec)) * p // (12 * (_CHUD_A * p + t))
    return v - 1, v + 2


def _check_digits(digits: int) -> None:
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be between 1 and {MAX_DIGITS}")


def _rounds_alike(lo: int, hi: int, den: int, digits: int) -> bool:
    """Whether lo/den and hi/den round half-up alike at every number of places 1..digits.

    If they round alike, to n, at `digits` places, both lie in the cell
    of values that round to n, and the only coarser rounding boundary in
    that cell is its centre n/10^digits.  The centre is a boundary at p
    places exactly when n = (10m + 5) 10^(digits-p-1), so comparing the
    roundings at that one p settles every coarser place.
    """
    n = _round_half_up(lo, den, digits)
    if n != _round_half_up(hi, den, digits):
        return False
    zeros, head = 0, abs(n)
    while head and head % 10 == 0:
        zeros, head = zeros + 1, head // 10
    places = digits - 1 - zeros
    if head % 10 != 5 or places < 1:
        return True
    return _round_half_up(lo, den, places) == _round_half_up(hi, den, places)


def start_rung(bits: int) -> int:
    """Lowest rung of the precision ladder with `bits` bits plus `_GUARD_BITS`.

    A builder whose bounds are about 2^bits units of the last place wide
    starts here, so about 15 decimal places certify in its first round.
    """
    prec = _START_PREC
    while prec < bits + _GUARD_BITS:
        prec *= 2
    return prec


def _ladder(builder: Callable, start_prec: int) -> Iterator[tuple[int, object]]:
    """(prec, builder(FixedPoint(prec))) for prec doubling from `start_prec`
    through `_MAX_PREC`."""
    prec = start_prec
    while prec <= _MAX_PREC:
        yield prec, builder(FixedPoint(prec))
        prec *= 2


def iv_sign(builder: Callable, start_prec: int = _START_PREC) -> int:
    """Sign of the value `builder(FixedPoint(prec))` bounds: 1, -1, or 0 if undecided.

    The ladder stops at the first rung whose bounds exclude 0.  A value of
    0 is never decided, nor one too small for the top rung, so 0 means
    only that the ladder ran out.
    """
    for _, (lo, hi) in _ladder(builder, start_prec):
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    return 0


def iv_enclosures(builder: Callable, digits: int,
                  start_prec: int = _START_PREC) -> list[tuple[int, int, int]]:
    """Evaluate `builder(FixedPoint(prec))` to intervals of width <= 10^-digits.

    The builder returns one pair of integers (lo, hi) per value, with
    lo <= value 2^prec <= hi, in the same order at every rung.  Precision
    starts at `start_prec` and doubles until every interval is narrow
    enough and its endpoints round alike at every number of places up to
    `digits`, so `decimal_string(lo, hi, 2^prec, digits)` prints the
    correctly rounded value.  Each value's intervals are intersected
    across rungs, and each value stops, as (lo, hi, prec), on the first
    rung that meets the rule for it.  Every narrower interval also meets
    the rule at fewer places; as the ladder does not depend on `digits`,
    an interval requested at more digits is always nested inside one
    requested at fewer.  Bounds out of order raise ValueError.
    """
    _check_digits(digits)
    scale = 10**digits
    best: dict[int, tuple[int, int]] = {}  # the open values' intervals, at the last rung
    done: dict[int, tuple[int, int, int]] = {}
    last = start_prec
    for prec, bounds in _ladder(builder, start_prec):
        shift, last, unit = prec - last, prec, 1 << prec
        for j, (lo, hi) in enumerate(bounds):
            if j in done:
                continue
            if j in best:
                old_lo, old_hi = best[j]
                lo, hi = max(lo, old_lo << shift), min(hi, old_hi << shift)
            if lo > hi:
                raise ValueError("enclosure endpoints out of order")
            if (hi - lo) * scale <= unit and _rounds_alike(lo, hi, unit, digits):
                done[j] = lo, hi, prec
                continue
            best[j] = lo, hi
        if len(done) == len(bounds):
            return [done[j] for j in range(len(bounds))]
    raise RuntimeError(f"interval evaluation did not reach 10^-{digits}")


def iv_enclosure(builder: Callable, digits: int, start_prec: int = _START_PREC) -> Enclosure:
    """The `Enclosure` of the one value whose bounds `builder` returns."""
    ((lo, hi, prec),) = iv_enclosures(lambda ctx: [builder(ctx)], digits, start_prec)
    return Enclosure(Fraction(lo, 1 << prec), Fraction(hi, 1 << prec), digits)
