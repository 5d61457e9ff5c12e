"""Exact count sequences and truncated power series.

Every generating function in this package is exponential with integer
coefficients: y = sum_n Y_n z^n / n!.  A first-order linear equation
y' = m*y + p with y(0) = 0 is therefore solved on plain integers by the
n!-scaled recurrence

    Y_{n+1} = sum_{i <= n} C(n, i) M_i Y_{n-i} + P_n,

and the quadratic equations of the two base series become recurrences of
the same shape on the tree counts T_n.  That integer kernel is what every
count sequence is computed with.

`EgfSeries` stores ordinary coefficients c_n = Y_n / n! as
`fractions.Fraction`s.  It is the reference the integer kernel is tested
against, not a path any count takes.  No floating point enters this
module.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial
from operator import mul
from typing import Iterable, Sequence, Union

from .variety import TreeVariety

Rational = Union[int, Fraction]

DEFAULT_ORDER = 80


class SeriesOrderError(ValueError):
    """Raised when an operation would silently mix truncation orders."""


class InvariantError(RuntimeError):
    """An internal consistency check failed, so a result would be wrong."""


class EgfSeries:
    """Truncated power series with exact rational coefficients.

    Binary operations demand equal truncation order; use `truncate` to
    align orders explicitly.  Instances are immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self._coeffs = cs

    @classmethod
    def zero(cls, order: int) -> "EgfSeries":
        return cls([Fraction(0)] * (order + 1))

    @classmethod
    def constant(cls, value: Rational, order: int) -> "EgfSeries":
        return cls([Fraction(value)] + [Fraction(0)] * order)

    @classmethod
    def monomial(cls, degree: int, order: int, coeff: Rational = 1) -> "EgfSeries":
        if degree > order:
            raise SeriesOrderError(f"monomial degree {degree} exceeds order {order}")
        cs = [Fraction(0)] * (order + 1)
        cs[degree] = Fraction(coeff)
        return cls(cs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self._coeffs[n]

    def counts(self) -> list[int]:
        """Return n! * c_n for every n, insisting each is a nonnegative integer."""
        out = []
        for n, c in enumerate(self._coeffs):
            t = c * factorial(n)
            if t.denominator != 1 or t < 0:
                raise ValueError(f"coefficient {n} is not a nonnegative count: {t}")
            out.append(int(t))
        return out

    def truncate(self, order: int) -> "EgfSeries":
        if order > self.order:
            raise SeriesOrderError(f"cannot extend order {self.order} to {order}")
        return EgfSeries(self._coeffs[: order + 1])

    def _check_order(self, other: "EgfSeries") -> None:
        if self.order != other.order:
            raise SeriesOrderError(
                f"order mismatch: {self.order} vs {other.order}; truncate explicitly"
            )

    def __add__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return EgfSeries(a + b for a, b in zip(self._coeffs, other._coeffs))

    def __sub__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return EgfSeries(a - b for a, b in zip(self._coeffs, other._coeffs))

    def __neg__(self) -> "EgfSeries":
        return EgfSeries(-a for a in self._coeffs)

    def __mul__(self, other: Union["EgfSeries", Rational]) -> "EgfSeries":
        if isinstance(other, (int, Fraction)):
            return EgfSeries(a * other for a in self._coeffs)
        self._check_order(other)
        a, b = self._coeffs, other._coeffs
        n = len(a)
        out = [Fraction(0)] * n
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n - i):
                if b[j]:
                    out[i + j] += ai * b[j]
        return EgfSeries(out)

    __rmul__ = __mul__

    def derivative(self) -> "EgfSeries":
        if self.order == 0:
            raise SeriesOrderError("cannot differentiate an order-0 series")
        return EgfSeries((n + 1) * c for n, c in enumerate(self._coeffs[1:]))

    def integral(self) -> "EgfSeries":
        """Antiderivative with constant term 0; the order grows by one."""
        out = [Fraction(0)]
        out.extend(c / (n + 1) for n, c in enumerate(self._coeffs))
        return EgfSeries(out)

    def is_zero(self) -> bool:
        return all(not c for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"EgfSeries([{head}{tail}], order={self.order})"


@lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[int, ...]:
    """C(n, j) for 0 <= j <= n // 2; the other half is the same row reversed.

    Built by C(n, j+1) = C(n, j) (n-j)/(j+1), where the division is exact.
    """
    return tuple(accumulate(range(n // 2), lambda c, j: c * (n - j) // (j + 1), initial=1))


# Tree counts T_0..T_N per variety; extended in place under the lock, never
# rebuilt.
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


@lru_cache(maxsize=None)
def tree_counts(variety: TreeVariety, order: int) -> tuple[int, ...]:
    """Trees of each size 0..order of the given variety (T_0 = 1)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return tuple(_extend_tree_counts(variety, order)[: order + 1])


@lru_cache(maxsize=None)
def base_series(variety: TreeVariety, order: int) -> EgfSeries:
    """Tree-count series of the given variety through the given order.

    The ordinary coefficients T_n / n! of `tree_counts`: the solution of
    y' = (1 + y^2)/2 for non-plane and y' = 1 - y + y^2 for plane trees,
    with y(0) = 1.
    """
    counts = tree_counts(variety, order)
    return EgfSeries(Fraction(c, factorial(n)) for n, c in enumerate(counts))


def solve_linear_counts(m: Sequence[int], p: Sequence[int], order: int) -> list[int]:
    """n!-scaled solution Y_0..Y_order of y' = m*y + p with y(0) = 0.

    m and p are n!-scaled too (M_n = n! [z^n] m) and must reach index
    order-1.  Y_{n+1} = sum_i C(n,i) M_i Y_{n-i} + P_n, in integers.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > 0 and (len(m) < order or len(p) < order):
        raise SeriesOrderError(
            f"m and p must reach index {order - 1}; got {len(m) - 1} and {len(p) - 1}"
        )
    ys = [0]
    for n in range(order):
        # Y_0 = 0, so i runs over 0..n-1, pairing M_i with Y_n..Y_1;
        # C(n, i) for i > n // 2 is C(n, n - i), read back along the half row.
        half = _binomials(n)
        weights = map(mul, half + half[n - len(half):0:-1], m)
        ys.append(sum(map(mul, weights, ys[:0:-1])) + p[n])
    return ys


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
