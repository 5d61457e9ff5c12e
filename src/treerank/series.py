"""Exact count sequences and truncated power series.

Every generating function in this package is exponential with integer
coefficients: y = sum_n Y_n z^n / n!.  A first-order linear equation
y' = m*y + p with y(0) = 0 is therefore solved on plain integers by the
n!-scaled recurrence

    Y_{n+1} = sum_{i <= n} C(n, i) M_i Y_{n-i} + P_n,

and the quadratic equations of the suffix rows below, the tree counts
among them, become recurrences of the same shape.  That integer kernel is
what every count sequence is computed with.

The tree counts are one row of the root-rank suffix rows S_k[i], the
number of trees on i labels whose root has rank k or more.  These follow
the increasing-tree specification (Bergeron, Flajolet and Salvy,
Varieties of increasing trees, 1992) restricted to roots of rank at least
k.  A root has rank >= k >= 1 exactly when it has a child and every child
has rank >= k-1, so with c = 1/2 for non-plane and c = 1 for plane trees

    S_k' = S_{k-1} + c S_{k-1}^2,    S_0 = T - 1.

The base equations T' = (1 + T^2)/2 (non-plane) and T' = 1 - T + T^2
(plane) make the right side of S_1' equal to T' - 1, so S_1 = T - 1 - z
counts every tree of two or more vertices: S_0[i] = S_1[i] = T_i for
i >= 2.  Growing row 1 therefore grows row 0, and `tree_counts` reads T
off row 0.  Reading rank k needs rows 0..k+1 only, so a rank request
costs O(k N^2) multiplications and the whole table O(N^3 / 24).

`EgfSeries` stores ordinary coefficients c_n = Y_n / n! as
`fractions.Fraction`s.  No count takes that path: the reference solvers
the integer kernel is tested against are written in it, and they live in
`tests/reference_solvers.py` with the tree-count series `base_series`.
The type stays here because the benchmark tracer (`perfbench/spans.py`)
looks it up in this module by name.  No floating point enters this
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


# Suffix rows S_0, S_1, ... per variety, row k holding S_k[0..len-1]; rows
# are extended in place under the lock, never rebuilt, and row k is never
# longer than row k-1.  An appended entry is final, so reads need no lock.
# Row 0 is T - 1, grown by row 1: S_0[i] = S_1[i] for i >= 2.
_SUFFIX_ROWS: dict[TreeVariety, list[list[int]]] = {v: [[0, 1], [0, 0]] for v in TreeVariety}
_ROWS_LOCK = threading.Lock()


def _suffix_rows(variety: TreeVariety, rank: int, size: int) -> list[list[int]]:
    """The variety's rows S_0..S_rank (rank >= 1), each extended through `size`.

    n!-scaled, S_k' = S_{k-1} + c S_{k-1}^2 reads
        S_k[i] = S_{k-1}[i-1] + c sum_j C(i-1, j) S_{k-1}[j] S_{k-1}[i-1-j],
    where only k <= j <= i-1-k contributes (a root of rank >= k-1 heads at
    least k vertices).  The square's terms pair up as j <-> i-1-j, so half
    of them are summed and taken 2c times, 2c being `child_orders`; c times
    the middle term j = (i-1)/2, if any, must be an integer.  Each entry of
    row 1 is also row 0's next entry, appended to row 0 first so that no
    row outgrows the one before.
    """
    rows = _SUFFIX_ROWS[variety]
    if len(rows) > rank and len(rows[rank]) > size:
        return rows
    with _ROWS_LOCK:
        while len(rows) <= rank:
            rows.append([0])
        orders = variety.child_orders
        for k in range(1, rank + 1):
            prev, row = rows[k - 1], rows[k]
            for i in range(len(row), size + 1):
                n = i - 1
                square = 0
                if 2 * k <= n:
                    # j in k..h-1 pairs with n-j in n-k..n-h+1
                    binom, h = _binomials(n), (n + 1) // 2
                    square = orders * sum(map(mul, map(mul, binom[k:h], prev[k:h]),
                                              prev[n - k:n - h:-1]))
                    if n % 2 == 0:
                        middle, odd = divmod(orders * binom[h] * prev[h] ** 2, 2)
                        if odd:
                            raise InvariantError(
                                f"ordered two-child count for S_{k}[{i}] is odd")
                        square += middle
                value = prev[n] + square
                if k == 1:
                    prev.append(value)
                row.append(value)
    return rows


@lru_cache(maxsize=None)
def tree_counts(variety: TreeVariety, order: int) -> tuple[int, ...]:
    """Trees of each size 0..order of the given variety (T_0 = 1), off row 0."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return (1,) + tuple(_suffix_rows(variety, 1, order)[0][1:order + 1])


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
