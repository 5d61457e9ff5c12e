"""Exact counting beyond brute-force reach.

Two engines live here.  A dynamic program tabulates t[k][i], the number
of trees on i labels whose root has rank exactly k; its row sums must
reproduce the tree counts, which pins the recurrence down completely.
On top of it, first-order linear recurrences on exponential generating
functions produce, for every n at once, the totals of vertices with a
given rank, a given subtree size, or both.

The decomposition behind every recurrence is the same: mark a vertex,
delete the root.  Either the marked vertex survives in one of the root's
subtrees (that is the m*y convolution term) or the marked vertex's whole
subtree was the tree itself (that is a polynomial correction read off
the t table).  The two cases are disjoint, so no inclusion-exclusion
adjustment is ever needed.

Everything runs on integers.  With counts Y_n = n! [z^n] y, the equation
y' = m*y + p is the recurrence Y_{n+1} = sum_i C(n,i) M_i Y_{n-i} + P_n
(`series.solve_linear_counts`), where M_n is the tree count T_n for
non-plane trees and 2 T_n - [n = 0] for plane trees, and the correction
P is read straight off the t table:

    rank k            P_n = t[k][n+1]
    subtree size r    P_{r-1} = T_r, all else 0
    rank k, size i    P_{i-1} = t[k][i], all else 0
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul
from typing import IO, Sequence

from .constants import decimal_string
from .series import EgfSeries, InvariantError, solve_linear_counts, tree_counts
from .variety import TreeVariety

DEFAULT_MAX_SIZE = 80


class RootRankTable:
    """t[k][i]: trees on i labels whose root has rank exactly k."""

    def __init__(self, variety: TreeVariety, entries: Sequence[Sequence[int]]):
        self.variety = variety
        self._t = tuple(tuple(row) for row in entries)

    @property
    def max_size(self) -> int:
        return len(self._t[0]) - 1

    def count(self, k: int, i: int) -> int:
        if k < 0:
            raise ValueError("rank must be nonnegative")
        if not 1 <= i <= self.max_size:
            raise ValueError(f"size {i} outside table range 1..{self.max_size}")
        if k >= len(self._t):
            return 0
        return self._t[k][i]

    def row_sum(self, i: int) -> int:
        return sum(self.count(k, i) for k in range(min(i, len(self._t))))

    def correction_series(self, k: int, order: int) -> EgfSeries:
        """The generating function sum_i t[k][i] z^i / i! through `order`."""
        if order > self.max_size:
            raise ValueError(f"order {order} exceeds table size {self.max_size}")
        coeffs = [Fraction(0)] * (order + 1)
        for i in range(1, order + 1):
            c = self.count(k, i)
            if c:
                coeffs[i] = Fraction(c, factorial(i))
        return EgfSeries(coeffs)

    def with_entry(self, k: int, i: int, value: int) -> "RootRankTable":
        """Copy with one entry replaced; exists for fault-injection tests."""
        rows = [list(row) for row in self._t]
        rows[k][i] = value
        return RootRankTable(self.variety, rows)

    def __repr__(self) -> str:
        return f"RootRankTable({self.variety}, max_size={self.max_size})"


@lru_cache(maxsize=None)
def root_rank_counts(variety: TreeVariety, max_size: int = DEFAULT_MAX_SIZE) -> RootRankTable:
    """Tabulate t[k][i] for 1 <= i <= max_size by root decomposition.

    A root of rank k has either one child whose subtree root has rank
    k-1, or two children whose subtree roots have minimum rank k-1.  The
    two-child sum runs over ordered label splits j + m = i-1 of the
    non-root labels (binomial factor C(i-1, j)).  An ordered pair has
    minimum rank k-1 when the first has rank k-1 and the second >= k-1,
    or the first >= k and the second k-1; swapping j and m folds the two
    into t[k-1][j] * (S[k-1][m] + S[k][m]) with suffix sums
    S[k][m] = sum_{r >= k} t[r][m].  A tree of rank k-1 or more has at
    least k vertices, so only k <= j <= i-1-k contributes.  Non-plane
    trees take half of the ordered sum, which is exact because sibling
    label sets always differ.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    plane = variety is TreeVariety.PLANE
    ranks = max_size  # rank k needs a leaf path of length k below the root
    t = [[0] * (max_size + 1) for _ in range(ranks)]
    t[0][1] = 1
    # both[k][m] = S[k-1][m] + S[k][m] for k >= 1
    both = [[0] * (max_size + 1) for _ in range(ranks + 1)]
    for i in range(1, max_size + 1):
        row = [comb(i - 1, j) for j in range(i)]
        for k in range(1, i):
            lo, hi = k, i - 1 - k  # j runs over lo..hi, m = i-1-j over hi..lo
            weights = map(mul, row[lo:hi + 1], t[k - 1][lo:hi + 1])
            pairs = sum(map(mul, weights, both[k][hi:lo - 1:-1]))
            if not plane:
                pairs, rem = divmod(pairs, 2)
                if rem:
                    raise InvariantError(f"ordered two-child count for t[{k}][{i}] is odd")
            t[k][i] = t[k - 1][i - 1] + pairs
        s = 0  # S[k][i], from the top rank down; no size-i tree has rank >= i
        for k in range(i, 0, -1):
            both[k][i] = t[k - 1][i] + 2 * s
            s += t[k - 1][i]
    table = RootRankTable(variety, t)
    counts = tree_counts(variety, max_size)
    for i in range(1, max_size + 1):
        if table.row_sum(i) != counts[i]:
            raise InvariantError(f"root-rank row {i} does not sum to the tree count")
    return table


@dataclass(frozen=True)
class CountSequences:
    """Per-size totals of marked vertices, with exact probabilities.

    probs normalize by n * tree_count(n) (one vertex among n per tree);
    prob_next normalizes by (n+1) * tree_count(n), which has the same
    limit and converges geometrically instead of like 1/n.  n = 0 has no
    vertices, so probabilities start at n = 1.
    """

    variety: TreeVariety
    selector: str
    counts: tuple[int, ...]
    tree_totals: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.counts) - 1

    def prob(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("probabilities are defined for n >= 1 only")
        return Fraction(self.counts[n], n * self.tree_totals[n])

    def prob_next(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("probabilities are defined for n >= 1 only")
        return Fraction(self.counts[n], (n + 1) * self.tree_totals[n])

    def csv_rows(self, digits: int = 12) -> list[list[str]]:
        rows = [["n", "count", "prob_numerator", "prob_denominator", "prob_decimal"]]
        for n in range(len(self.counts)):
            if n == 0:
                rows.append(["0", str(self.counts[0]), "", "", ""])
                continue
            p = self.prob(n)
            rows.append([str(n), str(self.counts[n]),
                         str(p.numerator), str(p.denominator),
                         decimal_string(p, digits)])
        return rows

    def write_csv(self, fh: IO[str], digits: int = 12) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(self.csv_rows(digits))


def _multiplier(variety: TreeVariety, order: int) -> list[int]:
    """n!-scaled m of y' = m*y + p through index order-1: T, or 2T - 1 for plane."""
    counts = tree_counts(variety, max(order - 1, 0))
    if variety is TreeVariety.NONPLANE:
        return list(counts)
    return [1] + [2 * c for c in counts[1:]]


def _count_sequence(variety: TreeVariety, correction: list[int], order: int,
                    selector: str) -> CountSequences:
    return CountSequences(
        variety=variety,
        selector=selector,
        counts=tuple(solve_linear_counts(_multiplier(variety, order), correction, order)),
        tree_totals=tree_counts(variety, order),
    )


def _monomial(degree: int, value: int, order: int) -> list[int]:
    """n!-scaled correction P_0..P_{order-1}, value at `degree`, 0 elsewhere."""
    correction = [0] * order
    if degree < order:
        correction[degree] = value
    return correction


def rank_vertex_counts(
    variety: TreeVariety,
    k: int,
    order: int = DEFAULT_MAX_SIZE,
    table: RootRankTable | None = None,
) -> CountSequences:
    """Totals of rank-k vertices over all trees of each size up to order."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    if table is None:
        table = root_rank_counts(variety, max(order, 1))
    if order > table.max_size:
        raise ValueError(f"order {order} exceeds table size {table.max_size}")
    correction = [table.count(k, i) for i in range(1, order + 1)]
    return _count_sequence(variety, correction, order, f"rank k={k}")


def size_vertex_counts(
    variety: TreeVariety, r: int, order: int = DEFAULT_MAX_SIZE
) -> CountSequences:
    """Totals of vertices whose subtree has exactly r vertices."""
    if r < 1:
        raise ValueError("subtree size must be at least 1")
    count_r = tree_counts(variety, r)[r]
    return _count_sequence(variety, _monomial(r - 1, count_r, order), order,
                           f"subtree size r={r}")


def joint_vertex_counts(
    variety: TreeVariety,
    k: int,
    i: int,
    order: int = DEFAULT_MAX_SIZE,
    table: RootRankTable | None = None,
) -> CountSequences:
    """Totals of vertices of rank k whose subtree has exactly i vertices."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    if i < 1:
        raise ValueError("subtree size must be at least 1")
    if table is None:
        table = root_rank_counts(variety, max(order, i, 1))
    t_ki = table.count(k, i) if i <= table.max_size else 0
    return _count_sequence(variety, _monomial(i - 1, t_ki, order), order,
                           f"rank k={k}, size i={i}")
