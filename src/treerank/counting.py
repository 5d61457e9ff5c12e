"""Exact counting beyond brute-force reach.

Two engines live here.  `root_ranks` reads the suffix rows S_k[i], the
number of trees on i labels whose root has rank k or more, so that
t[k][i] = S_k[i] - S_{k+1}[i] counts the trees whose root has rank
exactly k.  On top of it, first-order linear recurrences on exponential
generating functions produce, for every n at once, the totals of
vertices with a given rank, a given subtree size, or both.

The rows S_k' = S_{k-1} + c S_{k-1}^2 live in `series`, which reads the
tree counts off rows 0 and 1; every other module reads t through
`root_ranks`.

The decomposition behind every count recurrence is the same: mark a
vertex, delete the root.  Either the marked vertex survives in one of the
root's subtrees (that is the m*y convolution term) or the marked vertex's
whole subtree was the tree itself (that is a polynomial correction read
off the t table).  The two cases are disjoint, so no inclusion-exclusion
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

from fractions import Fraction
from operator import sub
from typing import NamedTuple

from .constants import decimal_string
from .series import DEFAULT_ORDER, _suffix_rows, solve_linear_counts, tree_counts
from .variety import TreeVariety


def root_ranks(variety: TreeVariety, k: int, size: int) -> list[int]:
    """t[k][1], ..., t[k][size]: the trees on i labels whose root has rank exactly k.

    S_k[i], the trees on i labels whose root has rank >= k, satisfies
    S_k' = S_{k-1} + c S_{k-1}^2 with S_0 = T - 1: a root has rank >= k
    >= 1 exactly when it has one child of rank >= k-1, or two children
    that both have rank >= k-1 (c = 1/2 for non-plane trees, whose two
    subtrees are unordered and always have different label sets; c = 1
    for plane trees).  So t[k][i] = S_k[i] - S_{k+1}[i], read off rows k
    and k+1 of `series`, and the t[k][i] sum over k by telescoping to
    S_0[i] = T_i.  The list is also the n!-scaled rank-k correction
    P_0..P_{size-1}, P_n = t[k][n+1]: the count series solve it at finite
    n and `limits` sums it against the weight moments for the rank-k
    bracket.
    """
    if k < 0:
        raise ValueError("rank must be nonnegative")
    if size < 0:
        raise ValueError("size must be nonnegative")
    if k >= size:  # rank k needs a leaf path of length k below the root
        return [0] * size
    rows = _suffix_rows(variety, k + 1, size)
    return list(map(sub, rows[k][1:size + 1], rows[k + 1][1:size + 1]))


class CountSequences(NamedTuple):
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


def rank_vertex_counts(variety: TreeVariety, k: int, order: int = DEFAULT_ORDER) -> CountSequences:
    """Totals of rank-k vertices over all trees of each size up to order."""
    return _count_sequence(variety, root_ranks(variety, k, order), order, f"rank k={k}")


def size_vertex_counts(variety: TreeVariety, r: int, order: int = DEFAULT_ORDER) -> CountSequences:
    """Totals of vertices whose subtree has exactly r vertices."""
    if r < 1:
        raise ValueError("subtree size must be at least 1")
    # A correction at degree r-1 >= order lies past the truncation.
    count_r = tree_counts(variety, r)[r] if r <= order else 0
    return _count_sequence(variety, _monomial(r - 1, count_r, order), order,
                           f"subtree size r={r}")


def joint_vertex_counts(
    variety: TreeVariety, k: int, i: int, order: int = DEFAULT_ORDER
) -> CountSequences:
    """Totals of vertices of rank k whose subtree has exactly i vertices."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    if i < 1:
        raise ValueError("subtree size must be at least 1")
    # A correction at degree i-1 >= order lies past the truncation.
    t_ki = root_ranks(variety, k, i)[-1] if i <= order else 0
    return _count_sequence(variety, _monomial(i - 1, t_ki, order), order,
                           f"rank k={k}, size i={i}")
