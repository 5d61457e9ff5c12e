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
(`series.solve_linear_counts`), where M_0 = 1 and M_n = 2c T_n with 2c the
variety's `child_orders`, and the correction P is read off the t table:

    rank k            P_n = t[k][n+1]
    subtree size r    P_{r-1} = T_r, all else 0
    rank k, size i    P_{i-1} = t[k][i], all else 0

The last two are monomials and Y is linear in P, so size and joint
counts scale one unit solve per degree, the counts for P = 1 there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import NamedTuple

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
    vertices, so probabilities start at n = 1.  `cli` prints them as rows,
    under the label it writes for the selector flags.
    """

    variety: TreeVariety
    counts: tuple[int, ...]
    tree_totals: tuple[int, ...]

    def prob(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("probabilities are defined for n >= 1 only")
        return Fraction(self.counts[n], n * self.tree_totals[n])

    def prob_next(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("probabilities are defined for n >= 1 only")
        return Fraction(self.counts[n], (n + 1) * self.tree_totals[n])


def _multiplier(variety: TreeVariety, order: int) -> list[int]:
    """n!-scaled m = 1 + 2c (T - 1) of y' = m*y + p through index order-1.

    2c is the variety's `child_orders`: m is T non-plane, 2T - 1 plane.
    """
    orders = variety.child_orders
    return [1] + [orders * c for c in tree_counts(variety, max(order - 1, 0))[1:]]


def _count_sequence(variety: TreeVariety, counts: list[int], order: int) -> CountSequences:
    return CountSequences(variety, tuple(counts), tree_counts(variety, order))


@lru_cache(maxsize=None)
def _unit_counts(variety: TreeVariety, degree: int, order: int) -> tuple[int, ...]:
    """Counts for the n!-scaled correction 1 at `degree`, 0 elsewhere.

    A degree at or past `order` lies beyond the truncation: the counts are 0.
    """
    correction = [0] * order
    if degree < order:
        correction[degree] = 1
    return tuple(solve_linear_counts(_multiplier(variety, order), correction, order))


def rank_vertex_counts(variety: TreeVariety, k: int, order: int = DEFAULT_ORDER) -> CountSequences:
    """Totals of rank-k vertices over all trees of each size up to order."""
    counts = solve_linear_counts(_multiplier(variety, order), root_ranks(variety, k, order), order)
    return _count_sequence(variety, counts, order)


def size_vertex_counts(variety: TreeVariety, r: int, order: int = DEFAULT_ORDER) -> CountSequences:
    """Totals of vertices whose subtree has exactly r vertices."""
    if r < 1:
        raise ValueError("subtree size must be at least 1")
    # A correction at degree r-1 >= order lies past the truncation.
    count_r = tree_counts(variety, r)[r] if r <= order else 0
    return _count_sequence(variety, [count_r * y for y in _unit_counts(variety, r - 1, order)],
                           order)


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
    return _count_sequence(variety, [t_ki * y for y in _unit_counts(variety, i - 1, order)],
                           order)
