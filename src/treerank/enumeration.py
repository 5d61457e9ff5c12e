"""Exhaustive generation of labeled 1-2 trees and exact census statistics.

This module is the ground-truth oracle for everything else: it writes out
every tree of a given size, and its census tallies exact integer statistics
over every vertex of every tree of size n from the trees of sizes up to n-3.
Sizes are capped (default 10) because the counts grow factorially; the
refusal message quotes the exact count, or a lower bound when it is costly.

Internal representation: labels are data, not rebuilt structure.  A
tree on 1..n is (slot, children): slot is the tree's position among the
trees of its size, in generation order, and each child is a pair
(subtree, labels): the subtree is one of the shared canonical trees on
1..j, and the label tuple of length j says that its local label l stands
for labels[l-1].  Labels increase toward the root, so the root of a tree
on labels L is max(L) = L[-1].  Nothing is ever relabelled: ranks,
sizes and child counts do not depend on labels, and `enumerate_texts`
writes each tree from one text template per canonical subtree, filled
with the labels.  A non-plane tree keeps the child holding label 1
first, one representative per unordered pair of children.

The census of size n generates only the trees of sizes up to n-3, and
visits each of them once to read its root rank and one-child count off
its children's.  A tree of size m is a root over one child of size
m-1, or over two children of sizes j <= m-1-j whose label sets split the
m-1 labels below the root in C(m-1, j) ways, each counted in 2c orders
(`TreeVariety.child_orders`: 2 plane, 1 non-plane) and halved when
j = m-1-j, where the children trade places: the increasing-tree
specification of Bergeron, Flajolet and Salvy (1992).  Trees with the
same child subtrees differ only in that split.  So the trees of sizes
n-2, n-1 and n, by far the most numerous, are tallied instead of
generated: per (rank, one-child count) class of a one-child root's
child, and per pair of child classes of a two-child root, weighted by
the number of splits, each tallied layer feeding the next.  Every tree
of size s occurs equally often as a subtree of the trees of size n, as
swapping it at a vertex for another tree of size s on the same labels
is a bijection (the fringe-subtree view of Devroye and Janson,
Protected nodes and fringe subtrees in some random trees, 2014).  So
the occurrences flow down by size alone, from n to 1, and each kept tree
is walked once.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, count
from math import comb
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .constants import FixedPoint, iv_sign
from .series import DEFAULT_ORDER, InvariantError, tree_counts
from .variety import TreeVariety

DEFAULT_ENUM_LIMIT = 10

Node = tuple  # lazy: (slot in its size, tuple of (Node on 1..j, labels of length j))


class SizeLimitError(ValueError):
    """Requested size exceeds the configured exhaustive-enumeration cap.

    The message quotes the exact number of trees of size n when n is at
    most DEFAULT_ORDER.  Beyond it the exact count would cost a long
    recurrence and may have too many digits to print, so the message
    quotes the smaller count at size min(limit + 1, DEFAULT_ORDER) as a
    lower bound instead.
    """

    def __init__(self, variety: TreeVariety, n: int, limit: int):
        if n <= DEFAULT_ORDER:
            quoted = f"exactly {tree_counts(variety, n)[n]} of them"
        else:
            below = min(limit + 1, DEFAULT_ORDER)
            quoted = (f"more than {tree_counts(variety, below)[below]} of them, "
                      f"the count at size {below}")
        super().__init__(
            f"refusing to enumerate {variety} trees of size {n} (limit {limit}): "
            f"there are {quoted}"
        )


@lru_cache(maxsize=None)
def _canonical_trees(variety: TreeVariety, size: int) -> tuple[Node, ...]:
    """All trees on labels 1..size in the lazy form, materialized once per size."""
    return tuple(_generate(variety, size))


def _generate(variety: TreeVariety, n: int) -> Iterator[Node]:
    """Stream every tree on labels 1..n in the lazy form, in slot order."""
    below = _canonical_trees(variety, n - 1) if n > 1 else ()
    return zip(count(), _top_layer(variety, n, below))


def _top_layer(variety: TreeVariety, n: int, below: Iterable[Node]) -> Iterator[tuple]:
    """The children of every tree on labels 1..n, in slot order.

    The one-child trees come first, one per tree of size n - 1 in `below`,
    in its order, then the two-child trees in the order of `_child_pairs`.
    `_generate` passes the cached trees of size n - 1; `enumerate_texts`
    streams them from `_generate`, so that none of them is kept.
    """
    if n == 1:
        return iter([()])  # the lone leaf
    rest = tuple(range(1, n))
    return chain((((sub, rest),) for sub in below), _child_pairs(variety, n))


def _child_pairs(variety: TreeVariety, n: int) -> Iterator[tuple]:
    """The children of every two-child tree on labels 1..n, in slot order.

    The first child takes each nonempty proper subset of the labels below the
    root, or with 2c = 1 each one holding label 1, and the second the rest.
    """
    m = n - 1
    rest = tuple(range(1, n))
    both_orders = variety.child_orders == 2
    subsets = ((j, a_set) for j in range(1, m) for a_set in combinations(rest, j)
               if both_orders or a_set[0] == 1)
    for j, a_set in subsets:
        chosen = set(a_set)
        b_set = tuple(x for x in rest if x not in chosen)
        # One (subtree, labels) pair per second child, shared by every first
        # child: the stored canonical trees hold each pair once.
        b_children = [(tb, b_set) for tb in _canonical_trees(variety, m - j)]
        for ta in _canonical_trees(variety, j):
            a_child = (ta, a_set)
            for b_child in b_children:
                yield (a_child, b_child)


def _check_size(variety: TreeVariety, n: int, limit: int) -> None:
    if n < 1:
        raise ValueError("tree size must be at least 1")
    if n > limit:
        raise SizeLimitError(variety, n, limit)


def enumerate_texts(
    variety: TreeVariety, n: int, limit: int = DEFAULT_ENUM_LIMIT
) -> Iterator[str]:
    """Every labeled 1-2 tree of the variety on 1..n, each exactly once, as text.

    A tree is written as its root label followed by each child's text in
    parentheses, in plane order: 4(3(1)(2)).  The text determines the
    tree, and the trees come in the slot order of `_generate`.

    No tree is materialized.  Each canonical subtree of size s < n - 1
    gets one format template, its text with "{l-1}" in place of local
    label l, and a child's text is its template filled with the child's
    labels.  The trees of size n - 1 are streamed from `_generate` and
    written out once, from their own children.
    """
    _check_size(variety, n, limit)
    templates: list[list[str]] = [[]]  # templates[s][slot]
    for s in range(1, n - 1):
        templates.append([
            f"{{{s - 1}}}" + "".join(
                "(" + templates[len(labels)][sub[0]].format(
                    *[f"{{{label - 1}}}" for label in labels]) + ")"
                for sub, labels in children
            )
            for _, children in _canonical_trees(variety, s)
        ])

    def texts(children: tuple) -> str:
        return "".join([
            "(" + templates[len(labels)][sub[0]].format(*labels) + ")"
            for sub, labels in children
        ])

    root, one_child = str(n), f"{n}({n - 1}"
    below = _generate(variety, n - 1) if n > 1 else ()
    for children in _top_layer(variety, n, below):
        if len(children) == 1:  # the child is on labels 1..n-1, as are its children
            yield one_child + texts(children[0][0][1]) + ")"
        else:
            yield root + texts(children)


class Census(NamedTuple):
    """Exact aggregates over all (vertex, tree) pairs at one size.

    rank_totals[k] counts vertices of rank k; size_totals[r] counts
    vertices whose subtree has exactly r vertices; joint_totals[(k, r)]
    requires both at once and is read-only, because the result is cached
    and shared.  root_rank_counts[k] counts whole trees by the
    rank of their root, and one_child_trees[s] counts whole trees with
    exactly s one-child vertices.  The sqrt-subtree-size data is
    size_totals itself, kept exact; the inequality suite decides the
    sqrt bound from it on the precision ladder.
    """

    variety: TreeVariety
    n: int
    tree_count: int
    rank_totals: tuple[int, ...]
    size_totals: tuple[int, ...]  # index r in 1..n; index 0 unused
    joint_totals: Mapping[tuple[int, int], int]
    root_rank_counts: tuple[int, ...]
    leaf_total: int
    one_child_total: int
    two_child_total: int
    one_child_trees: tuple[int, ...]  # index s in 0..n-1

    @property
    def vertex_pairs(self) -> int:
        return self.n * self.tree_count

    @property
    def mean_leaves(self) -> Fraction:
        return Fraction(self.leaf_total, self.tree_count)

    @property
    def mean_one_child(self) -> Fraction:
        return Fraction(self.one_child_total, self.tree_count)

    def size_tail_prob(self, threshold: int) -> Fraction:
        """Probability that a vertex's subtree exceeds the threshold size."""
        tail = sum(self.size_totals[r] for r in range(max(threshold, 0) + 1, self.n + 1))
        return Fraction(tail, self.vertex_pairs)

    def _validate(self) -> None:
        """Raise InvariantError unless the aggregates agree with each other."""
        n, pairs, trees = self.n, self.vertex_pairs, self.tree_count
        leaf, one, two = self.leaf_total, self.one_child_total, self.two_child_total
        hist = self.one_child_trees
        checks = {
            "rank totals sum to the vertex pairs": sum(self.rank_totals) == pairs,
            "size totals sum to the vertex pairs": sum(self.size_totals) == pairs,
            "rank-0 vertices are the leaves": self.rank_totals[0] == leaf,
            "size-1 subtrees are the leaves": self.size_totals[1] == leaf,
            "each tree has one more leaf than two-child vertices": leaf - two == trees,
            "each vertex has zero, one or two children": leaf + one + two == pairs,
            "root ranks count every tree": sum(self.root_rank_counts) == trees,
            "one-child histogram counts every tree": sum(hist) == trees,
            "one-child histogram sums to the one-child total":
                sum(s * c for s, c in enumerate(hist)) == one,
            "n-1-s is even for a tree with s one-child vertices":
                not any(c for s, c in enumerate(hist) if (n - 1 - s) % 2),
        }
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            raise InvariantError(f"{self.variety} census n={n}: " + "; ".join(failed))


def _root_stats(children: tuple, ranks: list[bytearray],
                ones: list[bytearray]) -> tuple[int, int]:
    """Root rank and one-child count of a tree, read from its children's rows.

    ranks[j][slot] and ones[j][slot] hold the canonical subtree of size j
    in that slot; a child's size is the length of its label tuple.
    """
    if not children:
        return 0, 0
    if len(children) == 1:
        ((sub, labels),) = children
        j, i = len(labels), sub[0]
        return ranks[j][i] + 1, ones[j][i] + 1
    (ta, la), (tb, lb) = children
    ja, ia, jb, ib = len(la), ta[0], len(lb), tb[0]
    ra, rb = ranks[ja][ia], ranks[jb][ib]
    return 1 + (ra if ra < rb else rb), ones[ja][ia] + ones[jb][ib]


def _split_weight(variety: TreeVariety, m: int, j: int) -> int:
    """Two-child trees per pair of child subtrees of sizes j <= m - j: C(m, j)
    label splits, each counted in 2c orders, and half as many when j = m - j,
    where the children trade places.  `_child_pairs` generates these trees.
    """
    return variety.child_orders * comb(m, j) >> (2 * j == m)


def census(variety: TreeVariety, n: int, limit: int = DEFAULT_ENUM_LIMIT) -> Census:
    """Exact per-vertex rank and subtree-size statistics over every tree of size n.

    Only the trees of sizes up to n-3 are generated and cached as
    canonical subtrees, each walked once to read its root rank and
    one-child count off its children's.  The trees of sizes n-2, n-1 and
    n are tallied per child class and per pair of child classes, weighted
    by the number of label splits.  Every tree of a size occurs equally
    often as a subtree, since swapping it for another of that size on the
    same labels is a bijection, so the occurrences flow down one list
    indexed by size, from n to 1, and no vertex is walked.
    `limit` only guards the size: the result is cached per (variety, n),
    which `cache_info` and `cache_clear` report and reset.
    """
    _check_size(variety, n, limit)
    return _census(variety, n)


@lru_cache(maxsize=None)
def _census(variety: TreeVariety, n: int) -> Census:
    # Sizes up to n - 3 are generated and walked: a fourth tallied layer
    # would save little, and shrink the brute-force part of the oracle.
    kept = max(n - 3, 0)
    # ranks[s][slot], ones[s][slot]: the canonical subtrees of each size s <= kept.
    ranks, ones = [bytearray()], [bytearray()]
    for s in range(1, kept + 1):
        rank_row, one_row = bytearray(), bytearray()
        for _, children in _canonical_trees(variety, s):
            rank, one = _root_stats(children, ranks, ones)
            rank_row.append(rank)
            one_row.append(one)
        ranks.append(rank_row)
        ones.append(one_row)

    # classes[s]: the trees of size s per (root rank, one-child count).
    classes = [Counter(zip(r, o)) for r, o in zip(ranks, ones)]
    for s in range(kept + 1, n + 1):
        # A root over two children of sizes j <= s-1-j stands for one tree
        # per label split: each pair of child classes is weighted by splits.
        if s == 1:  # the lone leaf
            classes.append(Counter({(0, 0): 1}))
            continue
        k = s - 1
        layer = Counter({(r + 1, o + 1): c for (r, o), c in classes[k].items()})
        for j in range(1, k // 2 + 1):
            w = _split_weight(variety, k, j)
            for (ra, oa), ca in classes[j].items():
                for (rb, ob), cb in classes[k - j].items():
                    layer[1 + (ra if ra < rb else rb), oa + ob] += w * ca * cb
        classes.append(layer)
    trees_of = [sum(c.values()) for c in classes]  # trees_of[s]: the trees of size s

    # Each tree of size s occurs occurrences[s] times as a subtree (module
    # docstring): the count reaches the (rank, size) and degree slots of
    # size s, and each root of size s passes it on to its children's sizes.
    joint = [[0] * (n + 1) for _ in range(n)]  # joint[rank][size]
    by_degree = [0, 0, 0]  # vertices with zero, one and two children
    occurrences = [0] * n + [1]
    for s in range(n, 0, -1):
        c = occurrences[s]
        for (rank, _), t in classes[s].items():
            joint[rank][s] += c * t
        if s == 1:
            by_degree[0] += c
            continue
        k = s - 1
        occurrences[k] += c
        for j in range(1, k // 2 + 1):  # at j = k - j both terms land on size j
            w = c * _split_weight(variety, k, j)
            occurrences[j] += w * trees_of[k - j]
            occurrences[k - j] += w * trees_of[j]
        by_degree[1] += c * trees_of[k]
        by_degree[2] += c * (trees_of[s] - trees_of[k])
    root_ranks = [0] * n
    one_child_trees = [0] * n
    for (rank, one), c in classes[n].items():
        root_ranks[rank] += c
        one_child_trees[one] += c

    cells = {(rank, size): c for rank, row in enumerate(joint) for size, c in enumerate(row) if c}
    for rank, size in cells:
        if (rank == 0) != (size == 1):
            raise InvariantError(f"rank {rank} for a subtree of size {size}")
    leaf, one, two = by_degree
    result = Census(
        variety=variety,
        n=n,
        tree_count=sum(root_ranks),
        rank_totals=tuple(map(sum, joint)),
        size_totals=tuple(map(sum, zip(*joint))),
        joint_totals=MappingProxyType(cells),
        root_rank_counts=tuple(root_ranks),
        leaf_total=leaf,
        one_child_total=one,
        two_child_total=two,
        one_child_trees=tuple(one_child_trees),
    )
    result._validate()
    return result


census.cache_info = _census.cache_info
census.cache_clear = _census.cache_clear


# ---------------------------------------------------------------------------
# Plane statistics from the non-plane census
#
# A non-plane tree with s one-child vertices has (n-1-s)/2 two-child
# vertices and corresponds to exactly 2^((n-1-s)/2) plane trees, so plane
# averages are weighted non-plane averages.  The weights come from
# Census.one_child_trees, so they cost no pass beyond the census itself.


def _onechild_weight_data(n: int, limit: int) -> tuple[Fraction, int]:
    hist = census(TreeVariety.NONPLANE, n, limit).one_child_trees
    weights = [c << ((n - 1 - s) // 2) for s, c in enumerate(hist)]
    den = sum(weights)
    return Fraction(sum(s * w for s, w in enumerate(weights)), den), den


def weighted_onechild_mean(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> Fraction:
    """Plane-variety mean one-child count computed from non-plane trees."""
    return _onechild_weight_data(n, limit)[0]


def plane_multiplicity_total(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> int:
    """Sum of the plane multiplicities 2^((n-1-s)/2); equals the plane count."""
    return _onechild_weight_data(n, limit)[1]


# ---------------------------------------------------------------------------
# Inequality checks


class InequalityCheck(NamedTuple):
    name: str
    holds: bool


class InequalityReport(NamedTuple):
    variety: TreeVariety
    n: int
    checks: tuple[InequalityCheck, ...] = ()

    def failures(self) -> list[InequalityCheck]:
        return [c for c in self.checks if not c.holds]


def _sqrt_margin(cen: Census, ctx: FixedPoint) -> tuple[int, int]:
    """Bounds on P (100 n - 90 sqrt(n)) - n sum_r c_r sqrt(r), times 2^prec.

    P is the vertex pairs and c_r >= 0 the size totals, so this is the
    margin of E(sqrt(Z_n)) <= 100 - 90/sqrt(n) multiplied by n P > 0.
    """
    n, prec = cen.n, ctx.prec
    root_lo, root_hi = ctx.sqrt(n)
    hundred = (100 * n) << prec
    lo = cen.vertex_pairs * (hundred - 90 * root_hi)
    hi = cen.vertex_pairs * (hundred - 90 * root_lo)
    for r in range(1, n + 1):
        weight = n * cen.size_totals[r]
        r_lo, r_hi = ctx.sqrt(r)
        lo -= weight * r_hi
        hi -= weight * r_lo
    return lo, hi


MARKOV_CONSTANT_CAP = 10
MARKOV_SCALE = 10000


def check_inequalities(
    variety: TreeVariety,
    n: int,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> InequalityReport:
    """Verify the probabilistic inequalities exactly at one size.

    Checks, all from full enumeration: expected leaves >= n/4, expected
    one-child vertices <= n/2, E(sqrt(Z_n)) <= 100 - 90/sqrt(n), the tail
    bound Pr(Z_n > 10000 C^2) <= 1/C for C up to 10, and for the
    non-plane variety the root-degree ratio p_n = count(n-1)/count(n)
    (<= 1/2 and decreasing from n >= 3) plus the cross-variety one-child
    mean comparison m_n <= M_n.  Every check is a rational comparison
    except the sqrt bound, which is the sign of one integer interval
    builder; none takes a number of digits.  Each check is a name and a
    verdict, in the order above, which `verify` lists the failures in.
    """
    cen = census(variety, n, limit)
    onechild = cen.mean_one_child
    verdicts = {
        "expected-leaves>=n/4": cen.mean_leaves >= Fraction(n, 4),
        "expected-one-child<=n/2": onechild <= Fraction(n, 2),
        # An undecided sign (0) fails the check as a negative one does.
        "sqrt-subtree-mean<=100-90/sqrt(n)": iv_sign(partial(_sqrt_margin, cen)) > 0,
    }
    for c in range(1, MARKOV_CONSTANT_CAP + 1):
        tail = cen.size_tail_prob(MARKOV_SCALE * c * c)
        verdicts[f"tail-Pr(Z>{MARKOV_SCALE}*{c}^2)<=1/{c}"] = tail <= Fraction(1, c)

    if variety is TreeVariety.NONPLANE:
        counts = tree_counts(TreeVariety.NONPLANE, max(n, 3))
        if n >= 3:
            p_n = Fraction(counts[n - 1], counts[n])
            verdicts["root-one-child-ratio"] = p_n <= Fraction(1, 2) and (
                n < 4 or p_n < Fraction(counts[n - 2], counts[n - 1]))
        verdicts["plane-mean-one-child<=nonplane"] = weighted_onechild_mean(n, limit) <= onechild

    return InequalityReport(variety, n, tuple(map(InequalityCheck._make, verdicts.items())))
