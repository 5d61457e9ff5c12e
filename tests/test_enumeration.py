"""Brute-force enumeration, censuses, and the probabilistic inequalities."""

import os
import subprocess
import sys
import textwrap
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from types import MappingProxyType
from typing import Iterator

import pytest

from treerank import cli, enumeration
from treerank.enumeration import (
    DEFAULT_ENUM_LIMIT,
    Census,
    SizeLimitError,
    census,
    check_inequalities,
    enumerate_texts,
    plane_multiplicity_total,
    weighted_onechild_mean,
)
from treerank.series import InvariantError, tree_counts
from treerank.variety import TreeVariety

NP = TreeVariety.NONPLANE
PL = TreeVariety.PLANE

SRC = Path(__file__).resolve().parent.parent / "src"

# ---------------------------------------------------------------------------
# Reference generator: the earlier relabelling implementation, kept verbatim
# (with its cache) as the slow path the label-free one is checked against.

Node = tuple  # (label, tuple of Node)


def _relabel(node: Node, labels: tuple[int, ...]) -> Node:
    lab, children = node
    return (labels[lab - 1], tuple(_relabel(c, labels) for c in children))


@lru_cache(maxsize=None)
def _canonical_trees(variety: TreeVariety, size: int) -> tuple[Node, ...]:
    """All trees on labels 1..size, materialized once per size."""
    return tuple(_generate(variety, tuple(range(1, size + 1))))


def _generate(variety: TreeVariety, labels: tuple[int, ...]) -> Iterator[Node]:
    """Stream every tree on the given sorted label tuple."""
    root = labels[-1]
    rest = labels[:-1]
    m = len(rest)
    if m == 0:
        yield (root, ())
        return
    identity = rest == tuple(range(1, m + 1))
    for sub in _canonical_trees(variety, m):
        yield (root, ((sub if identity else _relabel(sub, rest)),))
    if m < 2:
        return
    if variety is TreeVariety.PLANE:
        # Ordered sibling pairs: the first child takes any nonempty proper
        # label subset, the second takes the complement.
        for j in range(1, m):
            for a_set in combinations(rest, j):
                chosen = set(a_set)
                b_set = tuple(x for x in rest if x not in chosen)
                for ta in _canonical_trees(variety, j):
                    ra = _relabel(ta, a_set)
                    for tb in _canonical_trees(variety, m - j):
                        yield (root, (ra, _relabel(tb, b_set)))
    else:
        # Unordered pairs, one representative each: the subtree holding the
        # smallest remaining label is generated as the first child.
        head, pool = rest[0], rest[1:]
        for j in range(1, m):
            for a_tail in combinations(pool, j - 1):
                a_set = (head,) + a_tail
                chosen = set(a_set)
                b_set = tuple(x for x in rest if x not in chosen)
                for ta in _canonical_trees(variety, j):
                    ra = _relabel(ta, a_set)
                    for tb in _canonical_trees(variety, m - j):
                        yield (root, (ra, _relabel(tb, b_set)))


def reference_texts(variety: TreeVariety, n: int) -> list[str]:
    """The reference trees on 1..n in generation order, written `label(child)(child)`."""

    def text(node: Node) -> str:
        label, children = node
        return str(label) + "".join(f"({text(c)})" for c in children)

    return [text(tree) for tree in _generate(variety, tuple(range(1, n + 1)))]


def parse_text(text: str) -> Node:
    """The (label, children) tree that a text `label(child)(child)` writes."""

    def node(pos: int) -> tuple[Node, int]:
        end = pos
        while end < len(text) and text[end].isdigit():
            end += 1
        label, children = int(text[pos:end]), []
        while end < len(text) and text[end] == "(":
            child, end = node(end + 1)
            assert text[end] == ")", text
            children.append(child)
            end += 1
        return (label, tuple(children)), end

    tree, end = node(0)
    assert end == len(text), text
    return tree


def reference_census_fields(variety: TreeVariety, n: int) -> dict:
    """Every Census field, tallied by walking the reference trees."""
    rank_totals, size_totals, root_ranks = [0] * n, [0] * (n + 1), [0] * n
    one_child_trees, degrees, joint = [0] * n, [0, 0, 0], {}

    def walk(node):
        children = node[1]
        degrees[len(children)] += 1
        stats = [walk(c) for c in children]
        size = 1 + sum(s for s, _ in stats)
        rank = 1 + min(r for _, r in stats) if stats else 0
        rank_totals[rank] += 1
        size_totals[size] += 1
        joint[(rank, size)] = joint.get((rank, size), 0) + 1
        return size, rank

    trees = list(_generate(variety, tuple(range(1, n + 1))))
    for tree in trees:
        before = degrees[1]
        root_ranks[walk(tree)[1]] += 1
        one_child_trees[degrees[1] - before] += 1
    return dict(
        variety=variety, n=n, tree_count=len(trees),
        rank_totals=tuple(rank_totals), size_totals=tuple(size_totals),
        joint_totals=joint, root_rank_counts=tuple(root_ranks),
        leaf_total=degrees[0], one_child_total=degrees[1], two_child_total=degrees[2],
        one_child_trees=tuple(one_child_trees),
    )


# ---------------------------------------------------------------------------
# Reference census: the earlier per-vertex walk, kept verbatim but for its
# name, its cache and the module prefix on `_generate`, as the slow path
# the census is checked against.  It walks the current generator.


def walk_census(variety: TreeVariety, n: int, limit: int = DEFAULT_ENUM_LIMIT) -> Census:
    """Full enumeration pass with per-vertex rank and subtree-size stats."""
    if n < 1:
        raise ValueError("tree size must be at least 1")
    if n > limit:
        raise SizeLimitError(variety, n, limit)
    stride = n + 1
    rank_totals = [0] * n
    size_totals = [0] * stride
    joint = [0] * (n * stride)  # joint[rank * stride + size]
    root_ranks = [0] * n
    one_child_trees = [0] * n
    by_degree = [0, 0, 0]  # vertices with zero, one and two children
    count = 0

    def walk(node: Node) -> tuple[int, int]:
        children = node[1]
        if not children:
            by_degree[0] += 1
            size, rank = 1, 0
        elif len(children) == 1:
            by_degree[1] += 1
            size, rank = walk(children[0][0])
            size += 1
            rank += 1
        else:
            by_degree[2] += 1
            s1, r1 = walk(children[0][0])
            s2, r2 = walk(children[1][0])
            size, rank = s1 + s2 + 1, 1 + (r1 if r1 < r2 else r2)
        if (rank == 0) != (size == 1):
            raise InvariantError(f"rank {rank} for a subtree of size {size}")
        rank_totals[rank] += 1
        size_totals[size] += 1
        joint[rank * stride + size] += 1
        return size, rank

    for node in enumeration._generate(variety, n):
        count += 1
        before = by_degree[1]
        root_ranks[walk(node)[1]] += 1
        one_child_trees[by_degree[1] - before] += 1

    leaf, one, two = by_degree
    result = Census(
        variety=variety,
        n=n,
        tree_count=count,
        rank_totals=tuple(rank_totals),
        size_totals=tuple(size_totals),
        joint_totals=MappingProxyType({
            divmod(key, stride): v for key, v in enumerate(joint) if v
        }),
        root_rank_counts=tuple(root_ranks),
        leaf_total=leaf,
        one_child_total=one,
        two_child_total=two,
        one_child_trees=tuple(one_child_trees),
    )
    result._validate()
    return result


# ---------------------------------------------------------------------------
# Reference census: the earlier one-visit-per-tree pass, which generated
# every tree of size n, kept verbatim but for its name, its cache and the
# module prefix on the names it reads from `enumeration`, as the slow path
# the label-split tally is checked against.


def per_tree_census(variety: TreeVariety, n: int) -> Census:
    # ranks[s][slot], ones[s][slot]: the canonical subtrees of each size s < n.
    ranks, ones = [bytearray()], [bytearray()]
    for s in range(1, n):
        rank_row, one_row = bytearray(), bytearray()
        for _, children in enumeration._canonical_trees(variety, s):
            rank, one = enumeration._root_stats(children, ranks, ones)
            rank_row.append(rank)
            one_row.append(one)
        ranks.append(rank_row)
        ones.append(one_row)

    # One pass over the trees of size n: root statistics, and one
    # occurrence for each child subtree.
    occurrences = [[0] * len(row) for row in ranks]
    root_ranks = [0] * n
    one_child_trees = [0] * n
    by_degree = [0, 0, 0]  # vertices with zero, one and two children
    trees = 0
    for _, children in enumeration._generate(variety, n):
        trees += 1
        if len(children) == 2:  # nearly every tree, so `_root_stats` is inlined
            (ta, la), (tb, lb) = children
            ja, ia, jb, ib = len(la), ta[0], len(lb), tb[0]
            occurrences[ja][ia] += 1
            occurrences[jb][ib] += 1
            ra, rb = ranks[ja][ia], ranks[jb][ib]
            root_ranks[1 + (ra if ra < rb else rb)] += 1
            one_child_trees[ones[ja][ia] + ones[jb][ib]] += 1
            by_degree[2] += 1
        else:
            rank, one = enumeration._root_stats(children, ranks, ones)
            root_ranks[rank] += 1
            one_child_trees[one] += 1
            by_degree[len(children)] += 1
            for sub, labels in children:
                occurrences[len(labels)][sub[0]] += 1

    # Push the occurrences down, largest subtrees first: a subtree's
    # count reaches its (rank, size) and degree slots and its children.
    stride = n + 1
    joint = [0] * (n * stride)  # joint[rank * stride + size]
    for rank, c in enumerate(root_ranks):
        joint[rank * stride + n] += c
    for s in range(n - 1, 0, -1):
        rank_row, counts = ranks[s], occurrences[s]
        for (_, children), rank, c in zip(enumeration._canonical_trees(variety, s),
                                          rank_row, counts):
            joint[rank * stride + s] += c
            by_degree[len(children)] += c
            for sub, labels in children:
                occurrences[len(labels)][sub[0]] += c

    for key, c in enumerate(joint):
        rank, size = divmod(key, stride)
        if c and (rank == 0) != (size == 1):
            raise InvariantError(f"rank {rank} for a subtree of size {size}")
    leaf, one, two = by_degree
    result = Census(
        variety=variety,
        n=n,
        tree_count=trees,
        rank_totals=tuple(sum(joint[k * stride:(k + 1) * stride]) for k in range(n)),
        size_totals=tuple(sum(joint[r::stride]) for r in range(stride)),
        joint_totals=MappingProxyType({
            divmod(key, stride): c for key, c in enumerate(joint) if c
        }),
        root_rank_counts=tuple(root_ranks),
        leaf_total=leaf,
        one_child_total=one,
        two_child_total=two,
        one_child_trees=tuple(one_child_trees),
    )
    result._validate()
    return result


def _plant_a_leaf_among_size_3(monkeypatch) -> None:
    """Make the first canonical tree of size 3 a lone leaf."""
    original = enumeration._canonical_trees

    def planted(variety, size):
        trees = original(variety, size)
        return ((0, ()),) + trees[1:] if size == 3 else trees

    monkeypatch.setattr(enumeration, "_canonical_trees", planted)


def _assert_a_split_weight_fault_is_caught_at_8(capsys, monkeypatch, planted_at) -> None:
    """Make `_split_weight` one too large at (m, j) = planted_at; the census
    of size 8 and `verify --enum-limit 8` must both see it."""
    original = enumeration._split_weight

    def planted(variety, m, j):
        return original(variety, m, j) + ((m, j) == planted_at)

    monkeypatch.setattr(enumeration, "_split_weight", planted)
    census.cache_clear()
    try:
        for variety in (NP, PL):
            assert census(variety, 8) != per_tree_census(variety, 8)
        code = cli.main(["verify", "--enum-limit", "8", "--order", "10", "--r", "4"])
    finally:
        census.cache_clear()
    out = capsys.readouterr().out
    assert code == 1
    for variety in (NP, PL):
        assert f"FAIL  enumeration-count {variety} n=8: enumerated " in out


class TestEnumeration:
    def test_figure_counts(self):
        assert sum(1 for _ in enumerate_texts(NP, 4)) == 5
        assert sum(1 for _ in enumerate_texts(PL, 3)) == 3
        assert sum(1 for _ in enumerate_texts(PL, 5)) == 39

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_counts_match_series(self, variety):
        counts = tree_counts(variety, 8)
        for n in range(1, 9):
            assert sum(1 for _ in enumerate_texts(variety, n)) == counts[n]

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_no_duplicates(self, variety):
        for n in range(1, 8):
            trees = [parse_text(text) for text in enumerate_texts(variety, n)]
            assert len(set(trees)) == len(trees)

    def test_plane_sibling_order_distinct(self):
        texts = set(enumerate_texts(PL, 3))
        assert texts == {"3(2(1))", "3(1)(2)", "3(2)(1)"}

    def test_nonplane_canonical_child_order(self):
        texts = set(enumerate_texts(NP, 3))
        assert texts == {"3(2(1))", "3(1)(2)"}

    def test_structure_invariants(self):
        def vertices(node, parent):
            """(label, parent label, child count) per vertex; the root's parent is 0."""
            label, children = node
            yield label, parent, len(children)
            for child in children:
                yield from vertices(child, label)

        def smallest(node):
            return min([node[0]] + [smallest(c) for c in node[1]])

        def sibling_pairs(node):
            if len(node[1]) == 2:
                yield node[1]
            for child in node[1]:
                yield from sibling_pairs(child)

        for variety in (NP, PL):
            for text in enumerate_texts(variety, 6):
                tree = parse_text(text)
                assert tree[0] == 6
                found = sorted(vertices(tree, 0))
                assert [label for label, _, _ in found] == list(range(1, 7))
                assert found[-1][1] == 0
                for label, parent, degree in found:
                    assert label == 6 or parent > label
                    assert degree <= 2
                if variety is NP:  # the child holding the smallest label comes first
                    assert all(smallest(a) < smallest(b) for a, b in sibling_pairs(tree)), text

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_matches_the_relabelling_generator(self, variety):
        for n in range(1, 9):
            assert list(enumerate_texts(variety, n)) == reference_texts(variety, n)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_texts_match_the_materialized_trees(self, variety):
        def text(node, labels):
            """A lazy-form tree written with local label l read as labels[l - 1]."""
            _, children = node
            return str(labels[-1]) + "".join(
                "(" + text(sub, tuple(labels[l - 1] for l in sub_labels)) + ")"
                for sub, sub_labels in children
            )

        for n in range(1, 9):
            trees = enumeration._canonical_trees(variety, n)
            labels = tuple(range(1, n + 1))
            assert list(enumerate_texts(variety, n)) == [text(t, labels) for t in trees]

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_texts_keep_no_tree_of_size_n_minus_1(self, variety, monkeypatch):
        enumeration._canonical_trees.cache_clear()
        asked = []
        original = enumeration._canonical_trees

        def recording(v, size):
            asked.append(size)
            return original(v, size)

        monkeypatch.setattr(enumeration, "_canonical_trees", recording)
        for n in range(1, 9):
            assert sum(1 for _ in enumerate_texts(variety, n)) == tree_counts(variety, 8)[n]
            assert all(s <= n - 2 for s in asked), (n, sorted(set(asked)))
            assert original.cache_info().currsize == max(n - 2, 0)
            asked.clear()
            original.cache_clear()

    def test_texts_refuse_like_the_trees(self):
        with pytest.raises(SizeLimitError):
            next(enumerate_texts(PL, 11))
        with pytest.raises(ValueError):
            next(enumerate_texts(PL, 0))

    def test_size_limit_refusal_quotes_count(self):
        with pytest.raises(SizeLimitError) as err:
            list(enumerate_texts(NP, 11, limit=10))
        assert "50521" in str(err.value) or str(tree_counts(NP, 11)[11]) in str(err.value)
        assert "exactly" in str(err.value)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            list(enumerate_texts(NP, 0))


class TestCensus:
    def test_subtree_size_probabilities_n3(self):
        cen = census(NP, 3)
        probs = [Fraction(total, cen.vertex_pairs) for total in cen.size_totals[1:]]
        assert probs == [Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)]

    def test_rank_totals_n6(self):
        cen = census(NP, 6)
        assert cen.rank_totals[0] == 155
        assert cen.rank_totals[1] == 135
        plane = census(PL, 6)
        assert plane.rank_totals[0] == 513
        assert plane.rank_totals[1] == 435

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_internal_identities(self, variety):
        for n in range(1, 8):
            cen = census(variety, n)
            pairs = n * cen.tree_count
            assert sum(cen.rank_totals) == pairs
            assert sum(cen.size_totals) == pairs
            assert cen.rank_totals[0] == cen.leaf_total == cen.size_totals[1]
            assert cen.leaf_total - cen.two_child_total == cen.tree_count
            assert sum(cen.root_rank_counts) == cen.tree_count
            for k in range(n):
                assert sum(v for (kk, _), v in cen.joint_totals.items() if kk == k) \
                    == cen.rank_totals[k]
            for r in range(1, n + 1):
                assert sum(v for (_, rr), v in cen.joint_totals.items() if rr == r) \
                    == cen.size_totals[r]

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_one_child_histogram_matches_enumeration(self, variety):
        def one_child(node):
            children = node[1]
            return (len(children) == 1) + sum(one_child(c) for c in children)

        for n in range(1, 8):
            hist = [0] * n
            for text in enumerate_texts(variety, n):
                hist[one_child(parse_text(text))] += 1
            assert census(variety, n).one_child_trees == tuple(hist)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_matches_a_census_of_the_relabelling_generator(self, variety):
        for n in range(1, 9):
            cen = census(variety, n)
            fields = cen._asdict()
            fields["joint_totals"] = dict(fields["joint_totals"])
            assert fields == reference_census_fields(variety, n)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_equals_the_per_vertex_walk(self, variety):
        for n in range(1, 10):
            cen, ref = census(variety, n), walk_census(variety, n)
            assert cen == ref
            assert list(cen.joint_totals.items()) == list(ref.joint_totals.items())

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_equals_the_per_tree_census(self, variety):
        for n in range(1, 11):
            cen, ref = census(variety, n), per_tree_census(variety, n)
            assert cen == ref
            assert list(cen.joint_totals.items()) == list(ref.joint_totals.items())

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_split_weights_count_the_generated_label_splits(self, variety):
        for m in range(1, 9):
            first_sizes = Counter(len(children[0][1])
                                  for _, children in enumeration._generate(variety, m + 1)
                                  if len(children) == 2)
            counts = tree_counts(variety, m)
            assert first_sizes == Counter({
                j: enumeration._split_weight(variety, m, j) * counts[j] * counts[m - j]
                for j in range(1, m)
            })

    def test_all_censuses_to_10_within_budget_from_cold_caches(self):
        # About 0.009 s of CPU on a 2-core Xeon with Python 3.11; tallying
        # only sizes n - 1 and n took 0.03 s, streaming every tree of size
        # n - 1 0.14 s, and generating every tree of size n, as the per-tree
        # census did, 0.84 s.
        census.cache_clear()
        enumeration._canonical_trees.cache_clear()
        start = time.process_time()
        for variety in (NP, PL):
            for n in range(1, DEFAULT_ENUM_LIMIT + 1):
                census(variety, n)
        assert time.process_time() - start < 0.5

    def test_no_census_keeps_the_trees_of_size_n_minus_2(self, monkeypatch):
        census.cache_clear()
        enumeration._canonical_trees.cache_clear()
        asked, generated = [], []
        original, original_generate = enumeration._canonical_trees, enumeration._generate

        def recording(variety, size):
            asked.append(size)
            return original(variety, size)

        def recording_generate(variety, size):
            generated.append(size)
            return original_generate(variety, size)

        monkeypatch.setattr(enumeration, "_canonical_trees", recording)
        monkeypatch.setattr(enumeration, "_generate", recording_generate)
        for variety in (NP, PL):
            for n in range(1, DEFAULT_ENUM_LIMIT + 1):
                asked.clear()
                generated.clear()
                census(variety, n)
                assert all(s <= n - 3 for s in asked), (variety, n, sorted(set(asked)))
                assert all(s <= n - 3 for s in generated), (variety, n, sorted(set(generated)))

    def test_size_tail_prob_below_zero_is_one(self):
        cen = census(NP, 4)
        assert cen.size_tail_prob(0) == 1
        assert cen.size_tail_prob(1) == 1 - Fraction(cen.size_totals[1], cen.vertex_pairs)
        for threshold in (-1, -3, -100):
            assert cen.size_tail_prob(threshold) == 1
        assert cen.size_tail_prob(4) == 0

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_limit_is_not_part_of_the_cache_key(self, variety):
        census.cache_clear()
        first = census(variety, 6)
        assert census(variety, 6, 10) is first
        assert census(variety, 6, limit=10) is first
        assert census.cache_info().misses == 1
        with pytest.raises(SizeLimitError):
            census(variety, 11)
        with pytest.raises(SizeLimitError):
            census(variety, 6, limit=5)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_a_planted_leaf_among_larger_subtrees_is_caught(self, variety, monkeypatch):
        # Size 3 is kept by the census of size 6; those of sizes 4 and 5 tally it.
        _plant_a_leaf_among_size_3(monkeypatch)
        census.cache_clear()
        with pytest.raises(InvariantError, match=r"^rank 0 for a subtree of size 3$"):
            census(variety, 6)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_a_planted_leaf_in_the_streamed_layer_is_caught(self, variety, monkeypatch):
        # The census of size 7 tallies its trees of size 5 and never reads
        # the stream; that of size 8 keeps them, so it meets the leaf.
        census.cache_clear()
        enumeration._canonical_trees.cache_clear()
        expected = census(variety, 7)
        original = enumeration._generate

        def planted(v, n):
            if n == 5:
                yield (0, ())
            yield from original(v, n)

        monkeypatch.setattr(enumeration, "_generate", planted)
        census.cache_clear()
        enumeration._canonical_trees.cache_clear()
        try:
            assert census(variety, 7) == expected
            with pytest.raises(InvariantError, match=r"^rank 0 for a subtree of size 5$"):
                census(variety, 8)
        finally:
            census.cache_clear()
            enumeration._canonical_trees.cache_clear()

    def test_a_split_weight_off_by_one_in_the_tallied_layer_is_caught(self, capsys,
                                                                       monkeypatch):
        # The census of size 8 reads the weight at (6, 2) only where it
        # tallies its trees of size 7 from their children's classes.
        _assert_a_split_weight_fault_is_caught_at_8(capsys, monkeypatch, (6, 2))

    def test_a_split_weight_off_by_one_in_the_lowest_tallied_layer_is_caught(
            self, capsys, monkeypatch):
        # The census of size 8 reads the weight at (5, 2) only where it
        # tallies its trees of size 6, the lowest of its three tallied layers.
        _assert_a_split_weight_fault_is_caught_at_8(capsys, monkeypatch, (5, 2))

    def test_a_planted_leaf_is_caught_under_python_O(self):
        script = textwrap.dedent("""
            from treerank import enumeration
            from treerank.series import InvariantError
            from treerank.variety import TreeVariety

            original = enumeration._canonical_trees

            def planted(variety, size):
                trees = original(variety, size)
                return ((0, ()),) + trees[1:] if size == 3 else trees

            enumeration._canonical_trees = planted
            for variety in TreeVariety:
                try:
                    enumeration.census(variety, 6)
                except InvariantError as exc:
                    print("raised:", exc)
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["raised: rank 0 for a subtree of size 3"] * 2

    def test_joint_totals_are_read_only(self):
        cen = census(NP, 3)
        with pytest.raises(TypeError):
            cen.joint_totals[(0, 1)] = 99
        assert census(NP, 3).joint_totals[(0, 1)] == 3

    def test_validate_catches_a_parity_violation(self):
        cen = census(NP, 4)
        assert cen.one_child_trees == (0, 4, 0, 1)
        # Same tree count and one-child total, but s = 2 is impossible at n = 4.
        broken = cen._replace(one_child_trees=(0, 3, 2, 0))
        with pytest.raises(InvariantError, match="is even"):
            broken._validate()

    def test_mean_one_child_n3(self):
        assert census(NP, 3).mean_one_child == Fraction(1)


class TestPlaneWeights:
    def test_weighted_mean_matches_plane_census(self):
        for n in range(1, 8):
            assert weighted_onechild_mean(n) == census(PL, n).mean_one_child

    def test_single_vertex(self):
        assert weighted_onechild_mean(1) == 0

    def test_multiplicity_total_is_plane_count(self):
        counts = tree_counts(PL, 8)
        for n in range(1, 9):
            assert plane_multiplicity_total(n) == counts[n]


class TestInequalities:
    @pytest.mark.parametrize("variety", [NP, PL])
    def test_all_hold_small_sizes(self, variety):
        for n in range(1, 9):
            report = check_inequalities(variety, n)
            assert report.all_hold, [c.name for c in report.failures()]

    def test_undecided_sqrt_bound_fails_with_a_plain_detail(self, monkeypatch):
        monkeypatch.setattr(enumeration, "iv_sign", lambda builder: 0)
        report = check_inequalities(NP, 4)
        (failed,) = report.failures()
        assert failed == ("sqrt-subtree-mean<=100-90/sqrt(n)", False)

    def test_check_names_present(self):
        report = check_inequalities(NP, 5)
        names = {c.name for c in report.checks}
        assert "expected-leaves>=n/4" in names
        assert "expected-one-child<=n/2" in names
        assert "sqrt-subtree-mean<=100-90/sqrt(n)" in names
        assert "root-one-child-ratio" in names
        assert "plane-mean-one-child<=nonplane" in names
        assert any(name.startswith("tail-Pr") for name in names)

    def test_plane_versus_nonplane_mean_n4(self):
        m4 = weighted_onechild_mean(4)
        M4 = census(NP, 4).mean_one_child
        assert m4 <= M4

    def test_root_ratio_decreasing(self):
        counts = tree_counts(NP, 10)
        ratios = [Fraction(counts[n - 1], counts[n]) for n in range(3, 11)]
        assert ratios[0] == Fraction(1, 2)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
