"""Root-rank suffix rows and the recurrence-driven count sequences."""

import os
import subprocess
import sys
import textwrap
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from pathlib import Path

import pytest

import treerank.counting as counting
import treerank.series as series
from treerank import cli
from treerank.counting import (
    joint_vertex_counts,
    rank_vertex_counts,
    root_ranks,
    size_vertex_counts,
)
from treerank.enumeration import census
from treerank.series import EgfSeries, InvariantError, solve_linear_counts, tree_counts
from treerank.variety import TreeVariety

from reference_solvers import base_series, correction_series
from test_series import fraction_tree_counts

reference_tree_counts = lru_cache(maxsize=None)(fraction_tree_counts)

NP = TreeVariety.NONPLANE
PL = TreeVariety.PLANE

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_root_rank_table(variety, max_size):
    """The first root-rank dynamic program, kept verbatim as a reference:
    every ordered split j in 1..i-2, both ordered rank cases, comb inline."""
    plane = variety is TreeVariety.PLANE
    ranks = max_size  # rank k needs a leaf path of length k below the root
    t = [[0] * (max_size + 1) for _ in range(ranks)]
    t[0][1] = 1
    # suffix[k][i] = sum over r >= k of t[r][i]
    suffix = [[0] * (max_size + 1) for _ in range(ranks + 1)]
    suffix[0][1] = 1
    for i in range(2, max_size + 1):
        for k in range(1, i):
            total = t[k - 1][i - 1]
            pairs = 0
            for j in range(1, i - 1):
                m = i - 1 - j
                # ordered (first, second) with min rank k-1:
                # first has rank k-1 and second >= k-1, or first >= k and second k-1
                ways = t[k - 1][j] * suffix[k - 1][m] + suffix[k][j] * t[k - 1][m]
                pairs += comb(i - 1, j) * ways
            if plane:
                total += pairs
            else:
                half, rem = divmod(pairs, 2)
                assert rem == 0, "ordered two-child count must be even"
                total += half
            t[k][i] = total
        acc = 0
        for k in range(ranks - 1, -1, -1):
            acc += t[k][i]
            suffix[k][i] = acc
        suffix[ranks][i] = 0
    return t


@lru_cache(maxsize=None)
def band_root_rank_table(variety, max_size):
    """The size-major band dynamic program that the suffix rows replaced,
    kept verbatim as a reference except that it returns the bare rows
    t[k][i], k < max_size, instead of a table around them.

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
    counts = tree_counts(variety, max_size)
    for i in range(1, max_size + 1):
        if sum(t[k][i] for k in range(i)) != counts[i]:
            raise InvariantError(f"root-rank row {i} does not sum to the tree count")
    return t


def start_cold(monkeypatch):
    """The initial suffix rows and no cached tree counts, as a new process starts with."""
    monkeypatch.setattr(series, "_SUFFIX_ROWS", {v: [[0, 1], [0, 0]] for v in TreeVariety})
    tree_counts.cache_clear()


@pytest.fixture
def fresh_rows(monkeypatch):
    start_cold(monkeypatch)


def column(variety, i):
    """t[0][i], ..., t[i-1][i]: the trees on i labels by root rank."""
    return [root_ranks(variety, k, i)[-1] for k in range(i)]


def assert_matches_band_table(variety, order):
    reference = band_root_rank_table(variety, 150)
    for k in range(order):
        assert root_ranks(variety, k, order) == reference[k][1:order + 1], (variety, order, k)
    assert root_ranks(variety, order, order) == [0] * order
    for i in range(1, order + 1):
        assert column(variety, i) == [reference[k][i] for k in range(i)], (variety, order, i)


class TestRootRankTable:
    def test_small_nonplane_entries(self):
        assert root_ranks(NP, 0, 4) == [1, 0, 0, 0]
        assert root_ranks(NP, 1, 4) == [0, 1, 1, 3]
        assert root_ranks(NP, 5, 4) == [0, 0, 0, 0]  # rank needs a leaf path below the root

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_row_sums_are_tree_counts(self, variety):
        counts = tree_counts(variety, 14)
        for i in range(1, 15):
            assert sum(column(variety, i)) == counts[i]

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_matches_census_root_ranks(self, variety):
        rows = [root_ranks(variety, k, 8) for k in range(8)]
        for n in range(1, 8):
            cen = census(variety, n)
            for k in range(n):
                assert rows[k][n - 1] == cen.root_rank_counts[k]

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_a_root_has_rank_one_exactly_when_it_has_a_leaf_child(self, variety):
        # From n = 4 on, a rank-1 root has two children and just one of them
        # is a leaf: n - 1 labels for the leaf, T_(n-2) trees for the other
        # child, in either of the variety's child orders.
        counts = tree_counts(variety, 200)
        rank_one = root_ranks(variety, 1, 200)
        for n in range(4, 201):
            assert rank_one[n - 1] == variety.child_orders * (n - 1) * counts[n - 2], n

    def test_rank_one_correction_closed_form(self):
        # d/dz sum_i t[1][i] z^i/i!  must equal  z E(z) - z^2/2.
        order = 20
        got = correction_series(NP, 1, order).derivative()
        e = base_series(NP, order)
        z_e = EgfSeries([Fraction(0)] + list(e.coeffs[:-1]))
        expected = (z_e - EgfSeries.monomial(2, order, Fraction(1, 2))).truncate(order - 1)
        assert got == expected

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_matches_reference_dynamic_program(self, variety):
        # every rank 0..size+1, so also the ranks k >= size that no tree reaches
        for size in (1, 2, 3, 40):
            reference = reference_root_rank_table(variety, size)
            for k in range(size + 2):
                expected = reference[k][1:] if k < len(reference) else [0] * size
                assert root_ranks(variety, k, size) == expected, (size, k)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_matches_band_dynamic_program_through_150(self, variety, fresh_rows):
        assert_matches_band_table(variety, 150)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_rows_extend_in_place_across_sizes(self, variety, fresh_rows):
        # a prefix read after a longer one, then an extension past both
        for order in (100, 12, 150):
            assert_matches_band_table(variety, order)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_rank_reads_build_only_their_rows(self, variety, fresh_rows):
        reference = band_root_rank_table(variety, 150)
        counts = reference_tree_counts(variety, 150)
        m = counts if variety is NP else [1] + [2 * c for c in counts[1:]]
        for k in range(5):
            correction = reference[k][1:]
            assert root_ranks(variety, k, 150) == correction
            got = rank_vertex_counts(variety, k, 150)
            assert list(got.counts) == solve_linear_counts(m, correction, 150)
            # t[k][i] = S_k[i] - S_{k+1}[i]: rows 0..k+1 and no more
            assert len(series._SUFFIX_ROWS[variety]) == k + 2
        # a rank past the size reads as zeros and builds no row at all
        rows = [list(row) for row in series._SUFFIX_ROWS[variety]]
        assert root_ranks(variety, 1500, 5) == [0] * 5
        assert list(rank_vertex_counts(variety, 1500, 5).counts) == [0] * 6
        assert series._SUFFIX_ROWS[variety] == rows

    def test_concurrent_readers_extend_rows_once(self, fresh_rows):
        # Readers that start together and grow the rows in different orders,
        # switching threads as often as the interpreter allows, must each see
        # every entry exactly, and leave rows that later reads can extend.
        order = 60
        reference = band_root_rank_table(NP, 150)
        sizes = list(range(1, order + 1))
        expected = [[reference[k][i] for k in range(i)] for i in sizes]
        orders = [sizes[::-1], sizes, sizes[::-1], sizes[30:] + sizes[:30]]
        start = threading.Barrier(len(orders))
        results = {}

        def read(name, read_order):
            start.wait(timeout=60)
            results[name] = {i: column(NP, i) for i in read_order}

        threads = [threading.Thread(target=read, args=(n, o)) for n, o in enumerate(orders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(threads)
        for got in results.values():
            assert [got[i] for i in sizes] == expected
        # a row grown twice over would misplace every entry past order
        assert_matches_band_table(NP, 150)

    def test_parity_check_survives_python_O(self):
        # A wrong binomial must still be caught when asserts are stripped:
        # C(4, 2) read as 7 makes the ordered two-child count of S_1[5] odd.
        script = textwrap.dedent("""
            import treerank.series as series
            from treerank.series import InvariantError, tree_counts
            from treerank.variety import TreeVariety

            binomials = series._binomials
            series._binomials = lambda n: (1, 4, 7) if n == 4 else binomials(n)
            try:
                tree_counts(TreeVariety.NONPLANE, 8)
            except InvariantError as exc:
                print("raised:", exc)
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised: ordered two-child count for S_1[5] is odd\n"

    def test_validation(self):
        with pytest.raises(ValueError):
            root_ranks(NP, -1, 3)
        with pytest.raises(ValueError):
            root_ranks(NP, 0, -1)
        assert root_ranks(NP, 0, 0) == []


class TestSharedRows:
    """Tree counts and root-rank reads grow one store of rows, in any order."""

    ORDERS = (3, 40, 12, 150, 90)

    @staticmethod
    def read_counts(variety, order):
        return tree_counts(variety, order)

    @staticmethod
    def read_table(variety, order):
        return ([column(variety, i) for i in (1, order // 2 + 1, order)],
                root_ranks(variety, 2, order))

    @staticmethod
    def expected(variety, kind, order):
        if kind == "counts":
            return reference_tree_counts(variety, 150)[:order + 1]
        reference = band_root_rank_table(variety, 150)
        return ([[reference[k][i] for k in range(i)] for i in (1, order // 2 + 1, order)],
                [reference[2][i] for i in range(1, order + 1)])

    @staticmethod
    def assert_rows_well_formed(variety):
        # row 0 grows with row 1, and no row outgrows the one before it
        rows = series._SUFFIX_ROWS[variety]
        lengths = [len(row) for row in rows]
        assert lengths[0] == lengths[1] == max(TestSharedRows.ORDERS) + 1
        assert lengths == sorted(lengths, reverse=True)
        assert tuple(rows[0][1:]) == reference_tree_counts(variety, 150)[1:]

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_each_entry_reaches_row_zero_first(self, monkeypatch, variety):
        # A lock-free tree_counts read slices row 0 as soon as row 1 is long
        # enough, so row 1 must never be longer than row 0, not even between
        # the two appends of one entry.
        start_cold(monkeypatch)
        row0 = [0, 1]

        class RowOne(list):
            def append(self, value):
                assert len(row0) == len(self) + 1, "row 1 grew before row 0"
                super().append(value)

        series._SUFFIX_ROWS[variety] = [row0, RowOne([0, 0])]
        assert tree_counts(variety, 40) == reference_tree_counts(variety, 150)[:41]
        reference = band_root_rank_table(variety, 150)
        assert column(variety, 50) == [reference[k][50] for k in range(50)]

    @pytest.mark.parametrize("variety", [NP, PL])
    @pytest.mark.parametrize("kinds", [("counts", "table"), ("table", "counts")])
    def test_interleaved_reads_from_cold_rows(self, monkeypatch, variety, kinds):
        for kind in kinds:
            self.expected(variety, kind, 150)  # fill the references first
        start_cold(monkeypatch)
        read = {"counts": self.read_counts, "table": self.read_table}
        for order in self.ORDERS:
            for kind in kinds:
                assert read[kind](variety, order) == self.expected(variety, kind, order), \
                    (kind, order)
        self.assert_rows_well_formed(variety)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_concurrent_mixed_reads_from_cold_rows(self, monkeypatch, variety):
        # Threads that start together, switching as often as the interpreter
        # allows, each mixing tree-count and table reads in its own order.
        plans = [[(kind, order) for order in orders for kind in kinds]
                 for orders in (self.ORDERS, self.ORDERS[::-1])
                 for kinds in (("counts", "table"), ("table", "counts"))]
        for kind in ("counts", "table"):
            self.expected(variety, kind, 150)
        start_cold(monkeypatch)
        read = {"counts": self.read_counts, "table": self.read_table}
        start = threading.Barrier(len(plans))
        results = {}

        def run(name, plan):
            start.wait(timeout=60)
            results[name] = [read[kind](variety, order) for kind, order in plan]

        threads = [threading.Thread(target=run, args=p) for p in enumerate(plans)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(plans)
        for name, plan in enumerate(plans):
            assert results[name] == [self.expected(variety, *step) for step in plan], name
        self.assert_rows_well_formed(variety)


class TestCountSequences:
    def test_nonplane_rank_zero(self):
        seq = rank_vertex_counts(NP, 0, 6)
        assert list(seq.counts) == [0, 1, 1, 3, 9, 35, 155]

    def test_nonplane_rank_one(self):
        seq = rank_vertex_counts(NP, 1, 6)
        assert list(seq.counts) == [0, 0, 1, 2, 8, 30, 135]

    def test_plane_rank_tables(self):
        k0 = rank_vertex_counts(PL, 0, 10)
        assert list(k0.counts) == [0, 1, 1, 5, 17, 93, 513, 3477, 25569, 212733, 1929393]
        k1 = rank_vertex_counts(PL, 1, 10)
        assert list(k1.counts) == [0, 0, 1, 3, 15, 75, 435, 2883, 21447, 177435, 1613835]

    def test_leaf_identity_through_order(self):
        order = 40
        seq = rank_vertex_counts(NP, 0, order)
        e = tree_counts(NP, order + 1)
        for n in range(order):
            assert seq.counts[n] == (n + 1) * e[n] - e[n + 1]

    def test_size_probabilities_n3(self):
        assert size_vertex_counts(NP, 1, 3).prob(3) == Fraction(1, 2)
        assert size_vertex_counts(NP, 2, 3).prob(3) == Fraction(1, 6)
        assert size_vertex_counts(NP, 3, 3).prob(3) == Fraction(1, 3)

    def test_size_one_equals_rank_zero(self):
        for variety in (NP, PL):
            assert size_vertex_counts(variety, 1, 12).counts == \
                rank_vertex_counts(variety, 0, 12).counts

    def test_joint_degenerate_cases(self):
        for variety in (NP, PL):
            assert joint_vertex_counts(variety, 0, 1, 10).counts == \
                size_vertex_counts(variety, 1, 10).counts
            assert all(c == 0 for c in joint_vertex_counts(variety, 0, 2, 10).counts)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_census_equivalence(self, variety):
        for n in range(1, 8):
            cen = census(variety, n)
            for k in range(n):
                assert rank_vertex_counts(variety, k, n).counts[n] == \
                    cen.rank_totals[k]
            for r in range(1, n + 1):
                assert size_vertex_counts(variety, r, n).counts[n] == cen.size_totals[r]
                for k in range(r):
                    assert joint_vertex_counts(variety, k, r, n).counts[n] == \
                        cen.joint_totals.get((k, r), 0)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_joint_marginals(self, variety):
        order = 10
        for k in (0, 1, 2):
            rank_seq = rank_vertex_counts(variety, k, order)
            sums = [0] * (order + 1)
            for i in range(1, order + 1):
                joint = joint_vertex_counts(variety, k, i, order)
                for n in range(order + 1):
                    sums[n] += joint.counts[n]
            assert sums == list(rank_seq.counts)
        for r in (1, 2, 3):
            size_seq = size_vertex_counts(variety, r, order)
            sums = [0] * (order + 1)
            for k in range(r):
                joint = joint_vertex_counts(variety, k, r, order)
                for n in range(order + 1):
                    sums[n] += joint.counts[n]
            assert sums == list(size_seq.counts)

    def test_probability_normalizations(self):
        seq = rank_vertex_counts(NP, 0, 6)
        assert seq.prob(6) == Fraction(155, 6 * 61)
        assert seq.prob_next(6) == Fraction(155, 7 * 61)
        with pytest.raises(ValueError):
            seq.prob(0)

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_probabilities_partition_unity(self, variety):
        order = 9
        for n in (1, 4, 7, 9):
            by_rank = [rank_vertex_counts(variety, k, order).prob(n)
                       for k in range(n)]
            by_size = [size_vertex_counts(variety, r, order).prob(n)
                       for r in range(1, n + 1)]
            assert all(0 <= p <= 1 for p in by_rank + by_size)
            assert sum(by_rank) == 1
            assert sum(by_size) == 1

    @pytest.mark.parametrize("variety", [NP, PL])
    def test_monomial_selectors_equal_one_solve_of_their_correction(self, variety):
        # The path the shared unit solve replaced: the monomial correction,
        # value at degree d and 0 elsewhere, solved on its own.  It covers
        # k >= i, where t[k][i] = 0, and i > order, past the truncation.
        for order in (1, 10, 40):
            m = counting._multiplier(variety, order)

            def solved(degree, value):
                correction = [0] * order
                if degree < order:
                    correction[degree] = value
                return solve_linear_counts(m, correction, order)

            for r in range(1, order + 3):
                assert list(size_vertex_counts(variety, r, order).counts) == \
                    solved(r - 1, tree_counts(variety, r)[r])
                for k in range(6):
                    assert list(joint_vertex_counts(variety, k, r, order).counts) == \
                        solved(r - 1, root_ranks(variety, k, r)[-1])

    def test_verify_solves_once_per_variety_and_degree_for_size_and_joint(self, capsys,
                                                                            monkeypatch):
        solves, selector = [], []
        original_solve = counting.solve_linear_counts

        def recording_solve(m, p, order):
            if selector:
                solves.append(selector[-1])
            return original_solve(m, p, order)

        def inside(fn, degree):
            def wrapped(variety, *args):
                selector.append((variety, degree(*args)))
                try:
                    return fn(variety, *args)
                finally:
                    selector.pop()
            return wrapped

        monkeypatch.setattr(counting, "solve_linear_counts", recording_solve)
        monkeypatch.setattr(cli, "size_vertex_counts",
                            inside(size_vertex_counts, lambda r, order: r - 1))
        monkeypatch.setattr(cli, "joint_vertex_counts",
                            inside(joint_vertex_counts, lambda k, i, order: i - 1))
        counting._unit_counts.cache_clear()
        assert cli.main(["verify", "--enum-limit", "6", "--order", "12", "--r", "4"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert Counter(solves) == Counter((v, d) for v in (NP, PL) for d in range(6))

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_vertex_counts(NP, -1, 5)
        with pytest.raises(ValueError):
            size_vertex_counts(NP, 0, 5)
        with pytest.raises(ValueError):
            joint_vertex_counts(NP, 0, 0, 5)


class TestCsvExport:
    def test_schema_and_zero_row(self, capsys):
        argv = ["counts", "--kind", "rank", "--k", "0", "--order", "4", "--digits", "6",
                "--format", "csv"]
        assert cli.main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert rows[0] == ["n", "count", "prob_numerator", "prob_denominator", "prob_decimal"]
        assert rows[1] == ["0", "0", "", "", ""]
        assert rows[4] == ["3", "3", "1", "2", "0.500000"]
