"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each criterion prints one PASS line (run with `pytest -s` to see them all;
a failure surfaces through the assertion itself).  Two widely circulated
ten-place decimals and one six-place bound rounding are reproduced here
only up to their actual accuracy; the literal renderings are kept as
strict expected-failures with the mathematically correct values asserted
alongside (see the notes in each xfail reason).
"""

import time
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from mpmath.libmp import to_rational

from treerank.constants import ExactConst
from treerank.counting import (
    joint_vertex_counts,
    rank_vertex_counts,
    root_ranks,
    size_vertex_counts,
)
from treerank.enumeration import (
    census,
    check_inequalities,
    plane_multiplicity_total,
    weighted_onechild_mean,
)
from treerank.limits import (
    bound_interval,
    limit_joint_prob,
    limit_rank_fraction,
    limit_subtree_prob,
)
from treerank.series import EgfSeries, tree_counts
from treerank.variety import TreeVariety

from reference_solvers import base_series, correction_series

NP = TreeVariety.NONPLANE
PL = TreeVariety.PLANE

SEQUENCE_TABLES = {
    (NP, "trees"): [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521],
    (PL, "trees"): [1, 1, 1, 3, 9, 39],
    (NP, "rank0"): [0, 1, 1, 3, 9, 35, 155],
    (NP, "rank1"): [0, 0, 1, 2, 8, 30, 135],
    (PL, "rank0"): [0, 1, 1, 5, 17, 93, 513, 3477, 25569, 212733, 1929393],
    (PL, "rank1"): [0, 0, 1, 3, 15, 75, 435, 2883, 21447, 177435, 1613835],
}

# Ten-place decimals as commonly quoted; both are misrounded in the last
# digit (1 - 2/pi = 0.36338022763..., 2 - pi^2/24 - 4/pi = 0.31552693855...),
# so the binding assertions use the true renderings and tie the quoted
# strings at their actual nine-place accuracy.
QUOTED_A0_NONPLANE = Fraction("0.3633802278")
QUOTED_A1_NONPLANE = Fraction("0.3155269391")
TRUE_A0_10PLACES = "0.3633802276"
TRUE_A1_10PLACES = "0.3155269386"

# Independent high-order numeric estimates for the non-plane rank limits.
RANK2_ESTIMATE = Fraction("0.20278137")
RANK3_ESTIMATE = Fraction("0.0893474")
RANK4_ESTIMATE = Fraction("0.0243854")
QUOTED_RANK2_LOWER = Fraction("0.188285")


def announce(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def mp_fraction(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


def test_criterion_1_sequence_tables():
    started = time.monotonic()
    assert list(tree_counts(NP, 10)) == SEQUENCE_TABLES[(NP, "trees")]
    assert list(tree_counts(PL, 5)) == SEQUENCE_TABLES[(PL, "trees")]
    assert list(rank_vertex_counts(NP, 0, 6).counts) == SEQUENCE_TABLES[(NP, "rank0")]
    assert list(rank_vertex_counts(NP, 1, 6).counts) == SEQUENCE_TABLES[(NP, "rank1")]
    assert list(rank_vertex_counts(PL, 0, 10).counts) == SEQUENCE_TABLES[(PL, "rank0")]
    assert list(rank_vertex_counts(PL, 1, 10).counts) == SEQUENCE_TABLES[(PL, "rank1")]
    elapsed = time.monotonic() - started
    assert elapsed < 6.0  # budget: under a second per table
    announce("1 (sequence tables, exact integer equality)")


def _closed_form_oracle(variety, k) -> Fraction:
    with mpmath.workdps(50):
        pi = mpmath.pi
        s3 = mpmath.sqrt(3)
        value = {
            (NP, 0): 1 - 2 / pi,
            (NP, 1): 2 - pi**2 / 24 - 4 / pi,
            (PL, 0): mpmath.mpf(2) / 3 - s3 / (2 * pi),
            (PL, 1): mpmath.mpf(10) / 9 - 5 / (2 * s3 * pi) - 8 * pi**2 / 243,
        }[(variety, k)]
        return mp_fraction(value)


def test_criterion_2_closed_form_limits():
    started = time.monotonic()
    a0 = limit_rank_fraction(NP, 0).enclosure(11)
    assert a0.width <= Fraction(1, 10**11)
    assert a0.contains(_closed_form_oracle(NP, 0))
    assert a0.decimal(10) == TRUE_A0_10PLACES
    assert abs(a0.midpoint - QUOTED_A0_NONPLANE) < Fraction(1, 10**9)

    a1 = limit_rank_fraction(NP, 1).enclosure(11)
    assert a1.width <= Fraction(1, 10**11)
    assert a1.contains(_closed_form_oracle(NP, 1))
    assert a1.decimal(10) == TRUE_A1_10PLACES
    assert abs(a1.midpoint - QUOTED_A1_NONPLANE) < Fraction(1, 10**9)

    a0_plane = limit_rank_fraction(PL, 0).enclosure(11)
    assert a0_plane.contains(_closed_form_oracle(PL, 0))
    assert a0_plane.decimal(3) == "0.391"

    a1_plane = limit_rank_fraction(PL, 1).enclosure(11)
    assert a1_plane.contains(_closed_form_oracle(PL, 1))
    assert a1_plane.decimal(4) == "0.3267"
    assert time.monotonic() - started < 5.0
    announce("2 (closed-form limits to quoted precision)")


@pytest.mark.xfail(
    strict=True,
    reason="quoted ten-place decimal 0.3633802278 misrounds 1 - 2/pi = "
    "0.36338022763...; the correct rendering 0.3633802276 is asserted in "
    "criterion 2",
)
def test_criterion_2_literal_quoted_a0():
    enc = limit_rank_fraction(NP, 0).enclosure(11)
    assert enc.decimal(10) == "0.3633802278"


@pytest.mark.xfail(
    strict=True,
    reason="quoted ten-place decimal 0.3155269391 misrounds 2 - pi^2/24 - 4/pi "
    "= 0.31552693855...; the correct rendering 0.3155269386 is asserted in "
    "criterion 2",
)
def test_criterion_2_literal_quoted_a1():
    enc = limit_rank_fraction(NP, 1).enclosure(11)
    assert enc.decimal(10) == "0.3155269391"


def _quadrature_rank2_lower(r=12) -> Fraction:
    """Independent route to the rank-2 lower bound: adaptive quadrature of
    the weight integrals instead of the exact moment recurrences."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for i, t_ki in enumerate(root_ranks(NP, 2, r), 1):
            if not t_ki:
                continue
            integral = mpmath.quad(
                lambda t, m=i - 1: t**m * (1 - mpmath.sin(t)), [0, mpmath.pi / 2]
            )
            total += 2 * t_ki * integral / (factorial(i - 1) * mpmath.pi)
        return mp_fraction(total)


def test_criterion_3_bound_reproduction():
    started = time.monotonic()
    reports = {k: bound_interval(NP, k, 12) for k in (2, 3, 4)}
    enc = {k: (rep.lower.enclosure(10), rep.upper.enclosure(10)) for k, rep in reports.items()}

    low2, up2 = enc[2]
    # The bracket certifies the quoted bound and the independent estimate.
    assert low2.hi <= QUOTED_RANK2_LOWER <= up2.lo
    assert low2.hi <= RANK2_ESTIMATE <= up2.lo
    # Cross-check the exact lower bound against adaptive quadrature.
    assert abs(low2.midpoint - _quadrature_rank2_lower()) < Fraction(1, 10**8)
    # Its true six-place value, frozen from both routes.
    assert low2.decimal(6) == "0.148337"

    assert enc[3][0].hi <= RANK3_ESTIMATE <= enc[3][1].lo
    assert enc[4][0].hi <= RANK4_ESTIMATE <= enc[4][1].lo

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    announce("3 (rank >= 2 brackets contain the reference estimates)")


@pytest.mark.xfail(
    strict=True,
    reason="the quoted six-place lower bound 0.188285 for rank 2 at twelve "
    "terms is not the value of the truncated sum: exactly, sum_{i<=12} w_2,i "
    "= 0.148337 (certified by interval arithmetic and by quadrature), and no "
    "truncation r yields 0.188285 (the partial sums step from 0.187567 at "
    "r=30 to 0.188317 at r=31); the bracket at r=12 does contain 0.188285",
)
def test_criterion_3_literal_quoted_rank2_lower():
    report = bound_interval(NP, 2, 12)
    assert report.lower.enclosure(10).decimal(6) == "0.188285"


def test_criterion_4_oracle_equivalence():
    started = time.monotonic()
    for variety in (NP, PL):
        for n in range(1, 10):
            cen = census(variety, n)
            ranks = [root_ranks(variety, k, n)[-1] for k in range(n)]
            assert ranks == list(cen.root_rank_counts), (variety, n)
            for k in range(n):
                assert rank_vertex_counts(variety, k, n).counts[n] == \
                    cen.rank_totals[k], (variety, n, k)
            for r in range(1, n + 1):
                assert size_vertex_counts(variety, r, n).counts[n] == \
                    cen.size_totals[r], (variety, n, r)
                for k in range(r):
                    assert joint_vertex_counts(variety, k, r, n).counts[n] \
                        == cen.joint_totals.get((k, r), 0), (variety, n, k, r)
            assert cen.leaf_total == cen.rank_totals[0]
            assert cen.leaf_total == rank_vertex_counts(variety, 0, n).counts[n]
    assert time.monotonic() - started < 300.0
    announce("4 (full census equals recurrence counts for n <= 9)")


def test_criterion_5_identity_suite():
    started = time.monotonic()
    order = 80

    leaf_counts = rank_vertex_counts(NP, 0, order).counts
    e = tree_counts(NP, order + 1)
    for n in range(order):
        assert leaf_counts[n] == (n + 1) * e[n] - e[n + 1]

    got = correction_series(NP, 1, order).derivative()
    base = base_series(NP, order)
    z_e = EgfSeries([Fraction(0)] + list(base.coeffs[:-1]))
    expected = (z_e - EgfSeries.monomial(2, order, Fraction(1, 2))).truncate(order - 1)
    assert got == expected

    for variety in (NP, PL):
        column_sums = [sum(t) for t in zip(*(root_ranks(variety, k, order) for k in range(order)))]
        assert column_sums == list(tree_counts(variety, order)[1:]), variety

    for variety in (NP, PL):
        for i in range(1, 13):
            total = ExactConst()
            for k in range(i):
                total = total + limit_joint_prob(variety, k, i)
            assert total == limit_subtree_prob(variety, i), (variety, i)

    assert time.monotonic() - started < 60.0
    announce("5 (identity suite, exact equality)")


def test_criterion_6_inequality_suite():
    started = time.monotonic()
    limit = 10
    for variety in (NP, PL):
        for n in range(1, limit + 1):
            report = check_inequalities(variety, n, limit)
            assert not report.failures(), (variety, n, [c.name for c in report.failures()])
    # Plane multiplicity weights: the denominator of the weighted one-child
    # mean is the plane tree count, and the means compare across varieties.
    plane_counts = tree_counts(PL, 8)
    for n in range(1, 9):
        assert plane_multiplicity_total(n) == plane_counts[n]
        assert weighted_onechild_mean(n) == census(PL, n).mean_one_child
    for n in range(1, limit + 1):
        assert weighted_onechild_mean(n) <= census(NP, n).mean_one_child
    assert time.monotonic() - started < 300.0
    announce("6 (inequality suite over all reachable sizes)")


def test_criterion_7_convergence_properties():
    started = time.monotonic()

    # Tail probabilities decrease strictly and halve within twenty terms.
    u = []
    partial = ExactConst()
    for r in range(1, 21):
        partial = partial + limit_subtree_prob(NP, r)
        u.append(ExactConst.rational(1) - partial)
    for a, b in zip(u, u[1:]):
        assert (a - b).sign() == 1
    assert (u[0] * Fraction(1, 2) - u[19]).sign() == 1

    # Brackets nest along the truncation ladder.
    for variety in (NP, PL):
        reports = [bound_interval(variety, 2, r) for r in (4, 8, 12)]
        for wide, tight in zip(reports, reports[1:]):
            assert (tight.lower - wide.lower).sign() >= 0
            assert (wide.upper - tight.upper).sign() >= 0

    # Exact limits against finite-size probabilities: the gap shrinks along
    # the order ladder and ends below 1e-3 at order 80.
    ladder = (20, 40, 80)
    tolerance = Fraction(1, 1000)

    def gap(enc, prob: Fraction) -> Fraction:
        return max(abs(enc.lo - prob), abs(enc.hi - prob))

    for variety in (NP, PL):
        sequences = {}
        for order in ladder:
            for r in range(1, 13):
                sequences[("v", r, order)] = size_vertex_counts(variety, r, order)
            for k in range(5):
                for i in range(1, 13):
                    sequences[("w", k, i, order)] = joint_vertex_counts(variety, k, i, order)
        for r in range(1, 13):
            enc = limit_subtree_prob(variety, r).enclosure(30)
            gaps = [gap(enc, sequences[("v", r, order)].prob_next(order))
                    for order in ladder]
            assert gaps[0] >= gaps[1] >= gaps[2], (variety, "v", r, gaps)
            assert gaps[2] < tolerance, (variety, "v", r)
        for k in range(5):
            for i in range(1, 13):
                enc = limit_joint_prob(variety, k, i).enclosure(30)
                gaps = [gap(enc, sequences[("w", k, i, order)].prob_next(order))
                        for order in ladder]
                assert gaps[0] >= gaps[1] >= gaps[2], (variety, "w", k, i, gaps)
                assert gaps[2] < tolerance, (variety, "w", k, i)

    assert time.monotonic() - started < 300.0
    announce("7 (convergence, nesting, and finite-size agreement)")
