"""Exact limiting probabilities and rigorous truncation brackets.

Every counting generating function produced by this package is entire
divided by an integrating-factor weight g with a double zero at the
dominant singularity z0 (1 - sin z at pi/2 for non-plane trees, the
cosine-square weight at 2 sqrt3 pi/9 for plane trees).  A count series
f/g therefore has count(n)/n! ~ D (n+1) z0^-(n+2) with D = 2 f(z0)/g''(z0),
while the tree counts have T_n/n! ~ l z0^-n, l being minus the base
series' residue at z0 divided by z0 (Flajolet-Sedgewick, Analytic
Combinatorics, Ch. VII).  The per-vertex probability count(n)/((n+1) T_n)
thus tends to D/(z0^2 l) = kappa_v f(z0), with one factor per variety,
kappa_v = 2/(g''(z0) z0^2 l):

* non-plane: the base series (1 + sin z)/cos z has residue -2 at
  z0 = pi/2, so l = 4/pi; g'' = sin = 1 there; kappa = 2/pi.
* plane: the base series 1/2 + (sqrt3/2) tan(sqrt3 z/2 + pi/6) has
  residue -1 at z0 = 2 sqrt3 pi/9 (the tangent's numerator is 1, the
  derivative of its denominator -sqrt3/2, and the prefactor sqrt3/2),
  so l = 3 sqrt3/(2 pi); the
  weight 1/2 + cos(sqrt3 z)/4 - sqrt3 sin(sqrt3 z)/4 has second
  derivative -(3/4) cos(sqrt3 z) + (3 sqrt3/4) sin(sqrt3 z) = 3/8 + 9/8
  = 3/2 there; kappa = 2 sqrt3/pi.

With corrections that are polynomials, f(z0) is a finite combination of
the weight moments W_m = int_0^{z0} t^m g(t) dt, so every limit is exact
in Q(sqrt3)[pi, 1/pi].  Both weights are a constant plus a sinusoid,
g = c - b g'', with the double zero g(z0) = g'(z0) = 0.  So W_m is
c z0^(m+1)/(m+1) - b int_0^{z0} t^m g''; integrating by parts twice, the
terms at z0 vanish, and so do those at 0 for m >= 2, which leaves one
recurrence for both varieties:

    W_m = c z0^(m+1)/(m+1) - b m(m-1) W_(m-2)        (m >= 2),
    W_m = c z0^(m+1)/(m+1) - b g(0)                  (m = 0, 1),

where at m = 0 the boundary term -g'(0) equals g(0) in both varieties:

* non-plane: g = 1 - sin t, g'' = sin t, so (c, b) = (1, 1) and g(0) = 1.
* plane: g = 1/2 + cos(theta)/2 with theta = sqrt3 t + pi/3, which runs
  from pi/3 at t = 0 to pi at z0, so g'' = -(3/2) cos(theta),
  (c, b) = (1/2, 1/3) and g(0) = 3/4.

Divided by m!, the recurrence reads w_m = e_m - b w_(m-2) for m >= 2 and
w_m = e_m - b g(0) for m = 0, 1, with w_m = W_m/m! and
e_m = c z0^(m+1)/(m+1)!.  A limit is kappa_v sum_n P_n w_n for the
n!-scaled integer correction P of its count series, the same P that
`counting` solves at finite n.  The sum has an adjoint form: with
Q_n = P_n - b Q_(n+2), and Q_n = 0 past the end of P, substituting
P_n = Q_n + b Q_(n+2) gives

    sum_n P_n w_n = sum_n Q_n w_n + b sum_(n>=2) Q_n w_(n-2)
                  = c sum_n Q_n z0^(n+1)/(n+1)! - b g(0) (Q_0 + Q_1)

by the two cases of the recurrence.  So no moment is built: `moment_sum`
runs Q down from the end of P and adds one power of pi per n.  Its sums
give

* v_r = kappa_v T_r W_(r-1)/(r-1)!, the correction T_r at degree r-1;
* w_{k,i} = v_i t[k][i]/T_i, the correction t[k][i] at degree i-1, read
  off v_i;
* the rank-k mass over subtree sizes <= r, whose correction is the
  rank-k correction P_n = t[k][n+1] cut at n < r.

a_0 and a_1 are sums of the same kernel, of the derivative of
S_k - S_(k+1), with 2c the variety's `child_orders` (not the weight's c):

* a rank-0 root is a lone leaf, so S_0 - S_1 = z, t[0] = [1, 0, 0, ...],
  and the rank-0 correction cut at r = 1, P_0 = [1], is exact for a_0;
* rank 1 takes S_0 + c S_0^2 - S_1 - c S_1^2 = z + c z^2 + 2c z S_1, as
  (S_0 - S_1)^2 = z^2.  The multiplier m = 1 + 2c (z + S_1) has g' = -m g,
  so (1 - m z) g = (z g)' integrates to zero, and adding 1 - m z leaves
  1 - c z^2: P_1 = [1, 0, -2c], read off `child_orders` for each variety.

Ranks k >= 2 get two-sided brackets instead: the rank-k mass over subtree
sizes <= r is a certified lower bound, and adding the limiting
probability of a subtree larger than r, one minus kappa_v times the
moment sum of [T_1, ..., T_r], gives the upper bound.  Both bounds are
exact; only printed values are enclosed.

A bracket's JSON report, which `cli` writes, also prints every per-size
row, v_i and w_{k,i}, each kappa_v N_i w_(i-1) for an integer N_i (T_i or
t[k][i]).  One ladder (`constants`) encloses the whole report: on each rung, one forward pass
of the recurrence keeps e_m as e_(m-1) z0/(m+1), then w_m = e_m - b w_(m-2),
in integer fixed point with lower bounds rounded down and upper bounds
up, and scales the shared w_(i-1) bounds by both columns' N_i
(`row_enclosures`).  As
z0 < 2, every step of e multiplies by less than 1, so e_m's width stays a
few units of the last place; and as 0 < b <= 1, w_m's width is at most
e_m's plus b times w_(m-2)'s plus two roundings, which grows at most
linearly in m.  Row i is therefore about N_i i units wide, and the pass
starts on the rung that holds the bit length of the largest N_i plus
that of the row count, plus the ladder's guard bits.  The same pass sums
each column's products N_i w_(i-1) and takes kappa_v once per sum: the
lower bound, v_partial_sum and upper = lower + 1 - v_partial_sum are
values of the ladder in their own right, so their decimals are correctly
rounded as well.  The rows' exact texts unroll the same recurrence: with
E_e = kappa_v c z0^e/e!, row i has the pi^(e-1) coefficient
N_i (-b)^((i-e)/2) E_e for e = i, i-2, ... >= 1, and the pi^-1
coefficient N_i (-b)^(floor((i-1)/2)+1) kappa_v g(0).  `row_texts` builds
each E_e once per report, reduces each of a row's coefficients once for
all its columns, and takes one gcd per row and column (`_scaled_terms`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator, NamedTuple, Sequence

from .constants import (ExactConst, FixedPoint, _lowest_terms, iv_enclosures, render_terms,
                        start_rung)
from .counting import root_ranks
from .series import InvariantError, tree_counts
from .variety import TreeVariety

DEFAULT_BOUND_TERMS = 12

# kappa_v = 2/(g''(z0) z0^2 l): every limit is kappa_v times f(z0).
KAPPA = {
    TreeVariety.NONPLANE: ExactConst.pi_power(-1, 2),
    TreeVariety.PLANE: ExactConst.pi_power(-1, 0, 2),
}

# (z0, c, b, g(0)) per variety: the weight is g = c - b g'', and the
# moment sum in the docstring reads nothing else.
_WEIGHT = {
    TreeVariety.NONPLANE: (ExactConst.pi_power(1, Fraction(1, 2)), 1, 1, 1),
    TreeVariety.PLANE: (ExactConst.pi_power(1, 0, Fraction(2, 9)),
                        Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)),
}

# The corrections P_k of the exact limits a_k, by k (module docstring).
RANK_CORRECTIONS = {
    0: {v: (1,) for v in TreeVariety},
    1: {v: (1, 0, -v.child_orders) for v in TreeVariety},
}


def moment_sum(variety: TreeVariety, p: Sequence[int]) -> ExactConst:
    """sum_n P_n W_n/n! for an n!-scaled integer correction P, exact.

    The adjoint sum of the module docstring, on integer numerators over one
    denominator, reduced once.  For P of length L, B = den(b)^floor((L-1)/2)
    keeps every q_n = B Q_n an integer.  With z0 = x sqrt(root) pi and
    x = xn/xd, the pi^(n+1) term is c q_n f_n/(B xd^L L!), times sqrt3 when
    root = 3 and n is even, for the integer
    f_n = xn^(n+1) xd^(L-1-n) root^floor((n+1)/2) L!/(n+1)!; one exact
    step takes f_n to f_(n-1), and f_(-1) = xd^L L!.
    """
    z0, c, b, g0 = _WEIGHT[variety]
    ((a, s),) = z0.terms.values()  # z0 = (a + s sqrt3) pi with a or s zero
    root, x = (3, s) if s else (1, a)
    xn, xd = x.numerator, x.denominator
    bn, bd = b.numerator, b.denominator
    # over den(c) den(b) den(g(0)), every pi^(n+1) numerator carries this
    lead = c.numerator * bd * g0.denominator
    length = len(p)
    scale = bd ** (max(length - 1, 0) // 2)
    f = xn**length * root ** (length // 2)
    num = {}
    q1 = q2 = 0  # q_(n+1), q_(n+2)
    for n in range(length - 1, -1, -1):
        q = scale * p[n]
        if q2:  # q_(n+2) = B Q_(n+2) has a factor bd to spare, so b q_(n+2) is whole
            q -= bn * (q2 // bd)
        if q:
            t = lead * q * f
            num[n + 1] = (0, t) if root == 3 and n % 2 == 0 else (t, 0)
        f = f * (n + 1) * xd // (xn * root if n % 2 else xn)
        q1, q2 = q, q1
    if q1 + q2:  # - b g(0) (Q_0 + Q_1)
        num[0] = (-bn * g0.numerator * c.denominator * f * (q1 + q2), 0)
    return ExactConst.reduced(num, c.denominator * bd * g0.denominator * scale * f)


@lru_cache(maxsize=None)
def limit_subtree_prob(variety: TreeVariety, r: int) -> ExactConst:
    """Limiting probability that a random vertex heads a subtree of size r: v_r."""
    if r < 1:
        raise ValueError("subtree size must be at least 1")
    return KAPPA[variety] * moment_sum(variety, [0] * (r - 1) + [tree_counts(variety, r)[r]])


def limit_joint_prob(variety: TreeVariety, k: int, i: int) -> ExactConst:
    """Limiting probability of rank k with subtree size i: w_{k,i} = v_i t[k][i]/T_i."""
    v_i = limit_subtree_prob(variety, i)  # refuses i < 1 before root_ranks refuses k < 0
    return v_i * Fraction(root_ranks(variety, k, i)[-1], tree_counts(variety, i)[i])


def row_enclosures(variety: TreeVariety, t_k: Sequence[int], counts: Sequence[int],
                   digits: int) -> list[tuple[int, int, int]]:
    """Intervals (lo, hi, prec), each as `constants.iv_enclosures` returns
    it, on the rows of a rank-k bracket's report and on its three values,
    from one forward pass of the moment recurrence per rung.

    The rows are kappa_v N_i W_(i-1)/(i-1)! for the equally long columns
    t_k, N_i = t[k][i], and counts, N_i = T_i: w_{k,1}, v_1, w_{k,2}, v_2,
    ....  Three values follow the rows: lower = the sum of the w rows,
    upper = lower + 1 - v_partial_sum, and v_partial_sum = the sum of the
    v rows.  Each sum takes kappa_v once, on the sum of its rows' products
    N_i w_(i-1); the rows grow like i!, so a sum is about as wide as its
    last row.
    """
    z0, c, b, g0 = _WEIGHT[variety]
    kappa = KAPPA[variety]
    cn, cd = c.numerator, c.denominator
    bn, bd = b.numerator, b.denominator
    bg = Fraction(b) * g0

    def rows(ctx: FixedPoint) -> list[tuple[int, int]]:
        prec = ctx.prec
        zl, zh = z0._iv_value(ctx)
        kl, kh = kappa._iv_value(ctx)

        def times_kappa(lo: int, hi: int) -> tuple[int, int]:
            return (lo * (kl if lo >= 0 else kh) >> prec,
                    -(-hi * (kh if hi >= 0 else kl) >> prec))

        gl = (bg.numerator << prec) // bg.denominator  # b g(0) 2^prec, rounded out
        gh = -((-bg.numerator << prec) // bg.denominator)
        el, eh = cn * zl // cd, -(-cn * zh // cd)  # e_0 = c z0
        w1 = w2 = (0, 0)  # w_(m-1), w_(m-2)
        sums = [[0, 0], [0, 0]]
        out = []
        for m, weights in enumerate(zip(t_k, counts)):
            if m < 2:
                wl, wh = el - gh, eh - gl
            else:  # b w_(m-2) rounded up for the lower bound, down for the upper
                wl, wh = el + (-bn * w2[1] // bd), eh - bn * w2[0] // bd
            for n, total in zip(weights, sums):
                if n:
                    lo, hi = n * wl, n * wh
                    out.append(times_kappa(lo, hi))
                    total[0] += lo
                    total[1] += hi
                else:
                    out.append((0, 0))
            # e_(m+1) = e_m z0/(m+2); both bounds stay nonnegative
            el = (el * zl >> prec) // (m + 2)
            eh = -((-eh * zh >> prec) // (m + 2))
            w1, w2 = (wl, wh), w1
        (ll, lh), (vl, vh) = (times_kappa(*total) for total in sums)
        one = 1 << prec
        return out + [(ll, lh), (ll + one - vh, lh + one - vl), (vl, vh)]

    bits = max([*t_k, *counts], default=0).bit_length()
    return iv_enclosures(rows, digits, start_rung(bits + len(counts).bit_length()))


def row_texts(variety: TreeVariety, *columns: Sequence[int]) -> Iterator[tuple[str, ...]]:
    """Exact texts of the rows kappa_v N_i W_(i-1)/(i-1)! of equally long
    columns N, size by size, as `ExactConst.render` prints them.

    The unrolled recurrence of the module docstring: row i of every column
    shares the terms (-b)^p E_e, with p = (i-e)/2, and (-b)^p kappa_v g(0),
    each in lowest terms.  Their denominators all divide
    L = den(b)^floor((i+1)/2) lcm(den(kappa_v g(0)), den(E_1), ..., den(E_i)),
    so column N takes one gcd G = gcd(N, L), and a small one per term
    only when G > 1.
    """
    z0, c, b, g0 = _WEIGHT[variety]
    size = len(columns[0])
    units = [KAPPA[variety] * g0, KAPPA[variety] * c * z0]  # the pi^-1 term, E_1, E_2, ...
    for e in range(2, size + 1):
        units.append(units[-1] * z0 * Fraction(1, e))
    terms = []
    for unit in units:  # each a rational or a sqrt3 multiple of a power of pi
        ((j, (a, s)),) = unit._num.items()
        terms.append((j, a or s, unit._den, not a))
    bn, bd = -b.numerator, b.denominator  # -b = bn/bd
    bn_pow = [bn**p for p in range(size // 2 + 2)]
    bd_pow = [bd**p for p in range(size // 2 + 2)]
    den_lcm = terms[0][2]
    for i, weights in enumerate(zip(*columns), 1):
        den_lcm = lcm(den_lcm, terms[i][2])
        row = []
        for e in (*range(2 - i % 2, i + 1, 2), 0):  # e = 0 is the pi^-1 term
            p = (i - e) // 2 if e else (i + 1) // 2
            j, x, d, sqrt3 = terms[e]
            row.append((j, *_lowest_terms(bn_pow[p] * x, bd_pow[p] * d), sqrt3))
        common = bd_pow[(i + 1) // 2] * den_lcm
        yield tuple(render_terms(_scaled_terms(row, n, gcd(n, common))) if n else "0"
                    for n in weights)


def _scaled_terms(row: list[tuple[int, int, int, bool]], n: int,
                  g: int) -> Iterator[tuple[int, int, int, int, int]]:
    """`render_terms`' terms for the row's terms (j, x, d, sqrt3) times n,
    given g = gcd(n, L) for a common multiple L of the row's denominators.
    A row's terms share a few divisors h of g, and n is divided by each once."""
    quotients = {}
    for j, x, d, sqrt3 in row:
        if g > 1:  # gcd(n x, d) = gcd(n, d) = gcd(g, d) as x/d is in lowest terms
            h = gcd(g, d)
            q = quotients.get(h)
            if q is None:
                q = quotients[h] = n // h
            x, d = q * x, d // h
        else:
            x *= n
        yield (j, 0, 1, x, d) if sqrt3 else (j, x, d, 0, 1)


def limit_rank_fraction(variety: TreeVariety, k: int) -> ExactConst:
    """Exact limiting fraction a_k of rank-k vertices, k = 0 or 1, from P_k."""
    if k not in RANK_CORRECTIONS:
        raise ValueError(f"rank {k} is bracketed, not exact; use bound_interval")
    return KAPPA[variety] * moment_sum(variety, RANK_CORRECTIONS[k][variety])


class BoundReport(NamedTuple):
    """Certified bracket: lower <= a_k <= upper, exact, with the truncated v sum."""

    variety: TreeVariety
    k: int
    r: int
    lower: ExactConst
    upper: ExactConst
    partial_v_sum: ExactConst

    @property
    def gap(self) -> ExactConst:
        return self.upper - self.lower


def bound_interval(variety: TreeVariety, k: int, r: int = DEFAULT_BOUND_TERMS) -> BoundReport:
    """Two-sided bracket for the limiting rank-k fraction at truncation r.

    lower = sum of the joint limits over subtree sizes 1..r, the moment
    sum of the rank-k correction cut at r; the upper bound adds the
    limiting mass of subtrees larger than r, 1 - (v_1 + ... + v_r).
    """
    if r < 1:  # root_ranks refuses k < 0, but returns [] for r = 0
        raise ValueError("truncation must be at least 1")
    kappa = KAPPA[variety]
    lower = kappa * moment_sum(variety, root_ranks(variety, k, r))
    v_sum = kappa * moment_sum(variety, tree_counts(variety, r)[1:])
    gap = 1 - v_sum
    if gap.sign() < 0:
        raise InvariantError(f"bracket for k={k}, r={r} has lower above upper")
    return BoundReport(variety, k, r, lower, lower + gap, v_sum)
