"""Command-line front end: counting, enumeration, limits, bounds, verify.

Exit codes are a stable contract: 0 success, 1 verification or internal
invariant failure, 2 usage error, 141 (128 + SIGPIPE) when stdout is
closed before everything is printed, as by `treerank verify | head -1`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from operator import add
from typing import Callable, Iterator, Sequence

from .constants import MAX_DIGITS, decimal_string
from .counting import (
    CountSequences,
    _multiplier,
    joint_vertex_counts,
    rank_vertex_counts,
    root_ranks,
    size_vertex_counts,
)
from .enumeration import (
    DEFAULT_ENUM_LIMIT,
    SizeLimitError,
    census,
    check_inequalities,
    enumerate_texts,
)
from .limits import (
    DEFAULT_BOUND_TERMS,
    RANK_CORRECTIONS,
    BoundReport,
    bound_interval,
    limit_joint_prob,
    limit_rank_fraction,
    limit_subtree_prob,
    row_enclosures,
    row_texts,
)
from .series import DEFAULT_ORDER, InvariantError, solve_linear_counts, tree_counts
from .variety import TreeVariety


def _at_least(low: int, most: int | None = None) -> Callable[[str], int]:
    """argparse type: an integer from `low` up to `most` (if given), else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


# The largest --enum-limit: `enumerate` writes every plane tree, 435 847 959 at 13 but
# 5 045 745 069 at 14; `verify`'s census builds the trees of sizes up to n - 3: 448 821 at 13.
MAX_ENUM_LIMIT = 13
DEFAULT_DIGITS = 12

# Each selector flag: its least value and the words that name it in a label.
_SELECTORS = {"k": (0, "rank"), "r": (1, "subtree size"), "i": (1, "size")}

# The selector flags each `counts` and `limits` --kind reads, in label
# order, and --digits where the kind prints decimals: the root table prints
# none.  Any other of these flags is a usage error, as any flag its
# subcommand does not read is.
_KIND_FLAGS = {
    "counts": {"rank": ("k", "digits"), "size": ("r", "digits"),
               "joint": ("k", "i", "digits"), "root": ()},
    "limits": {"rank": ("k", "digits"), "v": ("r", "digits"), "w": ("k", "i", "digits")},
}

_SHARED_FLAGS = {
    "--variety": dict(default="nonplane", choices=["nonplane", "plane"]),
    "--order": dict(type=_at_least(0), default=DEFAULT_ORDER,
                    help="series truncation order (default %(default)s)"),
    "--digits": dict(type=_at_least(1, MAX_DIGITS), default=DEFAULT_DIGITS,
                     help=f"decimal digits for printed enclosures (at most {MAX_DIGITS}, "
                          "the most an enclosure can certify)"),
    "--enum-limit": dict(type=_at_least(1, MAX_ENUM_LIMIT), default=DEFAULT_ENUM_LIMIT,
                         help="largest size enumerated exhaustively (default %(default)s, "
                              f"at most {MAX_ENUM_LIMIT})"),
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treerank",
        description="Exact rank statistics of labeled 1-2 trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_counts = sub.add_parser("counts", help="count sequences and root-rank tables")
    _add_shared(p_counts, "--variety", "--order", "--digits")
    p_counts.add_argument("--kind", required=True, choices=list(_KIND_FLAGS["counts"]))
    p_counts.set_defaults(digits=None)  # so that --kind root can refuse it; see _selectors
    for flag, help_text in zip(_SELECTORS, ["vertex rank", "subtree size", "subtree size (joint)"]):
        p_counts.add_argument(f"--{flag}", type=_at_least(_SELECTORS[flag][0]), help=help_text)
    p_counts.add_argument("--format", default="table", choices=["table", "json", "csv"])

    p_bounds = sub.add_parser("bounds", help="rigorous bracket for a rank limit")
    _add_shared(p_bounds, "--variety", "--digits")
    p_bounds.add_argument("--k", type=_at_least(0), required=True)
    p_bounds.add_argument("--r", type=_at_least(1), default=DEFAULT_BOUND_TERMS,
                          help="truncation (default %(default)s)")
    p_bounds.add_argument("--format", default="table", choices=["table", "json"])

    p_limits = sub.add_parser("limits", help="exact limiting probabilities")
    _add_shared(p_limits, "--variety", "--digits")
    p_limits.add_argument("--kind", default="rank", choices=list(_KIND_FLAGS["limits"]))
    for flag, (least, _) in _SELECTORS.items():
        p_limits.add_argument(f"--{flag}", type=_at_least(least))
    p_limits.add_argument("--format", default="table", choices=["table", "json"])

    p_enum = sub.add_parser("enumerate", help="dump every tree of one size")
    _add_shared(p_enum, "--variety", "--enum-limit")
    p_enum.add_argument("--n", type=_at_least(1), required=True)

    p_verify = sub.add_parser("verify", help="run the cross-module oracle suite")
    _add_shared(p_verify, "--order", "--enum-limit")
    p_verify.add_argument("--r", type=_at_least(1), default=DEFAULT_BOUND_TERMS,
                          help="bracket truncation to check")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first `main` call and kept: parsing
    leaves a parser as it was, and building one costs milliseconds, about
    what a small command does."""
    return build_parser()


def _selectors(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[list[int], str]:
    """The values of the selector flags that `args.kind` reads, and their
    label, as in `rank k=2, size i=5`.  A flag it reads that is missing, or
    one it does not read that is given, is a usage error."""
    reads = _KIND_FLAGS[args.command][args.kind]
    unread = [f"--{flag}" for flag in (*_SELECTORS, "digits")
              if flag not in reads and getattr(args, flag) is not None]
    if unread:
        parser.error(f"--kind {args.kind} does not read {' '.join(unread)}")
    flags = [flag for flag in reads if flag in _SELECTORS]
    values = [getattr(args, flag) for flag in flags]
    if (args.command, args.kind) == ("limits", "rank") and args.k not in RANK_CORRECTIONS:
        ranks = " or ".join(map(str, RANK_CORRECTIONS))
        parser.error(f"--kind rank needs --k {ranks}; bracket higher ranks with `bounds`")
    if None in values:
        needs = " and ".join(f"--{flag} >= {_SELECTORS[flag][0]}" for flag in flags)
        parser.error(f"--kind {args.kind} needs {needs}")
    return values, ", ".join(f"{_SELECTORS[f][1]} {f}={v}" for f, v in zip(flags, values))


def _print_root_rows(variety: TreeVariety, order: int, fmt: str) -> None:
    """Print every nonzero t[k][i] with i <= order, one f-string per row.

    JSON comes out byte for byte as `json.dumps(payload, indent=2)` would
    print it, without building the payload.
    """
    columns = zip(*[root_ranks(variety, k, order) for k in range(order)])
    cells = [(i, k, c) for i, column in enumerate(columns, 1) for k, c in enumerate(column) if c]
    if fmt == "json":
        rows = ",\n".join(f'    {{\n      "i": {i},\n      "k": {k},\n      "count": {c}\n    }}'
                          for i, k, c in cells)
        rows = f"[\n{rows}\n  ]" if cells else "[]"
        print(f'{{\n  "variety": {json.dumps(str(variety))},\n  "kind": "root",\n'
              f'  "rows": {rows}\n}}')
    else:
        sep = "," if fmt == "csv" else "\t"
        print("\n".join([f"i{sep}k{sep}count"] + [f"{i}{sep}{k}{sep}{c}" for i, k, c in cells]))


_COUNT_COLUMNS = ("n", "count", "prob_numerator", "prob_denominator", "prob_decimal")


def _count_rows(seq: CountSequences, order: int, digits: int) -> Iterator[tuple]:
    """The `_COUNT_COLUMNS` of each size n <= order: n and the count as
    integers, the probability's numerator, denominator and decimal as text,
    empty at n = 0, which has no vertices."""
    yield 0, seq.counts[0], "", "", ""
    for n in range(1, order + 1):
        p = seq.prob(n)
        yield (n, seq.counts[n], str(p.numerator), str(p.denominator),
               decimal_string(p.numerator, p.numerator, p.denominator, digits))


def cmd_counts(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    selectors, label = _selectors(args, parser)
    variety = TreeVariety(args.variety)
    if args.kind == "root":
        _print_root_rows(variety, args.order, args.format)
        return 0

    # Looked up per call, so that a wrapper put on a module name is called.
    counts = {"rank": rank_vertex_counts, "size": size_vertex_counts, "joint": joint_vertex_counts}
    seq = counts[args.kind](variety, *selectors, args.order)
    rows = _count_rows(seq, args.order, DEFAULT_DIGITS if args.digits is None else args.digits)
    if args.format == "json":
        payload = {"variety": str(variety), "selector": label,
                   "rows": [dict(zip(_COUNT_COLUMNS, row)) for row in rows]}
        print(json.dumps(payload, indent=2))
    else:
        sep = "," if args.format == "csv" else "\t"
        print("\n".join([sep.join(_COUNT_COLUMNS)] + [sep.join(map(str, row)) for row in rows]))
    return 0


def _bound_report_pieces(report: BoundReport, digits: int) -> Iterator[str]:
    """The report as JSON, byte for byte what `json.dumps(payload, indent=2)`
    prints for its payload, without building the payload: the head, then a
    piece per row.  Every interval comes from one `row_enclosures` ladder
    before the first piece, so a failure yields nothing.

    The exact texts and decimals go between quotes as they are: `render`
    writes digits, letters and `()/*+-^ `, and `decimal_string` digits, a
    point and a minus sign, so neither holds a character JSON escapes.
    """
    variety, k, r = report.variety, report.k, report.r
    t_k = root_ranks(variety, k, r)
    counts = tree_counts(variety, r)[1:]
    *rows, lower, upper, v_sum = row_enclosures(variety, t_k, counts, digits)

    def decimal(lo: int, hi: int, prec: int) -> str:
        return decimal_string(lo, hi, 1 << prec, digits)

    pairs = "".join(
        f'  "{name}": {{\n    "exact": "{value.render()}",\n'
        f'    "decimal": "{decimal(*bounds)}"\n  }},\n'
        for name, value, bounds in (("lower", report.lower, lower), ("upper", report.upper, upper),
                                    ("v_partial_sum", report.partial_v_sum, v_sum)))
    yield f'{{\n  "variety": "{variety}",\n  "k": {k},\n  "r": {r},\n{pairs}  "per_i_terms": ['
    texts = row_texts(variety, t_k, counts)
    for i, (t, (w, v), w_row, v_row) in enumerate(zip(t_k, texts, rows[::2], rows[1::2]), 1):
        yield (f'{"," if i > 1 else ""}\n    {{\n      "i": {i},\n      "t_ki": {t},\n'
               f'      "w_exact": "{w}",\n      "w_decimal": "{decimal(*w_row)}",\n'
               f'      "v_exact": "{v}",\n      "v_decimal": "{decimal(*v_row)}"\n    }}')
    yield "\n  ]\n}"


def cmd_bounds(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    variety = TreeVariety(args.variety)
    report = bound_interval(variety, args.k, args.r)
    if args.format == "json":  # a row at a time: the report can run to tens of MB
        sys.stdout.writelines(_bound_report_pieces(report, args.digits))
        print()
        return 0
    print(f"variety: {report.variety}")
    print(f"k = {report.k}, truncation r = {report.r}")
    print(f"lower = {report.lower.render()}")
    print(f"      ≈ {report.lower.enclosure(args.digits).decimal()}")
    print(f"upper = {report.upper.render()}")
    print(f"      ≈ {report.upper.enclosure(args.digits).decimal()}")
    print(f"gap (unassigned subtree mass) ≈ {report.gap.enclosure(args.digits).decimal()}")
    return 0


def cmd_limits(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    selectors, label = _selectors(args, parser)
    variety = TreeVariety(args.variety)
    limits = {"rank": limit_rank_fraction, "v": limit_subtree_prob, "w": limit_joint_prob}
    value = limits[args.kind](variety, *selectors)
    enc = value.enclosure(args.digits)
    if args.format == "json":
        payload = {
            "variety": str(variety),
            "selector": label,
            "exact": value.render(),
            "decimal": enc.decimal(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{label} ({variety}): {value.render()} ≈ {enc.decimal()}")
    return 0


def cmd_enumerate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    variety = TreeVariety(args.variety)
    try:
        for text in enumerate_texts(variety, args.n, args.enum_limit):
            print(text)
    except SizeLimitError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _verify_checks(args: argparse.Namespace):
    """Yield (name, passed, detail) for the whole cross-validation suite."""
    order = args.order
    limit = args.enum_limit

    for variety in TreeVariety:
        counts = tree_counts(variety, limit)
        for n in range(1, limit + 1):
            got = census(variety, n, limit).tree_count
            yield (
                f"enumeration-count {variety} n={n}",
                got == counts[n],
                f"enumerated {got}, series says {counts[n]}",
            )

    # T'' = m T' with T'(0) = 1, so the linear kernel's solution of
    # y' = m y + m is T' - 1: U_n = T_(n+1) - [n = 0], a count of its own
    # for each column of the table to sum to.  The columns are summed one
    # row t[k] at a time, so that no more than one row is held.
    for variety in TreeVariety:
        sums = [0] * order
        for k in range(order):
            sums = list(map(add, sums, root_ranks(variety, k, order)))
        m = _multiplier(variety, order)
        u = solve_linear_counts(m, m, order - 1)
        bad = [i for i in range(1, order + 1) if sums[i - 1] != u[i - 1] + (i == 1)]
        yield (
            f"root-rank-table row sums {variety}",
            not bad,
            "all rows equal the tree counts" if not bad else f"mismatch at sizes {bad[:5]}",
        )

    # One solve per selector at order --enum-limit: the recurrences are
    # causal, so counts[n] is the same at every order >= n.
    for variety in TreeVariety:
        roots = [root_ranks(variety, k, limit) for k in range(limit)]
        rank = [rank_vertex_counts(variety, k, limit).counts for k in range(limit)]
        size = {r: size_vertex_counts(variety, r, limit).counts for r in range(1, limit + 1)}
        joint = {(k, r): joint_vertex_counts(variety, k, r, limit).counts
                 for r in range(1, limit + 1) for k in range(limit)}
        for n in range(1, limit + 1):
            cen = census(variety, n, limit)
            notes = [f"rank k={k}" for k in range(n) if rank[k][n] != cen.rank_totals[k]]
            for r in range(1, n + 1):
                if size[r][n] != cen.size_totals[r]:
                    notes.append(f"size r={r}")
                notes += [f"joint k={k} i={r}" for k in range(n)
                          if joint[k, r][n] != cen.joint_totals.get((k, r), 0)]
            notes += [f"root-rank k={k} (root-rank-table)" for k in range(n)
                      if roots[k][n - 1] != cen.root_rank_counts[k]]
            yield (f"census-vs-recurrences {variety} n={n}", not notes,
                   "; ".join(notes[:6]) or "all selectors agree")

    for variety in TreeVariety:
        for n in range(1, limit + 1):
            fails = [c.name for c in check_inequalities(variety, n, limit).failures()]
            yield f"inequalities {variety} n={n}", not fails, "; ".join(fails) or "all hold"

    # Leaf-count identity: total(n) = (n+1) count(n) - count(n+1), non-plane.
    e = tree_counts(TreeVariety.NONPLANE, order + 1)
    leaf_seq = rank_vertex_counts(TreeVariety.NONPLANE, 0, order)
    bad = [n for n in range(order) if leaf_seq.counts[n] != (n + 1) * e[n] - e[n + 1]]
    yield (
        "leaf-count identity (n+1)E_n - E_(n+1)",
        not bad,
        "holds through the full order" if not bad else f"fails at n={bad[:5]}",
    )

    # Rank-1 root correction: d/dz of the rank-1 root series is z*E - z^2/2,
    # which n!-scaled reads t[1][n+1] = n E_(n-1) - [n = 2].
    t1 = root_ranks(TreeVariety.NONPLANE, 1, order)
    bad = [n for n in range(order) if t1[n] != n * e[max(n - 1, 0)] - (n == 2)]
    yield ("rank-1 root correction z*E - z^2/2", not bad, "mismatch" if bad else "series match")

    for variety in TreeVariety:
        anchor = limit_rank_fraction(variety, 0) == limit_subtree_prob(variety, 1)
        yield (
            f"limit anchor {variety}: rank-0 limit equals size-1 limit",
            anchor,
            "exact equality" if anchor else "mismatch",
        )

    ladder = sorted({max(1, args.r // 3), max(1, (2 * args.r) // 3), args.r})
    for variety in TreeVariety:
        fault = next(_bracket_faults(variety, ladder), None)
        yield (f"bracket nesting/anchoring {variety}", fault is None,
               fault or "brackets nested and anchored")


def _bracket_faults(variety: TreeVariety, ladder: list[int]) -> Iterator[str]:
    """What is wrong with each rank-1 bracket on the ladder, rung by rung:
    a_1 outside it, or a bracket no narrower than the one before."""
    a1 = limit_rank_fraction(variety, 1)
    prev = None
    for r in ladder:
        rep = bound_interval(variety, 1, r)
        if (rep.lower - a1).sign() > 0 or (rep.upper - a1).sign() < 0:
            yield f"closed form escapes bracket at r={r}"
        elif prev is not None and ((rep.lower - prev.lower).sign() < 0
                                   or (prev.upper - rep.upper).sign() < 0):
            yield f"bracket at r={r} not nested"
        prev = rep


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.order < 2 or args.order < args.enum_limit:
        parser.error("--order must be >= 2 and at least --enum-limit")
    failures = 0
    total = 0
    for name, passed, detail in _verify_checks(args):
        total += 1
        tag = "ok  " if passed else "FAIL"
        print(f"{tag}  {name}: {detail}")
        if not passed:
            failures += 1
    print(f"\n{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    handlers: dict[str, Callable] = {
        "counts": cmd_counts,
        "bounds": cmd_bounds,
        "limits": cmd_limits,
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
    }
    try:
        code = handlers[args.command](args, parser)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except InvariantError as exc:
        print(f"treerank: internal invariant failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # exit cannot raise again, and exit as a process killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
