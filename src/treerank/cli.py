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
from operator import add
from typing import Callable, Sequence

from .constants import MAX_DIGITS
from .counting import (
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
    bound_interval,
    bound_report_json,
    limit_joint_prob,
    limit_rank_fraction,
    limit_subtree_prob,
)
from .series import DEFAULT_ORDER, InvariantError, solve_linear_counts, tree_counts
from .variety import TreeVariety, parse_variety


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


# The largest --enum-limit: a pass visits every tree of each size up to it,
# and there are 435 847 959 plane trees of size 13 but 5 045 745 069 of size 14.
MAX_ENUM_LIMIT = 13

_SHARED_FLAGS = {
    "--variety": dict(default="nonplane", choices=["nonplane", "plane"]),
    "--order": dict(type=_at_least(0), default=DEFAULT_ORDER,
                    help="series truncation order (default 80)"),
    "--digits": dict(type=_at_least(1, MAX_DIGITS), default=12,
                     help=f"decimal digits for printed enclosures (at most {MAX_DIGITS}, "
                          "the most an enclosure can certify)"),
    "--enum-limit": dict(type=_at_least(1, MAX_ENUM_LIMIT), default=DEFAULT_ENUM_LIMIT,
                         help="largest size enumerated exhaustively (default 10, at most "
                              f"{MAX_ENUM_LIMIT})"),
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
    p_counts.add_argument("--kind", required=True, choices=["rank", "size", "joint", "root"])
    p_counts.add_argument("--k", type=_at_least(0), default=None, help="vertex rank")
    p_counts.add_argument("--r", type=_at_least(1), default=None, help="subtree size")
    p_counts.add_argument("--i", type=_at_least(1), default=None, help="subtree size (joint)")
    p_counts.add_argument("--n-max", type=_at_least(0), default=None, help="last row to print")
    p_counts.add_argument("--format", default="table", choices=["table", "json", "csv"])

    p_bounds = sub.add_parser("bounds", help="rigorous bracket for a rank limit")
    _add_shared(p_bounds, "--variety", "--digits")
    p_bounds.add_argument("--k", type=_at_least(0), required=True)
    p_bounds.add_argument("--r", type=_at_least(1), default=12, help="truncation (default 12)")
    p_bounds.add_argument("--format", default="table", choices=["table", "json"])

    p_limits = sub.add_parser("limits", help="exact limiting probabilities")
    _add_shared(p_limits, "--variety", "--digits")
    p_limits.add_argument("--kind", default="rank", choices=["rank", "v", "w"])
    p_limits.add_argument("--k", type=_at_least(0), default=None)
    p_limits.add_argument("--r", type=_at_least(1), default=None)
    p_limits.add_argument("--i", type=_at_least(1), default=None)
    p_limits.add_argument("--format", default="table", choices=["table", "json"])

    p_enum = sub.add_parser("enumerate", help="dump every tree of one size")
    _add_shared(p_enum, "--variety", "--enum-limit")
    p_enum.add_argument("--n", type=_at_least(1), required=True)

    p_verify = sub.add_parser("verify", help="run the cross-module oracle suite")
    _add_shared(p_verify, "--order", "--enum-limit")
    p_verify.add_argument("--r", type=_at_least(1), default=12, help="bracket truncation to check")

    return parser


# The selector flags each --kind reads; a selector flag it does not read
# is a usage error, as any flag its subcommand does not read is.
_COUNTS_SELECTORS = {"rank": ("k",), "size": ("r",), "joint": ("k", "i"), "root": ()}
_LIMITS_SELECTORS = {"rank": ("k",), "v": ("r",), "w": ("k", "i")}


def _reject_unread_selectors(args: argparse.Namespace, parser: argparse.ArgumentParser,
                             reads: dict[str, tuple[str, ...]]) -> None:
    unread = [f"--{name}" for name in ("k", "r", "i")
              if name not in reads[args.kind] and getattr(args, name) is not None]
    if unread:
        parser.error(f"--kind {args.kind} does not read {' '.join(unread)}")


def _print_root_rows(variety: TreeVariety, n_max: int, fmt: str) -> None:
    """Print every nonzero t[k][i] with i <= n_max, one f-string per row.

    JSON comes out byte for byte as `json.dumps(payload, indent=2)` would
    print it, without building the payload.
    """
    columns = zip(*[root_ranks(variety, k, n_max) for k in range(n_max)])
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


def cmd_counts(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _reject_unread_selectors(args, parser, _COUNTS_SELECTORS)
    variety = parse_variety(args.variety)
    order = args.order
    n_max = args.n_max if args.n_max is not None else order
    if n_max > order:
        parser.error(f"--n-max must be in 0..{order}")

    if args.kind == "root":
        _print_root_rows(variety, n_max, args.format)
        return 0

    if args.kind == "rank":
        if args.k is None:
            parser.error("--kind rank needs --k >= 0")
        seq = rank_vertex_counts(variety, args.k, order)
    elif args.kind == "size":
        if args.r is None:
            parser.error("--kind size needs --r >= 1")
        seq = size_vertex_counts(variety, args.r, order)
    else:
        if args.k is None or args.i is None:
            parser.error("--kind joint needs --k >= 0 and --i >= 1")
        seq = joint_vertex_counts(variety, args.k, args.i, order)

    rows = seq.csv_rows(args.digits)[: n_max + 2]
    if args.format == "json":
        payload = {
            "variety": str(variety),
            "selector": seq.selector,
            "rows": [
                {
                    "n": int(r[0]),
                    "count": int(r[1]),
                    "prob_numerator": r[2],
                    "prob_denominator": r[3],
                    "prob_decimal": r[4],
                }
                for r in rows[1:]
            ],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("\n".join(",".join(r) for r in rows))
    else:
        for r in rows:
            print("\t".join(r))
    return 0


def cmd_bounds(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    variety = parse_variety(args.variety)
    report = bound_interval(variety, args.k, args.r)
    if args.format == "json":
        print(bound_report_json(report, args.digits))
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
    _reject_unread_selectors(args, parser, _LIMITS_SELECTORS)
    variety = parse_variety(args.variety)
    if args.kind == "rank":
        if args.k is None:
            parser.error("--kind rank needs --k")
        if args.k not in (0, 1):
            parser.error("closed forms exist for k = 0 and 1 only; use `bounds`")
        value = limit_rank_fraction(variety, args.k)
        label = f"rank k={args.k}"
    elif args.kind == "v":
        if args.r is None:
            parser.error("--kind v needs --r >= 1")
        value = limit_subtree_prob(variety, args.r)
        label = f"subtree size r={args.r}"
    else:
        if args.k is None or args.i is None:
            parser.error("--kind w needs --k >= 0 and --i >= 1")
        value = limit_joint_prob(variety, args.k, args.i)
        label = f"rank k={args.k}, size i={args.i}"
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
    variety = parse_variety(args.variety)
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
            ok = True
            notes = []
            for k in range(n):
                if rank[k][n] != cen.rank_totals[k]:
                    ok = False
                    notes.append(f"rank k={k}")
            for r in range(1, n + 1):
                if size[r][n] != cen.size_totals[r]:
                    ok = False
                    notes.append(f"size r={r}")
                for k in range(n):
                    if joint[k, r][n] != cen.joint_totals.get((k, r), 0):
                        ok = False
                        notes.append(f"joint k={k} i={r}")
            for k in range(n):
                if roots[k][n - 1] != cen.root_rank_counts[k]:
                    ok = False
                    notes.append(f"root-rank k={k} (root-rank-table)")
            yield (
                f"census-vs-recurrences {variety} n={n}",
                ok,
                "all selectors agree" if ok else "; ".join(notes[:6]),
            )

    for variety in TreeVariety:
        for n in range(1, limit + 1):
            report = check_inequalities(variety, n, limit)
            fails = report.failures()
            yield (
                f"inequalities {variety} n={n}",
                report.all_hold,
                "all hold" if report.all_hold else "; ".join(c.name for c in fails),
            )

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
    ok = all(t1[n] == n * e[max(n - 1, 0)] - (n == 2) for n in range(order))
    yield ("rank-1 root correction z*E - z^2/2", ok, "series match" if ok else "mismatch")

    for variety in TreeVariety:
        anchor = limit_rank_fraction(variety, 0) == limit_subtree_prob(variety, 1)
        yield (
            f"limit anchor {variety}: rank-0 limit equals size-1 limit",
            anchor,
            "exact equality" if anchor else "mismatch",
        )

    for variety in TreeVariety:
        prev = None
        ok = True
        detail = "brackets nested and anchored"
        ladder = sorted({max(1, args.r // 3), max(1, (2 * args.r) // 3), args.r})
        for r in ladder:
            rep = bound_interval(variety, 1, r)
            a1 = limit_rank_fraction(variety, 1)
            inside = (rep.lower - a1).sign() <= 0 and (rep.upper - a1).sign() >= 0
            if not inside:
                ok = False
                detail = f"closed form escapes bracket at r={r}"
                break
            if prev is not None:
                nested = (rep.lower - prev.lower).sign() >= 0 and \
                    (prev.upper - rep.upper).sign() >= 0
                if not nested:
                    ok = False
                    detail = f"bracket at r={r} not nested"
                    break
            prev = rep
        yield (f"bracket nesting/anchoring {variety}", ok, detail)


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
    parser = build_parser()
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
