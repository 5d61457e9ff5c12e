"""The benchmark's workloads: CLI argument lists drawn from a seed.

Every argv passes only flags its subcommand reads, so pruning unused
flags from a subcommand cannot break the benchmark.

- oracle:  `treerank verify` with its defaults (enum-limit 10, order 80,
  r 12), which is what users run.  The seed is recorded, not used.
- bracket: a refinement ladder `bounds --k K --r R` for R = 12, 48, 100
  and both varieties, in one process so cache reuse across r shows; the
  r = 100 rung prints JSON.  The seed draws K from {2, 3, 4}.
- series:  `counts --order 200` for both varieties, one rank, joint, size
  and root request each.  The seed draws k in 0..4, r in 1..12, a joint
  (k, i) with i in 1..16 and a nonzero count, and the output format of the
  rank, joint and size requests.  Order 320 would be the ROADMAP size,
  but one rank request there takes about 12 s.
"""

from __future__ import annotations

import random

VARIETIES = ("nonplane", "plane")
BRACKET_KS = (2, 3, 4)
LADDER = (12, 48, 100)
SERIES_ORDER = 200
SERIES_KS = range(0, 5)
SERIES_RS = range(1, 13)
SERIES_IS = range(1, 17)
# Joint selectors with a nonzero count: a root of rank 0 is a leaf, and a
# root of rank k >= 1 heads some tree of every size i >= k + 1.  A zero
# count makes the request a third as expensive, so drawing only nonzero
# pairs keeps every seed's runs equally costly.
JOINT_PAIRS = tuple((k, i) for k in SERIES_KS for i in SERIES_IS
                    if (k == 0 and i == 1) or (k >= 1 and i >= k + 1))
FORMATS = ("table", "json", "csv")
# The root table has ~20k rows, so its format alone moves wall time and
# peak memory by a third; it stays fixed to keep runs of different seeds
# comparable.
ROOT_FORMAT = "json"

NAMES = ("oracle", "bracket", "series")


def _bounds(variety: str, k: int, r: int) -> list[str]:
    argv = ["bounds", "--variety", variety, "--k", str(k), "--r", str(r)]
    if r == LADDER[-1]:
        argv += ["--format", "json"]
    return argv


def ladder(k: int) -> list[list[str]]:
    """The bracket workload's commands for one rank K."""
    return [_bounds(v, k, r) for v in VARIETIES for r in LADDER]


def _counts(variety: str, selector: list[str], fmt: str) -> list[str]:
    return ["counts", "--variety", variety, "--order", str(SERIES_ORDER),
            *selector, "--format", fmt]


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv list one iteration of the workload runs, in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle":
        return [["verify"]]
    if workload == "bracket":
        return ladder(rng.choice(BRACKET_KS))
    if workload == "series":
        out = []
        for v in VARIETIES:
            k, (jk, ji), r = rng.choice(SERIES_KS), rng.choice(JOINT_PAIRS), rng.choice(SERIES_RS)
            for selector in (["--kind", "rank", "--k", str(k)],
                             ["--kind", "joint", "--k", str(jk), "--i", str(ji)],
                             ["--kind", "size", "--r", str(r)]):
                out.append(_counts(v, selector, rng.choice(FORMATS)))
            out.append(_counts(v, ["--kind", "root"], ROOT_FORMAT))
        return out
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(NAMES)}")


def every_command(workload: str) -> list[list[str]]:
    """Every argv `commands` can produce for the workload, for reference digests."""
    if workload == "oracle":
        return [["verify"]]
    if workload == "bracket":
        return [argv for k in BRACKET_KS for argv in ladder(k)]
    if workload == "series":
        selectors = [["--kind", "rank", "--k", str(k)] for k in SERIES_KS]
        selectors += [["--kind", "joint", "--k", str(k), "--i", str(i)] for k, i in JOINT_PAIRS]
        selectors += [["--kind", "size", "--r", str(r)] for r in SERIES_RS]
        return [_counts(v, s, f) for v in VARIETIES for s in selectors for f in FORMATS] + \
            [_counts(v, ["--kind", "root"], ROOT_FORMAT) for v in VARIETIES]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(NAMES)}")


def key(argv: list[str]) -> str:
    return " ".join(argv)
