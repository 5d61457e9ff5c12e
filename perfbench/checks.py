"""Output checks for one iteration of a workload.

A command fails when its exit code is not 0, when its stdout differs
from the digest recorded for its argv in `reference.json`, or when a
check that needs no stored reference fails:

- `verify` prints `N/N checks passed`;
- on each bracket rung lower <= upper, each rung nests inside the
  previous rung of the same variety, and every non-plane rung contains
  the independent estimate of a_K quoted in tests/test_acceptance.py.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

from workloads import key

REFERENCE = Path(__file__).with_name("reference.json")

# Independent high-order numeric estimates of the non-plane rank-K limits.
RANK_ESTIMATES = {
    2: Fraction("0.20278137"),
    3: Fraction("0.0893474"),
    4: Fraction("0.0243854"),
}

_PASSED = re.compile(r"^(\d+)/(\d+) checks passed$")


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _decimal(text: str) -> Fraction:
    """A printed enclosure midpoint; a trailing `±w` only widens it."""
    return Fraction(text.split("±")[0])


def _bracket(argv: list[str], stdout: str) -> tuple[Fraction, Fraction]:
    if "--format" in argv:
        payload = json.loads(stdout)
        return _decimal(payload["lower"]["decimal"]), _decimal(payload["upper"]["decimal"])
    found = {}
    lines = stdout.splitlines()
    for name in ("lower", "upper"):
        at = next(n for n, line in enumerate(lines) if line.startswith(f"{name} = "))
        found[name] = _decimal(lines[at + 1].split("≈")[1].strip())
    return found["lower"], found["upper"]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def failures(argvs: list[list[str]], outputs: list[dict], reference: dict[str, str]) -> list[str]:
    """One message per failed command; empty when every command passed."""
    bad: dict[int, str] = {}
    for n, (argv, out) in enumerate(zip(argvs, outputs)):
        if out["rc"] != 0:
            bad[n] = f"exit code {out['rc']}"
        elif reference.get(key(argv)) != digest(out["stdout"]):
            bad[n] = "stdout differs from the reference digest"
        elif argv[0] == "verify":
            tail = out["stdout"].rstrip().splitlines()[-1]
            m = _PASSED.match(tail)
            if not m or m.group(1) != m.group(2):
                bad[n] = f"verify reported {tail!r}"

    previous: dict[str, tuple[Fraction, Fraction]] = {}
    for n, (argv, out) in enumerate(zip(argvs, outputs)):
        if argv[0] != "bounds" or n in bad:
            continue
        variety, k = _flag(argv, "--variety"), int(_flag(argv, "--k"))
        try:
            lower, upper = _bracket(argv, out["stdout"])
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            bad[n] = f"unreadable bracket: {exc!r}"
            continue
        if not lower <= upper:
            bad[n] = f"lower {lower} > upper {upper}"
        elif variety in previous and not (
            previous[variety][0] <= lower and upper <= previous[variety][1]
        ):
            bad[n] = "bracket does not nest inside the previous rung"
        elif variety == "nonplane" and not lower <= RANK_ESTIMATES[k] <= upper:
            bad[n] = f"bracket misses the a_{k} estimate {RANK_ESTIMATES[k]}"
        previous[variety] = (lower, upper)
    return [f"{key(argvs[n])}: {why}" for n, why in sorted(bad.items())]
