"""Record the stdout digest of every argv the workloads can produce.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record_reference.py

It runs each argv through `treerank.cli.main` in this one process (the
outputs do not depend on what is cached) and rewrites
perfbench/reference.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import treerank.cli  # noqa: E402

from checks import REFERENCE, digest  # noqa: E402
from workloads import NAMES, every_command, key  # noqa: E402


def main() -> int:
    reference = {}
    for workload in NAMES:
        argvs = every_command(workload)
        for n, argv in enumerate(argvs, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = treerank.cli.main(argv)
            if rc != 0:
                print(f"{key(argv)} exited {rc}; nothing recorded", file=sys.stderr)
                return 1
            reference[key(argv)] = digest(buf.getvalue())
            print(f"{workload} {n}/{len(argvs)}", file=sys.stderr, flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} digests to {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
