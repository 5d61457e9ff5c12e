"""treerank benchmark: one run of one workload.

    python3 perfbench/run.py --workload {oracle,bracket,series} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports treerank from ./src.  Each
iteration starts a fresh interpreter (perfbench/child.py), so lru caches
start cold as they do for every CLI call, and runs the workload's commands
through `treerank.cli.main`, one process, no threads.  Iterations repeat
until S seconds have passed, and every command's output is checked
(perfbench/checks.py).

With --trace 0 the result holds the end-to-end metrics:
  cpu_s        median over iterations of the CPU time of the commands after
               import; the commands run in one thread, so on an idle core
               this is their wall time, but unlike wall time it leaves out
               time spent waiting for a core another process holds
  setup_s      the CPU time of a cold `import treerank, treerank.cli` in a
               fresh interpreter: each iteration's own import and those of
               the IMPORT_PROBES import-only interpreters that follow it
               give one sample, the fastest of them; setup_s is the median
               of those samples
  peak_rss_mb  median over iterations of the iteration process's ru_maxrss
The wall times are kept in the metadata line.  With --trace 1 iterations
alternate between untraced and traced (perfbench/spans.py); the result
holds the per-layer metrics of the traced ones (times as medians, counters
exact and required to repeat) and trace.overhead_s, the traced minus the
untraced median CPU time.

The last line of stdout is the JSON result; the line before it holds the
run's metadata.  Failed commands count in `failed` out of `attempted`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
IMPORT_PROBES = 6
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = root / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else None
    return text


def _metadata(args, root: Path) -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


class Runner:
    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "treerank" / "__init__.py").is_file():
            raise BenchError(f"no treerank sources under {src}; run from the repository root")
        self.root = root
        self.package = (src / "treerank" / "__init__.py").resolve()
        # A fixed hash seed removes one source of run-to-run variation.
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")

    def child(self, argvs: list[list[str]] | None, trace: bool = False) -> dict:
        job = json.dumps({"argvs": argvs, "trace": trace})
        proc = subprocess.run(
            [sys.executable, str(CHILD)], input=job, capture_output=True, text=True,
            env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT_S,
        )
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"benchmark process exited {proc.returncode}")
        result = json.loads(proc.stdout)
        if Path(result["treerank_file"]).resolve() != self.package:
            raise BenchError(f"imported {result['treerank_file']}, not {self.package}")
        return result


def _is_time(name: str) -> bool:
    return name.endswith("_s")


def measure(args, runner: Runner) -> dict:
    argvs = workloads.commands(args.workload, args.seed)
    reference = checks.load_reference()
    runner.child(None)  # compiles the bytecode caches before anything is timed

    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    last = 0.0
    # Stop before an iteration that would overrun the deadline, once the
    # minimum samples are in, so a run lasts about --seconds.
    while (time.perf_counter() + last <= deadline or len(untraced) < 3
           or (args.trace and len(traced) < 2)):
        began = time.perf_counter()
        use_trace = bool(args.trace) and len(traced) < len(untraced)
        sample = runner.child(argvs, use_trace)
        (traced if use_trace else untraced).append(sample)
        imports = [sample["import_cpu_s"]]
        imports.extend(runner.child(None)["import_cpu_s"] for _ in range(IMPORT_PROBES))
        setups.append(min(imports))
        bad = checks.failures(argvs, sample["outputs"], reference)
        attempted += len(argvs)
        failed += len(bad)
        problems.extend(bad)
        sample["command_cpu_s"] = [out["cpu_s"] for out in sample.pop("outputs")]
        last = time.perf_counter() - began

    cpu = statistics.median(s["cpu_s"] for s in untraced)
    if args.trace:
        layers = [s["layers"] for s in traced]
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if _is_time(name):
                metrics[name] = statistics.median(values)
                continue
            if len(set(values)) != 1:
                problems.append(f"counter {name} did not repeat: {values}")
            metrics[name] = values[0]
        metrics["trace.overhead_s"] = statistics.median(s["cpu_s"] for s in traced) - cpu
        units = {name: "s" if _is_time(name) else "ratio" if name.endswith("_ratio")
                 else "count" for name in metrics}
    else:
        metrics = {
            "cpu_s": cpu,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in untraced),
        }
        units = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    meta = _metadata(args, runner.root)
    meta.update(iterations=len(untraced) + len(traced), traced_iterations=len(traced),
                import_samples=len(setups) * (IMPORT_PROBES + 1),
                commands=[workloads.key(a) for a in argvs],
                wall_samples=[s["wall_s"] for s in untraced],
                cpu_samples=[s["cpu_s"] for s in untraced],
                command_cpu_samples=[s["command_cpu_s"] for s in untraced])
    print(json.dumps({"meta": meta}))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args, Runner(Path.cwd()))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
