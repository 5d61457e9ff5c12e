"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--seeds N] [--trace 0|1] [--out FILE]

For every workload in BENCHMARK.json, runs `perfbench/run.py` once for
each seed 1..N, one after the other, with BENCHMARK.json's run_seconds.
For each metric it prints the median and the quartiles of the per-run
values (`statistics.quantiles`, n=4) and the spread (q3 - q1) / median;
end-to-end metrics are marked `steady` when that spread is below a third
of their bound.  --out writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path("BENCHMARK.json")
RUN = Path(__file__).resolve().parent / "run.py"


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        per_metric: dict[str, list[float]] = {}
        failed = attempted = 0
        meta = None
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            meta = json.loads(lines[-2])["meta"]
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if n in bounds or args.trace), file=sys.stderr, flush=True)
        entry = {name: summarize(values) for name, values in per_metric.items()}
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": entry,
                             "meta": {k: meta[k] for k in ("commit", "nproc", "python", "mpmath",
                                                           "mpmath_backend", "seconds")}}
        for name, s in entry.items():
            mark = ""
            if name in bounds:
                steady = s["spread"] < bounds[name] / 3
                mark = "steady" if steady else "NOT STEADY"
            print(f"{workload:8s} {name:36s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f} {mark}")
        print(f"{workload:8s} failed {failed}/{attempted}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
