"""One fresh interpreter: time a cold import of treerank and its CLI, then run commands.

Reads a JSON job from stdin, `{"argvs": [[...], ...] | null, "trace": bool}`,
and prints one JSON object to stdout.  Each argv goes through
`treerank.cli.main` with stdout captured; `wall_s` and `cpu_s` (the
process's CPU time, which leaves out time spent waiting for a core) cover
the commands only, after the import.  With `argvs` null the process only
times the import, as `import_s` (wall) and `import_cpu_s`.  The import
covers `treerank` and `treerank.cli`, the entry point the commands go
through (the package does not import it, and it brings in argparse and
json).  Nothing but `time` is imported before them, so the import time
includes every module they pull in.
"""

import time

_start, _start_cpu = time.perf_counter(), time.process_time()
import treerank  # noqa: E402
import treerank.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start
IMPORT_CPU_S = time.process_time() - _start_cpu

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _call(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a console script would die here with exit code 1
        traceback.print_exc()
        return 1


def run_commands(argvs: list[list[str]]) -> tuple[float, float, list[dict]]:
    cli = sys.modules["treerank.cli"]
    results = []
    start, start_cpu = time.perf_counter(), time.process_time()
    for argv in argvs:
        began = time.process_time()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = _call(cli.main, argv)
        results.append((rc, buf, time.process_time() - began))
    wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    return wall, cpu, [{"rc": rc, "stdout": buf.getvalue(), "cpu_s": took}
                       for rc, buf, took in results]


def main() -> None:
    job = json.load(sys.stdin)
    result = {"import_s": IMPORT_S, "import_cpu_s": IMPORT_CPU_S,
              "treerank_file": treerank.__file__}
    if job["argvs"] is not None:
        tracer = None
        if job["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        wall, cpu, outputs = run_commands(job["argvs"])
        result["wall_s"] = wall
        result["cpu_s"] = cpu
        result["outputs"] = outputs
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.metrics(wall)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
