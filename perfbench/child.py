"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec holds the source directory the package must come from, the CLI
argument lists, the worker count, whether to trace, and where to write the
spans. The child times ``import prunekit.cli`` (the set-up every CLI call
pays: the package, numpy, scipy and argparse), then the ``cli.main`` calls
together, and prints one JSON line with both times, its own peak RSS, each
call's exit code and summary line, and, when traced, the per-layer metrics.
"""

import sys
import time

_start = time.perf_counter()
import prunekit.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _summary(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return summary if isinstance(summary, dict) else None


def main() -> None:
    spec = json.loads(sys.argv[1])
    if not os.path.realpath(prunekit.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
        raise SystemExit(f"prunekit imported from {prunekit.__file__}, not {spec['src']}")
    cli_main = prunekit.cli.main
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        cli_main = tracer.wrap("cli.main", cli_main)

    calls = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed call; keep timing the others
                code = "traceback"
                traceback.print_exc()
        calls.append((code, out.getvalue(), err.getvalue()))
    wall_s = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_mb": maxrss_kb * 1024 / 1e6,
        "calls": [{"exit": code, "summary": _summary(out), "stderr": err[-2000:]}
                  for code, out, err in calls],
        "facts": _facts(),
    }
    if tracer is not None:
        result["layer"] = tracing.layer_metrics(tracer.spans, spec["threads"])
        result["trace_errors"] = tracing.nesting_errors(tracer.spans, tracer.main_thread)
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "thread", "parent", "start_s", "end_s",
                                      "count"], "spans": tracer.spans}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
