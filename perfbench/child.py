"""One benchmark child: a fresh interpreter that runs an op list through
``rscount.cli.main`` and reports timings and outputs as JSON on stdout.

Usage (started by run.py): ``python -I child.py <src-dir>``, then the config
``{"ops": [[argv...], ...], "trace": bool, "spans_path": str | null}`` on
stdin.  The child prints ``ready`` as soon as ``rscount.cli`` is imported, so
the parent can time interpreter start plus import; it prints nothing before.
"""

import sys

if __name__ == "__main__":
    # The parent times set-up up to the "ready" line: interpreter start plus
    # this import, before the harness imports anything of its own.
    sys.path.insert(0, sys.argv[1])
    import rscount.cli  # noqa: F401

    sys.stdout.write("ready\n")
    sys.stdout.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402


def run_ops(ops, run_op, tracer=None) -> dict:
    """Run each argv through ``run_op`` in order; outputs are kept, not checked."""
    results = []
    started = perf_counter()
    for index, argv in enumerate(ops):
        if tracer is not None:
            tracer.current_op = index
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_op(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a failed op is recorded and the run goes on
            code = None
            error = traceback.format_exc()
        elapsed = perf_counter() - t0
        results.append(
            {"ms": elapsed * 1e3, "code": code, "stdout": out.getvalue(),
             "stderr": err.getvalue(), "error": error}
        )
    return {"wall_s": perf_counter() - started, "ops": results}


def peak_rss_kb() -> int:
    """This process's peak resident set size (VmHWM).

    Not ``ru_maxrss``: Linux carries the parent's peak over into a child's
    ``ru_maxrss`` across fork and exec, so it would report the parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    from rscount.cli import main as run_op

    config = json.load(sys.stdin)
    tracer = None
    if config["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        run_op = tracer.wrap("cli.main", run_op)
    report = run_ops(config["ops"], run_op, tracer)
    report["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        report["trace"] = tracer.report()
        if config.get("spans_path"):
            tracer.write(config["spans_path"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
