"""One benchmark pass in a fresh interpreter: import wpsdeg.cli, run ops.

Usage: python3 bench/worker.py < request.json, with src/ on PYTHONPATH.
The request is {"ops": [argv, ...], "trace": bool}.  The ops run one after
another, each a wpsdeg.cli.main(argv) call with stdout and stderr captured
(a closed loop with one client).  The last stdout line is one JSON object
with the import time, the pass's wall and CPU time, peak RSS, and per op
its latency, exit code and output; traced passes add their spans.
"""

import time

_start = time.perf_counter()
import wpsdeg.cli  # noqa: E402  (the import is what set-up time measures)

IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the op failed; record it and go on with the pass
        code = None
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    return {"s": latency, "code": code, "out": out.getvalue(), "err": err.getvalue()[-2000:]}


def main() -> None:
    request = json.load(sys.stdin)
    main_fn, tracer = wpsdeg.cli.main, None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap(main_fn, "cli.main")

    results = []
    wall, cpu = time.perf_counter(), time.process_time()
    for op_id, argv in enumerate(request["ops"]):
        if tracer:
            tracer.op = op_id
        results.append(run_op(main_fn, argv))
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu

    print(json.dumps({
        "import_s": IMPORT_S,
        "version": wpsdeg.__version__,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
        "spans": tracer.spans if tracer else None,
    }))


if __name__ == "__main__":
    main()
