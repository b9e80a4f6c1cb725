"""The timed process: one client calling `stabsim.cli.main` in a closed loop.

    python3 perfbench/timed.py --dir WORK --seconds S [--trace]

WORK holds the generated inputs and `spec.json` (the CLI calls of one
pass).  The first pass warms up; then passes repeat until S seconds of
passes have run (and at least MIN_PASSES of them).  The reference job
(reference.py) is timed before and after every pass.  Each call's exit code
and output are kept, deduplicated, for the checks the parent runs after
this process has ended.  The result goes to WORK/result-<traced|plain>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter as clock

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 3


def call(main, argv) -> tuple:
    """(exit code, stdout, seconds) of one in-process CLI call.  A crash is
    recorded as a failed call, not raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - the program under test crashed
            rc = f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
    return rc, out.getvalue(), dt


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    work = Path(args.dir)
    spec = json.loads((work / "spec.json").read_text())
    os.chdir(work)

    from perfbench.reference import reference
    from stabsim.cli import main as cli_main

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer

        tracer = Tracer().install()

    texts: dict[str, int] = {}
    passes = []
    start = None
    while True:
        ref = reference()
        calls, total = [], 0.0
        for argv_ in spec["calls"]:
            rc, out, dt = call(cli_main, argv_)
            total += dt
            calls.append([rc, texts.setdefault(out, len(texts))])
        layers = tracer.take() if tracer else None
        ref = (ref + reference()) / 2
        passes.append({"s": total, "ref": ref, "calls": calls, "layers": layers})
        if start is None:
            start = clock()  # the first pass was the warm-up
        elif len(passes) > MIN_PASSES and clock() - start >= args.seconds:
            break
    if tracer:
        tracer.uninstall()

    result = {
        "passes": passes,
        "outputs": list(texts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "missing": tracer.missing if tracer else [],
    }
    name = "result-traced.json" if args.trace else "result-plain.json"
    (work / name).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
