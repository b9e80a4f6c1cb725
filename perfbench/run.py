"""stabsim benchmark: drive the CLI the way a user does and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout (it finds `src/` next to this
directory).  It writes the workload's inputs, generated from --seed, under
`.perfbench/` in the checkout, starts one timed process that calls
`stabsim.cli.main` in a closed loop for S seconds, then checks every output.

--trace 0 reports the end-to-end metrics (run_s, setup_s, peak_rss_mb).
--trace 1 runs an untraced and a traced process for S/2 seconds each and
reports the per-layer metrics, the tracing overhead and the paper-shape
report.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Failed checks are listed
on the lines before it, starting with "# FAIL".  See NOTES.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# One BLAS thread for every process: the workloads' matrices are tiny, and
# starting OpenBLAS's second thread made `import stabsim` take 0.10-0.21 s
# on a 2-core VM, depending on what the other core was doing.
BLAS_THREADS = "1"
SETUP_REPEATS = 11
SETUP_PROBE = "from time import perf_counter as c; t = c(); import stabsim; print(c() - t)"
CHILD_TIMEOUT_S = 120
SHAPE_BETAS = (0.6, 1.2)
SHAPE_N = (200, 800)

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
EXTRA_LAYER_UNITS = {
    "trace.overhead_s": "s",
    "wall.run_s": "s",
    "wall.ref_s": "s",
    "shape.beta06_ratio": "ratio",
    "shape.beta12_ratio": "ratio",
    "shape.criterion10_ok": "count",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    return env


def blas_record() -> dict:
    """BLAS name, version and thread count, as far as numpy exposes them."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS") or "default"
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                get = getattr(ctypes.CDLL(lib), fn)
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_int
            info["blas_threads"] = get()
            return info
    return info


def git_revision() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


def run_record(load_at_start) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **blas_record(),
        "git_revision": git_revision(),
        "loadavg_at_start": load_at_start,
        "machine": platform.machine(),
    }


def measure_setup() -> tuple[float, float]:
    """Median time a fresh interpreter takes to import stabsim: (at the
    nominal speed, wall).  The reference job runs in this process right
    before and right after each fresh interpreter."""
    from perfbench.reference import reference, scale

    def ref() -> float:
        return statistics.median(reference() for _ in range(3))

    cmd = [sys.executable, "-c", SETUP_PROBE]
    env = child_env()
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)  # bytecode caches
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = ref()
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=60)
        t = float(out.stdout)
        scaled.append(scale(t, (before + ref()) / 2))
        raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


def timed_pass(work: Path, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "timed.py"), "--dir", str(work), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
    name = "result-traced.json" if trace else "result-plain.json"
    return json.loads((work / name).read_text())


def run_s(result: dict) -> float:
    """Median time of one pass of the workload's CLI calls at the nominal
    speed (the first pass is the warm-up and is left out)."""
    from perfbench.reference import scale

    return statistics.median(scale(p["s"], p["ref"]) for p in result["passes"][1:])


def wall(result: dict) -> dict:
    """Unscaled medians: pass wall time and reference-job time."""
    timed = result["passes"][1:]
    return {
        "wall.run_s": statistics.median(p["s"] for p in timed),
        "wall.ref_s": statistics.median(p["ref"] for p in timed),
    }


def shape_report(seed: int, tally) -> dict:
    """`stabsim bench` at beta 0.6 and 1.2: the mean doubling ratio of
    rowsums per measurement from n=200 to n=800 (criterion 10)."""
    from perfbench.checks import cli

    ratios = {}
    for beta in SHAPE_BETAS:
        rc, out = cli(["bench", "--beta", beta, "--n-min", SHAPE_N[0], "--n-max",
                       SHAPE_N[1], "--step", 200, "--seed", seed])
        tally.check(rc == 0, f"stabsim bench --beta {beta}: exit code {rc}")
        rows = {int(r["n"]): float(r["rowsums_per_meas"]) for r in csv.DictReader(io.StringIO(out))}
        lo, hi = rows.get(SHAPE_N[0], 0.0), rows.get(SHAPE_N[1], 0.0)
        ratios[beta] = math.sqrt(hi / lo) if lo > 0 else 0.0
    return {
        "shape.beta06_ratio": ratios[0.6],
        "shape.beta12_ratio": ratios[1.2],
        "shape.criterion10_ok": int(ratios[1.2] > ratios[0.6]),
    }


def main(argv=None) -> int:
    from_start = os.getloadavg()
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy loads, here and in children
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stabsim" / "__init__.py").is_file():
        print(f"error: no stabsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    record = run_record(from_start)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.write_inputs(args.workload, args.seed, work)
    (work / "spec.json").write_text(json.dumps(spec))

    tally = checks.Tally()
    if args.trace == 0:
        setup_s, setup_wall = measure_setup()
        plain = timed_pass(work, args.seconds, trace=False)
        checks.check_passes(args.workload, spec, plain, work, tally, "plain")
        values = {
            "run_s": run_s(plain),
            "setup_s": setup_s,
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        unscaled = {**wall(plain), "wall.setup_s": setup_wall}
        units = END_TO_END_UNITS
    else:
        plain = timed_pass(work, args.seconds / 2, trace=False)
        traced = timed_pass(work, args.seconds / 2, trace=True)
        for label, res in (("plain", plain), ("traced", traced)):
            checks.check_passes(args.workload, spec, res, work, tally, label)
        checks.check_counters(traced, tally)
        values = tracing.summarize(traced["passes"][1:])
        values["trace.overhead_s"] = run_s(traced) - run_s(plain)
        unscaled = wall(plain)
        values.update(unscaled)
        values.update(shape_report(args.seed, tally))
        units = {**tracing.LAYER_UNITS, **EXTRA_LAYER_UNITS}
        if not values["shape.criterion10_ok"]:
            print("# FLAG criterion 10: the beta=1.2 doubling ratio is not above beta=0.6")
        for name in traced["missing"]:
            print(f"# FLAG not traced (missing): {name}")
    checks.oracle_referee(args.workload, args.seed, work, tally)
    checks.demo_guard(tally)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(plain["passes"]) - 1,
        "unscaled": unscaled,
        "record": record,
        "failures": tally.notes,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    (work / "report.json").write_text(json.dumps({**report, "metrics": metrics}, indent=1))
    print("# record " + json.dumps(record))
    print(f"# {args.workload} seed {args.seed}: {report['passes']} timed passes, "
          f"{tally.attempted} checks, {tally.failed} failed; unscaled {json.dumps(unscaled)}")
    for note in tally.notes[:20]:
        print(f"# FAIL {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
