"""Output checks.  None of this runs inside the timed process.

Every check adds one to `Tally.attempted`; a wrong output or a non-zero exit
code also adds one to `Tally.failed`.

    python3 perfbench/checks.py --record-demos

re-records `demo_transcripts.json` from the current code.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEMO_FILE = HERE / "demo_transcripts.json"
DEMOS = ("teleport", "ghz", "densecoding", "simon", "shor9")
ENGINES = ("tableau", "mixed", "beyond", "oracle")
DEMO_SEEDS = range(10)
ORACLE_N = 8
ORACLE_RUNS = 3

_OVERLAP = re.compile(r"2\^-(\d+)/2 = (\S+)")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def cli(argv) -> tuple:
    """(exit code, stdout) of one in-process CLI call."""
    from perfbench.timed import call
    from stabsim.cli import main

    rc, out, _ = call(main, [str(a) for a in argv])
    return rc, out


# -- per-workload output checks ---------------------------------------------------


def bits_ok(bits: str, n: int) -> bool:
    return len(bits) == n and set(bits) <= {"0", "1"}


def check_dense(expect, k, text, work):
    lines = text.splitlines()
    n = expect["n"]
    if len(lines) != 1 or not bits_ok(lines[0], 2 * n):
        return "transcript is not 2n bits"
    if lines[0][:n] != lines[0][n:]:
        return "second measurement sweep differs from the first"
    return None


def check_reversible(expect, k, text, work):
    bits, n = expect["bits"], expect["n"]
    want = [bits] + [f"m {a} -> {bits[a]} (determinate)" for a in range(n)]
    got = text.splitlines()
    if got == want:
        return None
    if len(got) != len(want):
        return f"expected {len(want)} lines, got {len(got)}"
    first = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    return f"line {first}: got {got[first]!r}, want {want[first]!r}"


def _tableau_of(text: str, n: int):
    from stabsim.program import parse
    from stabsim.synth import tableau_of_program

    program = parse(text)
    program.n = n
    return tableau_of_program(program)


def check_synth(expect, k, text, work):
    if k in (0, 1):  # canonicalize, minimize: same Clifford as U
        want = _tableau_of((work / "u.chp").read_text(), expect["n"])
        try:
            got = _tableau_of(text, expect["n"])
        except Exception as exc:  # noqa: BLE001 - unparsable output is a wrong answer
            return f"output does not rebuild a tableau: {exc}"
        return None if got == want else "output circuit is not U"
    if k == 2:
        m = _OVERLAP.fullmatch(text.strip())
        if not m or int(m.group(1)) != expect["s"]:
            return f"want overlap 2^-{expect['s']}/2, got {text.strip()!r}"
        if abs(float(m.group(2)) / 2 ** (-expect["s"] / 2) - 1) > 1e-9:
            return f"overlap value {m.group(2)} does not match 2^-{expect['s']}/2"
        return None
    return None if text.strip() == "zero" else f"want zero overlap, got {text.strip()!r}"


def check_beyond(expect, k, text, work):
    lines = text.splitlines()
    return None if len(lines) == 1 and bits_ok(lines[0], expect["n"]) else "bad transcript"


CHECKERS = {
    "chp_dense": check_dense,
    "chp_reversible": check_reversible,
    "synth": check_synth,
    "beyond_t": check_beyond,
}


def check_passes(workload: str, spec: dict, result: dict, work: Path, tally: Tally, label: str):
    """Exit code and output of every call of every pass; every pass must
    also repeat the first one byte for byte (same inputs, same seed)."""
    checker = CHECKERS[workload]
    outputs = result["outputs"]
    verdicts = {}
    first = result["passes"][0]["calls"]
    for i, p in enumerate(result["passes"]):
        for k, ((rc, out_id), argv) in enumerate(zip(p["calls"], spec["calls"])):
            where = f"{label} pass {i} `stabsim {' '.join(argv)}`"
            tally.check(rc == 0, f"{where}: exit code {rc}")
            if (k, out_id) not in verdicts:
                verdicts[k, out_id] = checker(spec["expect"], k, outputs[out_id], work)
            tally.check(verdicts[k, out_id] is None, f"{where}: {verdicts[k, out_id]}")
            if i:
                tally.check(out_id == first[k][1], f"{where}: output differs from pass 0")


def check_counters(result: dict, tally: Tally):
    """Machine-independent counters must repeat exactly in every pass."""
    passes = result["passes"]
    base = passes[0]["layers"]["counters"]
    for i, p in enumerate(passes[1:], start=1):
        diff = {k: (base[k], v) for k, v in p["layers"]["counters"].items() if base[k] != v}
        tally.check(not diff, f"traced pass {i}: counters changed {diff}")


# -- referees that do not depend on the workload's timed run ---------------------------


def oracle_referee(workload: str, seed: int, work: Path, tally: Tally):
    """The workload's generator at n = ORACLE_N, on its engine and on the
    dense oracle: the transcripts must match (shared RNG rule)."""
    from perfbench.workloads import rng_for, small_program

    if workload == "synth":
        return
    for k in range(ORACLE_RUNS):
        engine, text = small_program(workload, ORACLE_N, rng_for(workload, seed, f"oracle{k}"))
        path = work / f"small{k}.chp"
        path.write_text(text)
        rc1, out1 = cli(["run", path, "--seed", seed + k, "--engine", engine])
        rc2, out2 = cli(["run", path, "--seed", seed + k, "--engine", "oracle"])
        tally.check(
            rc1 == 0 and rc2 == 0 and out1 == out2,
            f"oracle referee {path.name}: {engine} {rc1} {out1.strip()!r} vs oracle {rc2} {out2.strip()!r}",
        )


def demo_runs():
    for name in DEMOS:
        for engine in ENGINES:
            for seed in DEMO_SEEDS:
                yield f"{name}/{engine}/{seed}", [
                    "run", ROOT / "src" / "stabsim" / "programs" / f"{name}.chp",
                    "--seed", seed, "--engine", engine, "-v",
                ]


def demo_guard(tally: Tally):
    """The bundled demo programs must keep their recorded transcripts."""
    recorded = json.loads(DEMO_FILE.read_text())
    for key, argv in demo_runs():
        rc, out = cli(argv)
        tally.check(rc == 0 and out == recorded[key], f"demo transcript {key} changed")


def record_demos():
    transcripts = {}
    for key, argv in demo_runs():
        rc, out = cli(argv)
        if rc != 0:
            raise SystemExit(f"{key}: exit code {rc}")
        transcripts[key] = out
    DEMO_FILE.write_text(json.dumps(transcripts, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-demos"]:
        raise SystemExit(__doc__)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    record_demos()
