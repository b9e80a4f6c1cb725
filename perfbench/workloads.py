"""Input generators for the four benchmark workloads.

Every generator is a pure function of its size parameters and a seed, and
uses only the standard library, so the inputs stay the same whatever the
simulator under test does.  `write_inputs` writes one workload's CHP files
into a directory and returns the CLI calls that make up one pass.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("chp_dense", "chp_reversible", "synth", "beyond_t")

# Sizes of the timed inputs (about one second per pass on a 2-core machine).
DENSE_N = 600
DENSE_BETA = 4.9
REVERSIBLE_N = 250
SYNTH_N = 96
SYNTH_S = 53
BEYOND_N = 24
BEYOND_T = 3

T_GATE = [
    "gate t 1",
    "1,0 0,0",
    "0,0 0.70710678118654757,0.70710678118654757",
]


def rng_for(workload: str, seed: int, part: str = "") -> random.Random:
    """Independent, reproducible stream per (workload, seed, part)."""
    return random.Random(f"{workload}/{seed}/{part}")


def random_gates(n: int, ngates: int, rng: random.Random, qubits=None) -> list[str]:
    """The paper's distribution: CNOT, H or P with probability 1/3 each,
    operands uniform, control != target.  `qubits` relabels 0..n-1."""
    q = qubits if qubits is not None else range(n)
    out = []
    for _ in range(ngates):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            if b >= a:
                b += 1
            out.append(f"c {q[a]} {q[b]}")
        elif kind == 2:
            out.append(f"p {q[rng.randrange(n)]}")
        else:
            out.append(f"h {q[rng.randrange(n)]}")
    return out


def x_gate(q: int) -> list[str]:
    return [f"h {q}", f"p {q}", f"p {q}", f"h {q}"]


def dense_program(n: int, rng: random.Random) -> str:
    """floor(beta n log2 n) random gates, then two sweeps measuring every qubit."""
    lines = random_gates(n, int(DENSE_BETA * n * math.log2(n)), rng)
    lines += [f"m {a}" for a in range(n)] * 2
    return "\n".join(lines) + "\n"


def reversible_ops(n: int, rng: random.Random) -> list[tuple]:
    """10n random CNOTs; after each, with probability 1/10, an X on a random
    qubit.  Returns ("c", a, b) and ("x", q) tuples."""
    ops = []
    for _ in range(10 * n):
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        if b >= a:
            b += 1
        ops.append(("c", a, b))
        if rng.random() < 0.1:
            ops.append(("x", rng.randrange(n)))
    return ops


def reversible_program(n: int, ops: list[tuple]) -> str:
    lines = []
    for op in ops:
        lines += [f"c {op[1]} {op[2]}"] if op[0] == "c" else x_gate(op[1])
    lines += [f"m {a}" for a in range(n)]
    return "\n".join(lines) + "\n"


def classical_bits(n: int, ops: list[tuple]) -> str:
    """What the reversible circuit computes from |0...0>, bit by bit."""
    bits = [0] * n
    for op in ops:
        if op[0] == "c":
            bits[op[2]] ^= bits[op[1]]
        else:
            bits[op[1]] ^= 1
    return "".join(map(str, bits))


def synth_programs(n: int, rng: random.Random) -> tuple[str, str, str]:
    """A random Clifford U of 4 n log2 n gates, and two states to compare
    with U|0>, with known answers.  M is n log2 n random CNOT and P gates,
    which map |0> to itself, so after the rotation by U^-1 the overlap
    routine has to undo M by elimination:

        B = U M H^S |0>        overlap 2^(-S/2)
        C = U M H^S X_{n-1} |0>  overlap zero (qubit n-1 is |1>, not |0>)
    """
    u = random_gates(n, int(4 * n * math.log2(n)), rng)
    m = []
    for _ in range(int(n * math.log2(n))):
        a, b = rng.sample(range(n), 2)
        m.append(f"c {a} {b}" if rng.randrange(2) else f"p {a}")
    h = [f"h {a}" for a in range(SYNTH_S)]
    b = h + m + u
    c = x_gate(n - 1) + h + m + u
    return tuple("\n".join(p) + "\n" for p in (u, b, c))


def beyond_program(n: int, d: int, rng: random.Random) -> str:
    """d qubits (chosen by the seed) carry T|+> magic states; the other
    n - d hold a dense random stabilizer state.  d rounds of 2n random
    Clifford gates on those, each followed by H and T on the next magic
    qubit; then measure the stabilizer qubits, then the magic ones.

    The magic qubits stay unentangled, so the Pauli-sum term count is 4^d
    for every measurement but the last d, whatever the seed: seeds change
    the circuits, not the amount of work."""
    tq = rng.sample(range(n), d)
    rest = [a for a in range(n) if a not in tq]
    r = len(rest)
    lines = list(T_GATE)
    lines += random_gates(r, int(DENSE_BETA * r * math.log2(r)), rng, qubits=rest)
    for q in tq:
        lines += random_gates(r, 2 * n, rng, qubits=rest)
        lines += [f"h {q}", f"u t {q}"]
    lines += [f"m {a}" for a in rest + tq]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's input files into `out`.

    Returns {"calls": [argv, ...], "expect": {...}}: the CLI calls of one
    pass (paths relative to `out`) and what the checks need to know."""
    out.mkdir(parents=True, exist_ok=True)
    rng = rng_for(workload, seed)
    cli_seed = str(seed)
    if workload == "chp_dense":
        (out / "dense.chp").write_text(dense_program(DENSE_N, rng))
        calls = [["run", "dense.chp", "--seed", cli_seed, "--engine", "tableau"]]
        expect = {"n": DENSE_N}
    elif workload == "chp_reversible":
        ops = reversible_ops(REVERSIBLE_N, rng)
        (out / "reversible.chp").write_text(reversible_program(REVERSIBLE_N, ops))
        calls = [
            ["run", "reversible.chp", "--seed", cli_seed, "--engine", "tableau", "-v"]
        ]
        expect = {"n": REVERSIBLE_N, "bits": classical_bits(REVERSIBLE_N, ops)}
    elif workload == "synth":
        for name, text in zip(("u.chp", "b.chp", "c.chp"), synth_programs(SYNTH_N, rng)):
            (out / name).write_text(text)
        calls = [
            ["canonicalize", "u.chp"],
            ["minimize", "u.chp"],
            ["innerprod", "u.chp", "b.chp"],
            ["innerprod", "u.chp", "c.chp"],
        ]
        expect = {"n": SYNTH_N, "s": SYNTH_S}
    elif workload == "beyond_t":
        (out / "beyond.chp").write_text(beyond_program(BEYOND_N, BEYOND_T, rng))
        calls = [["run", "beyond.chp", "--seed", cli_seed, "--engine", "beyond"]]
        expect = {"n": BEYOND_N}
    else:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    return {"calls": calls, "expect": expect}


def small_program(workload: str, n: int, rng: random.Random) -> tuple[str, str]:
    """(engine, program text) of a workload's generator at small n, for the
    run against the dense oracle.  The synth workload has no such run."""
    if workload == "chp_dense":
        return "tableau", dense_program(n, rng)
    if workload == "chp_reversible":
        return "tableau", reversible_program(n, reversible_ops(n, rng))
    if workload == "beyond_t":
        return "beyond", beyond_program(n, BEYOND_T, rng)
    raise ValueError(f"{workload} has no small-n oracle run")
