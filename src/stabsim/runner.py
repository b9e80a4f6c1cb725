"""The paper's CHP program and timing experiment as library calls.

`run` executes a parsed program on one of four engines and returns its
transcript.  `bench` is the paper's timing experiment: floor(beta n log2 n)
random gates, then a measurement of every qubit, as a CSV report.
"""

from __future__ import annotations

import csv
import io
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from .beyond import ZERO_BLOCK, PauliSumState, ProductState, product_measure_probabilities
from .errors import DimensionError, ResourceCapError, StabsimError
from .mixed import MixedTableau
from .oracle import DenseState
from .program import CircuitProgram, execute, parse, random_unitary_program
from .synth import tableau_of_program
from .tableau import new_zero_state

ENGINES = ("tableau", "mixed", "beyond", "oracle")

PROGRAMS_DIR = Path(__file__).parent / "programs"


def load_demo_program(name: str) -> CircuitProgram:
    """Parse one of the bundled demo programs (teleport, ghz, ...)."""
    return parse((PROGRAMS_DIR / f"{name}.chp").read_text())


# -- program runner -------------------------------------------------------------


def _pad_blocks(program: CircuitProgram) -> ProductState:
    blocks = list(program.blocks)
    covered = sum(b.shape[0].bit_length() - 1 for b in blocks)
    return ProductState(blocks + [ZERO_BLOCK] * (program.n - covered))


def _engine(program: CircuitProgram, engine: str):
    """A fresh state of the named engine for a program that starts in |0...0>.
    The tableau engines refuse a program they could not run to its end."""
    if engine in ("tableau", "mixed"):
        if program.blocks or (program.gate_table and program.applies_named_gates()):
            raise StabsimError("tableau engines cannot run programs with blocks or custom gates")
        return MixedTableau(program.n) if engine == "mixed" else new_zero_state(program.n)
    if engine == "oracle":
        if program.blocks:
            raise StabsimError("the oracle engine starts from |0...0> only")
        return DenseState(program.n)
    return PauliSumState(program.n)


def run(program: CircuitProgram, seed: int = 0, engine: str = "tableau",
        verbose: bool = False) -> str:
    """Execute a program; returns the transcript (one character per
    measurement plus a newline, details appended in verbose mode)."""
    if engine not in ENGINES:
        raise StabsimError(f"unknown engine {engine!r}; pick one of {ENGINES}")
    rng = random.Random(seed)

    if engine == "beyond" and program.blocks:
        records = product_measure_probabilities(_pad_blocks(program), program, rng).records
    else:
        state = _engine(program, engine)
        records = execute(state, program, rng)

    out = "".join(str(r.outcome) for r in records) + "\n"
    if verbose:
        for r in records:
            kind = "determinate" if r.deterministic else "random"
            out += f"m {r.qubit} -> {r.outcome} ({kind})\n"
        if engine == "beyond" and not program.blocks:
            rep = state.resource_report()
            out += (
                f"# terms {rep['terms']} (bound {rep['term_bound']}, cap "
                f"{rep['term_cap']}), nonstabilizer gates "
                f"{rep['nonstabilizer_gates']}, prune tolerance "
                f"{rep['prune_tolerance']}\n"
            )
    return out


# -- benchmark harness ------------------------------------------------------------


# Most random gates one bench configuration may ask for.  The paper's largest
# sweep (n = 8000, beta about 5) needs about 5e5.
MAX_BENCH_GATES = 10**7


@dataclass
class BenchConfig:
    n_min: int
    n_max: int
    step: int
    beta: float
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise DimensionError("beta must be positive and finite")
        if self.n_min < 2 or self.n_max < self.n_min or self.step < 1:
            raise DimensionError("bad qubit range")
        if self.trials < 1:
            raise DimensionError("trials must be >= 1")
        # floor(beta n log2 n) > cap, tested in floats so a huge beta cannot overflow.
        if self.beta * self.n_max * math.log2(self.n_max) >= MAX_BENCH_GATES + 1:
            raise ResourceCapError(
                f"beta={self.beta} at n={self.n_max} asks for more than "
                f"{MAX_BENCH_GATES} gates"
            )


def bench_one(n: int, beta: float, seed: int) -> dict:
    """One trial: floor(beta n log2 n) random gates, then measure every qubit
    in sequence, reporting wall time and rowsum invocations per measurement."""
    rng = random.Random(seed)
    ngates = int(beta * n * math.log2(n))
    t = tableau_of_program(random_unitary_program(n, ngates, rng))
    t.rowsum_count = 0
    start = time.perf_counter()
    t.measure_run(range(n), rng)
    elapsed = time.perf_counter() - start
    return {
        "n": n,
        "beta": beta,
        "seed": seed,
        "gates": ngates,
        "total_meas_time": elapsed,
        "rowsums_per_meas": t.rowsum_count / n,
        "time_per_meas": elapsed / n,
    }


def bench(config: BenchConfig) -> str:
    """CSV report over the configured qubit range."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, ["n", "beta", "trial", "seed", "gates", "total_meas_time",
                                  "rowsums_per_meas", "time_per_meas"], lineterminator="\n")
    writer.writeheader()
    for n in range(config.n_min, config.n_max + 1, config.step):
        for trial in range(config.trials):
            row = bench_one(n, config.beta, config.seed + trial)
            writer.writerow({**row, "trial": trial,
                             "total_meas_time": f"{row['total_meas_time']:.6f}",
                             "rowsums_per_meas": f"{row['rowsums_per_meas']:.3f}",
                             "time_per_meas": f"{row['time_per_meas']:.9f}"})
    return buf.getvalue()
