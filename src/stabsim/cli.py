"""Command-line front end: program runner, benchmark harness, and the
synthesis / overlap / counting subcommands.

Exit codes: 0 success, 2 parse or usage error, 3 resource-cap error,
4 integrity error (a numerical-integrity failure or a corrupt tableau).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .beyond import PauliSumState, ProductState, product_measure_probabilities
from .errors import (
    CorruptTableauError,
    DimensionError,
    NumericalIntegrityError,
    ParseError,
    ResourceCapError,
    StabsimError,
)
from .mixed import MixedTableau
from .oracle import DenseState
from .overlap import inner_product
from .program import (
    CircuitProgram,
    execute,
    parse,
    random_unitary_program,
    render,
)
from .synth import (
    canonical_synthesize,
    enumerate_stabilizer_states,
    minimize,
    stabilizer_state_count,
    tableau_of_program,
)
from .tableau import new_zero_state

ENGINES = ("tableau", "mixed", "beyond", "oracle")

PROGRAMS_DIR = Path(__file__).parent / "programs"


def load_demo_program(name: str) -> CircuitProgram:
    """Parse one of the bundled demo programs (teleport, ghz, ...)."""
    return parse((PROGRAMS_DIR / f"{name}.chp").read_text())


# -- program runner -------------------------------------------------------------


def _pad_blocks(program: CircuitProgram) -> ProductState:
    blocks = list(program.blocks)
    covered = sum(int(np.log2(b.shape[0])) for b in blocks)
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    blocks.extend([zero] * (program.n - covered))
    return ProductState(blocks)


def _engine(program: CircuitProgram, engine: str, term_cap: int):
    """A fresh state of the named engine for a program that starts in |0...0>."""
    if engine in ("tableau", "mixed"):
        if program.blocks or program.gate_table:
            raise StabsimError(
                "tableau engines cannot run programs with blocks or custom gates"
            )
        return MixedTableau(program.n) if engine == "mixed" else new_zero_state(program.n)
    if engine == "oracle":
        if program.blocks:
            raise StabsimError("the oracle engine starts from |0...0> only")
        return DenseState(program.n)
    return PauliSumState(program.n, term_cap=term_cap)


def run(
    program: CircuitProgram,
    seed: int = 0,
    engine: str = "tableau",
    verbose: bool = False,
    term_cap: int = 1_000_000,
    max_measurements: int = 16,
) -> str:
    """Execute a program; returns the transcript (one character per
    measurement plus a newline, details appended in verbose mode)."""
    if engine not in ENGINES:
        raise StabsimError(f"unknown engine {engine!r}; pick one of {ENGINES}")
    rng = random.Random(seed)

    if engine == "beyond" and program.blocks:
        records = product_measure_probabilities(
            _pad_blocks(program), program, rng, max_measurements=max_measurements
        ).records
    else:
        state = _engine(program, engine, term_cap)
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
    for a in range(n):
        t.measure(a, rng)
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
                                  "rowsums_per_meas", "time_per_meas"])
    writer.writeheader()
    for n in range(config.n_min, config.n_max + 1, config.step):
        for trial in range(config.trials):
            row = bench_one(n, config.beta, config.seed + trial)
            writer.writerow({**row, "trial": trial,
                             "total_meas_time": f"{row['total_meas_time']:.6f}",
                             "rowsums_per_meas": f"{row['rowsums_per_meas']:.3f}",
                             "time_per_meas": f"{row['time_per_meas']:.9f}"})
    return buf.getvalue()


# -- command-line interface ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stabsim", description="stabilizer-circuit simulator and synthesizer"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a CHP program")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--engine", choices=ENGINES, default="tableau")
    p_run.add_argument("-v", "--verbose", action="store_true")

    p_bench = sub.add_parser("bench", help="random-circuit measurement benchmark")
    p_bench.add_argument("--beta", type=float, required=True)
    p_bench.add_argument("--n-min", type=int, required=True)
    p_bench.add_argument("--n-max", type=int, required=True)
    p_bench.add_argument("--step", type=int, default=200)
    p_bench.add_argument("--trials", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", default=None, help="write the report here")

    p_canon = sub.add_parser("canonicalize", help="emit the 11-round canonical form")
    p_canon.add_argument("file")

    p_min = sub.add_parser("minimize", help="the canonical circuit, without round comments")
    p_min.add_argument("file")

    p_inner = sub.add_parser("innerprod", help="overlap of two prepared states")
    p_inner.add_argument("file1")
    p_inner.add_argument("file2")

    p_count = sub.add_parser("count-states", help="number of stabilizer states")
    p_count.add_argument("n", type=int)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            program = parse(Path(args.file).read_text())
            sys.stdout.write(
                run(program, seed=args.seed, engine=args.engine, verbose=args.verbose)
            )
        elif args.command == "bench":
            cfg = BenchConfig(
                n_min=args.n_min,
                n_max=args.n_max,
                step=args.step,
                beta=args.beta,
                trials=args.trials,
                seed=args.seed,
            )
            report = bench(cfg)
            if args.csv:
                Path(args.csv).write_text(report)
            else:
                sys.stdout.write(report)
        elif args.command == "canonicalize":
            program = parse(Path(args.file).read_text())
            circuit = canonical_synthesize(tableau_of_program(program))
            sys.stdout.write(circuit.to_chp_text())
        elif args.command == "minimize":
            program = parse(Path(args.file).read_text())
            sys.stdout.write(render(minimize(program)))
        elif args.command == "innerprod":
            progs = [parse(Path(f).read_text()) for f in (args.file1, args.file2)]
            n = max(p.n for p in progs)
            for p in progs:
                p.n = n
            t1, t2 = (tableau_of_program(p) for p in progs)
            print(inner_product(t1, t2))
        elif args.command == "count-states":
            n = args.n
            formula = stabilizer_state_count(n)
            line = f"n={n} formula={formula}"
            if n <= 3:
                line += f" enumerated={enumerate_stabilizer_states(n)}"
            print(line)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except NumericalIntegrityError as exc:
        print(f"numerical integrity: {exc}", file=sys.stderr)
        return 4
    except CorruptTableauError as exc:
        print(f"corrupt tableau: {exc}", file=sys.stderr)
        return 4
    except (StabsimError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
