"""The `stabsim` command: argument parsing, one library call per
subcommand, and the exit codes.  `stabsim.runner` runs programs and the
benchmark; `stabsim.synth` and `stabsim.overlap` answer the rest.

Exit codes: 0 success, 2 parse or usage error, 3 resource-cap error,
4 integrity error (a numerical-integrity failure or a corrupt tableau).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    CorruptTableauError,
    NumericalIntegrityError,
    ParseError,
    ResourceCapError,
    StabsimError,
)
from .overlap import inner_product
from .program import parse, render
from .runner import ENGINES, BenchConfig, bench, run
from .synth import (
    MAX_ENUMERATED_QUBITS,
    canonical_synthesize,
    enumerate_stabilizer_states,
    minimize,
    stabilizer_state_count,
    tableau_of_program,
)


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
            line = f"n={n} formula={stabilizer_state_count(n)}"
            if n <= MAX_ENUMERATED_QUBITS:
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
