import ast
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabsim import runner, tableau
from stabsim.cli import main
from stabsim.errors import CorruptTableauError, ResourceCapError, StabsimError
from stabsim.program import parse, random_unitary_program, render
from stabsim.runner import (
    ENGINES,
    PROGRAMS_DIR,
    BenchConfig,
    bench,
    bench_one,
    load_demo_program,
    run,
)
from stabsim.synth import (
    MAX_ENUMERATED_QUBITS,
    canonical_stabilizer_key,
    enumerate_stabilizer_states,
    stabilizer_state_count,
    tableau_of_program,
)
from stabsim.tableau import new_zero_state


class TestRun:
    def test_single_measurement(self):
        assert run(parse("m 0"), seed=0) == "0\n"

    def test_transcript_deterministic(self):
        prog = load_demo_program("ghz")
        for seed in (0, 1, 7):
            a = run(prog, seed=seed)
            b = run(prog, seed=seed)
            assert a == b

    def test_engines_agree_on_stabilizer_programs(self):
        for name in ("teleport", "ghz", "densecoding", "simon", "shor9"):
            prog = load_demo_program(name)
            for seed in range(5):
                base = run(prog, seed=seed, engine="tableau")
                for engine in ("mixed", "oracle", "beyond"):
                    assert run(prog, seed=seed, engine=engine) == base, (name, engine)

    def test_demo_transcripts_are_recorded_ones(self):
        # The benchmark's record of every demo x engine x seed 0-9 `-v`
        # transcript; read only, never rewritten here.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "demo_transcripts.json"
        recorded = json.loads(path.read_text())
        for name in ("teleport", "ghz", "densecoding", "simon", "shor9"):
            prog = load_demo_program(name)
            for engine in ENGINES:
                for seed in range(10):
                    got = run(prog, seed=seed, engine=engine, verbose=True)
                    assert got == recorded[f"{name}/{engine}/{seed}"], (name, engine, seed)

    def test_teleported_zero_measures_zero(self):
        text = (load_demo_program("teleport") and None) or ""
        prog = parse(open_teleport_with_final_measure())
        for seed in range(20):
            out = run(prog, seed=seed).strip()
            assert out[2] == "0"
            oracle = run(prog, seed=seed, engine="oracle").strip()
            assert oracle == out

    def test_ghz_statistics(self):
        zeros = 0
        for seed in range(1000):
            bits = run(load_demo_program("ghz"), seed=seed).strip()
            assert bits in ("000", "111")
            zeros += bits == "000"
        assert abs(zeros / 1000 - 0.5) < 0.05

    def test_verbose_mode(self):
        out = run(parse("h 0\nm 0\nm 0"), seed=1, verbose=True)
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("m 0 -> ") and lines[1].endswith("(random)")
        assert lines[2].endswith("(determinate)")

    def test_conditional_execution(self):
        # flip qubit 1 iff qubit 0 measured 1 (X via h-p-p-h)
        text = "h 0\nm 0\nif 0 h 1\nif 0 p 1\nif 0 p 1\nif 0 h 1\nm 1"
        prog = parse(text)
        for seed in range(20):
            bits = run(prog, seed=seed).strip()
            assert bits[0] == bits[1]

    def test_named_unitary_beyond_vs_oracle(self):
        text = """gate t 1
1,0 0,0
0,0 0.7071067811865476,0.7071067811865476
h 0
u t 0
h 0
m 0
"""
        prog = parse(text)
        counts = {"beyond": 0, "oracle": 0}
        for seed in range(300):
            for engine in counts:
                counts[engine] += run(prog, seed=seed, engine=engine).strip() == "0"
        want = 300 * (2 + math.sqrt(2)) / 4
        for engine, got in counts.items():
            assert abs(got - want) < 45, (engine, got, want)

    def test_tableau_engine_rejects_extensions(self):
        text = "gate t 1\n1,0 0,0\n0,0 0,1\nu t 0\nm 0\n"
        from stabsim.errors import StabsimError

        with pytest.raises(StabsimError):
            run(parse(text), engine="tableau")


# A T gate definition that a program may or may not apply.
T_GATE = "gate t 1\n1,0 0,0\n0,0 0.7071067811865476,0.7071067811865476\n"


def open_teleport_with_final_measure() -> str:
    return (PROGRAMS_DIR / "teleport.chp").read_text() + "m 2\n"


class TestBench:
    def test_smoke_small(self):
        row = bench_one(4, 1.2, seed=0)
        assert row["gates"] == int(1.2 * 4 * math.log2(4))
        assert row["rowsums_per_meas"] >= 0
        assert row["total_meas_time"] > 0

    def test_csv_shape(self):
        cfg = BenchConfig(n_min=4, n_max=8, step=4, beta=0.8, trials=2, seed=3)
        lines = bench(cfg).strip().splitlines()
        assert lines[0].split(",")[:3] == ["n", "beta", "trial"]
        assert len(lines) == 1 + 2 * 2

    def test_csv_has_lf_line_ends(self):
        assert "\r" not in bench(BenchConfig(n_min=4, n_max=8, step=4, beta=0.8))

    @pytest.mark.parametrize("n,beta", [(40, 0.6), (40, 1.2), (65, 2.0)])
    def test_rowsums_per_meas_equal_a_measure_loop(self, n, beta):
        # bench_one measures through measure_run: its rowsum count must be
        # that of one `measure` per qubit on the same tableau and rng
        rng = random.Random(4)
        t = tableau_of_program(random_unitary_program(n, int(beta * n * math.log2(n)), rng))
        t.rowsum_count = 0
        for a in range(n):
            t.measure(a, rng)
        assert t.rowsum_count > 0
        assert bench_one(n, beta, seed=4)["rowsums_per_meas"] == t.rowsum_count / n

    def test_gates_in_runs_leave_the_tableau_of_one_run(self, monkeypatch):
        # 782 gates: one run of BENCH_RUN_GATES, or 112 runs of 7 drawing the
        # same gates in the same order
        whole = bench_one(65, 2.0, seed=4)
        monkeypatch.setattr(runner, "BENCH_RUN_GATES", 7)
        assert bench_one(65, 2.0, seed=4)["rowsums_per_meas"] == whole["rowsums_per_meas"]

    def test_peak_memory_does_not_grow_with_the_gate_count(self):
        # 69,760 and 139,520 gates at n = 1,000 (a 0.5 MB tableau): held as
        # one program they peaked at 7.9 and 14.9 MB under tracemalloc
        peaks = []
        for beta in (7.0, 14.0):
            tracemalloc.start()
            try:
                bench_one(1000, beta, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 3.5e6
        assert peaks[1] <= 1.05 * peaks[0]

    def test_gate_count_is_floor_beta_n_log_n(self):
        for n, beta in ((16, 0.6), (33, 1.2)):
            row = bench_one(n, beta, seed=1)
            assert row["gates"] == math.floor(beta * n * math.log2(n))

    def test_bad_config_rejected(self):
        from stabsim.errors import DimensionError

        with pytest.raises(DimensionError):
            BenchConfig(n_min=4, n_max=2, step=1, beta=1.0)
        with pytest.raises(DimensionError):
            BenchConfig(n_min=2, n_max=4, step=1, beta=-1.0)

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_exit_code(self, capsys, beta):
        argv = ["bench", "--beta", beta, "--n-min", "4", "--n-max", "4"]
        assert main(argv) == 2
        assert "beta" in capsys.readouterr().err

    def test_gate_count_over_cap_exit_code(self, capsys):
        # 2 * 1e308 gates overflow a float
        argv = ["bench", "--beta", "1e308", "--n-min", "2", "--n-max", "2"]
        assert main(argv) == 3
        assert "resource cap" in capsys.readouterr().err

    def test_gate_cap_is_floor_beta_n_log_n(self):
        from stabsim.errors import ResourceCapError
        from stabsim.runner import MAX_BENCH_GATES

        # tested on the config alone: without the cap, running these would
        # generate the gates
        BenchConfig(n_min=2, n_max=2, step=1, beta=MAX_BENCH_GATES / 2)
        for beta in ((MAX_BENCH_GATES + 1) / 2, 1e300):
            with pytest.raises(ResourceCapError):
                BenchConfig(n_min=2, n_max=2, step=1, beta=beta)


class TestCounting:
    @pytest.mark.parametrize("n,want", [(1, 6), (2, 60), (3, 1080)])
    def test_formula_matches_enumeration(self, n, want):
        assert stabilizer_state_count(n) == want
        assert enumerate_stabilizer_states(n) == want

    def test_count_over_int_str_limit_is_a_resource_cap(self, capsys):
        # 4300 decimal digits by default: n = 167 has 4274, n = 168 has 4325
        assert main(["count-states", "167"]) == 0
        assert len(capsys.readouterr().out.split("formula=")[1].strip()) == 4274
        for n in ("168", "170"):
            assert main(["count-states", n]) == 3
            assert "resource cap" in capsys.readouterr().err

    def test_bad_counts_are_refused(self, capsys):
        assert main(["count-states", "0"]) == 2
        assert "qubit count must be positive" in capsys.readouterr().err
        with pytest.raises(ResourceCapError, match="capped at 3 qubits"):
            enumerate_stabilizer_states(4)

    def test_count_states_enumerates_exactly_up_to_the_cap(self, capsys):
        n = MAX_ENUMERATED_QUBITS + 1
        assert main(["count-states", str(n)]) == 0
        assert capsys.readouterr().out == f"n={n} formula={stabilizer_state_count(n)}\n"
        with pytest.raises(ResourceCapError, match=f"capped at {MAX_ENUMERATED_QUBITS} qubits"):
            enumerate_stabilizer_states(n)

    def test_key_is_generating_set_independent(self, rng):
        t = new_zero_state(3)
        t.apply_hadamard(0)
        t.apply_cnot(0, 1)
        u = t.copy()
        u.rowsum(4, 3)  # different generators, same group
        assert canonical_stabilizer_key(t) == canonical_stabilizer_key(u)


SRC = Path(__file__).resolve().parents[1] / "src" / "stabsim"


def stabsim_imports(path: Path) -> set:
    """The stabsim modules a source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # the package is flat, so a relative import is one from stabsim
            module = ".".join(filter(None, ["stabsim" if node.level else None, node.module]))
            names = [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("stabsim."))
    return found


class TestMainEntry:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        f = tmp_path / "p.chp"
        f.write_text("h 0\nc 0 1\nm 0\nm 1\n")
        assert main(["run", str(f), "--seed", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out in ("00", "11")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.chp"
        f.write_text("c 1 1\n")
        assert main(["run", str(f)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["h \u00b2\n", "m \u0661\n", "block \u00b2\n"])
    def test_non_ascii_digit_exit_code(self, tmp_path, capsys, text):
        f = tmp_path / "digit.chp"
        f.write_text(text, encoding="utf-8")
        assert main(["run", str(f)]) == 2
        assert "parse error: line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 2])
    def test_conditional_unknown_gate_exit_code(self, tmp_path, capsys, seed):
        f = tmp_path / "cond.chp"
        f.write_text("h 0\nm 0\nif 0 u foo 1\n")
        assert main(["run", str(f), "--engine", "beyond", "--seed", str(seed)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["block 40", "gate g 40"])
    def test_huge_matrix_header_without_rows_exit_code(self, tmp_path, capsys, header):
        f = tmp_path / "short.chp"
        f.write_text(header + "\n")
        assert main(["run", str(f)]) == 2
        assert "unexpected end of file" in capsys.readouterr().err

    def test_matrix_rows_are_checked_before_the_matrix_is_built(self, tmp_path, capsys):
        f = tmp_path / "short.chp"
        f.write_text("gate g 1\n1,0 0,0\n")
        assert main(["run", str(f)]) == 2
        assert "unexpected end of file" in capsys.readouterr().err
        f.write_text("gate g 1\n1,0 0,0\n0,0 1,0\nu g 0\nm 0\n")
        assert main(["run", str(f), "--engine", "beyond"]) == 0

    def test_oracle_engine_refuses_a_block_program(self, tmp_path, capsys):
        f = tmp_path / "block.chp"
        f.write_text("block 1\n1,0 0,0\n0,0 0,0\nm 0\n")
        assert main(["run", str(f), "--engine", "oracle"]) == 2
        assert "the oracle engine starts from |0...0> only" in capsys.readouterr().err

    def test_unknown_engine_is_refused(self):
        with pytest.raises(StabsimError, match="unknown engine 'bogus'"):
            run(parse("h 0\nm 0\n"), engine="bogus")

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.chp")]) == 2

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        f = tmp_path / "big.chp"
        f.write_text("m 13\n")  # 14 qubits exceeds the dense-oracle cap
        assert main(["run", str(f), "--engine", "oracle"]) == 3

    def test_random_eight_qubit_gate_exceeds_the_term_cap(self, tmp_path, capsys):
        # 4^8 Pauli terms, squared, are far past the default cap of 10^6
        a = np.random.default_rng(8).normal(size=(256, 256, 2))
        q, r = np.linalg.qr(a[..., 0] + 1j * a[..., 1])
        u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        rows = [" ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row) for row in u]
        f = tmp_path / "u8.chp"
        f.write_text("\n".join(["gate g 8", *rows, "u g 0 1 2 3 4 5 6 7", "m 0"]) + "\n")
        assert main(["run", str(f), "--engine", "beyond"]) == 3
        assert "exceeds cap 1000000" in capsys.readouterr().err

    def test_numerical_integrity_exit_code(self, tmp_path, capsys):
        f = tmp_path / "block.chp"
        f.write_text("block 1\n0.9,0 0,0\n0,0 0.2,0\nm 0\n")  # trace 1.1
        assert main(["run", str(f), "--engine", "beyond"]) == 4

    @pytest.mark.parametrize("engine", ["beyond", "oracle"])
    def test_a_non_unitary_gate_exit_code(self, tmp_path, capsys, engine):
        # the oracle once ran this gate and printed "m 0 -> 0 (determinate)"
        f = tmp_path / "nonunitary.chp"
        f.write_text("gate g 1\n2,0 0,0\n0,0 0,0\nh 0\nu g 0\nm 0\n")
        assert main(["run", str(f), "--engine", engine, "--seed", "1", "-v"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "matrix is not unitary" in err

    def test_corrupt_tableau_exit_code(self, tmp_path, capsys, monkeypatch):
        def corrupt(self, qubits, rng):
            raise CorruptTableauError("rowsum phase sum is odd: tableau corrupted")

        # `execute` hands each run of measurements to `measure_run`.
        monkeypatch.setattr(tableau.Tableau, "measure_run", corrupt)
        f = tmp_path / "m.chp"
        f.write_text("h 0\nm 0\n")
        assert main(["run", str(f)]) == 4
        assert "corrupt tableau" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["tableau", "mixed"])
    def test_tableau_engines_run_a_program_with_an_unused_gate(self, tmp_path, capsys, engine):
        f = tmp_path / "unused.chp"
        f.write_text(T_GATE + "h 0\nm 0\n")
        assert main(["run", str(f), "--engine", engine, "--seed", "3"]) == 0
        assert capsys.readouterr().out == run(parse("h 0\nm 0\n"), seed=3)

    @pytest.mark.parametrize("engine", ["tableau", "mixed"])
    @pytest.mark.parametrize("body", ["h 0\nu t 0\nm 0\n", "h 0\nm 0\nif 0 u t 0\nm 0\n"])
    def test_tableau_engines_refuse_an_applied_gate_before_running(self, tmp_path, capsys,
                                                                   monkeypatch, engine, body):
        def never(*args):
            raise AssertionError("the program ran")

        monkeypatch.setattr("stabsim.runner.execute", never)
        f = tmp_path / "applied.chp"
        f.write_text(T_GATE + body)
        assert main(["run", str(f), "--engine", engine]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot run programs with blocks or custom gates" in captured.err

    def test_product_state_engine_refuses_an_applied_gate_before_running(self, tmp_path, capsys,
                                                                         monkeypatch):
        def never(*args):
            raise AssertionError("the program ran")

        monkeypatch.setattr("stabsim.beyond.execute", never)
        f = tmp_path / "block_u.chp"
        f.write_text("block 1\n1,0 0,0\n0,0 0,0\n" + T_GATE + "h 0\nm 0\nu t 0\nm 0\n")
        assert main(["run", str(f), "--engine", "beyond"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot apply non-stabilizer gates" in captured.err

    def test_python_dash_m_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-m", "stabsim", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: stabsim")

    def test_only_python_dash_m_imports_the_cli(self):
        importers = {path.stem for path in SRC.glob("*.py") if "cli" in stabsim_imports(path)}
        assert importers == {"__main__"}

    def test_the_cli_leaves_running_to_the_library(self):
        # engines are reached through stabsim.runner, and `import stabsim`
        # loads neither the cli nor the runner
        cli = SRC / "cli.py"
        assert not stabsim_imports(cli) & {"beyond", "mixed", "oracle", "tableau"}
        names = {node.id for node in ast.walk(ast.parse(cli.read_text()))
                 if isinstance(node, ast.Name)}
        assert "execute" not in names
        assert not stabsim_imports(SRC / "__init__.py") & {"cli", "runner"}

    def test_count_states_output(self, capsys):
        assert main(["count-states", "2"]) == 0
        out = capsys.readouterr().out
        assert "formula=60" in out and "enumerated=60" in out

    def test_canonicalize_and_minimize(self, tmp_path, capsys):
        f = tmp_path / "c.chp"
        f.write_text("h 0\nc 0 1\np 1\n")
        assert main(["canonicalize", str(f)]) == 0
        text = capsys.readouterr().out
        assert "# round 1: H" in text and "# round 11: C" in text
        assert main(["minimize", str(f)]) == 0
        small = capsys.readouterr().out
        from stabsim.program import parse as parse_prog
        from stabsim.synth import circuits_equivalent

        prog = parse_prog(f.read_text())
        got = parse_prog(small)
        got.n = prog.n
        assert circuits_equivalent(prog, got)

    def test_canonicalize_rejects_measurements(self, tmp_path, capsys):
        f = tmp_path / "m.chp"
        f.write_text("h 0\nm 0\n")
        assert main(["canonicalize", str(f)]) == 2

    def test_minimize_and_innerprod_reject_measurements(self, tmp_path, capsys):
        f = tmp_path / "m.chp"
        f.write_text("h 0\nm 0\n")
        assert main(["minimize", str(f)]) == 2
        assert main(["innerprod", str(f), str(f)]) == 2
        assert "measurement-free" in capsys.readouterr().err

    def test_synthesis_subcommands_reject_block_initial_states(self, tmp_path, capsys):
        # Qubit 0 starts in |1>, so its overlap with |00> is 0, not 1.
        one = tmp_path / "one.chp"
        one.write_text("block 1\n0,0 0,0\n0,0 1,0\n")
        two = tmp_path / "two.chp"
        two.write_text("c 0 1\n")
        for argv in (["canonicalize", one], ["minimize", one], ["innerprod", one, two],
                     ["innerprod", two, one]):
            assert main([str(a) for a in argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "no block lines" in captured.err

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        f = tmp_path / "latin1.chp"
        f.write_bytes("h 0 # caf\xe9\nm 0\n".encode("latin-1"))
        assert main(["run", str(f)]) == 2
        assert "utf-8" in capsys.readouterr().err

    def test_tableau_over_memory_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        # The real cap admits criterion 9's n = 10,000 tableau; lower it
        # rather than asking for a tableau that big.
        assert tableau._tableau_bytes(10_000) <= tableau.MAX_TABLEAU_BYTES
        monkeypatch.setattr(tableau, "MAX_TABLEAU_BYTES", tableau._tableau_bytes(64))
        f = tmp_path / "wide.chp"
        f.write_text("h 64\nm 64\n")
        for engine in ("tableau", "mixed", "beyond"):
            assert main(["run", str(f), "--engine", engine]) == 3
            assert "resource cap" in capsys.readouterr().err
        f.write_text("h 63\nm 63\n")
        assert main(["run", str(f)]) == 0
        # The product-state run builds its tableau before any gate runs.
        block = "block 1\n0.5,0 0.5,0\n0.5,0 0.5,0\n"
        f.write_text(block + "h 64\nm 64\n")
        assert main(["run", str(f), "--engine", "beyond"]) == 3
        assert "resource cap" in capsys.readouterr().err
        f.write_text(block + "h 63\nm 63\n")
        assert main(["run", str(f), "--engine", "beyond"]) == 0

    def test_pauli_sum_measurement_over_memory_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        # The cap is lowered to the trace signs of one term on 64 qubits: a
        # tableau on 64 qubits and the T gate's products fit, the trace signs
        # of the four terms of the measurement after it do not.  The one term
        # of a stabilizer state fits.
        monkeypatch.setattr(tableau, "MAX_TABLEAU_BYTES", tableau._sign_bytes(64, 1))
        f = tmp_path / "t64.chp"
        f.write_text(T_GATE + "h 63\nu t 63\nm 63\n")
        assert main(["run", str(f), "--engine", "beyond"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resource cap: the trace signs of 4 terms on 64 qubits" in captured.err
        f.write_text(T_GATE + "h 63\nm 63\n")
        assert main(["run", str(f), "--engine", "beyond"]) == 0

    def test_innerprod_output(self, tmp_path, capsys):
        f1 = tmp_path / "a.chp"
        f1.write_text("h 0\nc 0 1\n")
        f2 = tmp_path / "b.chp"
        f2.write_text("h 0\nh 1\nh 0\nh 1\n")
        assert main(["innerprod", str(f1), str(f2)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("2^-1/2")
        f3 = tmp_path / "c.chp"
        f3.write_text("h 1\n")  # (|00> + |01>)/sqrt(2), overlap 1/2 with Bell
        assert main(["innerprod", str(f1), str(f3)]) == 0
        assert capsys.readouterr().out.strip().startswith("2^-2/2")

    def test_innerprod_over_the_byte_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        # A dense tableau on 64 qubits fits the lowered cap, but the packed
        # products of inverting it and composing do not.
        monkeypatch.setattr(tableau, "MAX_TABLEAU_BYTES", tableau._tableau_bytes(64))
        f = tmp_path / "a.chp"
        f.write_text(render(random_unitary_program(64, 2000, random.Random(5))))
        assert main(["innerprod", str(f), str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resource cap: composing tableaus on 64 qubits" in captured.err

    def test_innerprod_zero(self, tmp_path, capsys):
        f1 = tmp_path / "a.chp"
        f1.write_text("h 1\nh 1\n")  # |00>
        f2 = tmp_path / "b.chp"
        f2.write_text("h 0\np 0\np 0\nh 0\nh 1\nh 1\n")  # |10>
        assert main(["innerprod", str(f1), str(f2)]) == 0
        assert capsys.readouterr().out.strip() == "zero"

    def test_bench_csv_file(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "bench",
                "--beta",
                "0.6",
                "--n-min",
                "4",
                "--n-max",
                "4",
                "--step",
                "1",
                "--trials",
                "1",
                "--csv",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("n,beta,trial")

    def test_bench_csv_to_stdout(self, capsys):
        assert main(["bench", "--beta", "0.6", "--n-min", "4", "--n-max", "6", "--step", "2"]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[0] == "n,beta,trial,seed,gates,total_meas_time,rowsums_per_meas,time_per_meas"
        assert [line.split(",")[:5] for line in lines[1:3]] == [["4", "0.6", "0", "0", "4"],
                                                                 ["6", "0.6", "0", "0", "9"]]
        assert lines[3:] == [""]


# Characters a mutation may insert: ASCII and non-ASCII digits (superscript
# two, Arabic-Indic one), line and page breaks, comment marks, separators
# and mnemonics.
MUTATION_CHARS = "019 \n\r\x0c#\u00b2\u0661chmp"


@settings(max_examples=200, deadline=None, database=None)
@given(
    name=st.sampled_from(sorted(p.stem for p in PROGRAMS_DIR.glob("*.chp"))),
    engine=st.sampled_from(ENGINES),
    # (position, character to insert there, or None to delete the one there);
    # at most two edits keep every qubit index under 1000.
    edits=st.lists(
        st.tuples(st.integers(0, 10**4), st.sampled_from([None, *MUTATION_CHARS])),
        max_size=2,
    ),
)
def test_mutated_demo_programs_exit_cleanly(name, engine, edits):
    text = (PROGRAMS_DIR / f"{name}.chp").read_text()
    for pos, ch in edits:
        pos %= len(text) + 1
        text = text[:pos] + (ch or "") + text[pos + (ch is None) :]
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "mutated.chp"
        f.write_text(text, encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["run", str(f), "--engine", engine])
    assert code in (0, 2, 3, 4)
