"""One-line mutants of the kernels, and a runner that checks the tests kill
every one of them (mutation analysis: DeMillo, Lipton & Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978).

Each mutant names a file under `src/stabsim`, one exact source line (as it
reads without its indentation; it must occur exactly once in the file), the
line that replaces it (indented as the original) and the test files that must
kill it.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants
    python tests/mutants.py --list       # names, files and tests

The runner copies `src/` to a temporary directory and first runs the union of
the chosen mutants' test files on the copy as it is: a mutant is killed only
by tests that pass without it.  Then, one mutant at a time, it applies the
mutant to the copy, runs `pytest -x` on that mutant's tests with the copy
first on the import path, and puts the line back.  Hypothesis runs
derandomized, without its example database and without shrinking, so a kill
repeats from run to run and stops at the first failing example.

It exits 1 if a mutant survives, if a mutant's line no longer occurs exactly
once (a refactor that moves or rewrites a line updates this list on purpose)
or if the unmutated tests fail.  Standard library only; the tests it runs need
pytest, hypothesis and numpy.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/stabsim
    line: str  # the source line, stripped
    new: str  # its replacement, stripped
    tests: tuple  # test files, relative to the repository root


MOMENTS = ("tests/test_moments.py",)
RUN = ("tests/test_measure_run.py",)
WORDS = ("tests/test_word_boundaries.py",)
OVERLAP = ("tests/test_overlap.py", "tests/test_errors.py")
TABLE = ("tests/test_pauli_table.py",)

MUTANTS = [
    # -- the fused moment kernel and its steps (`_conjugate_step`, `_conjugate`)
    Mutant("cnot-flip-not-inverted", "tableau.py",
           "np.invert(cnot, out=cnot)", "pass", MOMENTS),
    Mutant("h-swap-without-copy", "tableau.py",
           "xs[:i], zs[:i] = zs[:i], xs[:i].copy()", "xs[:i], zs[:i] = zs[:i], xs[:i]", MOMENTS),
    Mutant("cnot-no-za-update", "tableau.py",
           "zs[j:k] ^= zs[k:]", "pass", MOMENTS),
    Mutant("step-slice-off-by-one", "tableau.py",
           "h, p, ca, cb = (q[lo + (hi - lo) * s // steps:lo + (hi - lo) * (s + 1) // steps]",
           "h, p, ca, cb = (q[lo + (hi - lo) * s // steps:lo + (hi - lo) * (s + 1) // steps + 1]",
           MOMENTS),
    Mutant("step-control-target-cut", "tableau.py",
           "ends = (0, i, j, (q.size + j) // 2, q.size)",
           "ends = (0, i, j, (q.size - j) // 2, q.size)", MOMENTS),
    Mutant("step-h-p-cut", "tableau.py",
           "h.size, h.size + p.size)", "p.size, h.size + p.size)", MOMENTS),
    # -- the parser's index cache
    Mutant("parser-drops-last-cached-index", "program.py",
           "top = max(top, max(indices.values(), default=-1))",
           "top = max(top, max(list(indices.values())[:-1], default=-1))",
           ("tests/test_program.py",)),
    # -- one random outcome (`_case_split`, `_collapse`, `_read_row`)
    Mutant("partner-left-in-rowsum-mask", "tableau.py",
           "for i in (pivot, partner):", "for i in (pivot,):", WORDS),
    Mutant("pivot-sign-from-word-0", "tableau.py",
           "return (self._xz[:, w] >> s) & _ONE, (self.r[w] >> s) & _ONE",
           "return (self._xz[:, w] >> s) & _ONE, (self.r[0] >> s) & _ONE", WORDS),
    Mutant("case-3-pivot-below-n", "tableau.py",
           "for case, lo, hi in ((1, n, n + r), (3, r, 2 * n)):",
           "for case, lo, hi in ((1, n, n + r), (3, r, n)):", WORDS),
    # -- the product-state run's measured word (`_inverse_stabilizer`)
    Mutant("inverse-row-halves-swapped", "tableau.py",
           "wx, wz = col >> n, col & ((1 << n) - 1)",
           "wz, wx = col >> n, col & ((1 << n) - 1)", WORDS),
    Mutant("inverse-row-without-y-count", "tableau.py",
           "phase = (int(phase[0]) + (wx & wz).bit_count()) % 4",
           "phase = int(phase[0]) % 4", WORDS),
    # -- the random block (`_RandomBlock.add`, `_collapse_block`, `_apply_steps`)
    Mutant("panel-keeps-partner-bit", "tableau.py",
           "rest[:, wq] &= ~bq", "pass", RUN),
    Mutant("panel-one-row-short", "tableau.py",
           "self.panel = t.x.take(np.array(run[at:at + _BLOCK], dtype=np.intp), axis=0)",
           "self.panel = t.x.take(np.array(run[at:at + _BLOCK - 1], dtype=np.intp), axis=0)", RUN),
    Mutant("block-reset-without-omega", "tableau.py",
           "flip = hq & low & (_bit_at(sym, q) ^ _matmul2(omega, hq & low.T) ^ omega)",
           "flip = hq & low & (_bit_at(sym, q) ^ _matmul2(omega, hq & low.T))", RUN),
    Mutant("block-first-failure-ignored", "tableau.py",
           "f = int(failed.argmax()) if failed.any() else k", "f = k", RUN),
    Mutant("block-coins-past-failure", "tableau.py",
           ("outcomes = np.array([sample_outcome(0.5, rng)[0] for _ in range(min(f + 1, k))], "
            "dtype=bool)"),
           "outcomes = np.array([sample_outcome(0.5, rng)[0] for _ in range(k)], dtype=bool)", RUN),
    Mutant("block-history-not-erased", "tableau.py",
           "np.bitwise_and(full[:f] | qm[:f], ~(since ^ both[:f]), out=hist[:f])",
           "np.bitwise_and(full[:f] | qm[:f], ~both[:f], out=hist[:f])", RUN),
    Mutant("steps-without-quadratic-form", "tableau.py",
           "+ (_matmul2(d, g & low) * d).sum(1))", ")", RUN),
    Mutant("steps-e-recursion-without-low-bits", "tableau.py",
           "e = (ct + (dt & elo).bit_count() + 2 * (dt & ehi).bit_count()) & 3",
           "e = (ct + 2 * (dt & ehi).bit_count()) & 3", RUN),
    Mutant("steps-without-row-signs", "tableau.py",
           "hi ^= (yg[1] ^ self.r ^ (yg[0] & lo)) & keep",
           "hi ^= (yg[1] ^ (yg[0] & lo)) & keep", RUN),
    Mutant("determinate-chunk-never-flushed", "tableau.py",
           "if len(stretch) == chunk:", "if False:", RUN),
    Mutant("classified-from-rank-plus-one", "tableau.py",
           "if not bits >> self.rank:  # no X in a stabilizer or logical row",
           "if not bits >> self.rank + 1:", WORDS),
    # -- a determinate run's one gather (`_gather_rows`, `_determinate`)
    Mutant("gather-slot-off-by-one", "tableau.py",
           "return block, _bits(self.r, 2 * self.n)[uniq].view(np.uint8), present.cumsum() - 1",
           "return block, _bits(self.r, 2 * self.n)[uniq].view(np.uint8), present.cumsum()", RUN),
    Mutant("gather-misses-last-qubit", "tableau.py",
           "gathered = self._gather_rows(np.flatnonzero(_bits(np.bitwise_or.reduce(hits), n)) + n)",
           "gathered = self._gather_rows(np.flatnonzero(_bits(np.bitwise_or.reduce(hits[:-1]), n)) + n)",
           RUN),
    Mutant("determinate-counts-the-corrupt-product", "tableau.py",
           "self.rowsum_count += int(lengths[s:s + done].sum())",
           "self.rowsum_count += int(lengths[s:e].sum())", RUN),
    # -- a run's one check (`measure_run`), rows 0..2n-1, the snapshot's zero row 2n
    Mutant("run-checked-past-the-bad-qubit", "tableau.py",
           "break", "continue", ("tests/test_boundaries.py",)),
    Mutant("row-range-admits-row-2n", "tableau.py",
           "bad = (idx < 0) | (idx >= 2 * self.n)", "bad = (idx < 0) | (idx > 2 * self.n)",
           ("tests/test_boundaries.py",)),
    Mutant("snapshot-phase-words-as-in-memory", "tableau.py",
           "r = np.pad(self.r, (0, (k + 64) // 64 - self._words))", "r = self.r",
           ("tests/test_tableau.py",)),
    Mutant("snapshot-load-keeps-row-2n", "tableau.py",
           "t._adopt(_transpose(np.hstack((x[:-1], z[:-1])), np.arange(2 * _padded(n))))",
           "t._adopt(_transpose(np.hstack((x, z)), np.arange(2 * _padded(n))))",
           ("tests/test_tableau.py",)),
    # -- the closed-form row product (`_segment_products`)
    Mutant("row-products-zero-cross-term", "tableau.py",
           "cross = np.bitwise_count(t).sum(axis=0, dtype=np.uint8)",
           "cross = np.zeros_like(y)", RUN),
    Mutant("row-products-no-parity-check", "tableau.py",
           "return words, (y + 2 * sign + 2 * cross - xz) % 4, (odd > 0) & (odd < lengths)",
           "return words, (y + 2 * sign + 2 * cross - xz) % 4, odd < 0", RUN),
    # -- the stabilizer checks of `inner_product` (`_gram` from row n, `rref`)
    Mutant("stabilizer-check-partner-not-rebased", "tableau.py",
           "p = (a + n) % k - lo  # each row's partner, the one row it anticommutes with",
           "p = (a + n) % k", OVERLAP),
    Mutant("gram-check-without-transpose", "tableau.py",
           "anti ^= _transpose(anti, a - lo)", "anti ^= _transpose(gram, a)", OVERLAP),
    Mutant("overlap-dependence-unchecked", "overlap.py",
           "if len(pivots) < n:", "if False:", OVERLAP),
    Mutant("overlap-rank-counts-z-pivots", "overlap.py",
           "s = bisect_left(pivots, n)", "s = len(pivots)", OVERLAP),
    # -- the four-Russians tables of `_xor_combine`
    Mutant("four-russians-halves-swapped", "tableau.py",
           "np.bitwise_xor(half[:, 1, :, None], half[:, 0, None], out=table.reshape(-1, 16, 16, w))",
           "np.bitwise_xor(half[:, 0, :, None], half[:, 1, None], out=table.reshape(-1, 16, 16, w))",
           ("tests/test_tableau.py",)),
    # -- compose's signs (`_product_signs`)
    Mutant("product-signs-no-cross-term", "tableau.py",
           "hi ^= np.bitwise_xor.reduce(cross, axis=0)", "pass", ("tests/test_tableau.py",)),
    Mutant("product-signs-no-row-signs", "tableau.py",
           "hi ^= f1 ^ r ^ (lo & f0)", "hi ^= f1 ^ (lo & f0)", ("tests/test_tableau.py",)),
    # -- a Pauli times a packed mask of strings (`_left_multiply`)
    Mutant("left-multiply-letters-swapped", "tableau.py",
           "xonly, zonly, both = (np.flatnonzero(v) for v in (sx > sz, sz > sx, sx & sz))",
           "xonly, zonly, both = (np.flatnonzero(v) for v in (sz > sx, sx > sz, sx & sz))",
           ("tests/test_pauli_table.py",)),
    Mutant("left-multiply-no-prefix", "tableau.py",
           "minus[1:] ^= pre[:-1]", "pass", ("tests/test_pauli_table.py",)),
    Mutant("left-multiply-y-as-x", "tableau.py",
           "anti[b:] ^= z[b:]", "pass", ("tests/test_pauli_table.py",)),
    Mutant("left-multiply-no-odd-check", "tableau.py",
           "if self._hermitian and (odd & mask).any():", "if False:", ("tests/test_tableau.py",)),
    # -- a Pauli-sum measurement (`anticommuting_rows` over the terms' support,
    # `stabilizer_signs`, the pivot row `_collapse` returns, `_merge`'s columns)
    Mutant("support-drops-last-column", "tableau.py",
           "cols = np.flatnonzero((words.x | words.z).any(axis=1))",
           "cols = np.flatnonzero((words.x | words.z).any(axis=1))[:-1]", TABLE),
    Mutant("signs-compare-x-only", "tableau.py",
           "outside = (cols[:n] ^ words.x) | (cols[pad:pad + n] ^ words.z)",
           "outside = cols[:n] ^ words.x", ("tests/test_tableau.py",)),
    Mutant("multiply-by-the-new-pivot-row", "tableau.py",
           "return src", "return self._read_row(pivot)", TABLE),
    Mutant("merge-keeps-columns-after-a-merge", "tableau.py",
           "keys, xz = keys[first[order]], None", "keys = keys[first[order]]", TABLE),
    Mutant("outcome-1-parity-not-flipped", "beyond.py",
           "table.set_eig(j1, bit)", "table.set_eig(j1, 0)", TABLE),
    # -- the one step of a Pauli measurement (`Tableau._pauli_case`) and its
    # two cases in `PauliSumState.measure_pauli`
    Mutant("case-2-keeps-anticommuting-terms", "beyond.py",
           "wheres = (~flips & ~ones, ~flips & ones)", "wheres = (~ones, ones)", TABLE),
    Mutant("later-generators-miss-the-last", "beyond.py",
           "table.flip_eig(rows[rows > pivot] - n, e1)",
           "table.flip_eig((rows[rows > pivot] - n)[:-1], e1)", TABLE),
    Mutant("pauli-case-rows-below-n-only", "tableau.py",
           "return bits, case, pivot, mask, np.flatnonzero(_bits(mask, 2 * self.n))",
           "return bits, case, pivot, mask, np.flatnonzero(_bits(mask, self.n))", TABLE),
    # -- the engine base's one-qubit-at-a-time run (`_CliffordGates.measure_run`)
    Mutant("engine-run-skips-last-qubit", "tableau.py",
           "return [self.measure(a, rng) for a in qubits]",
           "return [self.measure(a, rng) for a in list(qubits)[:-1]]", ("tests/test_program.py",)),
    # -- discarding a qubit by reducing the generators as Pauli rows
    Mutant("discard-keeps-a-pivot-row", "mixed.py",
           "for p in rows[len(pivots):]]", "for p in rows[len(pivots) - 1:]]", WORDS),
    Mutant("discard-odd-phase-unchecked", "mixed.py",
           "if rows[dst].phase_exp % 2:", "if False:", ("tests/test_mixed.py",)),
    # -- the bench's runs of gates and the trace signs' byte count
    Mutant("bench-run-past-the-gate-count", "runner.py",
           "gates = random_unitary_program(n, min(BENCH_RUN_GATES, ngates - done), rng)",
           "gates = random_unitary_program(n, BENCH_RUN_GATES, rng)", ("tests/test_cli.py",)),
    Mutant("sign-bytes-without-batches", "tableau.py",
           "need = k * (17 * n + 64 * ((n + 63) // 64) + 64) + n * (_padded(n) + 160) + 12 * _STEP_BYTES",
           "need = k * (17 * n + 64 * ((n + 63) // 64) + 64) + n * (_padded(n) + 160)",
           ("tests/test_boundaries.py",)),
]

# Loaded by each pytest run (`-p`): hypothesis derandomized, with no example
# database and no shrinking.
_PLUGIN = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", derandomize=True, database=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutants")
"""


def _python(tmp: Path, *args) -> subprocess.CompletedProcess:
    """Python with the copy under tmp first on the path, run from tmp, so
    nothing is written in the repository."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp), str(tmp / "src")]),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=tmp, env=env, capture_output=True, text=True)


def _pytest(tmp: Path, tests) -> subprocess.CompletedProcess:
    return _python(tmp, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "-p", "mutants_plugin", *(str(ROOT / t) for t in tests))


def _locate(text: str, m: Mutant) -> int:
    """The index of m's line among text's lines; ValueError unless it occurs
    exactly once."""
    hits = [i for i, line in enumerate(text.split("\n")) if line.strip() == m.line]
    if len(hits) != 1:
        raise ValueError(f"{m.name}: {len(hits)} lines of {m.file} read {m.line!r}")
    return hits[0]


def _mutated(text: str, m: Mutant) -> str:
    lines = text.split("\n")
    i = _locate(text, m)
    lines[i] = lines[i][:len(lines[i]) - len(lines[i].lstrip())] + m.new
    out = "\n".join(lines)
    compile(out, m.file, "exec")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or MUTANTS
    if args.list:
        for m in chosen:
            print(f"{m.name:38} {m.file:12} {' '.join(m.tests)}")
        return 0

    problems = []
    for m in chosen:
        try:
            _mutated((ROOT / "src" / "stabsim" / m.file).read_text(), m)
        except (ValueError, SyntaxError) as e:
            problems.append(f"STALE {e}")
    if problems:
        print("\n".join(problems))
        return 1

    with tempfile.TemporaryDirectory(prefix="stabsim-mutants-") as tmp:
        tmp = Path(tmp)
        shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (tmp / "mutants_plugin.py").write_text(_PLUGIN)
        where = _python(tmp, "-c", "import stabsim; print(stabsim.__file__)").stdout.strip()
        if not Path(where).resolve().is_relative_to(tmp.resolve()):
            print(f"stabsim imports from {where!r}, not from the copy")
            return 1
        tests = sorted({t for m in chosen for t in m.tests})
        start = time.perf_counter()
        base = _pytest(tmp, tests)
        print(f"unmutated: exit {base.returncode} ({time.perf_counter() - start:.1f} s)",
              *tests)
        if base.returncode != 0:
            print(base.stdout[-3000:] + base.stderr[-3000:])
            return 1
        survivors = []
        for m in chosen:
            path = tmp / "src" / "stabsim" / m.file
            original = path.read_text()
            path.write_text(_mutated(original, m))
            start = time.perf_counter()
            try:
                res = _pytest(tmp, m.tests)
            finally:
                path.write_text(original)
            # exit 1: tests ran and some failed; anything else is not a kill
            verdict = "killed" if res.returncode == 1 else f"SURVIVED (exit {res.returncode})"
            print(f"{verdict:18} {m.name:38} {time.perf_counter() - start:6.1f} s")
            if res.returncode != 1:
                survivors.append(m.name)
                print(res.stdout[-2000:] + res.stderr[-2000:])
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
