"""The benchmark's traced pass wraps stabsim functions at the names callers
look up (`perfbench/tracing.py`).  A renamed or removed name would drop its
layer from the trace, so every wrapped name must exist."""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import beyond_program  # noqa: E402
from stabsim import beyond  # noqa: E402
from stabsim.program import execute, parse  # noqa: E402


def test_tracer_finds_every_name_it_wraps():
    before = beyond.PauliSumState.measure_qubit, beyond.multiply
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
        assert beyond.PauliSumState.measure_qubit is not before[0]
    finally:
        tracer.uninstall()
    assert (beyond.PauliSumState.measure_qubit, beyond.multiply) == before


def test_traced_beyond_program_reports_every_name_and_its_terms():
    """The packed term table keeps the tracer's contract: every wrapped
    name exists, and `len(state.terms)` gives the term peak (4^3 here)."""
    program = parse(beyond_program(24, 3, random.Random(1)))
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
        execute(beyond.PauliSumState(program.n), program, random.Random(1))
        assert tracer.terms_peak == 64
    finally:
        tracer.uninstall()
