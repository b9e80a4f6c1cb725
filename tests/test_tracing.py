"""The benchmark's traced pass wraps stabsim functions at the names callers
look up (`perfbench/tracing.py`).  A renamed or removed name would drop its
layer from the trace, so every wrapped name must exist."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import Tracer  # noqa: E402
from stabsim import beyond  # noqa: E402


def test_tracer_finds_every_name_it_wraps():
    before = beyond.PauliSumState.measure_qubit, beyond.multiply
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
        assert beyond.PauliSumState.measure_qubit is not before[0]
    finally:
        tracer.uninstall()
    assert (beyond.PauliSumState.measure_qubit, beyond.multiply) == before
