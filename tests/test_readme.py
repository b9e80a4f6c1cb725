"""README's Internals section names library objects in backticks.  Each name
must resolve, so that a deleted or renamed function cannot stay documented."""

import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import stabsim
from stabsim import beyond, mixed, program, runner, tableau

README = Path(__file__).resolve().parents[1] / "README.md"
# a dotted name, optionally called: `Tableau.row_product(rows)`
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\((.*)\))?")
# where the first part of a name is looked up: `stabsim.runner.MAX_BENCH_GATES`,
# `PauliSumState.measure_pauli`, `rowsum` (a tableau's method) all resolve
SCOPES = [SimpleNamespace(stabsim=stabsim), tableau.Tableau(1), tableau, beyond, mixed, program, runner]


def internals_names() -> tuple[list[str], set[str]]:
    """The dotted names in backticks in README's Internals section, and the
    parameter names of the calls among them (`rows(lo, hi)`: lo, hi)."""
    section = README.read_text().split("\n## Internals")[1].split("\n## ")[0]
    found = [NAME.fullmatch(s) for s in re.findall(r"`([^`]+)`", section)]
    names = sorted({m[1] for m in found if m})
    params = {p.strip() for m in found if m and m[2] for p in m[2].split(",")}
    return names, params


def resolve(dotted: str):
    """The object a dotted name refers to, else AttributeError."""
    head, *rest = dotted.split(".")
    scope = next((s for s in SCOPES if hasattr(s, head)), None)
    if scope is None:
        raise AttributeError(f"{head!r} is in none of {SCOPES}")
    obj = getattr(scope, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


NAMES, PARAMS = internals_names()


def test_the_internals_section_names_library_objects():
    assert {"Tableau.row_product", "PauliTable", "Tableau.stabilizer_signs"} <= set(NAMES)
    assert resolve("stabsim.runner.MAX_BENCH_GATES") == runner.MAX_BENCH_GATES


@pytest.mark.parametrize("name", [n for n in NAMES if n not in PARAMS])
def test_every_name_in_the_internals_section_resolves(name):
    resolve(name)
