"""The benchmark's own checks must count a wrong answer.

Run with the rest of the suite:  PYTHONPATH=src python -m pytest perfbench
"""

import json
from pathlib import Path

from perfbench import checks, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[1]


def fake_result(spec, passes=2):
    """What timed.py writes, from real in-process CLI calls run in the
    current directory."""
    texts, calls = [], []
    for argv in spec["calls"]:
        rc, out = checks.cli(argv)
        texts.append(out)
        calls.append([rc, len(texts) - 1])
    return {"passes": [{"calls": [list(c) for c in calls]} for _ in range(passes)], "outputs": texts}


def tally_of(workload, spec, result, work):
    tally = checks.Tally()
    checks.check_passes(workload, spec, result, work, tally, "test")
    return tally


def test_reversible_flipped_bit_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "REVERSIBLE_N", 12)
    monkeypatch.chdir(tmp_path)
    spec = workloads.write_inputs("chp_reversible", 3, tmp_path)
    result = fake_result(spec)
    assert tally_of("chp_reversible", spec, result, tmp_path).failed == 0

    text = result["outputs"][0]
    result["outputs"].append(text[:4] + ("1" if text[4] == "0" else "0") + text[5:])
    result["passes"][1]["calls"][0][1] = 1
    tally = tally_of("chp_reversible", spec, result, tmp_path)
    # the flipped pass fails its output check and its repeat-of-pass-0 check
    assert tally.failed == 2


def test_dense_second_sweep_mismatch_and_exit_code_are_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DENSE_N", 6)
    monkeypatch.chdir(tmp_path)
    spec = workloads.write_inputs("chp_dense", 1, tmp_path)
    result = fake_result(spec, passes=1)
    assert tally_of("chp_dense", spec, result, tmp_path).failed == 0

    bits = result["outputs"][0].strip()
    wrong = bits[:-1] + ("1" if bits[-1] == "0" else "0")
    result["outputs"][0] = wrong + "\n"
    assert tally_of("chp_dense", spec, result, tmp_path).failed == 1
    result["passes"][0]["calls"][0][0] = 2
    assert tally_of("chp_dense", spec, result, tmp_path).failed == 2


def test_synth_answers_are_checked(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SYNTH_N", 60)
    monkeypatch.chdir(tmp_path)
    spec = workloads.write_inputs("synth", 0, tmp_path)
    result = fake_result(spec, passes=1)
    assert tally_of("synth", spec, result, tmp_path).failed == 0
    assert result["outputs"][3] == "zero\n"

    result["outputs"][3] = result["outputs"][2]
    result["outputs"][0] = result["outputs"][0].replace("h 0\n", "h 1\n", 1)
    assert tally_of("synth", spec, result, tmp_path).failed == 2


def test_inputs_repeat_for_a_seed():
    a = workloads.beyond_program(10, 3, workloads.rng_for("beyond_t", 4))
    b = workloads.beyond_program(10, 3, workloads.rng_for("beyond_t", 4))
    c = workloads.beyond_program(10, 3, workloads.rng_for("beyond_t", 5))
    assert a == b != c


def test_tail_takes_highest_rung_with_ten_beyond():
    assert tracing.tail(list(range(1000))) == (tracing.percentile(list(range(1000)), 99.0), 99.0)
    assert tracing.tail(list(range(100)))[1] == 90.0
    assert tracing.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert tracing.tail([]) == (0.0, 0.0)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = {**tracing.LAYER_UNITS, **run.EXTRA_LAYER_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
