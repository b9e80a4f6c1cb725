"""Layer tracing for the benchmark's traced pass.

`Tracer.install()` wraps stabsim's public functions at the name each caller
looks up (a module global for functions imported by name, the class
attribute for methods).  Coarse calls become spans with a parent; hot calls
(gates, rowsum, get_row, multiply, GF(2) kernels) are folded into a count
and a total time so memory stays bounded.  A span's self time is its
duration minus the time its children (spans and hot calls) cover.

Nothing here runs unless the traced pass installs it; the untraced pass
never imports stabsim through this module.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter as clock

# Percentile ladder for `_tail` metrics: the highest rung with at least ten
# samples beyond it is reported.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

GF2_NAMES = (
    "gf2_cholesky",
    "gf2_gaussian_eliminate",
    "gf2_invert",
    "gf2_rank",
    "gf2_row_ops_to_identity",
    "gf2_solve",
)

# name -> unit of every per-layer metric `summarize` reports.
LAYER_UNITS = {
    "program.parse_s": "s",
    "cli.run_self_s": "s",
    "tableau.gates": "count",
    "tableau.gates_cnot": "count",
    "tableau.gates_h": "count",
    "tableau.gates_p": "count",
    "tableau.gate_us": "us",
    "tableau.meas_random": "count",
    "tableau.meas_random_us_p50": "us",
    "tableau.meas_random_us_tail": "us",
    "tableau.meas_random_tail_pct": "%",
    "tableau.rowsums_per_random": "count",
    "tableau.meas_det": "count",
    "tableau.meas_det_us_p50": "us",
    "tableau.meas_det_us_tail": "us",
    "tableau.meas_det_tail_pct": "%",
    "tableau.rowsums_per_det": "count",
    "tableau.get_row_calls": "count",
    "tableau.get_row_s": "s",
    "tableau.memory_ratio": "ratio",
    "synth.canonicalize_s": "s",
    "synth.minimize_s": "s",
    "synth.canonical_gates": "count",
    "synth.minimized_gates": "count",
    "gf2.calls": "count",
    "gf2.s": "s",
    "overlap.inner_product_s": "s",
    "overlap.rowsums": "count",
    "beyond.apply_unitary_s": "s",
    "beyond.gate_s": "s",
    "beyond.measures": "count",
    "beyond.measure_ms_p50": "ms",
    "beyond.measure_ms_tail": "ms",
    "beyond.measure_tail_pct": "%",
    "beyond.terms_peak": "count",
    "pauli.multiply_calls": "count",
}

# Per-iteration values that depend on the inputs and the seed only.  They
# must repeat exactly from one pass to the next.
COUNTERS = (
    "tableau.gates_cnot",
    "tableau.gates_h",
    "tableau.gates_p",
    "tableau.meas_random",
    "tableau.meas_det",
    "tableau.rowsums_random",
    "tableau.rowsums_det",
    "tableau.get_row_calls",
    "tableau.memory_ratio",
    "synth.canonical_gates",
    "synth.minimized_gates",
    "gf2.calls",
    "overlap.rowsums",
    "beyond.measures",
    "beyond.terms_peak",
    "pauli.multiply_calls",
)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [id, parent id, name, child seconds]
        self.spans = []  # closed: (id, parent id, name, start, end, self s, extra)
        self.hot = {}  # name -> [count, seconds]
        self.hot_depth = 0
        self.next_id = 0
        self.terms_peak = 0
        self.last_tableau = None
        self.patches = []
        self.missing = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, on_enter=None, on_exit=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tr.next_id
            tr.next_id += 1
            parent = tr.stack[-1][0] if tr.stack else None
            before = on_enter(args) if on_enter else None
            frame = [sid, parent, name, 0.0]
            tr.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tr.stack.pop()
            if tr.stack:
                tr.stack[-1][3] += t1 - t0
            extra = on_exit(args, result, before) if on_exit else None
            tr.spans.append((sid, parent, name, t0, t1, t1 - t0 - frame[3], extra))
            return result

        return wrapper

    def _hot(self, name, fn, keep_self=False):
        tr = self
        slot = tr.hot.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep_self:
                tr.last_tableau = args[0]
            if tr.hot_depth:
                # nested in another hot call, which covers this time already
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    slot[0] += 1
                    slot[1] += clock() - t0
            tr.hot_depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tr.hot_depth = 0
                slot[0] += 1
                slot[1] += dt
                if tr.stack:
                    tr.stack[-1][3] += dt

        return wrapper

    def _patch(self, owner, attr, make):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self.patches.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def install(self) -> "Tracer":
        from stabsim import beyond, cli, synth, tableau

        tab = tableau.Tableau
        pss = beyond.PauliSumState
        hot, span = self._hot, self._span

        def hot_gate(kind):
            return lambda f: hot(f"tableau.{kind}", f, keep_self=True)

        def terms_exit(args, result, before):
            self.terms_peak = max(self.terms_peak, len(args[0].terms))

        rowsums = self.hot.setdefault("tableau.rowsum", [0, 0.0])

        def rowsum_calls(args):
            return rowsums[0]

        def canon(f):
            return span("synth.canonical_synthesize", f, on_exit=lambda a, r, b: r.gate_count())

        self._patch(cli, "parse", lambda f: span("program.parse", f))
        self._patch(cli, "run", lambda f: span("cli.run", f))
        self._patch(tab, "apply_cnot", hot_gate("cnot"))
        self._patch(tab, "apply_hadamard", hot_gate("h"))
        self._patch(tab, "apply_phase", hot_gate("p"))
        self._patch(tab, "rowsum", lambda f: hot("tableau.rowsum", f))
        self._patch(tab, "get_row", lambda f: hot("tableau.get_row", f))
        self._patch(
            tab,
            "measure",
            lambda f: span(
                "tableau.measure",
                f,
                on_enter=lambda a: a[0].rowsum_count,
                on_exit=lambda a, r, before: (r.deterministic, a[0].rowsum_count - before),
            ),
        )
        self._patch(cli, "canonical_synthesize", canon)
        self._patch(synth, "canonical_synthesize", canon)
        self._patch(
            cli,
            "minimize",
            lambda f: span("synth.minimize", f, on_exit=lambda a, r, b: len(r.instructions)),
        )
        for name in GF2_NAMES:
            self._patch(synth, name, lambda f: hot("gf2", f))
        self._patch(
            cli,
            "inner_product",
            lambda f: span(
                "overlap.inner_product",
                f,
                on_enter=rowsum_calls,
                on_exit=lambda a, r, before: rowsum_calls(a) - before,
            ),
        )
        for name in ("apply_cnot", "apply_hadamard", "apply_phase"):
            self._patch(pss, name, lambda f: hot("beyond.gate", f))
        self._patch(pss, "apply_unitary", lambda f: span("beyond.apply_unitary", f, on_exit=terms_exit))
        self._patch(pss, "measure_qubit", lambda f: span("beyond.measure", f, on_exit=terms_exit))
        self._patch(beyond, "multiply", lambda f: hot("pauli.multiply", f))
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self.patches):
            setattr(owner, attr, fn)
        self.patches = []

    # -- per-pass collection ------------------------------------------------------

    def take(self) -> dict:
        """Everything recorded since the last call, folded into one pass's
        counters, times and latency samples; then reset for the next pass."""
        hot = {k: (v[0], v[1]) for k, v in self.hot.items()}
        for v in self.hot.values():
            v[0], v[1] = 0, 0.0
        spans, self.spans = self.spans, []
        t = self.last_tableau
        memory_ratio = t.memory_bits() / (4 * t.n * t.n) if t is not None else 0.0
        out = fold(spans, hot, memory_ratio, self.terms_peak)
        self.terms_peak = 0
        self.last_tableau = None
        return out


def fold(spans, hot, memory_ratio, terms_peak) -> dict:
    def count(name):
        return hot.get(name, (0, 0.0))[0]

    def secs(name):
        return hot.get(name, (0, 0.0))[1]

    c = {k: 0 for k in COUNTERS}
    times = {
        "program.parse_s": 0.0,
        "cli.run_self_s": 0.0,
        "synth.canonicalize_s": 0.0,
        "synth.minimize_s": 0.0,
        "overlap.inner_product_s": 0.0,
        "beyond.apply_unitary_s": 0.0,
    }
    samples = {"random_us": [], "det_us": [], "beyond_ms": []}
    for _sid, _parent, name, t0, t1, self_s, extra in spans:
        dur = t1 - t0
        if name == "program.parse":
            times["program.parse_s"] += dur
        elif name == "cli.run":
            times["cli.run_self_s"] += self_s
        elif name == "tableau.measure":
            det, rowsums = extra
            kind = "det" if det else "random"
            c[f"tableau.meas_{kind}"] += 1
            c[f"tableau.rowsums_{kind}"] += rowsums
            samples[f"{kind}_us"].append(dur * 1e6)
        elif name == "synth.canonical_synthesize":
            times["synth.canonicalize_s"] += dur
            c["synth.canonical_gates"] = max(c["synth.canonical_gates"], extra)
        elif name == "synth.minimize":
            times["synth.minimize_s"] += self_s
            c["synth.minimized_gates"] = extra
        elif name == "overlap.inner_product":
            times["overlap.inner_product_s"] += dur
            c["overlap.rowsums"] += extra
        elif name == "beyond.apply_unitary":
            times["beyond.apply_unitary_s"] += dur
        elif name == "beyond.measure":
            c["beyond.measures"] += 1
            samples["beyond_ms"].append(dur * 1e3)
    for kind in ("cnot", "h", "p"):
        c[f"tableau.gates_{kind}"] = count(f"tableau.{kind}")
    c["tableau.get_row_calls"] = count("tableau.get_row")
    c["gf2.calls"] = count("gf2")
    c["pauli.multiply_calls"] = count("pauli.multiply")
    c["beyond.terms_peak"] = terms_peak
    c["tableau.memory_ratio"] = memory_ratio
    times["tableau.gate_s"] = sum(secs(f"tableau.{k}") for k in ("cnot", "h", "p"))
    times["tableau.get_row_s"] = secs("tableau.get_row")
    times["gf2.s"] = secs("gf2")
    times["beyond.gate_s"] = secs("beyond.gate")
    return {"counters": c, "times": times, "samples": samples}


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) at the highest ladder rung with at least ten
    samples beyond it; the median when no rung has."""
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if len(ordered) * (100 - pct) / 100 >= 10 - 1e-9:
            return percentile(ordered, pct), pct
    return percentile(ordered, 50.0), 50.0


def percentile(ordered: list, pct: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(passes: list) -> dict:
    """Per-layer metrics over the timed passes: counters from one pass
    (they repeat exactly), times at the nominal speed (each pass scaled by
    its reference-job time) as the median over passes, latencies pooled
    over passes."""
    from perfbench.reference import scale

    layers = [p["layers"] for p in passes]
    for p, layer in zip(passes, layers):
        layer["times"] = {k: scale(v, p["ref"]) for k, v in layer["times"].items()}
        layer["samples"] = {
            k: [scale(x, p["ref"]) for x in v] for k, v in layer["samples"].items()
        }
    c = layers[0]["counters"]

    def med(key):
        return statistics.median(layer["times"][key] for layer in layers)

    def pooled(key):
        return [x for layer in layers for x in layer["samples"][key]]

    gates = c["tableau.gates_cnot"] + c["tableau.gates_h"] + c["tableau.gates_p"]
    gate_s = sum(layer["times"]["tableau.gate_s"] for layer in layers)
    out = {
        "program.parse_s": med("program.parse_s"),
        "cli.run_self_s": med("cli.run_self_s"),
        "tableau.gates": gates,
        "tableau.gates_cnot": c["tableau.gates_cnot"],
        "tableau.gates_h": c["tableau.gates_h"],
        "tableau.gates_p": c["tableau.gates_p"],
        "tableau.gate_us": gate_s / (gates * len(passes)) * 1e6 if gates else 0.0,
        "tableau.get_row_calls": c["tableau.get_row_calls"],
        "tableau.get_row_s": med("tableau.get_row_s"),
        "tableau.memory_ratio": c["tableau.memory_ratio"],
        "synth.canonicalize_s": med("synth.canonicalize_s"),
        "synth.minimize_s": med("synth.minimize_s"),
        "synth.canonical_gates": c["synth.canonical_gates"],
        "synth.minimized_gates": c["synth.minimized_gates"],
        "gf2.calls": c["gf2.calls"],
        "gf2.s": med("gf2.s"),
        "overlap.inner_product_s": med("overlap.inner_product_s"),
        "overlap.rowsums": c["overlap.rowsums"],
        "beyond.apply_unitary_s": med("beyond.apply_unitary_s"),
        "beyond.gate_s": med("beyond.gate_s"),
        "beyond.measures": c["beyond.measures"],
        "beyond.terms_peak": c["beyond.terms_peak"],
        "pauli.multiply_calls": c["pauli.multiply_calls"],
    }
    for kind in ("random", "det"):
        n = c[f"tableau.meas_{kind}"]
        lat = pooled(f"{kind}_us")
        value, pct = tail(lat)
        out[f"tableau.meas_{kind}"] = n
        out[f"tableau.meas_{kind}_us_p50"] = statistics.median(lat) if lat else 0.0
        out[f"tableau.meas_{kind}_us_tail"] = value
        out[f"tableau.meas_{kind}_tail_pct"] = pct
        out[f"tableau.rowsums_per_{kind}"] = c[f"tableau.rowsums_{kind}"] / n if n else 0.0
    lat = pooled("beyond_ms")
    value, pct = tail(lat)
    out["beyond.measure_ms_p50"] = statistics.median(lat) if lat else 0.0
    out["beyond.measure_ms_tail"] = value
    out["beyond.measure_tail_pct"] = pct
    return out
