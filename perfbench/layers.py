"""Per-layer measurement: spans around the calls into each module, and
best-of-k microbenchmarks at fixed Fock cutoffs and of the closed-form
figures.

Spans are recorded only in the traced run.  The benchmark wraps public
functions at the binding their caller looks up (`cli.activation_report`,
`DensityMatrix.__post_init__`, ...) and restores every binding afterwards;
no file of the program changes.  Each span keeps its name, start, end,
parent span and the item it belongs to.  A span's self time is its
duration minus the time covered by its child spans (calls nest and run on
one thread, so children never overlap).
"""
from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from collections import defaultdict

from switchwork import cli, cvcase, figures, qmat, qubitcase, switchcore, verifysuite
from switchwork.states import BlochState
from workloads import CLOSED_FORM_FIGURES, figure_gate

SPAN_FIELDS = ("name", "start", "end", "parent", "item", "error", "note")
NAME, START, END, PARENT, ITEM, ERROR, NOTE = range(len(SPAN_FIELDS))

# Functions whose calls, total time and self time are reported.
TIMED = (
    "qmat.DensityMatrix",
    "qmat.UnitaryOperator",
    "qmat.expm",
    "states.gibbs_fock",
    "states.passive_state_from_spectrum",
    "verifysuite.random_passive_scenario",
    "cvcase.displacement_op",
    "cvcase.squeeze_op",
    "cvcase.disp_squeeze_scenario",
    "switchcore.activation_report",
    "switchcore.measure_control",
)
# Functions whose call counts show recomputation.
COUNTED = ("switchcore.chi", "switchcore.post_switch_state", "switchcore.build_switch_unitary")
LAYERS = ("cli", "qmat", "states", "verifysuite", "cvcase", "switchcore", "qubitcase")
CHECKS = ("chi", "delta_qs", "n_m", "delta_sm", "split", "u2_min", "figure_cell", "abs_chi")

# Calibrated cutoffs of (|alpha|, |z|, beta) at omega = 1 (ROADMAP baseline).
MICRO_POINTS = {46: (0.5, 0.2, 1.0), 84: (1.0, 0.5, 1.0), 110: (1.5, 0.8, math.inf), 172: (1.5, 0.8, 1.0)}
MICRO_FUNCTIONS = (
    "cvcase.disp_squeeze_scenario",
    "cvcase.displacement_op",
    "cvcase.squeeze_op",
    "qmat.DensityMatrix",
    "switchcore.activation_report",
    "switchcore.measure_control",
)
MICRO_REPEATS = 5
FIGURE_REPEATS = 3


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [f"{n}.{k}" for n in TIMED for k in ("calls", "total_ms", "self_ms")]
    names += [f"{n}.calls" for n in COUNTED]
    names += ["switchcore.divergent", "cvcase.n_max.p50", "cvcase.n_max.max", "cvcase.dim_cubed_sum"]
    names += [
        "qubitcase.minimize.calls",
        "qubitcase.minimize.total_ms",
        "qubitcase.evaluations",
        "qubitcase.us_per_eval",
        "qubitcase.divergent_evaluations",
        "qubitcase.check_ms",
    ]
    names += [f"figures.figure_dataset.{f}_ms" for f in CLOSED_FORM_FIGURES] + ["figures.render_csv_ms"]
    names += [f"layer.{m}.self_frac" for m in LAYERS]
    names += [f"{f}.n{n}_ms" for n in MICRO_POINTS for f in MICRO_FUNCTIONS]
    names += ["cvcase.delta_sm_disp_squeeze.us", "trace.overhead_frac"]
    names += [f"check.max_gap.{c}" for c in CHECKS] + ["check.min_delta_qs"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".us") or name.endswith("us_per_eval"):
        return "us"
    if name.endswith("_frac"):
        return "1"
    if name.startswith("check."):
        return "energy" if name.endswith(("delta_qs", "delta_sm", "u2_min")) else "1"
    return "count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item, None, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name, note=None):
        """`name` is a string or a function of the call's arguments;
        `note` maps the return value to a number kept on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index][ERROR] = type(exc).__name__
                raise
            finally:
                self._close(index)
            if note is not None:
                self.spans[index][NOTE] = note(result)
            return result

        return traced

    def targets(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, span name, note) for every wrapped binding."""
        return [
            (qmat.DensityMatrix, "__post_init__", "qmat.DensityMatrix", None),
            (qmat.UnitaryOperator, "__post_init__", "qmat.UnitaryOperator", None),
            (qmat, "expm", "qmat.expm", None),
            (cvcase, "gibbs_fock", "states.gibbs_fock", None),
            (verifysuite, "passive_state_from_spectrum", "states.passive_state_from_spectrum", None),
            (verifysuite, "random_passive_scenario", "verifysuite.random_passive_scenario", None),
            (cvcase, "displacement_op", "cvcase.displacement_op", None),
            (cvcase, "squeeze_op", "cvcase.squeeze_op", None),
            (cli, "disp_squeeze_scenario", "cvcase.disp_squeeze_scenario", lambda s: s.rho_s.dim - 1),
            (cli, "run_sweep", "cli.run_sweep", None),
            (cli, "activation_report", "switchcore.activation_report", None),
            (cli, "measure_control", "switchcore.measure_control", None),
            (switchcore, "activation_report", "switchcore.activation_report", None),
            (switchcore, "chi", "switchcore.chi", None),
            (switchcore, "post_switch_state", "switchcore.post_switch_state", None),
            (switchcore, "build_switch_unitary", "switchcore.build_switch_unitary", None),
            (qubitcase, "minimize_delta_qs_u2", "qubitcase.minimize", _u2_note),
            (qubitcase, "minimize_delta_sm_u2", "qubitcase.minimize", _u2_note),
            (qubitcase, "activation_report", "qubitcase.check", None),
            (qubitcase, "measure_control", "qubitcase.check", None),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, note in self.targets():
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _u2_note(result) -> tuple[int, int]:
    return result.evaluations, result.divergent_evaluations


def span_metrics(spans: list[list], batches: int, wall_ms: float) -> dict[str, float]:
    """Per-batch span aggregates; `wall_ms` is the summed time of the
    traced batches, which the layer self-time fractions divide."""
    child_ms = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_ms[s[PARENT]] += (s[END] - s[START]) * 1e3
    calls = defaultdict(int)
    total = defaultdict(float)
    self_ms = defaultdict(float)
    layer_ms = defaultdict(float)
    n_max: list[int] = []
    evaluations = divergent_evaluations = divergent = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        duration = (s[END] - s[START]) * 1e3
        calls[name] += 1
        total[name] += duration
        self_ms[name] += duration - child_ms[i]
        layer_ms[name.split(".")[0]] += duration - child_ms[i]
        if name == "cvcase.disp_squeeze_scenario" and s[NOTE] is not None:
            n_max.append(s[NOTE])
        elif name == "qubitcase.minimize" and s[NOTE] is not None:
            evaluations += s[NOTE][0]
            divergent_evaluations += s[NOTE][1]
        elif name == "switchcore.measure_control" and s[ERROR] == "NearZeroPostSelectionError":
            divergent += 1
    b = float(batches)
    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls[name] / b
        out[f"{name}.total_ms"] = total[name] / b
        out[f"{name}.self_ms"] = self_ms[name] / b
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name] / b
    out["switchcore.divergent"] = divergent / b
    out["cvcase.n_max.p50"] = float(statistics.median(n_max)) if n_max else 0.0
    out["cvcase.n_max.max"] = float(max(n_max)) if n_max else 0.0
    out["cvcase.dim_cubed_sum"] = sum((n + 1) ** 3 for n in n_max) / b
    out["qubitcase.minimize.calls"] = calls["qubitcase.minimize"] / b
    out["qubitcase.minimize.total_ms"] = total["qubitcase.minimize"] / b
    out["qubitcase.evaluations"] = evaluations / b
    search_ms = total["qubitcase.minimize"] - total["qubitcase.check"]
    out["qubitcase.us_per_eval"] = 1e3 * search_ms / evaluations if evaluations else 0.0
    out["qubitcase.divergent_evaluations"] = divergent_evaluations / b
    out["qubitcase.check_ms"] = total["qubitcase.check"] / b
    for layer in LAYERS:
        out[f"layer.{layer}.self_frac"] = layer_ms[layer] / wall_ms if wall_ms else 0.0
    return out


def _best_ms(fn, repeats: int = MICRO_REPEATS) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def microbenchmarks() -> dict[str, float]:
    """Best-of-k single-call timings at the ROADMAP cutoffs."""
    a_phase, z_phase = 0.9, 0.4
    control = BlochState(math.pi / 2.0, 0.0)
    m = BlochState(math.pi / 2.0, math.pi)
    out: dict[str, float] = {}
    for n_max, (alpha_abs, z_abs, beta) in MICRO_POINTS.items():
        a = cvcase.DisplacementParams(alpha_abs, a_phase)
        s = cvcase.SqueezeParams(z_abs, z_phase)
        scenario = cvcase.disp_squeeze_scenario(1.0, beta, 0.5, 0.0, a, s, control, n_max=n_max)
        w12 = scenario.u2.mat @ scenario.u1.mat
        dense_state = w12 @ scenario.rho_s.mat @ w12.conj().T
        calls = {
            "cvcase.disp_squeeze_scenario": lambda: cvcase.disp_squeeze_scenario(
                1.0, beta, 0.5, 0.0, a, s, control, n_max=n_max
            ),
            "cvcase.displacement_op": lambda: cvcase.displacement_op(a, n_max),
            "cvcase.squeeze_op": lambda: cvcase.squeeze_op(s, n_max),
            "qmat.DensityMatrix": lambda: qmat.DensityMatrix(dense_state),
            "switchcore.activation_report": lambda: switchcore.activation_report(scenario),
            "switchcore.measure_control": lambda: switchcore.measure_control(scenario, m),
        }
        for fn_name in MICRO_FUNCTIONS:
            out[f"{fn_name}.n{n_max}_ms"] = _best_ms(calls[fn_name])
    a = cvcase.DisplacementParams(1.0, a_phase)
    s = cvcase.SqueezeParams(0.5, z_phase)
    per_loop = 200
    out["cvcase.delta_sm_disp_squeeze.us"] = 1e3 * _best_ms(
        lambda: [cvcase.delta_sm_disp_squeeze(1.0, 1.0, a, s, control, control) for _ in range(per_loop)]
    ) / per_loop
    return out


def figure_benchmarks(gaps: dict[str, float], failures: list, references: dict | None = None):
    """Best-of-k timings of the closed-form figures and of rendering them
    as CSV, each rendered figure gated against its reference.  Returns the
    metrics and the number of figures that failed."""
    out: dict[str, float] = {}
    render_ms = 0.0
    failed = 0
    for fid in CLOSED_FORM_FIGURES:
        out[f"figures.figure_dataset.{fid}_ms"] = _best_ms(lambda: figures.figure_dataset(fid), FIGURE_REPEATS)
        header, rows = figures.figure_dataset(fid)
        render_ms += _best_ms(lambda: figures.render_csv(header, rows), FIGURE_REPEATS)
        reference = None if references is None else references[fid]
        error = figure_gate(fid, figures.render_csv(header, rows), gaps, reference)
        if error is not None:
            failed += 1
            failures.append({"batch": "figures", "item": fid, "input": fid, "error": error[:300]})
    out["figures.render_csv_ms"] = render_ms
    return out, failed


def check_metrics(gaps: dict[str, float]) -> dict[str, float]:
    out = {f"check.max_gap.{c}": float(gaps.get(c, 0.0)) for c in CHECKS}
    out["check.min_delta_qs"] = float(gaps.get("min_delta_qs", 0.0))
    return out
