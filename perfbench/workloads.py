"""The three benchmark workloads: seeded inputs, one program call per item,
and the correctness gate that every item's output must pass; and the gate
for the closed-form figures that the traced run times.

Every workload is a closed loop with one client: an item starts only after
the previous one returned.  A batch is the set of items a user waits for
(one README sweep, one set of optimizer calls, one passivity sweep).  The program is driven only through public functions of the
`switchwork` package, looked up as module attributes at call time so that
the traced run can wrap them (see layers.py).

Gate tolerances are pinned here rather than read from the package, so a
change to a library constant cannot loosen the gate: they equal the
library values at the commit that introduced the benchmark (TOL_ORACLE,
TOL_NM, TOL_PASSIVITY and the `verify` figure-regression tolerances).
"""
from __future__ import annotations

import dataclasses
import gzip
import math
from pathlib import Path

import numpy as np

from switchwork import cli, config, cvcase, qubitcase, switchcore, verifysuite
from switchwork.states import BlochState

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

TOL_ORACLE = 1e-6  # cvcase.TOL_ORACLE
TOL_NM = 1e-12  # switchcore.TOL_NM
TOL_SPLIT = 1e-9  # delta_qs = delta_s + delta_c, as `verify` checks it
TOL_PASSIVITY = 1e-8  # verifysuite.TOL_PASSIVITY
TOL_CHI_NORM = 1e-9  # |chi| <= 1
TOL_U2_MIN = 1e-9  # optimizer minimum vs the reference figure value
FIGURE_SEED = 11  # figures.DEFAULT_FIGURE_SEED
FIGURE_BUDGET = 8000  # figures.FIGURE_BUDGET
CLOSED_FORM_FIGURES = ("fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9")
_PLUS = BlochState(math.pi / 2.0, 0.0)


def reference_csv(figure_id: str) -> str:
    """Figure CSV text as the package produced it when the benchmark was
    introduced (gzip copies of src/switchwork/_baselines)."""
    with gzip.open(REFERENCE_DIR / f"{figure_id}.csv.gz", "rt", encoding="utf-8") as fh:
        return fh.read()


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _gap(gaps: dict[str, float], name: str, value: float) -> float:
    gaps[name] = max(gaps.get(name, 0.0), value)
    return value


# ---------------------------------------------------------------------------
# fock_sweep: the README disp_squeeze sweep, one grid point per item.
# ---------------------------------------------------------------------------

# README values; seed 0 uses them exactly, other seeds redraw the phases.
README_SWEEP = """\
kind = fock
family = disp_squeeze
omega = 1.0
beta = 1.0
alpha_abs = 1.0
alpha_phase = {alpha_phase!r}
z_abs = 0.5
z_phase = {z_phase!r}
t_abs = 0.5
t_phase = {t_phase!r}
control_theta = 1.5707963267948966
control_phi = 0.0
measure_theta = 1.5707963267948966
measure_phi = {measure_phi!r}
sweep1 = alpha_abs 0.0 1.5 31
sweep2 = z_abs 0.0 0.8 9
"""
README_PHASES = {
    "alpha_phase": 0.9,
    "z_phase": 0.4,
    "t_phase": 0.0,
    "measure_phi": 3.141592653589793,
}


def closed_forms() -> dict:
    """Closed forms the fock_sweep gate compares against; a test injects a
    corrupted copy to show the gate trips."""
    return {
        "chi": cvcase.chi_disp_squeeze,
        "delta_qs": cvcase.delta_qs_disp_squeeze,
        "n_m": cvcase.n_m_disp_squeeze,
        "delta_sm": cvcase.delta_sm_disp_squeeze,
    }


class FockSweep:
    """Large-d generic path: Fock operator construction, wrapper
    validation, activation_report and measure_control at n_max 40..172."""

    name = "fock_sweep"

    def __init__(self, seed: int, forms: dict | None = None, points: int | None = None):
        phases = dict(README_PHASES)
        if seed != 0:
            rng = np.random.default_rng(seed)
            for key in phases:
                phases[key] = float(rng.uniform(0.0, 2.0 * math.pi))
        cfg = config.parse_config(README_SWEEP.format(**phases))
        names = [k for k, _ in cfg.scalars]
        self.items = [
            dataclasses.replace(cfg, axes=(), scalars=tuple((k, p[k]) for k in names))
            for p in config.grid_points(cfg)
        ]
        if points is not None:
            self.items = self.items[:: max(1, len(self.items) // points)][:points]
        self.forms = forms if forms is not None else closed_forms()

    def batch(self, index: int) -> list:
        return self.items

    def run(self, item):
        return cli.run_sweep(item)

    def check(self, item, output, gaps: dict[str, float]) -> str | None:
        header, rows = output
        if len(rows) != 1:
            return f"expected one row, got {len(rows)}"
        row = dict(zip(header, rows[0]))
        p = dict(item.scalars)
        omega, beta = p["omega"], p["beta"]
        a = cvcase.DisplacementParams(p["alpha_abs"], p["alpha_phase"])
        s = cvcase.SqueezeParams(p["z_abs"], p["z_phase"])
        c = BlochState(p["control_theta"], p["control_phi"])
        m = BlochState(p["measure_theta"], p["measure_phi"])
        f = self.forms
        chi = complex(row["chi_re[1]"], row["chi_im[1]"])
        if _gap(gaps, "chi", abs(chi - f["chi"](a, s, beta, omega))) > TOL_ORACLE:
            return "chi disagrees with chi_disp_squeeze"
        dqs = row["delta_qs[energy]"]
        ref_dqs = f["delta_qs"](omega, beta, p["t_abs"], p["t_phase"], a, s, c)
        if _gap(gaps, "delta_qs", abs(dqs - ref_dqs)) > TOL_ORACLE:
            return "delta_qs disagrees with delta_qs_disp_squeeze"
        split = abs(dqs - (row["delta_s[energy]"] + row["delta_c[energy]"]))
        if _gap(gaps, "split", split) > TOL_SPLIT:
            return "delta_qs != delta_s + delta_c"
        ref_nm = f["n_m"](omega, beta, a, s, c, m)
        if _gap(gaps, "n_m", abs(row["n_m[1]"] - ref_nm)) > TOL_ORACLE:
            return "n_m disagrees with n_m_disp_squeeze"
        divergent = ref_nm <= TOL_NM
        if row["divergent[flag]"] != int(divergent):
            return f"divergent flag {row['divergent[flag]']} but closed-form n_m {ref_nm!r}"
        if divergent:
            return None
        ref_dsm = f["delta_sm"](omega, beta, a, s, c, m)
        if _gap(gaps, "delta_sm", abs(row["delta_sm[energy]"] - ref_dsm)) > TOL_ORACLE:
            return "delta_sm disagrees with delta_sm_disp_squeeze"
        return None

    @staticmethod
    def divergent(output) -> bool:
        header, rows = output
        return dict(zip(header, rows[0]))["divergent[flag]"] == 1


# ---------------------------------------------------------------------------
# u2_figures: a fixed subset of the fig3/fig4 optimizer calls.
# ---------------------------------------------------------------------------

# fig3 rows at t_abs in {1.0, 2.0} for all nine (beta, theta) pairs and fig4
# rows at phi_m in {pi/4, 3pi/4} for all three betas: 24 of the 96 calls,
# covering every (beta, theta) and beta of both figures and both objectives.
U2_FIG3_T_ABS = (1.0, 2.0)
U2_FIG4_PHI_M = (math.pi / 4.0, 3.0 * math.pi / 4.0)


@dataclasses.dataclass(frozen=True)
class U2Call:
    figure: str
    beta: float
    angle: float  # theta (fig3) or phi_m (fig4)
    t_abs: float  # 0 for fig4
    reference: float


def u2_calls() -> list[U2Call]:
    calls = []
    header, rows = parse_csv(reference_csv("fig3"))
    col = {name: i for i, name in enumerate(header)}
    for r in rows:
        t_abs = float(r[col["t_abs[energy]"]])
        if t_abs in U2_FIG3_T_ABS:
            calls.append(
                U2Call("fig3", float(r[col["beta[1/energy]"]]), float(r[col["theta[rad]"]]),
                       t_abs, float(r[col["min_delta_qs[energy]"]]))
            )
    header, rows = parse_csv(reference_csv("fig4"))
    col = {name: i for i, name in enumerate(header)}
    for r in rows:
        phi_m = float(r[col["phi_m[rad]"]])
        if any(abs(phi_m - v) < 1e-12 for v in U2_FIG4_PHI_M):
            calls.append(
                U2Call("fig4", float(r[col["beta[1/energy]"]]), phi_m, 0.0,
                       float(r[col["min_delta_sm[energy]"]]))
            )
    return calls


class U2Figures:
    """U(2) multistart optimizer: qubitcase objective plus scipy
    Nelder-Mead; switchcore runs once per call at d = 2."""

    name = "u2_figures"

    def __init__(self, seed: int, calls: list[U2Call] | None = None):
        self.opt_seed = FIGURE_SEED + seed
        self.items = calls if calls is not None else u2_calls()

    def batch(self, index: int) -> list:
        return self.items

    def run(self, item: U2Call):
        if item.figure == "fig3":
            return qubitcase.minimize_delta_qs_u2(
                1.0, item.beta, item.t_abs, item.angle, _PLUS,
                budget=FIGURE_BUDGET, seed=self.opt_seed,
            )
        return qubitcase.minimize_delta_sm_u2(
            1.0, item.beta, _PLUS, BlochState(math.pi / 2.0, item.angle),
            budget=FIGURE_BUDGET, seed=self.opt_seed,
        )

    def check(self, item: U2Call, output, gaps: dict[str, float]) -> str | None:
        if _gap(gaps, "u2_min", abs(output.value - item.reference)) > TOL_U2_MIN:
            return f"{item.figure} minimum {output.value!r} != reference {item.reference!r}"
        return None


# ---------------------------------------------------------------------------
# passivity_scan: the `verify full` passivity sweep.
# ---------------------------------------------------------------------------


class PassivityScan:
    """Small-d switchcore (d in 2..30), where the fixed cost per call
    dominates: scenario generation plus activation_report per item."""

    name = "passivity_scan"

    def __init__(self, seed: int, size: int = 3000):
        self.seed = seed
        self.size = size

    def batch(self, index: int) -> list:
        # Every batch replays the same seeded stream of scenarios, so each
        # scenario is timed once per batch; items are positions in it.
        self.rng = np.random.default_rng(self.seed)
        return list(range(self.size))

    def run(self, item):
        scenario = verifysuite.random_passive_scenario(self.rng)
        return switchcore.activation_report(scenario)

    def check(self, item, output, gaps: dict[str, float]) -> str | None:
        gaps["min_delta_qs"] = min(gaps.get("min_delta_qs", math.inf), output.delta_qs)
        if output.delta_qs < -TOL_PASSIVITY:
            return f"passive scenario activated: delta_qs {output.delta_qs!r}"
        if _gap(gaps, "abs_chi", abs(output.chi) - 1.0) > TOL_CHI_NORM:
            return f"|chi| = {abs(output.chi)!r} exceeds 1"
        split = abs(output.delta_qs - (output.delta_s + output.delta_c))
        if _gap(gaps, "split", split) > TOL_SPLIT:
            return "delta_qs != delta_s + delta_c"
        return None


# ---------------------------------------------------------------------------
# Closed-form figures: fig1, fig2 and fig5-fig9, gated in the traced run.
# ---------------------------------------------------------------------------


def figure_gate(figure_id: str, text: str, gaps: dict[str, float], reference: str | None = None) -> str | None:
    """Compare a rendered figure CSV with its reference: identical header
    and row count, every cell identical or within the `verify`
    figure-regression tolerance, flag and empty cells identical."""
    if reference is None:
        reference = reference_csv(figure_id)
    if text == reference:
        return None
    ref_header, ref_rows = parse_csv(reference)
    header, rows = parse_csv(text)
    if header != ref_header:
        return f"{figure_id}: header changed"
    if len(rows) != len(ref_rows):
        return f"{figure_id}: {len(rows)} rows, reference has {len(ref_rows)}"
    tol = 1e-6 if figure_id in ("fig7", "fig8", "fig9") else 1e-8
    flags = [name.endswith("[flag]") or name.endswith("[tag]") for name in header]
    for row, ref in zip(rows, ref_rows):
        if row == ref:
            continue
        if len(row) != len(ref):
            return f"{figure_id}: row width changed"
        for cell, ref_cell, flag in zip(row, ref, flags):
            if cell == ref_cell:
                continue
            try:
                gap = abs(float(cell) - float(ref_cell))
            except ValueError:
                gap = math.nan  # an empty cell appeared or vanished
            if flag or math.isnan(gap) or _gap(gaps, "figure_cell", gap) > tol:
                return f"{figure_id}: cell {ref_cell!r} became {cell!r}"
    return None


WORKLOADS = {w.name: w for w in (FockSweep, U2Figures, PassivityScan)}
