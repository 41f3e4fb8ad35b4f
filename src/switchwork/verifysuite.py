"""Self-verification suites: every module invariant exercised end to end.

`run_verify("quick")` finishes in well under a minute and touches every
closed form; `run_verify("full")` adds the 10^4-scenario passivity sweep,
truncated-Fock oracle convergence for the bosonic families, and the
figure regression comparison against the packaged baselines.

The closed forms consulted by the oracle-comparison checks are looked up
in an injectable table (`closed_form_table()`), so a deliberately
corrupted entry — say a sign flip in chi — must turn the suite red; a
test pins that mutation sensitivity.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import unitary_group

from . import cvcase, qubitcase
from .config import parse_config, serialize_config
from .cvcase import (
    DisplacementParams,
    SqueezeParams,
    TOL_ORACLE,
    disp_squeeze_scenario,
    displacement_scenario,
    fock_oracle_report,
)
from .figures import FIGURE_IDS, baseline_path, figure_dataset, render_csv
from .qmat import DensityMatrix, HermitianOperator, UnitaryOperator
from .qubitcase import (
    delta_qs_rotations,
    delta_sm_rotations_beta0,
    minimize_delta_qs_u2,
    minimize_delta_sm_u2,
    RotationParams,
)
from .states import (
    BlochState,
    passive_state_from_spectrum,
)
from .switchcore import (
    SwitchScenario,
    activation_report,
    delta_c_min,
    measure_control,
)

TOL_PASSIVITY = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    duration_s: float


@dataclass(frozen=True)
class VerifyReport:
    level: str
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"verify level={self.level} seed={self.seed}"]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"{tag} {c.name} ({c.detail}) [{c.duration_s:.2f}s]")
        summary = "all checks passed" if self.passed else "FAILURES PRESENT"
        lines.append(f"{len(self.checks)} checks: {summary}")
        return "\n".join(lines)


def closed_form_table() -> dict[str, Callable]:
    """Closed forms consulted by the oracle-comparison checks, keyed by
    name; inject a modified copy to prove the suite catches corruption."""
    return {
        "chi_displacements": cvcase.chi_displacements,
        "delta_qs_displacements": cvcase.delta_qs_displacements,
        "delta_sm_displacements": cvcase.delta_sm_displacements,
        "chi_disp_squeeze": cvcase.chi_disp_squeeze,
        "e12_disp_squeeze": cvcase.e12_disp_squeeze,
        "e21_disp_squeeze": cvcase.e21_disp_squeeze,
        "f_s_disp_squeeze": cvcase.f_s_disp_squeeze,
        "delta_f_disp_squeeze": cvcase.delta_f_disp_squeeze,
        "delta_qs_disp_squeeze": cvcase.delta_qs_disp_squeeze,
        "delta_sm_disp_squeeze": cvcase.delta_sm_disp_squeeze,
    }


# ---------------------------------------------------------------------------
# Random scenario generators (shared with the acceptance tests).
# ---------------------------------------------------------------------------

_DIM_POOL = (2, 2, 3, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 30)


def _random_unitary(rng: np.random.Generator, dim: int) -> UnitaryOperator:
    return UnitaryOperator(unitary_group.rvs(dim, random_state=rng))


def _random_passive_pair(
    rng: np.random.Generator, dim: int
) -> tuple[DensityMatrix, HermitianOperator]:
    """Random Hamiltonian (random eigenbasis) and a random state passive
    with respect to it."""
    basis = unitary_group.rvs(dim, random_state=rng)
    energies = np.sort(rng.uniform(0.0, 3.0, size=dim))
    h = HermitianOperator(basis @ np.diag(energies).astype(complex) @ basis.conj().T)
    populations = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
    return passive_state_from_spectrum(populations, h), h


def random_passive_scenario(rng: np.random.Generator) -> SwitchScenario:
    """Random scenario with passive system state and passive control
    state (control Hamiltonian carries a random coherent off-diagonal)."""
    dim = int(rng.choice(_DIM_POOL))
    rho_s, h_s = _random_passive_pair(rng, dim)
    t = rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    h_c = HermitianOperator(
        np.array([[0.0, t], [np.conj(t), rng.uniform(0.5, 3.0)]], dtype=complex)
    )
    populations = np.sort(rng.dirichlet(np.ones(2)))[::-1]
    rho_c = passive_state_from_spectrum(populations, h_c)
    return SwitchScenario(
        rho_s=rho_s,
        control=rho_c,
        u1=_random_unitary(rng, dim),
        u2=_random_unitary(rng, dim),
        h_s=h_s,
        h_c=h_c,
    )


def _random_generic_scenario(rng: np.random.Generator) -> SwitchScenario:
    """Random qubit scenario with a pure control direction (measurable)."""
    pops = np.sort(rng.dirichlet(np.ones(2)))[::-1]
    basis = unitary_group.rvs(2, random_state=rng)
    h_s = HermitianOperator(
        basis @ np.diag(np.sort(rng.uniform(0.0, 2.0, 2))).astype(complex) @ basis.conj().T
    )
    rho_s = passive_state_from_spectrum(pops, h_s)
    t = rng.uniform(0.0, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    h_c = HermitianOperator(
        np.array([[0.0, t], [np.conj(t), rng.uniform(0.5, 2.0)]], dtype=complex)
    )
    control = BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
    return SwitchScenario(
        rho_s=rho_s,
        control=control,
        u1=_random_unitary(rng, 2),
        u2=_random_unitary(rng, 2),
        h_s=h_s,
        h_c=h_c,
    )


# ---------------------------------------------------------------------------
# Individual checks.
# ---------------------------------------------------------------------------


def _check_switch_algebra(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(25):
        s = _random_generic_scenario(rng)
        report = activation_report(s)
        worst = max(worst, abs(report.chi) - 1.0)
        gap = abs(report.delta_qs - (report.delta_s + report.delta_c))
        worst = max(worst, gap)
    return worst <= 1e-9, f"25 scenarios, worst algebra defect {worst:.2e}"


def _check_passivity(rng: np.random.Generator, n: int) -> tuple[bool, str]:
    worst = math.inf
    for _ in range(n):
        s = random_passive_scenario(rng)
        value = activation_report(s).delta_qs
        worst = min(worst, value)
        if value < -TOL_PASSIVITY:
            return False, f"delta_qs = {value:.3e} < -{TOL_PASSIVITY:.0e}"
    return True, f"{n} passive scenarios, min delta_qs {worst:.3e}"


def _check_tilde_split(rng: np.random.Generator) -> tuple[bool, str]:
    from .qmat import kron
    from .switchcore import post_switch_state

    worst = 0.0
    for _ in range(30):
        s = _random_generic_scenario(rng)
        report = activation_report(s)
        joint = post_switch_state(s).mat
        dim = s.h_s.mat.shape[0]
        h_joint = kron(s.h_s.mat, np.eye(2, dtype=complex)) + kron(
            np.eye(dim, dtype=complex), s.h_c.mat
        )
        e_joint = float(np.trace(joint @ h_joint).real)
        e_split = float(
            np.trace(report.tilde_rho_s.mat @ s.h_s.mat).real
            + np.trace(report.tilde_rho_c.mat @ s.h_c.mat).real
        )
        worst = max(worst, abs(e_joint - e_split))
    return worst <= 1e-9, f"30 scenarios, worst split defect {worst:.2e}"


def numeric_delta_c_minimum(h_c: HermitianOperator, chi_value: complex) -> float:
    """Direct 2-parameter minimization of the control interference term
    delta_c(theta, phi) = sin(theta) Re{e^{-i phi} <1|h_c|0> (chi - 1)}
    over Bloch angles: coarse grid scan polished by Nelder-Mead."""
    from scipy.optimize import minimize as scipy_minimize

    k = complex(h_c.mat[1, 0]) * (chi_value - 1.0)

    def objective(x: np.ndarray) -> float:
        return math.sin(x[0]) * (cmath.exp(-1j * x[1]) * k).real

    thetas = np.linspace(0.0, math.pi, 61)
    phis = np.linspace(0.0, 2.0 * math.pi, 121, endpoint=False)
    grid = np.sin(thetas)[:, None] * (np.exp(-1j * phis)[None, :] * k).real
    i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
    res = scipy_minimize(
        objective,
        np.array([thetas[i], phis[j]]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxfev": 2000},
    )
    return float(min(res.fun, grid[i, j]))


def _check_delta_c_min(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        t = rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        h_c = HermitianOperator(
            np.array([[0.0, t], [np.conj(t), rng.uniform(0.5, 3.0)]], dtype=complex)
        )
        chi_value = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        result = delta_c_min(h_c, chi_value)
        numeric = numeric_delta_c_minimum(h_c, chi_value)
        worst = max(worst, abs(numeric - result.attained))
        at_opt = result.delta_c_at_optimizer(h_c, chi_value)
        worst = max(worst, abs(at_opt - result.attained))
    return worst <= 1e-6, f"20 draws, worst attained-minimum defect {worst:.2e}"


def _check_rotation_closed_form(rng: np.random.Generator) -> tuple[bool, str]:
    for _ in range(100):
        r = RotationParams(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
        c = BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        delta_qs_rotations(
            rng.uniform(0.5, 2.0),
            rng.uniform(0.0, 3.0),
            rng.uniform(0.0, 2.0),
            rng.uniform(0.0, 2.0 * math.pi),
            r,
            c,
            cross_check=True,
        )
    return True, "100 random points, closed form == generic path"


def _check_rotation_measured(rng: np.random.Generator) -> tuple[bool, str]:
    for _ in range(30):
        alpha = rng.uniform(0.1, math.pi - 0.1)
        theta_m = rng.uniform(0.1, math.pi - 0.1)
        phi_m = rng.uniform(0.0, 2.0 * math.pi)
        delta_sm_rotations_beta0(1.0, alpha, theta_m, phi_m, cross_check=True)
    return True, "30 random points, closed form == generic path"


def _check_u2_optimizer(level: str, seed: int) -> tuple[bool, str]:
    if level == "quick":
        res = minimize_delta_qs_u2(1.0, 0.0, 1.0, 0.0, BlochState(math.pi / 2, 0.0),
                                   budget=2000, seed=seed)
        # Determinism witness: the starts mapped in this process must give
        # the same result, bit for bit, as the worker pool.
        from unittest import mock  # imported here: it costs ~30 ms at start-up

        with mock.patch.object(qubitcase, "_pool_workers", return_value=1):
            serial = minimize_delta_qs_u2(1.0, 0.0, 1.0, 0.0, BlochState(math.pi / 2, 0.0),
                                          budget=2000, seed=seed)
        same = repr(res) == repr(serial)
        return res.value < -1.5 and same, (
            f"budget 2000: min delta_qs {res.value:.4f} (expect < -1.5), "
            f"{qubitcase._pool_workers(res.starts)} workers "
            f"{'match' if same else 'DIFFER FROM'} in-process"
        )
    res = minimize_delta_qs_u2(1.0, 0.0, 1.0, 0.0, BlochState(math.pi / 2, 0.0),
                               budget=16000, seed=seed)
    ok = abs(res.value + 2.0) <= 0.04
    res_sm = minimize_delta_sm_u2(
        1.0, 0.0, BlochState(math.pi / 2, 0.0), BlochState(math.pi / 2, math.pi / 2),
        budget=16000, seed=seed,
    )
    ok = ok and abs(res_sm.value + 0.5) <= 0.02
    return ok, (
        f"min delta_qs {res.value:.4f} (expect -2), "
        f"min delta_sm {res_sm.value:.4f} (expect -0.5)"
    )


def _check_displacement_forms(table: dict[str, Callable]) -> tuple[bool, str]:
    omega, beta, t_abs, t_phase = 1.0, 1.0, 0.8, 0.3
    a1 = DisplacementParams(0.6, 0.9)
    a2 = DisplacementParams(0.5, 2.2)
    c = BlochState(1.1, 0.4)
    m = BlochState(0.9, 2.1)
    scenario = displacement_scenario(omega, beta, t_abs, t_phase, a1, a2, c)
    report = activation_report(scenario)
    measured = measure_control(scenario, m)
    gaps = [
        abs(report.chi - table["chi_displacements"](a1, a2)),
        abs(abs(report.chi) - 1.0),
        abs(report.delta_qs - table["delta_qs_displacements"](omega, t_abs, t_phase, a1, a2, c)),
        abs(measured.delta_sm - table["delta_sm_displacements"](a1, a2, omega)),
    ]
    worst = max(gaps)
    return worst <= TOL_ORACLE, f"worst closed-form gap {worst:.2e}"


def _check_disp_squeeze_forms(table: dict[str, Callable]) -> tuple[bool, str]:
    omega, t_abs, t_phase = 1.0, 0.8, 0.3
    a = DisplacementParams(0.7, 0.4)
    s = SqueezeParams(0.5, 1.1)
    c = BlochState(1.1, 0.6)
    m = BlochState(0.9, 2.0)
    worst = 0.0
    for beta in (1.0, math.inf):
        scenario = disp_squeeze_scenario(omega, beta, t_abs, t_phase, a, s, c)
        report = activation_report(scenario)
        measured = measure_control(scenario, m)
        w12 = scenario.u2.mat @ scenario.u1.mat
        w21 = scenario.u1.mat @ scenario.u2.mat
        f_s_numeric = complex(
            np.trace(w12 @ scenario.rho_s.mat @ w21.conj().T @ scenario.h_s.mat)
        )
        gaps = [
            abs(report.chi - table["chi_disp_squeeze"](a, s, beta, omega)),
            abs(report.e12 - table["e12_disp_squeeze"](omega, beta, a, s)),
            abs(report.e21 - table["e21_disp_squeeze"](omega, beta, a, s)),
            abs(f_s_numeric - table["f_s_disp_squeeze"](omega, beta, a, s)),
            abs(measured.delta_f - table["delta_f_disp_squeeze"](omega, beta, a, s)),
            abs(
                report.delta_qs
                - table["delta_qs_disp_squeeze"](omega, beta, t_abs, t_phase, a, s, c)
            ),
            abs(
                measured.delta_sm
                - table["delta_sm_disp_squeeze"](omega, beta, a, s, c, m)
            ),
        ]
        worst = max(worst, max(gaps))
    return worst <= TOL_ORACLE, f"beta in {{1, inf}}, worst closed-form gap {worst:.2e}"


_SAMPLE_CONFIGS = (
    """\
kind = qubit
family = rotations
omega = 1.0
beta = 1.0
alpha_x = 1.5707963267948966
alpha_y = 3.141592653589793
t_abs = 1.0
t_phase = 0.0
control_theta = 1.5707963267948966
control_phi = 0.0
sweep1 = beta 0.0 5.0 11
""",
    """\
kind = fock
family = disp_squeeze
omega = 1.0
beta = inf
alpha_abs = 0.5
alpha_phase = 0.0
z_abs = 0.5
z_phase = 3.141592653589793
t_abs = 0.5
t_phase = 0.0
control_theta = 1.5707963267948966
control_phi = 0.0
measure_theta = 1.5707963267948966
measure_phi = 1.5707963267948966
n_max = 60
seed = 7
sweep1 = alpha_abs 0.1 1.0 4
sweep2 = z_abs 0.1 0.6 3
""",
    """\
kind = qubit
family = u2
omega = 1.0
beta = 0.0
u1_alpha = 0.1
u1_lam = 0.2
u1_gamma = 0.3
u1_delta = 0.4
u2_alpha = 0.5
u2_lam = 0.6
u2_gamma = 0.7
u2_delta = 0.8
t_abs = 1.0
t_phase = 0.0
control_theta = 1.5707963267948966
control_phi = 0.0
budget = 4000
""",
)


def _check_config_round_trip() -> tuple[bool, str]:
    for text in _SAMPLE_CONFIGS:
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        if again != cfg:
            return False, f"round-trip mismatch for family {cfg.family}"
        if parse_config(serialize_config(again)) != again:
            return False, f"serialize not idempotent for family {cfg.family}"
    return True, f"{len(_SAMPLE_CONFIGS)} sample configs round-trip exactly"


def _check_csv_determinism() -> tuple[bool, str]:
    header1, rows1 = figure_dataset("fig5")
    header2, rows2 = figure_dataset("fig5")
    text1 = render_csv(header1, rows1)
    text2 = render_csv(header2, rows2)
    ok = text1 == text2
    return ok, f"fig5 rendered twice, {len(text1)} bytes, identical={ok}"


def _check_oracle_convergence() -> tuple[bool, str]:
    reports = []
    reports.append(
        fock_oracle_report(
            "displacements",
            omega=1.0,
            beta=1.0,
            t_abs=1.2,
            t_phase=0.4,
            a1=DisplacementParams(0.8, 0.5),
            a2=DisplacementParams(0.9, 1.7),
            n_schedule=(40, 50, 60),
        )
    )
    for beta in (1.0, math.inf):
        for alpha_abs in (0.5, 1.5):
            for z_abs in (0.4, 0.8):
                reports.append(
                    fock_oracle_report(
                        "disp_squeeze",
                        omega=1.0,
                        beta=beta,
                        t_abs=0.5,
                        t_phase=0.0,
                        a=DisplacementParams(alpha_abs, 0.3),
                        s=SqueezeParams(z_abs, 1.2),
                        control=BlochState(math.pi / 2, 0.0),
                        measurement=BlochState(math.pi / 2, 1.0),
                    )
                )
    bad = [r for r in reports if not r.passed]
    if bad:
        return False, f"{len(bad)}/{len(reports)} oracle reports failed: {bad[0]!r}"
    worst = max(max(c.rows[-1][2] for c in r.checks) for r in reports)
    return True, f"{len(reports)} oracle reports converged, worst final gap {worst:.2e}"


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _check_figure_regression() -> tuple[bool, str]:
    worst_fig, worst_gap = "", 0.0
    for figure_id in FIGURE_IDS:
        path = baseline_path(figure_id)
        if not path.exists():
            return False, f"missing baseline {path.name}"
        base_header, base_rows = _parse_csv(path.read_text(encoding="utf-8"))
        header, rows = figure_dataset(figure_id)
        rendered_header, rendered_rows = _parse_csv(render_csv(header, rows))
        if rendered_header != base_header:
            return False, f"{figure_id}: header changed"
        if len(rendered_rows) != len(base_rows):
            return False, f"{figure_id}: row count {len(rendered_rows)} != {len(base_rows)}"
        tol = 1e-6 if figure_id in ("fig7", "fig8", "fig9") else 1e-8
        for row_new, row_old in zip(rendered_rows, base_rows):
            for cell_new, cell_old in zip(row_new, row_old):
                if cell_new == cell_old:
                    continue
                try:
                    gap = abs(float(cell_new) - float(cell_old))
                except ValueError:
                    return False, f"{figure_id}: non-numeric cell changed"
                if gap > tol:
                    return False, f"{figure_id}: cell drift {gap:.2e} > {tol:.0e}"
                if gap > worst_gap:
                    worst_fig, worst_gap = figure_id, gap
    detail = "9 figures within tolerance"
    if worst_gap > 0.0:
        detail += f" (worst drift {worst_gap:.2e} in {worst_fig})"
    return True, detail


# ---------------------------------------------------------------------------
# Suite driver.
# ---------------------------------------------------------------------------


def run_verify(
    level: str = "quick",
    seed: int = 0,
    table: dict[str, Callable] | None = None,
) -> VerifyReport:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    forms = table if table is not None else closed_form_table()
    rng = np.random.default_rng(seed)
    passivity_n = 10_000 if level == "full" else 200

    plan: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("switch-algebra", lambda: _check_switch_algebra(rng)),
        ("passivity-sweep", lambda: _check_passivity(rng, passivity_n)),
        ("tilde-energy-split", lambda: _check_tilde_split(rng)),
        ("control-term-minimum", lambda: _check_delta_c_min(rng)),
        ("rotation-closed-form", lambda: _check_rotation_closed_form(rng)),
        ("rotation-measured-closed-form", lambda: _check_rotation_measured(rng)),
        ("u2-optimizer", lambda: _check_u2_optimizer(level, seed)),
        ("displacement-closed-forms", lambda: _check_displacement_forms(forms)),
        ("disp-squeeze-closed-forms", lambda: _check_disp_squeeze_forms(forms)),
        ("config-round-trip", _check_config_round_trip),
        ("csv-determinism", _check_csv_determinism),
    ]
    if level == "full":
        plan.append(("cv-oracle-convergence", _check_oracle_convergence))
        plan.append(("figure-regression", _check_figure_regression))

    results: list[CheckResult] = []
    for name, fn in plan:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # the suite reports, never crashes
            passed, detail = False, f"exception: {exc!r}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return VerifyReport(level, seed, tuple(results))
