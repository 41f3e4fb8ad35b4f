"""Self-verification suites: every module invariant exercised end to end.

`run_verify("quick")` finishes in well under a minute and touches every
closed form; `run_verify("full")` adds the 10^4-scenario passivity sweep
and truncated-Fock oracle convergence for the bosonic families.  The
figure regression holds the contract the tests hold: a figure must render
to the exact bytes of its packaged baseline.  The quick level checks fig5,
the full level all nine figures.

The bosonic closed-form checks are one-cutoff runs of the truncated-Fock
oracle (`cvcase.fock_oracle_report`), which looks every closed form up in
`cvcase` at call time: a deliberately corrupted one — say a sign flip in
chi — patched into `cvcase` must turn the suite red, and tests pin that
mutation sensitivity.  The config round trip covers one sample config per
entry of the family table (`config.FAMILIES`).
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import unitary_group

from . import qubitcase
from .config import (
    CONTROL_PARAMS,
    FAMILIES,
    MEASURE_PARAMS,
    SYSTEM_PARAMS,
    ScenarioConfig,
    SweepAxis,
    parse_config,
    serialize_config,
)
from .cvcase import (
    DisplacementParams,
    FockOracleReport,
    SqueezeParams,
    TOL_ORACLE,
    _fock_scenario,
    _pair_cutoff,
    fock_oracle_report,
)
from .figures import FIGURE_IDS, baseline_path, figure_dataset, render_csv
from .qmat import HermitianOperator, UnitaryOperator
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


# ---------------------------------------------------------------------------
# Random scenario generators (shared with the acceptance tests).
# ---------------------------------------------------------------------------

_DIM_POOL = (2, 2, 3, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 30)


def _random_unitary(rng: np.random.Generator, dim: int) -> UnitaryOperator:
    return UnitaryOperator(unitary_group.rvs(dim, random_state=rng))


def _random_hamiltonian(rng: np.random.Generator, dim: int, e_max: float) -> HermitianOperator:
    """Energies uniform in [0, e_max) in a Haar-random eigenbasis."""
    basis = unitary_group.rvs(dim, random_state=rng)
    energies = np.sort(rng.uniform(0.0, e_max, size=dim))
    return HermitianOperator(basis @ np.diag(energies).astype(complex) @ basis.conj().T)


def _random_control_hamiltonian(
    rng: np.random.Generator, t_min: float, t_max: float, e_max: float
) -> HermitianOperator:
    """[[0, t], [t*, e]]: |t| uniform in [t_min, t_max), arg t uniform,
    e uniform in [0.5, e_max)."""
    t = rng.uniform(t_min, t_max) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return HermitianOperator(
        np.array([[0.0, t], [np.conj(t), rng.uniform(0.5, e_max)]], dtype=complex)
    )


def random_passive_scenario(rng: np.random.Generator) -> SwitchScenario:
    """Random scenario with passive system state and passive control
    state (control Hamiltonian carries a random coherent off-diagonal)."""
    dim = int(rng.choice(_DIM_POOL))
    h_s = _random_hamiltonian(rng, dim, 3.0)
    rho_s = passive_state_from_spectrum(np.sort(rng.dirichlet(np.ones(dim)))[::-1], h_s)
    h_c = _random_control_hamiltonian(rng, 0.0, 2.0, 3.0)
    rho_c = passive_state_from_spectrum(np.sort(rng.dirichlet(np.ones(2)))[::-1], h_c)
    u1, u2 = _random_unitary(rng, dim), _random_unitary(rng, dim)
    return SwitchScenario(rho_s=rho_s, control=rho_c, u1=u1, u2=u2, h_s=h_s, h_c=h_c)


def _random_generic_scenario(rng: np.random.Generator) -> SwitchScenario:
    """Random qubit scenario with a pure control direction (measurable)."""
    pops = np.sort(rng.dirichlet(np.ones(2)))[::-1]
    h_s = _random_hamiltonian(rng, 2, 2.0)
    rho_s = passive_state_from_spectrum(pops, h_s)
    h_c = _random_control_hamiltonian(rng, 0.0, 1.5, 2.0)
    control = BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
    u1, u2 = _random_unitary(rng, 2), _random_unitary(rng, 2)
    return SwitchScenario(rho_s=rho_s, control=control, u1=u1, u2=u2, h_s=h_s, h_c=h_c)


# ---------------------------------------------------------------------------
# Individual checks.
# ---------------------------------------------------------------------------


def _check_switch_algebra(rng: np.random.Generator) -> tuple[bool, str]:
    """|chi| <= 1 and delta_qs = delta_s + delta_c; the block-built switch
    unitary equals the kron formula entry for entry, and the larger block
    defect equals the dense U†U defect (the reason the joint matrix is not
    checked densely)."""
    from .qmat import kron
    from .switchcore import build_switch_unitary

    worst = 0.0
    kron_equal = True
    worst_defect_gap = 0.0
    for _ in range(25):
        s = _random_generic_scenario(rng)
        report = activation_report(s)
        worst = max(worst, abs(report.chi) - 1.0)
        gap = abs(report.delta_qs - (report.delta_s + report.delta_c))
        worst = max(worst, gap)

        u_qs = build_switch_unitary(s.u1, s.u2).mat
        w12, w21 = s.u2.mat @ s.u1.mat, s.u1.mat @ s.u2.mat
        dense = kron(w12, np.diag([1.0, 0.0])) + kron(w21, np.diag([0.0, 1.0]))
        kron_equal = kron_equal and bool(np.array_equal(u_qs, dense))
        block_defect = max(_unitary_defect(w12), _unitary_defect(w21))
        worst_defect_gap = max(worst_defect_gap, abs(block_defect - _unitary_defect(u_qs)))
    passed = worst <= 1e-9 and kron_equal and worst_defect_gap <= 1e-15
    return passed, (
        f"25 scenarios, worst algebra defect {worst:.2e}; switch unitary "
        f"{'==' if kron_equal else 'DIFFERS FROM'} kron formula, "
        f"block vs dense U†U defect gap {worst_defect_gap:.2e}"
    )


def _unitary_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


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
    """The dense oracle: the joint state by conjugation with the switch
    unitary, whose energy the tilde states must split, and which the
    probe-checked post-switch state must match entry for entry.  It runs
    on 30 random qubit scenarios and on one fixed scenario of each Fock
    pair at n_max = 40; the fixed ones draw nothing from `rng`."""
    from .qmat import kron
    from .switchcore import build_switch_unitary, post_switch_state

    a, c = DisplacementParams(0.5, 0.4), BlochState(1.1, 0.6)
    scenarios = [_random_generic_scenario(rng) for _ in range(30)] + [
        _fock_scenario(1.0, 1.0, 0.8, 0.3, a, b, c, 40)
        for b in (SqueezeParams(0.3, 1.1), DisplacementParams(0.4, 2.2))
    ]
    worst = worst_state = 0.0
    for s in scenarios:
        report = activation_report(s)
        u_qs = build_switch_unitary(s.u1, s.u2).mat
        joint = u_qs @ kron(s.rho_s, s.rho_c) @ u_qs.conj().T
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
        worst_state = max(worst_state, float(np.max(np.abs(post_switch_state(s).mat - joint))))
    return worst <= 1e-9 and worst_state <= 1e-12, (
        f"30 qubit and 2 Fock scenarios, d up to {max(s.rho_s.dim for s in scenarios)}, "
        f"worst split defect {worst:.2e}, worst post-switch state gap {worst_state:.2e}"
    )


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
        h_c = _random_control_hamiltonian(rng, 0.1, 2.0, 3.0)
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


def _oracle_verdict(reports: list[FockOracleReport]) -> tuple[bool, float]:
    """Whether every report passed (each check converged and monotone),
    and the worst final gap over all their checks (NaN where one diverged)."""
    worst = float(np.max([c.rows[-1][2] for r in reports for c in r.checks]))
    return all(r.passed for r in reports), worst


def _check_displacement_forms() -> tuple[bool, str]:
    """One-cutoff oracle run, plus |chi| = 1: W21 is a phase times W12."""
    omega, beta = 1.0, 1.0
    a1 = DisplacementParams(0.6, 0.9)
    a2 = DisplacementParams(0.5, 2.2)
    report = fock_oracle_report(
        a1, a2, omega=omega, beta=beta, t_abs=0.8, t_phase=0.3,
        control=BlochState(1.1, 0.4), measurement=BlochState(0.9, 2.1),
        n_schedule=(_pair_cutoff(a1, a2, beta, omega),),
    )
    passed, worst = _oracle_verdict([report])
    chi_value = next(c.rows[-1][1] for c in report.checks if c.quantity == "chi")
    chi_defect = abs(abs(chi_value) - 1.0)
    return passed and chi_defect <= TOL_ORACLE, (
        f"worst closed-form gap {worst:.2e}, ||chi| - 1| {chi_defect:.2e}"
    )


def _check_disp_squeeze_forms() -> tuple[bool, str]:
    omega = 1.0
    a = DisplacementParams(0.7, 0.4)
    s = SqueezeParams(0.5, 1.1)
    passed, worst = _oracle_verdict([
        fock_oracle_report(
            a, s, omega=omega, beta=beta, t_abs=0.8, t_phase=0.3,
            control=BlochState(1.1, 0.6), measurement=BlochState(0.9, 2.0),
            n_schedule=(_pair_cutoff(a, s, beta, omega),),
        )
        for beta in (1.0, math.inf)
    ])
    return passed, f"beta in {{1, inf}}, worst closed-form gap {worst:.2e}"


def _sample_config(family: str) -> ScenarioConfig:
    """A config of `family` with two sweep axes and a non-default seed and
    budget; fock kinds add the ground state (beta = inf), a measurement
    and n_max."""
    kind, params = FAMILIES[family]
    fock = kind == "fock"
    names = [*SYSTEM_PARAMS, *params, *CONTROL_PARAMS, *(MEASURE_PARAMS if fock else ())]
    scalars = {name: math.pi / (k + 2) for k, name in enumerate(names)}
    if fock:
        scalars["beta"] = math.inf
    axes = (SweepAxis(next(iter(params)), 0.1, 1.0, 4), SweepAxis("t_abs", 0.1, 0.6, 3))
    return ScenarioConfig(
        kind, family, tuple(scalars.items()), axes, seed=7, n_max=60 if fock else None, budget=4000
    )


def _check_config_round_trip() -> tuple[bool, str]:
    for cfg in map(_sample_config, FAMILIES):
        again = parse_config(serialize_config(cfg))
        if again != cfg:
            return False, f"round-trip mismatch for family {cfg.family}"
        if parse_config(serialize_config(again)) != again:
            return False, f"serialize not idempotent for family {cfg.family}"
    return True, f"{len(FAMILIES)} sample configs round-trip exactly"


def _check_oracle_convergence() -> tuple[bool, str]:
    reports = []
    reports.append(
        fock_oracle_report(
            DisplacementParams(0.8, 0.5),
            DisplacementParams(0.9, 1.7),
            omega=1.0,
            beta=1.0,
            t_abs=1.2,
            t_phase=0.4,
            n_schedule=(40, 50, 60),
        )
    )
    for beta in (1.0, math.inf):
        for alpha_abs in (0.5, 1.5):
            for z_abs in (0.4, 0.8):
                reports.append(
                    fock_oracle_report(
                        DisplacementParams(alpha_abs, 0.3),
                        SqueezeParams(z_abs, 1.2),
                        omega=1.0,
                        beta=beta,
                        t_abs=0.5,
                        t_phase=0.0,
                        control=BlochState(math.pi / 2, 0.0),
                        measurement=BlochState(math.pi / 2, 1.0),
                    )
                )
    passed, worst = _oracle_verdict(reports)
    detail = f"{len(reports)} oracle reports, worst final gap {worst:.2e}"
    if not passed:
        detail += f"; first failure: {next(r for r in reports if not r.passed)!r}"
    return passed, detail


def _check_figure_regression(figure_ids: tuple[str, ...]) -> tuple[bool, str]:
    """Each figure renders to the bytes of its packaged baseline."""
    for figure_id in figure_ids:
        path = baseline_path(figure_id)
        if not path.exists():
            return False, f"missing baseline {path.name}"
        if render_csv(*figure_dataset(figure_id)).encode() != path.read_bytes():
            return False, f"{figure_id}: bytes differ from {path.name}"
    return True, (
        f"{len(figure_ids)} of {len(FIGURE_IDS)} figures byte-identical to their baselines"
    )


# ---------------------------------------------------------------------------
# Suite driver.
# ---------------------------------------------------------------------------


def run_verify(level: str = "quick", seed: int = 0) -> VerifyReport:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    rng = np.random.default_rng(seed)
    passivity_n = 10_000 if level == "full" else 200
    figure_ids = FIGURE_IDS if level == "full" else ("fig5",)

    plan: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("switch-algebra", lambda: _check_switch_algebra(rng)),
        ("passivity-sweep", lambda: _check_passivity(rng, passivity_n)),
        ("tilde-energy-split", lambda: _check_tilde_split(rng)),
        ("control-term-minimum", lambda: _check_delta_c_min(rng)),
        ("rotation-closed-form", lambda: _check_rotation_closed_form(rng)),
        ("rotation-measured-closed-form", lambda: _check_rotation_measured(rng)),
        ("u2-optimizer", lambda: _check_u2_optimizer(level, seed)),
        ("displacement-closed-forms", _check_displacement_forms),
        ("disp-squeeze-closed-forms", _check_disp_squeeze_forms),
        ("config-round-trip", _check_config_round_trip),
        ("figure-regression", lambda: _check_figure_regression(figure_ids)),
    ]
    if level == "full":
        plan.append(("cv-oracle-convergence", _check_oracle_convergence))

    results: list[CheckResult] = []
    for name, fn in plan:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # the suite reports, never crashes
            passed, detail = False, f"exception: {exc!r}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return VerifyReport(level, seed, tuple(results))
