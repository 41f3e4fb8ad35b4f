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
mutation sensitivity.  The two rotation checks look their closed forms up
in `qubitcase` the same way and compare them with the generic matrix path.
The config round trip covers one sample config per entry of the family
table (`config.FAMILIES`).

The random scenario generators draw Haar unitaries in `_haar` (a QR of
a complex Gaussian matrix with the phases of R's diagonal fixed), and
`numeric_delta_c_minimum` polishes with the package's own Nelder-Mead, so
no level of the suite loads a scipy module.  The tests check the Haar
draws against the moments of the Haar measure, not against a stream.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
from .qmat import (
    DensityMatrix,
    HermitianOperator,
    UnitaryOperator,
    _CertifiedState,
    _CertifiedUnitary,
    _gram_defect,
)
from .qubitcase import (
    minimize_delta_qs_u2,
    minimize_delta_sm_u2,
    RotationParams,
)
from .states import (
    BlochState,
    passive_state_from_spectrum,
)
from .switchcore import (
    TOL_ENERGY,
    SwitchScenario,
    _switch_blocks,
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


# ---------------------------------------------------------------------------
# Random scenario generators (shared with the acceptance tests).
# ---------------------------------------------------------------------------

_DIM_POOL = (2, 2, 3, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 30)


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A dim x dim complex Gaussian matrix, real part drawn first."""
    return 1 / math.sqrt(2) * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from a stack of Gaussian matrices: the Q of
    each QR with every column phased by R's diagonal (Mezzadri, Notices
    AMS 54, 592, 2007).  A stack runs one `qr` call."""
    q, r = np.linalg.qr(z)
    d = r.diagonal(axis1=-2, axis2=-1)
    q *= (d / abs(d))[..., np.newaxis, :]
    return q


def _random_control_hamiltonian(
    rng: np.random.Generator, t_min: float, t_max: float, e_max: float
) -> HermitianOperator:
    """[[0, t], [t*, e]]: |t| uniform in [t_min, t_max), arg t uniform,
    e uniform in [0.5, e_max)."""
    t = rng.uniform(t_min, t_max) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return HermitianOperator(
        np.array([[0.0, t], [np.conj(t), rng.uniform(0.5, e_max)]], dtype=complex)
    )


def _draw_scenario(
    rng: np.random.Generator,
    dim: int,
    e_max: float,
    t_max: float,
    draw_control: Callable[[np.random.Generator, HermitianOperator], BlochState | DensityMatrix],
) -> SwitchScenario:
    """A scenario with a passive system state.  The rng draws come in a
    fixed order: the eigenbasis of h_s, its energies (uniform in
    [0, e_max)), the Dirichlet populations, h_c (|t| < t_max), the control
    through `draw_control(rng, h_c)`, U1 and U2.  The three Haar matrices
    come from one stacked QR, and h_s and rho_s are built on the drawn
    eigenbasis, whose columns are in ascending-energy order."""
    z_basis = _ginibre(rng, dim)
    energies = np.sort(rng.uniform(0.0, e_max, size=dim))
    pops = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
    h_c = _random_control_hamiltonian(rng, 0.0, t_max, e_max)
    control = draw_control(rng, h_c)
    basis, u1, u2 = _haar(np.stack((z_basis, _ginibre(rng, dim), _ginibre(rng, dim))))
    basis_h = basis.conj().T
    return SwitchScenario(
        rho_s=DensityMatrix((basis * pops) @ basis_h),
        control=control,
        u1=UnitaryOperator(u1),
        u2=UnitaryOperator(u2),
        h_s=HermitianOperator((basis * energies) @ basis_h),
        h_c=h_c,
    )


def random_passive_scenario(rng: np.random.Generator) -> SwitchScenario:
    """Random scenario with passive system state and passive control
    state (control Hamiltonian carries a random coherent off-diagonal).
    The dimension is drawn first, from _DIM_POOL."""
    return _draw_scenario(
        rng, int(rng.choice(_DIM_POOL)), 3.0, 2.0,
        lambda rng, h_c: passive_state_from_spectrum(rng.dirichlet(np.ones(2)), h_c),
    )


def _random_generic_scenario(rng: np.random.Generator) -> SwitchScenario:
    """Random qubit scenario with a pure control direction (measurable)."""
    return _draw_scenario(
        rng, 2, 2.0, 1.5,
        lambda rng, h_c: BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)),
    )


# ---------------------------------------------------------------------------
# Individual checks.
# ---------------------------------------------------------------------------


def _check_switch_algebra(rng: np.random.Generator) -> tuple[bool, str]:
    """|chi| <= 1 and delta_qs = delta_s + delta_c, and an audit of the
    certificates that stand in for full checks, on 25 random qubit
    scenarios and one disp_squeeze scenario at n_max = 172 (which draws
    nothing from `rng`).  Each proved bound must be at least the dense
    defect it replaces (see _certificate_ratios).  The switch unitary's
    kron formula and its block defect are pinned by the switchcore tests."""
    scenarios = [_random_generic_scenario(rng) for _ in range(25)] + [
        _fock_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(1.5, 0.9), SqueezeParams(0.8, 0.4),
            BlochState(math.pi / 2.0, 0.0), 172,
        )
    ]
    worst, ratios = 0.0, []
    for s in scenarios:
        report = activation_report(s)
        worst = max(worst, abs(report.chi) - 1.0)
        worst = max(worst, abs(report.delta_qs - (report.delta_s + report.delta_c)))
        ratios += _certificate_ratios(s, report.tilde_rho_s)
    ratio = max(ratios)
    return worst <= 1e-9 and ratio <= 1.0, (
        f"26 scenarios, worst algebra defect {worst:.2e}, "
        f"{len(ratios)} certificates, worst defect/bound {ratio:.2e}"
    )


def _certificate_ratios(s: SwitchScenario, tilde_rho_s: DensityMatrix) -> list[float]:
    """Measured defect over proved bound for each certificate of one
    scenario: the Gram defect of every certified unitary among U1, U2, W12
    and W21, and -lambda_min of a tilde_rho_s whose positivity was proved.
    A ratio above 1 is a bound that does not hold."""
    pairs = [
        (_gram_defect(u.mat), u._defect)
        for u in (s.u1, s.u2, *_switch_blocks(s.u1, s.u2))
        if isinstance(u, _CertifiedUnitary)
    ]
    if isinstance(tilde_rho_s, _CertifiedState) and not math.isnan(tilde_rho_s._psd_bound):
        lam_min = float(np.linalg.eigvalsh(tilde_rho_s.mat).min())
        pairs.append((max(0.0, -lam_min), tilde_rho_s._psd_bound))
    return [measured / bound for measured, bound in pairs]


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
    over Bloch angles: coarse grid scan polished by the package's
    Nelder-Mead (`qubitcase._simplex_minimize`, 2000 evaluations)."""
    k = complex(h_c.mat[1, 0]) * (chi_value - 1.0)

    def objective(x: list[float]) -> float:
        return math.sin(x[0]) * (cmath.exp(-1j * x[1]) * k).real

    thetas = np.linspace(0.0, math.pi, 61)
    phis = np.linspace(0.0, 2.0 * math.pi, 121, endpoint=False)
    grid = np.sin(thetas)[:, None] * (np.exp(-1j * phis)[None, :] * k).real
    i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
    fsim = qubitcase._simplex_minimize(objective, [float(thetas[i]), float(phis[j])], 2000)[1]
    return float(min(fsim[0], grid[i, j]))


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
    """delta_qs_rotations, looked up in `qubitcase` at call time, against
    activation_report on 100 random points."""
    gaps = []
    for _ in range(100):
        r = RotationParams(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
        c = BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        args = (rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0),
                rng.uniform(0.0, 2.0 * math.pi))
        closed = qubitcase.delta_qs_rotations(*args, r, c)
        scenario = qubitcase.qubit_scenario(*args, *qubitcase._rotation_pair(r), c)
        gaps.append(abs(closed - activation_report(scenario).delta_qs))
    worst = float(np.max(gaps))  # NaN if any gap is NaN
    return worst <= TOL_ENERGY, f"100 random points, worst closed-form gap {worst:.2e}"


def _check_rotation_measured(rng: np.random.Generator) -> tuple[bool, str]:
    """delta_sm_rotations_beta0, looked up in `qubitcase` at call time,
    against measure_control at beta = 1e-9 on 30 random points."""
    gaps = []
    for _ in range(30):
        alpha = rng.uniform(0.1, math.pi - 0.1)
        theta_m = rng.uniform(0.1, math.pi - 0.1)
        phi_m = rng.uniform(0.0, 2.0 * math.pi)
        closed = qubitcase.delta_sm_rotations_beta0(1.0, alpha, theta_m, phi_m)
        scenario = qubitcase.qubit_scenario(
            1.0, 1e-9, 0.0, 0.0, *qubitcase._rotation_pair(RotationParams(alpha, alpha)),
            BlochState(math.pi / 2.0, 0.0),
        )
        gaps.append(abs(closed - measure_control(scenario, BlochState(theta_m, phi_m)).delta_sm))
    worst = float(np.max(gaps))
    return worst <= 1e-6, f"30 random points at beta = 1e-9, worst closed-form gap {worst:.2e}"


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
