"""Qubit unitary families: x/y rotations in closed form and numerically
minimized general single-qubit unitary pairs.

The rotation family U1 = R_x(alpha_x), U2 = R_y(alpha_y) admits closed
forms for every scalar in the controlled-order energy bookkeeping:

    chi - 1  = - 2 sin^2(ax/2) sin^2(ay/2)
               + (i/2) tanh(bw/2) sin(ax) sin(ay)
    delta_12 = delta_21 = (w/2) tanh(bw/2) (1 - cos ax cos ay)
    Re df    = delta_12
    Im df    = -(w/4) sin(ax) sin(ay) sech^2(bw/2)

with df the interference term of the post-measurement decomposition.
_rotation_terms evaluates them once per point as a switchcore.KernelTerms
record (chi - 1 as written, which keeps its digits at small angles), and
the rotation forms, like both U(2) objectives on the same four numbers
from _u2_pair_terms, assemble it with the switchcore kernel.  The generic
matrix path is their oracle, run from outside: `verify`'s rotation checks
look the forms up here at call time and compare them with
activation_report and measure_control.

Each general-family optimizer is one call of the shared U(2) search
_multistart_minimize, which owns the search, the proved-bound check, the
checked re-evaluation and the U2MinimizeResult.  It runs multi-start
Nelder-Mead over the six angles (lambda_1, gamma_1, delta_1, lambda_2,
gamma_2, delta_2) on the flat torus [0, 2pi)^6; global phases alpha_k
provably drop out of every functional and are fixed to zero.  The
starts, uniform points from np.random.default_rng(seed), run in start
order in the calling process until the first lands within _certified_gap
of the objective's proved lower bound (_delta_qs_lower_bound,
_delta_sm_lower_bound; the latter is reached only on the equator with
sin(psi) != 0).  The optimum is then re-evaluated through
activation_report or measure_control, looked up at call time.  Each
start runs a small simplex loop on Python lists that keeps the simplex
sorted: a step that replaces the worst vertex inserts the new one with
bisect_right, and only a shrink re-sorts.  Each objective evaluation is
Python float and complex arithmetic on row 0 of U1, U2 and of the
products W12 = U2 U1 and W21 = U1 U2, with no array and no record: row 1
of an SU(2) matrix is (-conj(w01), conj(w00)), and IEEE arithmetic keeps
that identity bit for bit (up to the sign of an exact zero), so the
objectives score every point as the full 2x2 products do.
"""
from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import _DEFAULT_BUDGET, _MIN_BUDGET
from .qmat import UnitaryOperator
from .states import (
    BlochState,
    ControlHamiltonianParams,
    QubitSystemParams,
    ThermalParams,
    gibbs_qubit,
    hamiltonian_control,
    hamiltonian_qubit_system,
)
from .switchcore import (
    TOL_ENERGY,
    KernelTerms,
    SwitchScenario,
    activation_conditions,
    activation_report,
    assemble_qs,
    assemble_sm,
    measure_control,
    measurement_angles,
    post_selection_impossible,
    post_selection_vanishes,
    pure_control_weights,
)

_EVALS_PER_START = 500
# Nelder-Mead coefficients (scipy's rho, chi, psi, sigma) and stopping
# tolerances on the simplex's spread in x and in f.
_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1, 2, 0.5, 0.5
_XATOL, _FATOL = 1e-10, 1e-12
_CERTIFIED_GAP = 1e-12
# The objectives' round-off per unit of energy scale (a few ulps, with a
# margin); it exceeds _CERTIFIED_GAP only above a scale of about 70.
_ROUNDOFF_PER_ENERGY = 64 * sys.float_info.epsilon
_TWO_PI = 2.0 * math.pi

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class RotationParams:
    """Rotation angles for U1 = R_x(alpha_x), U2 = R_y(alpha_y)."""

    alpha_x: float
    alpha_y: float

    def __post_init__(self) -> None:
        for name in ("alpha_x", "alpha_y"):
            v = getattr(self, name)
            if not (0.0 <= v <= _TWO_PI):
                raise ValueError(f"{name} must lie in [0, 2*pi], got {v!r}")


@dataclass(frozen=True)
class U2Params:
    """General single-qubit unitary e^{i alpha} R_z(lam) R_y(gamma) R_z(delta)."""

    alpha: float
    lam: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "lam", "gamma", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class U2MinimizeResult:
    """Outcome of one multi-start minimization over a unitary pair."""

    value: float
    params: tuple[U2Params, U2Params]
    evaluations: int
    divergent_evaluations: int
    starts: int
    seed: int


def rotation_unitary(axis: str, angle: float) -> UnitaryOperator:
    """Bloch-sphere rotation e^{-i sigma_axis angle / 2}."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    s = _PAULI[axis]
    mat = math.cos(angle / 2.0) * np.eye(2, dtype=complex) - 1j * math.sin(
        angle / 2.0
    ) * s
    return UnitaryOperator(mat)


def _tanh_half(beta: float, omega: float) -> float:
    if math.isinf(beta):
        return 1.0
    return math.tanh(beta * omega / 2.0)


def qubit_scenario(
    omega: float,
    beta: float,
    t_abs: float,
    t_phase: float,
    u1: UnitaryOperator,
    u2: UnitaryOperator,
    c: BlochState,
) -> SwitchScenario:
    """Gibbs-qubit scenario with H_S = diag(0, omega) and the pair U1, U2."""
    return SwitchScenario(
        rho_s=gibbs_qubit(ThermalParams(beta, omega)),
        control=c,
        u1=u1,
        u2=u2,
        h_s=hamiltonian_qubit_system(QubitSystemParams(omega)),
        h_c=hamiltonian_control(ControlHamiltonianParams(omega, t_abs, t_phase)),
    )


def _rotation_pair(r: RotationParams) -> tuple[UnitaryOperator, UnitaryOperator]:
    return rotation_unitary("x", r.alpha_x), rotation_unitary("y", r.alpha_y)


def _rotation_terms(omega: float, beta: float, r: RotationParams) -> KernelTerms:
    """The module docstring's scalars of R_x(ax), R_y(ay) at one point, with
    chi - 1 formed as written, so that it keeps its digits at small angles."""
    tau = _tanh_half(beta, omega)
    ax, ay = r.alpha_x, r.alpha_y
    sx, sy = math.sin(ax), math.sin(ay)
    chi_m1 = complex(-2.0 * math.sin(ax / 2.0) ** 2 * math.sin(ay / 2.0) ** 2, 0.5 * tau * sx * sy)
    delta = (omega / 2.0) * tau * (1.0 - math.cos(ax) * math.cos(ay))
    im = -(omega / 4.0) * sx * sy * (1.0 - tau * tau)
    return KernelTerms(chi_m1, delta, delta, complex(delta, im))


def delta_qs_rotations(
    omega: float,
    beta: float,
    t_abs: float,
    t_phase: float,
    r: RotationParams,
    c: BlochState,
) -> float:
    """Pre-measurement energy difference for the rotation family.

    delta_qs = (w/2) [ 1 - cos(ax) cos(ay)
                       + (|t|/w) sin(ax) sin(ay) sin(tc) sin(theta + pc) ]
                     * tanh(bw/2)
               - 2 |t| cos(theta + pc) sin(tc) sin^2(ax/2) sin^2(ay/2)

    with theta the phase of t and (tc, pc) the control angles.  verify's
    rotation-closed-form check audits it against activation_report.
    """
    ThermalParams(beta, omega)  # rejects a NaN or negative beta and a bad omega
    ControlHamiltonianParams(omega, t_abs, t_phase)  # rejects a non-finite coupling
    return assemble_qs(*pure_control_weights(c, t_abs, t_phase), _rotation_terms(omega, beta, r))[0]


def activation_conditions_rotations(
    omega: float,
    beta: float,
    r: RotationParams,
    c: BlochState,
    m: BlochState,
) -> tuple[bool, bool, bool]:
    """Conditions (i)-(iii) of switchcore.MeasurementReport for the rotation
    family: switchcore.activation_conditions on the closed-form df.  In
    (ii), tan(psi) != Re{df}/Im{df}, the ratio collapses for rotations to
    (cot ax cot ay - csc ax csc ay) sinh(b w); the kernel tests it in
    cross-product form, which has no tangent poles."""
    ThermalParams(beta, omega)  # rejects a NaN or negative beta and a bad omega
    df = _rotation_terms(omega, beta, r).df
    return activation_conditions(measurement_angles(c, m), df)[0]


def delta_sm_rotations_beta0(
    omega: float,
    alpha: float,
    theta_m: float,
    phi_m: float,
) -> float:
    """Post-measurement energy difference at infinite temperature for
    alpha_x = alpha_y = alpha and control (pi/2, 0):

        w sin(pm) / (2 cos(pm) + 4 cos(pm) cot(a) csc(a)
                     + 4 csc^2(a) csc(tm))

    The denominator is strictly positive for alpha not a multiple of pi
    and tm in ]0, pi[, so no divergence regime exists here.  verify's
    rotation-measured-closed-form check audits it against measure_control
    at beta = 1e-9.  The inputs are checked with plain comparisons, not
    parameter records: fig2 evaluates this form about 224k times.
    """
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if abs(math.sin(alpha)) < 1e-12:
        raise ValueError(f"alpha = {alpha!r} is a multiple of pi: rotation family degenerates")
    if not (0.0 < theta_m < math.pi):
        raise ValueError(f"theta_m must lie strictly inside ]0, pi[, got {theta_m!r}")
    if not (0.0 <= phi_m < _TWO_PI):
        raise ValueError(f"phi_m must lie in [0, 2 pi), got {phi_m!r}")
    cot_a = math.cos(alpha) / math.sin(alpha)
    csc_a = 1.0 / math.sin(alpha)
    csc_tm = 1.0 / math.sin(theta_m)
    denom = (
        2.0 * math.cos(phi_m)
        + 4.0 * math.cos(phi_m) * cot_a * csc_a
        + 4.0 * csc_a * csc_a * csc_tm
    )
    return omega * math.sin(phi_m) / denom


def u2_unitary(p: U2Params) -> UnitaryOperator:
    """e^{i alpha} R_z(lam) R_y(gamma) R_z(delta)."""
    mat = (
        cmath.exp(1j * p.alpha)
        * rotation_unitary("z", p.lam).mat
        @ rotation_unitary("y", p.gamma).mat
        @ rotation_unitary("z", p.delta).mat
    )
    return UnitaryOperator(mat)


def implied_epsilon(min_delta_qs: float, theta: float, t_abs: float) -> float:
    """Invert min delta_qs = ((eps - 12)/16) cos(theta) |t| for eps.

    Raises ValueError for a non-finite input, t_abs <= 0, or |cos theta|
    <= 1e-12, where the slope vanishes and eps is undetermined.
    """
    if not (math.isfinite(min_delta_qs) and math.isfinite(theta)):
        raise ValueError(f"min_delta_qs and theta must be finite, got {min_delta_qs!r}, {theta!r}")
    if not 0.0 < t_abs < math.inf:
        raise ValueError(f"t_abs must be positive and finite, got {t_abs!r}")
    cos_theta = math.cos(theta)
    if abs(cos_theta) <= 1e-12:
        raise ValueError(f"cos(theta) vanishes at theta = {theta!r}: eps is undetermined")
    return 16.0 * min_delta_qs / (cos_theta * t_abs) + 12.0


def implied_f(min_delta_sm: float, omega: float) -> float:
    """Invert the measured-case rational form at pm = pi/2, where the
    denominator contribution of g vanishes: f = 32 delta_sm / w.

    Raises ValueError for a non-finite min_delta_sm or omega <= 0.
    """
    if not math.isfinite(min_delta_sm):
        raise ValueError(f"min_delta_sm must be finite, got {min_delta_sm!r}")
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    return 32.0 * min_delta_sm / omega


def _rzyz_row0(lam: float, gamma: float, delta: float) -> tuple[complex, complex]:
    """Row 0 of R_z(lam) R_y(gamma) R_z(delta) as Python complex numbers
    (hot path: no array, no wrapper validation).  Row 1 is (-conj(x01),
    conj(x00)), as for every SU(2) matrix."""
    cl, sl = math.cos(lam / 2.0), math.sin(lam / 2.0)
    cg, sg = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    cd, sd = math.cos(delta / 2.0), math.sin(delta / 2.0)
    ez_l = complex(cl, -sl)
    return ez_l * cg * complex(cd, -sd), -ez_l * sg * complex(cd, sd)


def _starts(n_starts: int, seed: int) -> list[list[float]]:
    """The first n_starts start points, uniform on [0, 2pi)^6.  The stream
    is np.random.default_rng(seed)'s, so a larger n_starts only appends
    points."""
    return np.random.default_rng(seed).uniform(0.0, _TWO_PI, (n_starts, 6)).tolist()


def _u2_pair_terms(
    x: list[float], omega: float, p0: float, p1: float
) -> tuple[complex, float, float, complex]:
    """Shared objective kernel: the KernelTerms fields (chi - 1, delta_12,
    delta_21, delta_f) of the pair at angles x as a plain tuple, for
    h_s = diag(0, w) and a diagonal qubit state of populations (p0, p1).
    Hot path: no array and no record.

    Only row 0 of U1, U2, W12 = U2 U1 and W21 = U1 U2 is formed: row 1 of
    each is (-conj(w01), conj(w00)), and the row-1 terms of chi are the
    conjugates of the row-0 ones.  IEEE products and sums commute exactly
    with negation and conjugation, so every field has the bits that the
    full 2x2 products give, up to the sign of an exact zero, which no
    comparison sees."""
    l1, g1, d1, l2, g2, d2 = x
    a00, a01 = _rzyz_row0(l1 % _TWO_PI, g1 % _TWO_PI, d1 % _TWO_PI)
    b00, b01 = _rzyz_row0(l2 % _TWO_PI, g2 % _TWO_PI, d2 % _TWO_PI)
    ab = a00 * b00
    u00, u01 = ab - b01 * a01.conjugate(), b00 * a01 + b01 * a00.conjugate()  # row 0 of W12
    v00, v01 = ab - a01 * b01.conjugate(), a00 * b01 + a01 * b00.conjugate()  # row 0 of W21
    e12 = omega * (abs(u01) ** 2 * p0 + abs(u00) ** 2 * p1)
    e21 = omega * (abs(v01) ** 2 * p0 + abs(v00) ** 2 * p1)
    t00, t01 = u00 * v00.conjugate(), u01 * v01.conjugate()
    x_chi = p0 * (t00 + t01.conjugate()) + p1 * (t01 + t00.conjugate())
    e_s = omega * p1
    f_s = omega * (p0 * u01.conjugate() * v01 + p1 * u00.conjugate() * v00)
    return x_chi - 1.0, e12 - e_s, e21 - e_s, f_s - x_chi * e_s


def _thermal_populations(omega: float, beta: float) -> tuple[float, float]:
    rho = gibbs_qubit(ThermalParams(beta, omega)).mat
    return float(np.real(rho[0, 0])), float(np.real(rho[1, 1]))


def _delta_qs_objective(omega: float, beta: float, t_abs: float, t_phase: float, c: BlochState):
    """delta_qs of a U(2) pair as a function of its six angles; products
    of constants are precomputed."""
    ControlHamiltonianParams(omega, t_abs, t_phase)  # rejects a non-finite coupling
    p0, p1 = _thermal_populations(omega, beta)
    rc00, rc11, k = pure_control_weights(c, t_abs, t_phase)  # k = rho_c01 * h_c10

    def objective(x: list[float]) -> float:
        return assemble_qs(rc00, rc11, k, _u2_pair_terms(x, omega, p0, p1))[0]

    return objective


def _delta_sm_objective(omega: float, beta: float, c: BlochState, m: BlochState):
    """delta_sm of a U(2) pair as a function of its six angles; points with
    post-selection probability at or below TOL_NM score +inf."""
    p0, p1 = _thermal_populations(omega, beta)
    angles = measurement_angles(c, m)

    def objective(x: list[float]) -> float:
        n_m, bracket = assemble_sm(angles, _u2_pair_terms(x, omega, p0, p1))
        if post_selection_vanishes(n_m):
            return math.inf
        return bracket / n_m

    return objective


def _simplex_minimize(objective, x0: list[float], maxfev: int):
    """Nelder-Mead (Nelder and Mead, Comput. J. 7, 308, 1965) on Python
    lists, with reflection, expansion, contraction and shrink coefficients
    1, 2, 1/2 and 1/2, stopped when every vertex lies within _XATOL of the
    best in each coordinate and within _FATOL of it in score, or when the
    budget is spent.  The initial simplex steps each nonzero coordinate by
    5% and each zero one by 0.00025.  The simplex is kept sorted by score,
    ties in the order they arose: a step that replaces the worst vertex
    inserts the new one after every vertex that scores no more (bisect_right
    on the other n scores, the place a stable re-sort would give), and the
    simplex is re-sorted only after the initial evaluation and a shrink.
    The budget is checked before each evaluation: a step it cuts short
    stores nothing, so nfev never exceeds maxfev, and a cut-short shrink
    keeps the vertices it moved, the last of them with its old score.
    Returns the final simplex (vertices best first, and their scores), nfev
    and the number of evaluations scored +inf.  Scores are never NaN."""
    n = len(x0)
    inf = math.inf
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    nfev = min(n + 1, maxfev)
    fsim = [objective(v) for v in sim[:nfev]] + [inf] * (n + 1 - nfev)
    divergent = fsim[:nfev].count(inf)
    order = sorted(range(n + 1), key=fsim.__getitem__)
    sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    while True:
        best, worst = sim[0], sim[-1]
        if nfev >= maxfev or (
            fsim[-1] - fsim[0] <= _FATOL
            and all(abs(v - b) <= _XATOL for row in sim[1:] for v, b in zip(row, best))
        ):
            return sim, fsim, nfev, divergent
        xbar = [math.fsum(col) / n for col in zip(*sim[:-1])]
        pairs = list(zip(xbar, worst))
        xr = [(1 + _REFLECT) * b - _REFLECT * w for b, w in pairs]
        nfev += 1
        fxr = objective(xr)
        divergent += fxr == inf
        new = xr, fxr  # the vertex that replaces the worst; None for a shrink
        if not (fsim[0] <= fxr < fsim[-2]):
            if nfev >= maxfev:
                return sim, fsim, nfev, divergent
            if fxr < fsim[0]:
                x2 = [(1 + _REFLECT * _EXPAND) * b - _REFLECT * _EXPAND * w for b, w in pairs]
            elif fxr < fsim[-1]:
                x2 = [(1 + _CONTRACT * _REFLECT) * b - _CONTRACT * _REFLECT * w for b, w in pairs]
            else:
                x2 = [(1 - _CONTRACT) * b + _CONTRACT * w for b, w in pairs]
            nfev += 1
            f2 = objective(x2)
            divergent += f2 == inf
            if fxr < fsim[0]:
                if f2 < fxr:  # expansion
                    new = x2, f2
            elif fxr < fsim[-1]:  # outside contraction
                new = (x2, f2) if f2 <= fxr else None
            else:  # inside contraction
                new = (x2, f2) if f2 < fsim[-1] else None
        if new is None:
            for j in range(1, n + 1):
                sim[j] = [b + _SHRINK * (v - b) for b, v in zip(best, sim[j])]
                if nfev >= maxfev:
                    break
                nfev += 1
                fsim[j] = objective(sim[j])
                divergent += fsim[j] == inf
            order = sorted(range(n + 1), key=fsim.__getitem__)
            sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        else:
            del sim[-1], fsim[-1]
            i = bisect_right(fsim, new[1])
            sim.insert(i, new[0])
            fsim.insert(i, new[1])


def _delta_qs_lower_bound(
    omega: float, beta: float, t_abs: float, t_phase: float, c: BlochState
) -> float:
    """-|t| sin(tc) (cos th' + sqrt(cos^2 th' + tau^2 sin^2 th')), th' =
    t_phase + pc, tau = tanh(bw/2), the least delta_qs of any unitary pair.
    Proof: delta_qs = (system term >= 0, a Gibbs state being passive) +
    |t| sin(tc) Re{e^{-i th'} (chi - 1)}, and chi = Re K00 + i tau Im K00 of
    the commutator K = W21^dag W12, which reaches every point of SU(2)
    (Goto 1949), so chi fills the ellipse with semi-axes 1 and tau."""
    tau = _tanh_half(beta, omega)
    theta = t_phase + c.phi
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    reach = cos_t + math.sqrt(cos_t * cos_t + tau * tau * sin_t * sin_t)
    return -t_abs * math.sin(c.theta) * reach


def _delta_sm_lower_bound(omega: float, beta: float) -> float:
    """-E_S = -omega p1, the least delta_sm of any unitary pair and
    measurement.  Proof: delta_sm = tr{H_S rho'} - E_S for a state rho', and
    H_S = diag(0, omega) >= 0."""
    return -omega * _thermal_populations(omega, beta)[1]


def _certified_gap(energy_scale: float) -> float:
    """How close to its lower bound a start must come to end the search,
    and how far below it no value may lie: _CERTIFIED_GAP, or the round-off
    at energy_scale (omega + |t| for delta_qs, omega for delta_sm)."""
    return max(_CERTIFIED_GAP, _ROUNDOFF_PER_ENERGY * energy_scale)


def _multistart_minimize(objective, lower_bound: float, gap: float, budget: int, seed: int, recheck):
    """The U(2) driver: the search, the bound check, the checked
    re-evaluation and the result.

    The work schedule is an extendable sequence: every start gets exactly
    _EVALS_PER_START evaluations and a larger budget only appends starts
    (_starts is prefix-stable).  The starts run in start order, and the
    first whose value lies within gap of lower_bound is the last to run,
    so a call stops at the same start for every budget that reaches it and
    the best value is non-increasing in budget.  The optimum is the best
    start that ran, ties going to the lower index, wrapped to [0, 2pi) and
    with global phases zero.  Raises AssertionError where its value lies
    below lower_bound by more than gap, RuntimeError where it is +inf, and
    AssertionError where recheck(params) differs from it by more than
    TOL_ENERGY.
    """
    if budget < _MIN_BUDGET:
        raise ValueError(f"budget must be at least {_MIN_BUDGET} evaluations, got {budget}")
    evaluations = divergent = starts = 0
    value, best_x = math.inf, None
    for x0 in _starts(budget // _EVALS_PER_START, seed):
        sim, fsim, nfev, start_divergent = _simplex_minimize(objective, x0, _EVALS_PER_START)
        starts += 1
        evaluations += nfev
        divergent += start_divergent
        if best_x is None or fsim[0] < value:
            value, best_x = fsim[0], [v % _TWO_PI for v in sim[0]]
        if fsim[0] - lower_bound <= gap:
            break
    if value < lower_bound - gap:
        raise AssertionError(
            f"optimizer value {value!r} lies below the proved lower bound {lower_bound!r}"
        )
    if math.isinf(value):
        raise RuntimeError("every evaluation point fell in the near-zero post-selection regime")
    params = (U2Params(0.0, *best_x[:3]), U2Params(0.0, *best_x[3:]))
    check = recheck(params)
    if abs(check - value) > TOL_ENERGY:
        raise AssertionError(
            f"optimizer value {value!r} disagrees with checked path {check!r} at optimum"
        )
    return U2MinimizeResult(value, params, evaluations, divergent, starts, seed)


def minimize_delta_qs_u2(
    omega: float,
    beta: float,
    t_abs: float,
    t_phase: float,
    c: BlochState,
    budget: int = _DEFAULT_BUDGET,
    seed: int = 0,
) -> U2MinimizeResult:
    """Minimize the pre-measurement energy difference over two general
    single-qubit unitaries.

    Searches (lam1, gamma1, delta1, lam2, gamma2, delta2) in [0, 2pi)^6
    with global phases fixed to zero (they cancel in every trace).
    Deterministic for fixed (budget, seed); stops at the first start that
    reaches _delta_qs_lower_bound.  The reported optimum is re-evaluated
    through the checked generic path before returning.
    """
    return _multistart_minimize(
        _delta_qs_objective(omega, beta, t_abs, t_phase, c),
        _delta_qs_lower_bound(omega, beta, t_abs, t_phase, c),
        _certified_gap(omega + t_abs), budget, seed,
        lambda params: activation_report(
            qubit_scenario(omega, beta, t_abs, t_phase, *map(u2_unitary, params), c)
        ).delta_qs,
    )


def minimize_delta_sm_u2(
    omega: float,
    beta: float,
    c: BlochState,
    m: BlochState,
    budget: int = _DEFAULT_BUDGET,
    seed: int = 0,
) -> U2MinimizeResult:
    """Minimize the post-measurement energy difference over two general
    single-qubit unitaries.

    Evaluation points whose post-selection probability falls at or below
    TOL_NM are scored +inf and counted in divergent_evaluations rather
    than silently renormalized.  Raises ValueError, before any start runs,
    where no unitary pair can be post-selected (switchcore's
    post_selection_impossible: antipodal polar angles).  Stops at the
    first start that reaches _delta_sm_lower_bound, -E_S, which the
    equator calls with sin(psi) != 0 reach.
    """
    if post_selection_impossible(c, m):
        raise ValueError(
            f"control theta {c.theta!r} and measurement theta {m.theta!r} are antipodal: "
            "the post-selection probability vanishes for every unitary pair"
        )
    return _multistart_minimize(
        _delta_sm_objective(omega, beta, c, m), _delta_sm_lower_bound(omega, beta),
        _certified_gap(omega), budget, seed,
        lambda params: measure_control(
            qubit_scenario(omega, beta, 0.0, 0.0, *map(u2_unitary, params), c), m
        ).delta_sm,
    )
