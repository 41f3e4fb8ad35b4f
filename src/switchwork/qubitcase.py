"""Qubit unitary families: x/y rotations in closed form and numerically
minimized general single-qubit unitary pairs.

The rotation family U1 = R_x(alpha_x), U2 = R_y(alpha_y) admits closed
forms for every scalar in the controlled-order energy bookkeeping:

    chi      = 1 - 2 sin^2(ax/2) sin^2(ay/2)
               + (i/2) tanh(bw/2) sin(ax) sin(ay)
    delta_12 = delta_21 = (w/2) tanh(bw/2) (1 - cos ax cos ay)
    Re df    = delta_12
    Im df    = -(w/4) sin(ax) sin(ay) sech^2(bw/2)

with df the interference term of the post-measurement decomposition.
Each closed-form entry point re-evaluates the generic matrix path by
default and raises if the two disagree, so a formula regression cannot
return silently wrong numbers.  The activation conditions and both U(2)
objectives assemble their scalars with the switchcore kernel.

The general-family optimizers run multi-start Nelder-Mead over the six
angles (lambda_1, gamma_1, delta_1, lambda_2, gamma_2, delta_2) on the
flat torus [0, 2pi)^6; global phases alpha_k provably drop out of every
functional and are fixed to zero during optimization.  The starts of one
call are independent, so they run in a persistent fork pool of
min(usable CPUs, starts, 8) workers and are merged in start order: the
result is bit-identical for every worker count.  Each start runs an
in-module simplex loop on Python lists that repeats the iterates of scipy
1.17's Nelder-Mead (adaptive=False, no bounds) bit for bit, without its
per-evaluation array bookkeeping; scipy stays in the tests as the
reference.

One objective evaluation makes a single numpy call that does arithmetic:
the stacked 2x2 product that gives both orderings of the pair.  It stays
in numpy because OpenBLAS's zgemm rounds with fused multiply-adds, which
Python arithmetic cannot reproduce.  Every other operation is on Python
floats and complex numbers, written in the order and form of the numpy
scalar code it replaced (Python `%` for np.mod, abs(z) ** 2, never
z.real ** 2 + z.imag ** 2), so every objective value keeps its bits.
"""
from __future__ import annotations

import atexit
import cmath
import math
import os
from dataclasses import dataclass
from operator import add
from typing import NamedTuple

import numpy as np
from scipy.stats import qmc

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
    MeasurementAngles,
    SwitchScenario,
    activation_conditions,
    activation_report,
    assemble_qs,
    assemble_sm,
    measure_control,
    measurement_angles,
    post_selection_impossible,
    post_selection_vanishes,
)

TOL_OPT = 1e-4
_EVALS_PER_START = 500
# Nelder-Mead coefficients (scipy's rho, chi, psi, sigma) and stopping
# tolerances on the simplex's spread in x and in f.
_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1, 2, 0.5, 0.5
_XATOL, _FATOL = 1e-10, 1e-12
_MAX_WORKERS = 8
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


def delta_qs_rotations(
    omega: float,
    beta: float,
    t_abs: float,
    t_phase: float,
    r: RotationParams,
    c: BlochState,
    cross_check: bool = True,
) -> float:
    """Pre-measurement energy difference for the rotation family.

    delta_qs = (w/2) [ 1 - cos(ax) cos(ay)
                       + (|t|/w) sin(ax) sin(ay) sin(tc) sin(theta + pc) ]
                     * tanh(bw/2)
               - 2 |t| cos(theta + pc) sin(tc) sin^2(ax/2) sin^2(ay/2)

    with theta the phase of t and (tc, pc) the control angles.  When
    cross_check is true (default) the generic matrix path is evaluated too
    and a mismatch beyond TOL_ENERGY raises.
    """
    tau = _tanh_half(beta, omega)
    ax, ay = r.alpha_x, r.alpha_y
    phase = t_phase + c.phi
    bracket = (
        1.0
        - math.cos(ax) * math.cos(ay)
        + (t_abs / omega) * math.sin(ax) * math.sin(ay) * math.sin(c.theta) * math.sin(phase)
    )
    value = (omega / 2.0) * bracket * tau - 2.0 * t_abs * math.cos(phase) * math.sin(
        c.theta
    ) * math.sin(ax / 2.0) ** 2 * math.sin(ay / 2.0) ** 2
    if cross_check:
        generic = activation_report(
            qubit_scenario(omega, beta, t_abs, t_phase, *_rotation_pair(r), c)
        ).delta_qs
        if abs(generic - value) > TOL_ENERGY:
            raise AssertionError(
                f"rotation closed form {value!r} disagrees with generic path {generic!r}"
            )
    return value


def _rotation_delta_f(omega: float, beta: float, r: RotationParams) -> complex:
    """Interference term F_S - chi E_S of the rotation family.

    Re = (w/2) tanh(bw/2) (1 - cos ax cos ay);
    Im = -(w/4) sin(ax) sin(ay) (1 - tanh^2(bw/2)).
    """
    tau = _tanh_half(beta, omega)
    re = (omega / 2.0) * tau * (1.0 - math.cos(r.alpha_x) * math.cos(r.alpha_y))
    im = -(omega / 4.0) * math.sin(r.alpha_x) * math.sin(r.alpha_y) * (1.0 - tau * tau)
    return complex(re, im)


def activation_conditions_rotations(
    omega: float,
    beta: float,
    r: RotationParams,
    c: BlochState,
    m: BlochState,
    cross_check: bool = True,
) -> tuple[bool, bool, bool]:
    """Conditions (i)-(iii) of switchcore.MeasurementReport for the rotation
    family: switchcore.activation_conditions on the closed-form df.  In
    (ii), tan(psi) != Re{df}/Im{df}, the ratio collapses for rotations to
    (cot ax cot ay - csc ax csc ay) sinh(b w); the kernel tests it in
    cross-product form, which has no tangent poles."""
    df = _rotation_delta_f(omega, beta, r)
    if cross_check:
        # The scenario's d-space F_S - chi E_S does not involve n_m, so the
        # check also runs where the post-selection probability vanishes.
        t = qubit_scenario(omega, beta, 0.0, 0.0, *_rotation_pair(r), c)._terms
        generic = t.f_s - t.chi * t.e_s
        if abs(generic - df) > TOL_ENERGY:
            raise AssertionError(
                f"rotation interference term {df!r} disagrees with "
                f"generic path {generic!r}"
            )
    return activation_conditions(measurement_angles(c, m), df)[0]


def delta_sm_rotations_beta0(
    omega: float,
    alpha: float,
    theta_m: float,
    phi_m: float,
    cross_check: bool = True,
) -> float:
    """Post-measurement energy difference at infinite temperature for
    alpha_x = alpha_y = alpha and control (pi/2, 0):

        w sin(pm) / (2 cos(pm) + 4 cos(pm) cot(a) csc(a)
                     + 4 csc^2(a) csc(tm))

    The denominator is strictly positive for alpha not a multiple of pi
    and tm in ]0, pi[, so no divergence regime exists here.  cross_check
    compares against the generic path at beta = 1e-9 within 1e-6.
    """
    if abs(math.sin(alpha)) < 1e-12:
        raise ValueError(f"alpha = {alpha!r} is a multiple of pi: rotation family degenerates")
    if not (0.0 < theta_m < math.pi):
        raise ValueError(f"theta_m must lie strictly inside ]0, pi[, got {theta_m!r}")
    cot_a = math.cos(alpha) / math.sin(alpha)
    csc_a = 1.0 / math.sin(alpha)
    csc_tm = 1.0 / math.sin(theta_m)
    denom = (
        2.0 * math.cos(phi_m)
        + 4.0 * math.cos(phi_m) * cot_a * csc_a
        + 4.0 * csc_a * csc_a * csc_tm
    )
    value = omega * math.sin(phi_m) / denom
    if cross_check:
        r = RotationParams(alpha % _TWO_PI, alpha % _TWO_PI)
        scenario = qubit_scenario(
            omega, 1e-9, 0.0, 0.0, *_rotation_pair(r), BlochState(math.pi / 2.0, 0.0)
        )
        generic = measure_control(scenario, BlochState(theta_m, phi_m)).delta_sm
        if abs(generic - value) > 1e-6:
            raise AssertionError(
                f"infinite-temperature closed form {value!r} disagrees with "
                f"generic path {generic!r}"
            )
    return value


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
    """Invert min delta_qs = ((eps - 12)/16) cos(theta) |t| for eps."""
    return 16.0 * min_delta_qs / (math.cos(theta) * t_abs) + 12.0


def implied_f(min_delta_sm: float, omega: float) -> float:
    """Invert the measured-case rational form at pm = pi/2, where the
    denominator contribution of g vanishes: f = 32 delta_sm / w."""
    return 32.0 * min_delta_sm / omega


def _rzyz_entries(lam: float, gamma: float, delta: float) -> tuple[complex, ...]:
    """The entries of R_z(lam) R_y(gamma) R_z(delta) in row-major order, as
    Python complex numbers (hot path: no array, no wrapper validation)."""
    cl, sl = math.cos(lam / 2.0), math.sin(lam / 2.0)
    cg, sg = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    cd, sd = math.cos(delta / 2.0), math.sin(delta / 2.0)
    ez_l = complex(cl, -sl)
    ez_lc = complex(cl, sl)
    ez_d = complex(cd, -sd)
    ez_dc = complex(cd, sd)
    return ez_l * cg * ez_d, -ez_l * sg * ez_dc, ez_lc * sg * ez_d, ez_lc * cg * ez_dc


def _sobol_starts(n_starts: int, seed: int) -> np.ndarray:
    """First n_starts rows of a scrambled Sobol stream, scaled to [0, 2pi)^6.

    The stream is drawn at the next power of two so the generator's balance
    guarantees hold, then truncated; the rule is deterministic in (n, seed).
    """
    sampler = qmc.Sobol(d=6, scramble=True, seed=seed)
    n_draw = 1 << max(0, (n_starts - 1).bit_length())
    pts = sampler.random(n_draw)[:n_starts]
    return pts * _TWO_PI


def _u2_pair_terms(x: list[float], omega: float, p0: float, p1: float):
    """Shared objective kernel: the orderings W12 = U2 U1 and W21 = U1 U2 of
    the pair at angles x, as nested lists of Python complex numbers, with
    E12, E21 and chi for a diagonal qubit state of populations (p0, p1).

    Hot path: one numpy call does arithmetic, the stacked product
    [U2, U1] @ [U1, U2].  It goes through the same OpenBLAS zgemm as a
    single 2x2 `@`, whose kernel rounds with fused multiply-adds, so a
    Python 2x2 product would not reproduce its bits.  Everything else is
    Python float/complex arithmetic in the left-to-right order of the numpy
    scalar code it replaced, which it matches bit for bit: `%` equals
    np.mod on floats, and abs(z) ** 2 calls C hypot and pow for numpy and
    Python scalars alike (z.real**2 + z.imag**2 would round differently).
    """
    l1, g1, d1, l2, g2, d2 = [v % _TWO_PI for v in x]
    pair = np.array(
        [*_rzyz_entries(l2, g2, d2), *_rzyz_entries(l1, g1, d1)], dtype=complex
    ).reshape(2, 2, 2)
    w12, w21 = np.matmul(pair, pair[::-1]).tolist()
    e12 = omega * (abs(w12[1][0]) ** 2 * p0 + abs(w12[1][1]) ** 2 * p1)
    e21 = omega * (abs(w21[1][0]) ** 2 * p0 + abs(w21[1][1]) ** 2 * p1)
    x_chi = p0 * (w12[0][0] * w21[0][0].conjugate() + w12[1][0] * w21[1][0].conjugate()) + p1 * (
        w12[0][1] * w21[0][1].conjugate() + w12[1][1] * w21[1][1].conjugate()
    )
    return w12, w21, e12, e21, x_chi


class _DeltaQsObjective(NamedTuple):
    """delta_qs of a U(2) pair as a function of its six angles.  A
    module-level value, so that it pickles into pool workers; products of
    constants are precomputed in their left-to-right evaluation order."""

    omega: float
    p0: float
    p1: float
    e_s: float
    rc00: float
    rc11: float
    k: complex  # rho_c01 * h_c10

    def __call__(self, x: list[float]) -> float:
        _, _, e12, e21, x_chi = _u2_pair_terms(x, self.omega, self.p0, self.p1)
        return assemble_qs(self.rc00, self.rc11, self.k, x_chi, e12 - self.e_s, e21 - self.e_s)[0]


class _DeltaSmObjective(NamedTuple):
    """delta_sm of a U(2) pair as a function of its six angles; points with
    post-selection probability at or below TOL_NM score +inf."""

    omega: float
    p0: float
    p1: float
    e_s: float
    angles: MeasurementAngles

    def __call__(self, x: list[float]) -> float:
        w12, w21, e12, e21, x_chi = _u2_pair_terms(x, self.omega, self.p0, self.p1)
        f_s = self.omega * (
            self.p0 * w12[1][0] * w21[1][0].conjugate() + self.p1 * w12[1][1] * w21[1][1].conjugate()
        )
        delta_f = f_s - x_chi * self.e_s
        n_m, bracket = assemble_sm(self.angles, x_chi, e12 - self.e_s, e21 - self.e_s, delta_f)
        if post_selection_vanishes(n_m):
            return math.inf
        return bracket / n_m


def _thermal_populations(omega: float, beta: float) -> tuple[float, float]:
    rho = gibbs_qubit(ThermalParams(beta, omega)).mat
    return float(np.real(rho[0, 0])), float(np.real(rho[1, 1]))


def _delta_qs_objective(
    omega: float, beta: float, t_abs: float, t_phase: float, c: BlochState
) -> _DeltaQsObjective:
    p0, p1 = _thermal_populations(omega, beta)
    rc01 = 0.5 * math.sin(c.theta) * cmath.exp(-1j * c.phi)
    return _DeltaQsObjective(
        omega, p0, p1, omega * p1,
        math.cos(c.theta / 2.0) ** 2, math.sin(c.theta / 2.0) ** 2,
        rc01 * (t_abs * cmath.exp(-1j * t_phase)),
    )


def _delta_sm_objective(
    omega: float, beta: float, c: BlochState, m: BlochState
) -> _DeltaSmObjective:
    p0, p1 = _thermal_populations(omega, beta)
    return _DeltaSmObjective(omega, p0, p1, omega * p1, measurement_angles(c, m))


class _BudgetSpent(Exception):
    """An evaluation was asked for after the start's budget ran out."""


def _argsort(f: list[float]) -> list[int]:
    """np.argsort(f).  Distinct values have one ascending order, which a
    Python sort finds; ties (and NaN) go to np.argsort, which is not stable,
    so only it repeats its own order."""
    order = sorted(range(len(f)), key=f.__getitem__)
    for a, b in zip(order, order[1:]):
        if not f[a] < f[b]:
            return np.argsort(f).tolist()
    return order


def _simplex_minimize(objective, x0: list[float], maxfev: int):
    """Nelder-Mead as scipy 1.17's `_minimize_neldermead` runs it with
    adaptive=False, no bounds, xatol = _XATOL and fatol = _FATOL, repeating
    its iterates bit for bit on Python lists: the same initial simplex, the
    same elementwise expressions in the same order (the centroid summed row
    by row, as np.add.reduce does along axis 0; never Python's sum(), which
    compensates on 3.12), the same vertex order and the same maxfev rule.
    An evaluation past the budget raises _BudgetSpent, which ends the step
    with nothing stored; an interrupted shrink keeps the vertices it moved.
    Returns scipy's final simplex (vertices best first, and their scores),
    nfev and the number of evaluations scored +inf."""
    n = len(x0)
    nfev = divergent = 0

    def f(x: list[float]) -> float:
        nonlocal nfev, divergent
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        value = objective(x)
        if value == math.inf:
            divergent += 1
        return value

    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):  # scipy sorts in a `finally` and once more after it
        order = _argsort(fsim)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]

    while nfev < maxfev:
        best, worst = sim[0], sim[-1]
        # The first test is one term of the last and only rejects early.
        if (
            abs(fsim[0] - fsim[-1]) <= _FATOL
            and all(abs(v - b) <= _XATOL for row in sim[1:] for v, b in zip(row, best))
            and all(abs(fsim[0] - v) <= _FATOL for v in fsim[1:])
        ):
            break
        try:
            acc = best
            for row in sim[1:-1]:
                acc = map(add, acc, row)
            xbar = [s / n for s in acc]
            xr = [(1 + _REFLECT) * b - _REFLECT * w for b, w in zip(xbar, worst)]
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = [
                    (1 + _REFLECT * _EXPAND) * b - _REFLECT * _EXPAND * w
                    for b, w in zip(xbar, worst)
                ]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = [
                    (1 + _CONTRACT * _REFLECT) * b - _CONTRACT * _REFLECT * w
                    for b, w in zip(xbar, worst)
                ]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = [(1 - _CONTRACT) * b + _CONTRACT * w for b, w in zip(xbar, worst)]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = [b + _SHRINK * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        order = _argsort(fsim)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    return sim, fsim, nfev, divergent


def _nelder_mead_start(task: tuple) -> tuple[float, np.ndarray, int, int]:
    """One Nelder-Mead start: (fun, x wrapped to [0, 2pi), nfev, evaluations
    scored +inf).  Module-level so that pool workers can run it."""
    objective, x0 = task
    sim, fsim, nfev, divergent = _simplex_minimize(objective, x0.tolist(), _EVALS_PER_START)
    # scipy reports the best vertex with np.min of the scores, which can
    # differ from the best vertex's score in the sign of a zero.
    return float(np.min(fsim)), np.mod(sim[0], _TWO_PI), nfev, divergent


def _pool_workers(n_starts: int) -> int:
    """min(usable CPUs, starts, _MAX_WORKERS); 1 (in-process) where fork is
    unavailable or the caller is a daemonic process, which may not fork."""
    import multiprocessing

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n_starts, _MAX_WORKERS)


_pool = None  # (creator pid, size, multiprocessing pool), created on first use


def _start_pool(workers: int):
    """The process's persistent fork pool, with at least `workers` workers.

    A pool inherited through fork belongs to the parent and is replaced; a
    smaller pool is terminated and replaced by a larger one.  Each pool is
    terminated at exit, before interpreter teardown would find it running.
    """
    global _pool
    import multiprocessing

    pid = os.getpid()
    if _pool is None or _pool[0] != pid or _pool[1] < workers:
        if _pool is not None and _pool[0] == pid:
            _pool[2].terminate()
        pool = multiprocessing.get_context("fork").Pool(workers)
        atexit.register(pool.terminate)
        _pool = (pid, workers, pool)
    return _pool[2]


def _multistart_minimize(objective, budget: int, seed: int):
    """Shared multi-start Nelder-Mead driver.

    The work schedule is an extendable sequence: every start gets exactly
    _EVALS_PER_START evaluations and a larger budget only appends starts,
    so the best value is non-increasing in budget.  Starts run in the fork
    pool (in-process when _pool_workers gives 1) and are consumed in start
    order, ties going to the lower index, so the result does not depend on
    the worker count.  Returns (best value, the best pair with global
    phases zero, evaluations, evaluations scored +inf, starts).
    """
    if budget < 1000:
        raise ValueError(f"budget must be at least 1000 evaluations, got {budget}")
    n_starts = budget // _EVALS_PER_START
    tasks = [(objective, x0) for x0 in _sobol_starts(n_starts, seed)]
    workers = _pool_workers(n_starts)
    if workers > 1:
        outcomes = _start_pool(workers).imap(_nelder_mead_start, tasks, chunksize=1)
    else:
        outcomes = map(_nelder_mead_start, tasks)
    evaluations = divergent = 0
    best: tuple[float, int, np.ndarray] | None = None
    for idx, (fun, x, nfev, start_divergent) in enumerate(outcomes):
        evaluations += nfev
        divergent += start_divergent
        candidate = (fun, idx, x)
        if best is None or candidate[:2] < best[:2]:
            best = candidate
    assert best is not None
    x = best[2]
    params = (U2Params(0.0, x[0], x[1], x[2]), U2Params(0.0, x[3], x[4], x[5]))
    return best[0], params, evaluations, divergent, n_starts


def minimize_delta_qs_u2(
    omega: float,
    beta: float,
    t_abs: float,
    t_phase: float,
    c: BlochState,
    budget: int = 32000,
    seed: int = 0,
) -> U2MinimizeResult:
    """Minimize the pre-measurement energy difference over two general
    single-qubit unitaries.

    Searches (lam1, gamma1, delta1, lam2, gamma2, delta2) in [0, 2pi)^6
    with global phases fixed to zero (they cancel in every trace).
    Deterministic for fixed (budget, seed).  The reported optimum is
    re-evaluated through the checked generic path before returning.
    """
    value, params, evaluations, divergent, n_starts = _multistart_minimize(
        _delta_qs_objective(omega, beta, t_abs, t_phase, c), budget, seed
    )
    check = activation_report(
        qubit_scenario(omega, beta, t_abs, t_phase, *map(u2_unitary, params), c)
    ).delta_qs
    if abs(check - value) > TOL_ENERGY:
        raise AssertionError(
            f"optimizer value {value!r} disagrees with checked path {check!r} at optimum"
        )
    return U2MinimizeResult(value, params, evaluations, divergent, n_starts, seed)


def minimize_delta_sm_u2(
    omega: float,
    beta: float,
    c: BlochState,
    m: BlochState,
    budget: int = 32000,
    seed: int = 0,
) -> U2MinimizeResult:
    """Minimize the post-measurement energy difference over two general
    single-qubit unitaries.

    Evaluation points whose post-selection probability falls at or below
    TOL_NM are scored +inf and counted in divergent_evaluations rather
    than silently renormalized.  Raises ValueError, before any start runs,
    where no unitary pair can be post-selected (switchcore's
    post_selection_impossible: antipodal polar angles).
    """
    if post_selection_impossible(c, m):
        raise ValueError(
            f"control theta {c.theta!r} and measurement theta {m.theta!r} are antipodal: "
            "the post-selection probability vanishes for every unitary pair"
        )
    value, params, evaluations, divergent, n_starts = _multistart_minimize(
        _delta_sm_objective(omega, beta, c, m), budget, seed
    )
    if math.isinf(value):
        raise RuntimeError(
            "every evaluation point fell in the near-zero post-selection regime"
        )
    check = measure_control(
        qubit_scenario(omega, beta, 0.0, 0.0, *map(u2_unitary, params), c), m
    ).delta_sm
    if abs(check - value) > TOL_ENERGY:
        raise AssertionError(
            f"optimizer value {value!r} disagrees with checked path {check!r} at optimum"
        )
    return U2MinimizeResult(value, params, evaluations, divergent, n_starts, seed)
