"""Controlled-order channel and its energy bookkeeping.

Builds the switch unitary U = U2 U1 (x) |0><0| + U1 U2 (x) |1><1| on the
system (x) control ordering, computes the cross-map scalar
chi = tr{U2 U1 rho U2† U1†}, the pre-measurement energy difference with its
system/control split (delta_qs = delta_s + delta_c), the control-state
optimum of delta_c, and the post-measurement state with its decomposition
into delta_12, delta_21 and the interference term delta_f.

Each scenario computes its terms once, on first use, and both reports read
them: the d-space blocks R12 = W12 rho W12†, R21 = W21 rho W21† and
A12 = W12 rho W21† (W12 = U2 U1, W21 = U1 U2) with the scalars chi = tr A12,
E_S, E12, E21 and F_S = tr{A12 h_s}; rho_c; the joint state conjugated by the
validated switch unitary; and, only when asked for, the checked post-switch
DensityMatrix.  Every derived scalar comes from both the joint state and the
d-space terms, and the routes must agree within TOL_ENERGY at runtime (each
function names its checks).  A disagreement means a bug, so it raises
instead of returning.  Scenarios and wrapper arrays are immutable, so a
cached term never goes stale.

The assembly kernel holds the paper's formulas once.  Every family reduces
to chi, delta_12 = E12 - E_S, delta_21 = E21 - E_S and delta_f = F_S - chi E_S;
assemble_qs turns them into delta_qs and delta_c, and, with the angle
factors that measurement_angles builds once per (control, measurement)
pair, assemble_sm gives n_m and the delta_sm numerator, and
activation_conditions conditions (i)-(iii).  post_selection_vanishes is the
one divergence test; post_selection_impossible applies it to the bound on
n_m that holds for every unitary pair.  The reports check their direct
routes against the kernel; the qubitcase and cvcase forms call it with
their own numbers.

Subsystem ordering is system (x) control everywhere.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .qmat import (
    DensityMatrix,
    HermitianOperator,
    UnitaryOperator,
    _direct_sum_unitary,
    _mat,
    kron,
)
from .states import BlochState

TOL_ENERGY = 1e-8
TOL_NM = 1e-12


class NearZeroPostSelectionError(RuntimeError):
    """Post-selection probability at or below TOL_NM: the renormalized state
    is numerically meaningless (the denominator vanishes faster than the
    numerator in this regime), so the caller gets the regime flag instead
    of a junk state."""

    def __init__(self, n_m: float):
        super().__init__(f"post-selection probability {n_m:.3e} <= {TOL_NM:.0e}")
        self.n_m = n_m


@dataclass(frozen=True)
class SwitchScenario:
    """One experiment: system state, control state, the two unitaries, and
    the local Hamiltonians.  Control may be a BlochState (pure) or a general
    2x2 DensityMatrix (pre-measurement paths only)."""

    rho_s: DensityMatrix
    control: BlochState | DensityMatrix
    u1: UnitaryOperator
    u2: UnitaryOperator
    h_s: HermitianOperator
    h_c: HermitianOperator

    def __post_init__(self) -> None:
        d = self.rho_s.dim
        if not (self.u1.dim == self.u2.dim == self.h_s.dim == d):
            raise ValueError("system-side dimensions disagree")
        if self.h_c.dim != 2:
            raise ValueError("control Hamiltonian must be 2x2")
        if isinstance(self.control, DensityMatrix) and self.control.dim != 2:
            raise ValueError("control state must be 2x2")

    @cached_property
    def rho_c(self) -> DensityMatrix:
        if isinstance(self.control, BlochState):
            return self.control.to_density()
        return self.control

    @cached_property
    def _terms(self) -> _SwitchTerms:
        rho, h_s = self.rho_s.mat, self.h_s.mat
        w12 = self.u2.mat @ self.u1.mat
        w21 = self.u1.mat @ self.u2.mat
        w12_rho = w12 @ rho
        r12 = w12_rho @ w12.conj().T
        r21 = w21 @ rho @ w21.conj().T
        a12 = w12_rho @ w21.conj().T
        return _SwitchTerms(
            r12=r12, r21=r21, a12=a12, chi=complex(np.trace(a12)), e_s=_tr(rho, h_s).real,
            e12=_tr(r12, h_s).real, e21=_tr(r21, h_s).real, f_s=_tr(a12, h_s),
        )

    @cached_property
    def _joint_out(self) -> np.ndarray:
        """U (rho (x) rho_c) U† by conjugation with the switch unitary."""
        u_qs = build_switch_unitary(self.u1, self.u2).mat
        return u_qs @ kron(self.rho_s, self.rho_c) @ u_qs.conj().T

    @cached_property
    def _post_switch(self) -> DensityMatrix:
        out = self._joint_out
        if np.max(np.abs(out - _post_switch_expansion(self))) > TOL_ENERGY:
            raise AssertionError("post-switch expansion disagrees with conjugation path")
        return DensityMatrix(out)


@dataclass(frozen=True)
class _SwitchTerms:
    """The d-space terms of one scenario (see the module docstring)."""

    r12: np.ndarray
    r21: np.ndarray
    a12: np.ndarray
    chi: complex
    e_s: float
    e12: float
    e21: float
    f_s: complex


def _tr(a: np.ndarray, b: np.ndarray) -> complex:
    """tr{a b} as an O(d^2) elementwise sum."""
    return complex(np.einsum("ij,ji->", a, b))


class MeasurementAngles(NamedTuple):
    """Angle factors of one (control, measurement) pair, psi = phi_m - phi_c;
    build it once per pair with measurement_angles."""

    cc: float  # cos^2(theta_c/2) cos^2(theta_m/2)
    ss: float  # sin^2(theta_c/2) sin^2(theta_m/2)
    cos_cm: float  # cos(theta_c) cos(theta_m)
    sin_cm: float  # sin(theta_c) sin(theta_m)
    half_sin_cm: float  # 0.5 sin(theta_c) sin(theta_m)
    psi: float
    e_psi: complex
    # Condition (i), decided from the angles: math.sin(math.pi) is 1.2e-16,
    # not 0, so the sines cannot tell a south pole from a point off it.
    off_poles: bool


def measurement_angles(c: BlochState, m: BlochState) -> MeasurementAngles:
    sin_c, sin_m = math.sin(c.theta), math.sin(m.theta)
    psi = m.phi - c.phi
    return MeasurementAngles(
        math.cos(c.theta / 2.0) ** 2 * math.cos(m.theta / 2.0) ** 2,
        math.sin(c.theta / 2.0) ** 2 * math.sin(m.theta / 2.0) ** 2,
        math.cos(c.theta) * math.cos(m.theta),
        sin_c * sin_m,
        0.5 * sin_c * sin_m,
        psi,
        cmath.exp(1j * psi),
        0.0 < c.theta < math.pi and 0.0 < m.theta < math.pi,
    )


def assemble_nm(a: MeasurementAngles, chi_value: complex) -> float:
    """n_m = (1 + cos tc cos tm + sin tc sin tm Re{chi e^{i psi}}) / 2."""
    return 0.5 * (1.0 + a.cos_cm + a.sin_cm * (chi_value * a.e_psi).real)


def assemble_sm(
    a: MeasurementAngles, chi_value: complex, d12: float, d21: float, df: complex
) -> tuple[float, float]:
    """(n_m, bracket) with delta_sm = bracket / n_m:

    bracket = cos^2(tc/2) cos^2(tm/2) delta_12 + sin^2(tc/2) sin^2(tm/2) delta_21
              + (1/2) sin tc sin tm Re{delta_f e^{i psi}}

    The caller checks post_selection_vanishes(n_m) before it divides.
    """
    bracket = a.cc * d12 + a.ss * d21 + a.half_sin_cm * (df * a.e_psi).real
    return assemble_nm(a, chi_value), bracket


def activation_conditions(
    a: MeasurementAngles, df: complex
) -> tuple[tuple[bool, bool, bool], float]:
    """Conditions (i)-(iii) of MeasurementReport and condition_ii_lhs.

    (iii) is False wherever (i) is, since sin(theta) is exactly 0 at a pole.
    """
    lhs = df.imag * math.sin(a.psi) - df.real * math.cos(a.psi)
    cond_iii = a.off_poles and a.sin_cm * (df * a.e_psi).real < 0.0
    return (a.off_poles, abs(lhs) > 0.0, cond_iii), lhs


def assemble_qs(
    rc00: float, rc11: float, k: complex, chi_value: complex, d12: float, d21: float
) -> tuple[float, float]:
    """(delta_qs, delta_c) before measurement, k = <0|rho_c|1> <1|h_c|0>:

    delta_c  = 2 Re{k (chi - 1)}
    delta_qs = rc00 delta_12 + rc11 delta_21 + delta_c

    Exact for any 2x2 control state and h_c: tr rho_c = 1 cancels E_S and
    the diagonal of h_c.
    """
    delta_c = 2.0 * (k * (chi_value - 1.0)).real
    return rc00 * d12 + rc11 * d21 + delta_c, delta_c


def post_selection_vanishes(n_m: float) -> bool:
    """n_m at or below TOL_NM: no post-selected state is renormalized there."""
    return n_m <= TOL_NM


def post_selection_impossible(c: BlochState, m: BlochState) -> bool:
    """post_selection_vanishes for every unitary pair: |chi| <= 1 bounds n_m
    by (1 + cos(theta_c - theta_m)) / 2, which is 0 for antipodal polar
    angles of the control and the measurement."""
    return post_selection_vanishes(0.5 * (1.0 + math.cos(c.theta - m.theta)))


@dataclass(frozen=True)
class ActivationReport:
    """All pre-measurement scalars for one scenario.

    delta_qs = delta_s + delta_c (identity holds exactly up to round-off);
    delta_c_min is the attainable minimum of delta_c over control states
    holding (h_c, chi) fixed.
    """

    chi: complex
    e_s: float
    e_c: float
    e12: float
    e21: float
    delta_qs: float
    delta_s: float
    delta_c: float
    delta_c_min: float
    tilde_rho_s: DensityMatrix
    tilde_rho_c: DensityMatrix


@dataclass(frozen=True)
class MeasurementReport:
    """Post-measurement scalars for one scenario + projector direction.

    conditions = (i, ii, iii): the three necessary-but-not-sufficient
    requirements for delta_sm < 0 —
      (i)   neither the control nor the measurement points at a pole;
      (ii)  the interference term is non-zero:  Im{delta_f} sin(psi)
            - Re{delta_f} cos(psi) != 0 with psi = phi_m - phi_c, recorded
            raw in condition_ii_lhs (this is -Re{delta_f e^{i psi}});
      (iii) sin(theta_c) sin(theta_m) Re{delta_f e^{i psi}} < 0.
    """

    n_m: float
    rho_sm: DensityMatrix
    e_sm: float
    delta_12: float
    delta_21: float
    delta_f: complex
    delta_sm: float
    conditions: tuple[bool, bool, bool]
    condition_ii_lhs: float


def build_switch_unitary(u1: UnitaryOperator, u2: UnitaryOperator) -> UnitaryOperator:
    """U2 U1 on the control-|0> block, U1 U2 on the control-|1> block.

    The result equals kron(U2U1, |0><0|) + kron(U1U2, |1><1|) entry for
    entry.  W12 = U2U1 and W21 = U1U2 are each validated as unitaries; the
    joint matrix is block diagonal, so its U†U defect is the larger block
    defect and is not computed again on the 2d x 2d matrix.
    """
    if u1.dim != u2.dim:
        raise ValueError("unitaries must share a dimension")
    return _direct_sum_unitary(u2.mat @ u1.mat, u1.mat @ u2.mat)


def chi(u1, u2, rho_s) -> complex:
    """Cross-map scalar tr{U2 U1 rho U2† U1†}; |chi| <= 1, and exactly 1
    when the unitaries commute."""
    m_u1, m_u2 = _mat(u1), _mat(u2)
    return _tr(m_u2 @ m_u1 @ _mat(rho_s), (m_u1 @ m_u2).conj().T)


def post_switch_state(s: SwitchScenario) -> DensityMatrix:
    """Joint state after the controlled-order channel.

    Generic path: conjugation by the switch unitary.  The four-term block
    expansion is evaluated as a cross-check and must agree term-for-term.
    Computed once per scenario.
    """
    return s._post_switch


def _post_switch_expansion(s: SwitchScenario) -> np.ndarray:
    """Four-term block form of the post-switch joint state: block (a, b)
    is <a|rho_c|b> W_a rho W_b† with W_0 = U2 U1, W_1 = U1 U2."""
    rc = s.rho_c.mat
    t = s._terms
    d = s.rho_s.dim
    # blocks[i, a, j, b] = <i a| out |j b>, the kron(system, control) layout.
    blocks = np.empty((d, 2, d, 2), dtype=complex)
    blocks[:, 0, :, 0] = rc[0, 0] * t.r12
    blocks[:, 0, :, 1] = rc[0, 1] * t.a12
    blocks[:, 1, :, 0] = rc[1, 0] * t.a12.conj().T
    blocks[:, 1, :, 1] = rc[1, 1] * t.r21
    return blocks.reshape(2 * d, 2 * d)


def delta_c_min(h_c: HermitianOperator, chi_value: complex):
    """Control-state optimum of delta_c at fixed (h_c, chi).

    delta_c = 2 Re{<0|rho_c|1> K} with K = <1|h_c|0> (chi - 1).  A qubit
    coherence is bounded by |<0|rho_c|1>| <= 1/2, so the attainable minimum
    over states is -|K|, reached by theta_c = pi/2 and the coherence phased
    against K.  The tabulated closed-form prefactor sqrt(2) corresponds to a
    coherence of modulus 1/sqrt(2), which no qubit state attains; both
    values are returned so callers can compare.

    Returns a DeltaCMinResult with the tabulated scalar, the attainable
    minimum, and the optimizing BlochState.
    """
    if h_c.dim != 2:
        raise ValueError("delta_c_min needs a 2x2 control Hamiltonian")
    k = complex(h_c.mat[1, 0]) * (chi_value - 1.0)
    tabulated = -math.sqrt(2.0) * abs(k)
    attained = -abs(k)
    if abs(k) == 0.0:
        optimizer = BlochState(math.pi / 2.0, 0.0)
    else:
        # <0|rho|1> = e^{-i phi_c}/2 must equal -e^{-i arg K}/2.
        phi_c = (cmath.phase(k) + math.pi) % (2.0 * math.pi)
        optimizer = BlochState(math.pi / 2.0, phi_c)
    return DeltaCMinResult(tabulated, attained, optimizer)


@dataclass(frozen=True)
class DeltaCMinResult:
    tabulated: float
    attained: float
    optimizer: BlochState

    def delta_c_at_optimizer(self, h_c: HermitianOperator, chi_value: complex) -> float:
        coh = 0.5 * math.sin(self.optimizer.theta) * cmath.exp(-1j * self.optimizer.phi)
        k = complex(h_c.mat[1, 0]) * (chi_value - 1.0)
        return 2.0 * (coh * k).real


def activation_report(s: SwitchScenario) -> ActivationReport:
    """Pre-measurement energy bookkeeping with built-in cross-checks.

    Route (a): delta_qs from the 2d-dim conjugated joint state, and the
    mixed-state split delta_qs = delta_s + delta_c of the tilde states.
    Route (b): the kernel assemble_qs on the d-space terms.  The routes
    must agree within TOL_ENERGY on delta_qs, on the split's sum and on
    delta_c.
    """
    rho_c = s.rho_c.mat
    h_c = s.h_c.mat
    t = s._terms
    e_s, e12, e21, x = t.e_s, t.e12, t.e21, t.chi
    e_c = _tr(rho_c, h_c).real

    e_out_direct = _tr(s._joint_out, _joint_hamiltonian(s.h_s.mat, h_c)).real
    delta_qs = e_out_direct - (e_s + e_c)
    rc00, rc11 = float(rho_c[0, 0].real), float(rho_c[1, 1].real)
    k = complex(rho_c[0, 1] * h_c[1, 0])
    qs_scalar, delta_c_closed = assemble_qs(rc00, rc11, k, x, e12 - e_s, e21 - e_s)
    if abs(delta_qs - qs_scalar) > TOL_ENERGY:
        raise AssertionError(f"energy routes disagree: direct {delta_qs!r} vs scalar {qs_scalar!r}")

    tilde_s, tilde_c = _tilde_states(s, x)
    e_tilde_s = _tr(tilde_s.mat, s.h_s.mat).real
    e_tilde_c = _tr(tilde_c.mat, h_c).real
    if abs(e_tilde_s + e_tilde_c - e_out_direct) > TOL_ENERGY:
        raise AssertionError("mixed-state split disagrees with the direct route")

    delta_s = e_tilde_s - e_s
    delta_c = e_tilde_c - e_c
    if abs(delta_c - delta_c_closed) > TOL_ENERGY:
        raise AssertionError("delta_c closed form disagrees with the tilde route")

    return ActivationReport(
        chi=x,
        e_s=e_s,
        e_c=e_c,
        e12=e12,
        e21=e21,
        delta_qs=delta_qs,
        delta_s=delta_s,
        delta_c=delta_c,
        delta_c_min=delta_c_min(s.h_c, x).attained,
        tilde_rho_s=tilde_s,
        tilde_rho_c=tilde_c,
    )


def _joint_hamiltonian(h_s: np.ndarray, h_c: np.ndarray) -> np.ndarray:
    """H_SC = h_s (x) 1 + 1 (x) h_c, equal entry for entry to the kron sum.

    h_s fills both control-diagonal blocks, h_c the 2x2 control block of
    each system level; the entries they share, h_s[i, i] + h_c[a, a], are
    summed in the kron sum's order.
    """
    d = h_s.shape[0]
    h_sc = np.zeros((2 * d, 2 * d), dtype=complex)
    blocks = h_sc.reshape(d, 2, d, 2)
    blocks[:, 0, :, 0] = h_s
    blocks[:, 1, :, 1] = h_s
    level = np.arange(d)
    blocks[level, :, level, :] += h_c
    return h_sc


def _tilde_states(s: SwitchScenario, x: complex) -> tuple[DensityMatrix, DensityMatrix]:
    """Dephasing mixtures whose local energies sum to the post-switch energy.

    tilde_rho_s = rc00 U2U1 rho U1†U2† + rc11 U1U2 rho U2†U1†;
    tilde_rho_c mixes diag(1, ±e^{-i arg chi}) conjugations with convex
    weights (1 ± |chi|)/2, which leaves the diagonal alone and rescales the
    coherence by chi.
    """
    rho_c = s.rho_c.mat
    t = s._terms
    tilde_s = np.real(rho_c[0, 0]) * t.r12 + np.real(rho_c[1, 1]) * t.r21

    phi = cmath.phase(x) if x != 0 else 0.0
    mag = abs(x)
    u_plus = np.diag([1.0, cmath.exp(-1j * phi)])
    u_minus = np.diag([1.0, -cmath.exp(-1j * phi)])
    tilde_c = 0.5 * (1.0 + mag) * (u_plus @ rho_c @ u_plus.conj().T)
    tilde_c += 0.5 * (1.0 - mag) * (u_minus @ rho_c @ u_minus.conj().T)
    return DensityMatrix(tilde_s), DensityMatrix(tilde_c)


def measure_control(s: SwitchScenario, m: BlochState) -> MeasurementReport:
    """Project the control onto |m>, renormalize, and decompose the system
    energy change.

    Requires a pure control.  Raises NearZeroPostSelectionError when the
    outcome probability is at or below TOL_NM.  The projected state is
    computed both by direct projection of the joint state and by the
    four-term expansion; the two must agree, and so must n_m and delta_sm
    with the kernel assemble_sm on delta_f = F_S - chi E_S,
    F_S = tr{U2 U1 rho U2† U1† h_s}.
    """
    if not isinstance(s.control, BlochState):
        raise ValueError("measure_control requires a pure (BlochState) control")
    d = s.rho_s.dim
    t = s._terms

    # Direct path: <m| . |m> on each 2x2 control block of the joint state.
    joint_out = post_switch_state(s).mat.reshape(d, 2, d, 2)
    ket_m = m.to_ket()
    numerator = np.einsum("k,ikjl,l->ij", ket_m.conj(), joint_out, ket_m)
    n_m_direct = float(np.real(np.trace(numerator)))

    # Expansion path: the kernel's angle factors on the d-space blocks.
    a = measurement_angles(s.control, m)
    coh = 0.5 * a.half_sin_cm * a.e_psi
    numerator_exp = a.cc * t.r12 + a.ss * t.r21 + coh * t.a12 + coh.conjugate() * t.a12.conj().T
    delta_12, delta_21 = t.e12 - t.e_s, t.e21 - t.e_s
    delta_f = t.f_s - t.chi * t.e_s
    n_m_closed, bracket = assemble_sm(a, t.chi, delta_12, delta_21, delta_f)
    if np.max(np.abs(numerator - numerator_exp)) > TOL_ENERGY:
        raise AssertionError("projection and expansion numerators disagree")
    if abs(n_m_direct - n_m_closed) > TOL_ENERGY:
        raise AssertionError("post-selection probability routes disagree")

    if post_selection_vanishes(n_m_direct):
        raise NearZeroPostSelectionError(n_m_direct)

    rho_sm = DensityMatrix(numerator / n_m_direct)
    e_sm = _tr(rho_sm.mat, s.h_s.mat).real
    delta_sm_direct = e_sm - t.e_s
    if abs(bracket / n_m_direct - delta_sm_direct) > TOL_ENERGY:
        raise AssertionError("post-measurement energy routes disagree")
    conditions, cond_ii_lhs = activation_conditions(a, delta_f)

    return MeasurementReport(
        n_m=n_m_direct,
        rho_sm=rho_sm,
        e_sm=e_sm,
        delta_12=delta_12,
        delta_21=delta_21,
        delta_f=delta_f,
        delta_sm=delta_sm_direct,
        conditions=conditions,
        condition_ii_lhs=cond_ii_lhs,
    )
