"""Controlled-order channel and its energy bookkeeping.

The switch unitary U = U2 U1 (x) |0><0| + U1 U2 (x) |1><1| acts on the
system (x) control ordering.  This module computes the cross-map scalar
chi = tr{U2 U1 rho U2† U1†}, the pre-measurement energy difference with its
system/control split (delta_qs = delta_s + delta_c), the control-state
optimum of delta_c, and the post-measurement state with its decomposition
into delta_12, delta_21 and the interference term delta_f.

Each scenario computes its terms once, on first use, and both reports read
them: the blocks W12 = U2 U1 and W21 = U1 U2, formed by _switch_blocks and
certified as unitaries from the Gram defects U1 and U2 record; the d-space
products R12 = W12 rho W12†, R21 = W21 rho W21† and A12 = W12 rho W21†
(with rho's columns scaled, not multiplied, when rho is diagonal) with the
scalars chi = tr A12, E_S, E12, E21 and F_S = tr{A12 h_s}, and the kernel
record formed from them; rho_c; the joint state E as its four weighted
d x d blocks B_ab = <a|rho_c|b> W_a rho W_b†; and, only when asked for, E
as a checked (2d) x (2d) DensityMatrix (post_switch_state, the only place
the dense expansion is built).  Before the blocks are used, a Freivalds
probe checks them against the conjugation U (rho (x) rho_c) U†, with U
applied through U1 and U2, on k = 16 fixed +-1 columns at O(k d^2) cost;
an entry off by more than TOL_ENERGY escapes it with probability at most
2^-k (see SwitchScenario._joint_out).  The dense U (build_switch_unitary)
and the (2d)^3 conjugation are the oracle of the tests and of `verify`'s
tilde-energy-split check.  Every derived scalar comes from both the blocks
and the d-space scalars, and the routes must agree within TOL_ENERGY at
runtime (each function names its checks).  A disagreement means a bug, so
it raises instead of returning.  Scenarios and wrapper arrays are
immutable, so a cached term never goes stale.

The assembly kernel holds the paper's formulas once.  Every family reduces
to one KernelTerms record per point: chi - 1, delta_12 = E12 - E_S,
delta_21 = E21 - E_S and delta_f = F_S - chi E_S, formed in one function
per family (SwitchScenario._terms on the generic path).  The kernel reads
nothing else that depends on the family: assemble_qs turns the record into
delta_qs and delta_c, and, with the angle factors that measurement_angles
builds once per (control, measurement) pair, assemble_sm gives n_m and the
delta_sm numerator, and activation_conditions conditions (i)-(iii).  Both
take chi - 1, not chi, so a family that forms chi - 1 directly keeps its
digits near chi = 1.  post_selection_vanishes is the one divergence test;
post_selection_impossible applies it to the bound on n_m that holds for
every unitary pair.  The reports check their direct routes against the
kernel; the qubitcase and cvcase forms call it with their own records
(pure_control_weights gives a pure control's weights).

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
    _CertifiedState,
    _DiagonalState,
    _gamma,
    _mat,
    _unitary_product,
    kron,
)
from .states import BlochState

TOL_ENERGY = 1e-8
TOL_NM = 1e-12
_PROBE_COLUMNS = 16
_probe_table = np.empty((0, _PROBE_COLUMNS))


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
        blocks = _switch_blocks(self.u1, self.u2)
        w12, w21 = (w.mat for w in blocks)
        psd_unit = math.inf
        if isinstance(self.rho_s, _DiagonalState):
            # W diag(p) scales W's columns by p, bit for bit the product.
            p = rho.diagonal().real
            w12_rho, w21_rho = w12 * p, w21 * p
            if p.min() >= 0.0:
                psd_unit = _mixture_psd_unit(p, max(w._defect for w in blocks))
        else:
            w12_rho, w21_rho = w12 @ rho, w21 @ rho
        w21_h = w21.conj().T
        r12 = w12_rho @ w12.conj().T
        r21 = w21_rho @ w21_h
        a12 = w12_rho @ w21_h
        x, e_s, f_s = complex(np.trace(a12)), _tr(rho, h_s).real, _tr(a12, h_s)
        e12, e21 = _tr(r12, h_s).real, _tr(r21, h_s).real
        kernel = KernelTerms(x - 1.0, e12 - e_s, e21 - e_s, f_s - x * e_s)
        return _SwitchTerms(r12, r21, a12, x, e_s, e12, e21, f_s, kernel, psd_unit)

    @cached_property
    def _joint_out(self) -> np.ndarray:
        """The joint state E = U (rho (x) rho_c) U† as its four d x d blocks,
        blocks[a, b] = B_ab = <a|rho_c|b> W_a rho W_b† with W_0 = U2 U1 and
        W_1 = U1 U2, probed against the conjugation by the switch unitary.

        Freivalds' check: with X the first 2d rows of the probe table (k =
        _PROBE_COLUMNS columns of +-1), E X must equal U (K (U† X)),
        K = rho (x) rho_c, within TOL_ENERGY in every entry.  Read in the
        system (x) control layout, X has a d x k block X_b per control
        index, and row block a of E X is B_a0 X_0 + B_a1 X_1: each block
        multiplies its own X_b, and E is never formed.  That costs O(k d^2)
        instead of the two (2d)^3 products of the conjugation.  Let
        Delta = E - J with J the conjugation and |Delta_ij| > TOL_ENERGY for
        some entry.  In each column, (Delta X)_i = Delta_ij x_j + S with S
        independent of x_j, and one of S +- Delta_ij has modulus
        >= |Delta_ij|, so the column exposes the entry with probability
        >= 1/2 over the signs and the check misses with probability
        <= 2^-k.  If Delta_ij is the only wrong entry of its row, S = 0 and
        every column catches it.  The probes are fixed, so the check is
        deterministic for a given scenario.

        Neither U nor K is formed.  U† X is U1† (U2† X_0) on control index 0
        and U2† (U1† X_1) on index 1, taken as conj(U^T X) since X is real;
        on the result Y, rho acts on the system index (by scaling rows when
        rho is diagonal) and rho_c on the control index, giving Z; and U Z
        is U2 (U1 Z_0) on index 0 and U1 (U2 Z_1) on index 1.  The probe
        applies the factors one at a time, never the products W12 and W21
        the terms were filled from, so the two routes share no product.
        """
        blocks = _joint_blocks(self)
        blocks.flags.writeable = False
        d = self.rho_s.dim
        u1, u2 = self.u1.mat, self.u2.mat
        # x[b] = X_b, and y[b] = (U† X)_b, then (U Z)_b: U (K (U† X)) in place.
        x = _probes(2 * d).reshape(d, 2, -1).transpose(1, 0, 2).astype(complex, order="C")
        y = np.empty_like(x)
        np.matmul(u1.T, u2.T @ x[0], out=y[0])
        np.matmul(u2.T, u1.T @ x[1], out=y[1])
        np.conjugate(y, out=y)
        if isinstance(self.rho_s, _DiagonalState):
            y *= self.rho_s.mat.diagonal().real[:, None]
        else:
            y = self.rho_s.mat @ y
        z = (self.rho_c.mat @ y.reshape(2, -1)).reshape(y.shape)
        np.matmul(u2, u1 @ z[0], out=y[0])
        np.matmul(u1, u2 @ z[1], out=y[1])
        if np.max(np.abs((blocks @ x).sum(axis=1) - y)) > TOL_ENERGY:
            raise AssertionError("post-switch expansion disagrees with conjugation path")
        return blocks

    @cached_property
    def _post_switch(self) -> DensityMatrix:
        return DensityMatrix(_post_switch_expansion(self))


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
    kernel: KernelTerms
    # Bound on -lambda_min of fl(a R12 + b R21) per unit a + b, for weights
    # a, b >= 0; inf unless rho is a diagonal state with no negative weight.
    psd_unit: float


def _probes(n: int) -> np.ndarray:
    """The first n rows of one read-only, fixed-seed table of +-1 probe
    columns.  The table is redrawn longer when a larger n is asked for;
    the draw is prefix-stable, so a row never changes once drawn."""
    global _probe_table
    if _probe_table.shape[0] < n:
        _probe_table = np.random.default_rng(0).choice([-1.0, 1.0], size=(n, _PROBE_COLUMNS))
        _probe_table.flags.writeable = False
    return _probe_table[:n]


def _mixture_psd_unit(p: np.ndarray, w_defect: float) -> float:
    """Bound on -lambda_min of fl(fl(a R12) + fl(b R21)) per unit a + b,
    for weights a, b >= 0 and R = fl(fl(W * p) @ W†) with p >= 0.

    In exact arithmetic a W12 diag(p) W12† + b W21 diag(p) W21† is positive
    semidefinite for any W, so only round-off can make an eigenvalue
    negative.  With c = 2 gamma_{d+4} (the complex inner product, the
    column scaling, the two weights and the sum), each entry is off by at
    most c (a S12 + b S21)_ij with S = |W| diag(p) |W|^T, and
    ||S||_F <= max p ||W||_F^2 <= max p d (1 + t), t the true Gram defect
    of W.  The Cholesky reads the Hermitian matrix of the lower triangle,
    whose error is at most sqrt 2 times as large in Frobenius norm, and by
    Weyl's inequality that norm bounds how far lambda_min can fall below 0.
    """
    d = p.size
    g = 2.0 * _gamma(d + 2)
    t = (w_defect + g) / (1.0 - g)
    return math.sqrt(2.0) * 2.0 * _gamma(d + 4) * d * float(p.max()) * (1.0 + t)


def _tr(a: np.ndarray, b: np.ndarray) -> complex:
    """tr{a b} as an O(d^2) elementwise sum."""
    return complex(np.einsum("ij,ji->", a, b))


class KernelTerms(NamedTuple):
    """The four d-space numbers of one point that the kernel reads; each
    family forms them in one function.  The U(2) objectives hand the kernel
    the same four numbers as a plain tuple, which costs no record."""

    chi_m1: complex  # chi - 1
    d12: float  # delta_12 = E12 - E_S
    d21: float  # delta_21 = E21 - E_S
    df: complex  # delta_f = F_S - chi E_S


class MeasurementAngles(NamedTuple):
    """Angle factors of one (control, measurement) pair, psi = phi_m - phi_c;
    build it once per pair with measurement_angles."""

    cc: float  # cos^2(theta_c/2) cos^2(theta_m/2)
    ss: float  # sin^2(theta_c/2) sin^2(theta_m/2)
    overlap: float  # |<m|c>|^2 = cc + ss + half_sin_cm cos(psi), n_m at chi = 1
    half_sin_cm: float  # 0.5 sin(theta_c) sin(theta_m)
    e_psi: complex
    # Condition (i), decided from the angles: math.sin(math.pi) is 1.2e-16,
    # not 0, so the sines cannot tell a south pole from a point off it.
    off_poles: bool


def measurement_angles(c: BlochState, m: BlochState) -> MeasurementAngles:
    cc = math.cos(c.theta / 2.0) ** 2 * math.cos(m.theta / 2.0) ** 2
    ss = math.sin(c.theta / 2.0) ** 2 * math.sin(m.theta / 2.0) ** 2
    half_sin_cm = 0.5 * math.sin(c.theta) * math.sin(m.theta)
    e_psi = cmath.exp(1j * (m.phi - c.phi))  # (cos psi, sin psi), bit for bit
    off_poles = 0.0 < c.theta < math.pi and 0.0 < m.theta < math.pi
    overlap = cc + ss + half_sin_cm * e_psi.real
    return MeasurementAngles(cc, ss, overlap, half_sin_cm, e_psi, off_poles)


def assemble_sm(a: MeasurementAngles, terms: KernelTerms) -> tuple[float, float]:
    """(n_m, bracket) with delta_sm = bracket / n_m:

    n_m     = |<m|c>|^2 + (1/2) sin tc sin tm Re{(chi - 1) e^{i psi}}
    bracket = cos^2(tc/2) cos^2(tm/2) delta_12 + sin^2(tc/2) sin^2(tm/2) delta_21
              + (1/2) sin tc sin tm Re{delta_f e^{i psi}}

    The caller checks post_selection_vanishes(n_m) before it divides.
    """
    chi_m1, d12, d21, df = terms
    n_m = a.overlap + a.half_sin_cm * (chi_m1 * a.e_psi).real
    return n_m, a.cc * d12 + a.ss * d21 + a.half_sin_cm * (df * a.e_psi).real


def activation_conditions(
    a: MeasurementAngles, df: complex
) -> tuple[tuple[bool, bool, bool], float]:
    """Conditions (i)-(iii) of MeasurementReport and condition_ii_lhs.

    (iii) is False wherever (i) is, since sin(theta) is exactly 0 at a pole.
    """
    lhs = df.imag * a.e_psi.imag - df.real * a.e_psi.real
    cond_iii = a.off_poles and a.half_sin_cm * (df * a.e_psi).real < 0.0
    return (a.off_poles, abs(lhs) > 0.0, cond_iii), lhs


def pure_control_weights(c: BlochState, t_abs: float, t_phase: float):
    """(rc00, rc11, k) of assemble_qs for a pure control c and h_c = [[0, t], [t*, w]]:
    cos^2(tc/2), sin^2(tc/2) and (1/2) sin(tc) e^{-i pc} |t| e^{-i t_phase}."""
    rc01 = 0.5 * math.sin(c.theta) * cmath.exp(-1j * c.phi)
    rc00, rc11 = math.cos(c.theta / 2.0) ** 2, math.sin(c.theta / 2.0) ** 2
    return rc00, rc11, rc01 * (t_abs * cmath.exp(-1j * t_phase))


def assemble_qs(rc00: float, rc11: float, k: complex, terms: KernelTerms) -> tuple[float, float]:
    """(delta_qs, delta_c) before measurement, k = <0|rho_c|1> <1|h_c|0>:

    delta_c  = 2 Re{k (chi - 1)}
    delta_qs = rc00 delta_12 + rc11 delta_21 + delta_c

    Exact for any 2x2 control state and h_c: tr rho_c = 1 cancels E_S and
    the diagonal of h_c.  delta_f is not read.
    """
    chi_m1, d12, d21, _ = terms
    delta_c = 2.0 * (k * chi_m1).real
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


def _switch_blocks(
    u1: UnitaryOperator, u2: UnitaryOperator
) -> tuple[UnitaryOperator, UnitaryOperator]:
    """W12 = U2 U1 and W21 = U1 U2, each a UnitaryOperator whose Gram defect
    is bounded from the factors' recorded defects (qmat._unitary_product;
    a factor with none, or a bound past TOL_UNITARY, gets the full check):
    the one place either product is formed."""
    if u1.dim != u2.dim:
        raise ValueError("unitaries must share a dimension")
    return _unitary_product(u2, u1), _unitary_product(u1, u2)


def build_switch_unitary(u1: UnitaryOperator, u2: UnitaryOperator) -> UnitaryOperator:
    """The dense switch unitary kron(U2U1, |0><0|) + kron(U1U2, |1><1|),
    validated as a whole.

    The oracle's construction: the reports apply U through its factors
    (see SwitchScenario._joint_out) and never build this 2d x 2d matrix.
    """
    w12, w21 = _switch_blocks(u1, u2)
    return UnitaryOperator(kron(w12, np.diag([1.0, 0.0])) + kron(w21, np.diag([0.0, 1.0])))


def chi(u1, u2, rho_s) -> complex:
    """Cross-map scalar tr{U2 U1 rho U2† U1†}; |chi| <= 1, and exactly 1
    when the unitaries commute."""
    m_u1, m_u2 = _mat(u1), _mat(u2)
    return _tr(m_u2 @ m_u1 @ _mat(rho_s), (m_u1 @ m_u2).conj().T)


def post_switch_state(s: SwitchScenario) -> DensityMatrix:
    """Joint state after the controlled-order channel, as a DensityMatrix.

    The matrix is the dense expansion of the four blocks, which a Freivalds
    probe has checked against the conjugation by the switch unitary,
    applied through its factors (see SwitchScenario._joint_out).  Built and
    validated lazily, once per scenario: the reports read the blocks and
    never build this (2d) x (2d) state.
    """
    return s._post_switch


def _joint_blocks(s: SwitchScenario) -> np.ndarray:
    """The four d x d blocks of the post-switch joint state, blocks[a, b] =
    <a|rho_c|b> W_a rho W_b† with W_0 = U2 U1, W_1 = U1 U2, filled from
    the d-space terms."""
    rc = s.rho_c.mat
    t = s._terms
    d = s.rho_s.dim
    blocks = np.empty((2, 2, d, d), dtype=complex)
    np.multiply(rc[0, 0], t.r12, out=blocks[0, 0])
    np.multiply(rc[0, 1], t.a12, out=blocks[0, 1])
    blocks[1, 0] = t.a12.T
    np.conjugate(blocks[1, 0], out=blocks[1, 0])
    np.multiply(rc[1, 0], blocks[1, 0], out=blocks[1, 0])
    np.multiply(rc[1, 1], t.r21, out=blocks[1, 1])
    return blocks


def _post_switch_expansion(s: SwitchScenario) -> np.ndarray:
    """The probe-checked blocks laid out as one (2d) x (2d) matrix,
    <i a| out |j b> = blocks[a, b][i, j], the kron(system, control) layout:
    the oracle's form, built only by post_switch_state."""
    d = s.rho_s.dim
    return s._joint_out.transpose(2, 0, 3, 1).reshape(2 * d, 2 * d)


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

    Route (a): delta_qs from the probe-checked blocks of the joint state
    (see _joint_energy), and the mixed-state split delta_qs = delta_s +
    delta_c of the tilde states.
    Route (b): the kernel assemble_qs on the d-space terms.  The routes
    must agree within TOL_ENERGY on delta_qs, on the split's sum and on
    delta_c.
    """
    rho_c = s.rho_c.mat
    h_c = s.h_c.mat
    t = s._terms
    e_s, x = t.e_s, t.chi
    e_c = _tr(rho_c, h_c).real

    e_out_direct = _joint_energy(s._joint_out, s.h_s.mat, h_c)
    delta_qs = e_out_direct - (e_s + e_c)
    rc00, rc11 = float(rho_c[0, 0].real), float(rho_c[1, 1].real)
    k = complex(rho_c[0, 1] * h_c[1, 0])
    qs_scalar, delta_c_closed = assemble_qs(rc00, rc11, k, t.kernel)
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
        e12=t.e12,
        e21=t.e21,
        delta_qs=delta_qs,
        delta_s=delta_s,
        delta_c=delta_c,
        delta_c_min=delta_c_min(s.h_c, x).attained,
        tilde_rho_s=tilde_s,
        tilde_rho_c=tilde_c,
    )


def _joint_energy(blocks: np.ndarray, h_s: np.ndarray, h_c: np.ndarray) -> float:
    """tr{E H_SC} with H_SC = h_s (x) 1 + 1 (x) h_c, read from E's blocks:
    sum_a tr{B_aa h_s} + sum_ab h_c[b, a] tr B_ab."""
    traces = blocks.trace(axis1=2, axis2=3)
    return (_tr(blocks[0, 0], h_s) + _tr(blocks[1, 1], h_s) + (h_c.T * traces).sum()).real


def _tilde_states(s: SwitchScenario, x: complex) -> tuple[DensityMatrix, DensityMatrix]:
    """Dephasing mixtures whose local energies sum to the post-switch energy.

    tilde_rho_s = rc00 U2U1 rho U1†U2† + rc11 U1U2 rho U2†U1†;
    tilde_rho_c mixes diag(1, ±e^{-i arg chi}) conjugations with convex
    weights (1 ± |chi|)/2, which leaves the diagonal alone and rescales the
    coherence by chi.
    """
    rho_c = s.rho_c.mat
    t = s._terms
    rc00, rc11 = np.real(rho_c[0, 0]), np.real(rho_c[1, 1])
    tilde_s = rc00 * t.r12 + rc11 * t.r21
    # Positivity is proved, not factored, for a diagonal rho (see
    # _mixture_psd_unit); a negative weight sends tilde_s to the Cholesky.
    psd_bound = (rc00 + rc11) * t.psd_unit if min(rc00, rc11) >= 0.0 else math.inf

    phi = cmath.phase(x) if x != 0 else 0.0
    mag = abs(x)
    u_plus = np.diag([1.0, cmath.exp(-1j * phi)])
    u_minus = np.diag([1.0, -cmath.exp(-1j * phi)])
    tilde_c = 0.5 * (1.0 + mag) * (u_plus @ rho_c @ u_plus.conj().T)
    tilde_c += 0.5 * (1.0 - mag) * (u_minus @ rho_c @ u_minus.conj().T)
    return _CertifiedState(tilde_s, float(psd_bound)), DensityMatrix(tilde_c)


def measure_control(s: SwitchScenario, m: BlochState) -> MeasurementReport:
    """Project the control onto |m>, renormalize, and decompose the system
    energy change.

    Requires a pure control.  Raises NearZeroPostSelectionError when the
    outcome probability is at or below TOL_NM.  The projected state is
    computed both by direct projection of the probe-checked joint state,
    sum_ab conj(m_a) m_b B_ab over its blocks, and by the angle factors on
    the d-space terms; the two must agree, and so
    must n_m and delta_sm with the kernel assemble_sm on the scenario's
    KernelTerms, whose delta_12, delta_21 and delta_f the report carries.
    """
    if not isinstance(s.control, BlochState):
        raise ValueError("measure_control requires a pure (BlochState) control")
    t = s._terms

    # Direct path: <m| . |m> on the control index of the joint state's blocks.
    ket_m = m.to_ket()
    numerator = np.tensordot(np.outer(ket_m.conj(), ket_m), s._joint_out, 2)
    n_m_direct = float(np.real(np.trace(numerator)))

    # Expansion path: the kernel's angle factors on the d-space blocks.
    a = measurement_angles(s.control, m)
    coh = 0.5 * a.half_sin_cm * a.e_psi
    numerator_exp = a.cc * t.r12 + a.ss * t.r21 + coh * t.a12 + coh.conjugate() * t.a12.conj().T
    n_m_closed, bracket = assemble_sm(a, t.kernel)
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
    conditions, cond_ii_lhs = activation_conditions(a, t.kernel.df)

    return MeasurementReport(
        n_m=n_m_direct,
        rho_sm=rho_sm,
        e_sm=e_sm,
        delta_12=t.kernel.d12,
        delta_21=t.kernel.d21,
        delta_f=t.kernel.df,
        delta_sm=delta_sm_direct,
        conditions=conditions,
        condition_ii_lhs=cond_ii_lhs,
    )
