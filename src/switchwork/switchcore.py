"""Controlled-order channel and its energy bookkeeping.

The switch unitary U = U2 U1 (x) |0><0| + U1 U2 (x) |1><1| acts on the
system (x) control ordering.  This module computes the cross-map scalar
chi = tr{U2 U1 rho U2† U1†}, the pre-measurement energy difference with its
system/control split (delta_qs = delta_s + delta_c), the control-state
optimum of delta_c, and the post-measurement state with its decomposition
into delta_12, delta_21 and the interference term delta_f.

Each scenario computes its terms once, on first use, and both reports read
them: the d-space blocks R12 = W12 rho W12†, R21 = W21 rho W21† and
A12 = W12 rho W21† of the switch blocks W12 = U2 U1 and W21 = U1 U2, with
the scalars chi = tr A12, E_S, E12, E21 and F_S = tr{A12 h_s}, and the
kernel record formed from them; and rho_c.  The terms have one form
(SwitchScenario._terms): rho = B diag(p) B†, B = I for a diagonal rho and
rho's eigenvectors from one eigh otherwise, and only the columns
W12 B[:, S] and W21 B[:, S] on p's working-precision support S are formed
(about 40 of 173 levels at beta omega = 1), by _switch_blocks through the
factors' own products (a Fock operator applies its real core) with a Gram
defect bounded from the defects the factors record.  The terms are kept
as those d x |S| columns with their weights, T_ab = W_a diag(p) W_b†:
the scalars are O(d |S|) sums against a diagonal h_s, and no d x d term
is formed.  The terms record answers two questions (_SwitchTerms):
mix(w) = sum_ab w_ab T_ab, one product of inner length 2|S|, which gives
tilde_rho_s and the post-selected numerator, and the probe products
T_ab X.  The dense R12, R21 and A12 are formed only for post_switch_state.
The columns also give mix(w)'s diagonal in O(d |S|) (_SwitchTerms.diagonal),
and the reports settle tilde_rho_s and rho_sm on it, n_m included: each
is returned as a _DeferredState whose Hermiticity is proved and whose
trace is checked on that diagonal, and whose matrix is formed only when a
caller reads it (_derived_state); its energy against a diagonal h_s is
read there too.
The joint state E = U (rho (x) rho_c) U† has the blocks <a|rho_c|b> T_ab,
T_00 = R12, T_01 = A12, T_11 = R21, and the reports read E only through
these terms and rho_c.  Before a term is used, a Freivalds probe checks
R12, A12 and R21 against the conjugation, with U applied to the full rho
through U1 and U2, on k = 16 fixed +-1 columns at O(k d^2) cost (see
SwitchScenario._joint_out).  The rho_c weights are checked by the
reports' route cross-checks: every derived scalar comes from both the
weighted blocks and the kernel on the d-space scalars, and the routes must
agree within TOL_ENERGY (each function names its checks); the two
post-selected numerators are compared by a bound first, and formed only
when the bound does not settle it (measure_control).
tilde_rho_s and rho_sm are positive by construction where no weight is
negative, and carry proved bounds instead of a Cholesky
(_mixture_psd_unit, _post_selected_psd_bound).  Where a bound misses its
tolerance (a small n_m, a negative weight), a state is formed and checked
at once.  A Fock point thus allocates no d x d array unless a caller
reads a state.
Only post_switch_state builds E as a (2d) x (2d) DensityMatrix; `verify`'s
tilde-energy-split check compares it, entry for entry, with the dense
conjugation by build_switch_unitary, the oracle of the tests.  A
disagreement means a bug, so it raises instead of returning.  Scenarios
and wrapper arrays are immutable, so a cached term never goes stale.

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
    TOL_HERM,
    TOL_PSD,
    TOL_TRACE,
    TOL_UNITARY,
    _UNIT_ROUNDOFF,
    _DeferredState,
    _DiagonalHermitian,
    _DiagonalState,
    _gamma,
    _mat,
    _product_defect_bound,
    _unitary_product,
    kron,
)
from .states import BlochState

TOL_ENERGY = 1e-8
TOL_NM = 1e-12
_PROBE_COLUMNS = 16
_probe_table = np.empty((0, _PROBE_COLUMNS), dtype=complex)


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
        """The d-space terms, formed once, as weighted columns.

        rho = B diag(p) B†: a _DiagonalState is its own eigenbasis (B = I,
        p its weights), and any other rho is factored once by eigh, B its
        eigenvectors as a checked UnitaryOperator.  rho acts on the
        working-precision support S of p (_support): W12 B[:, S] and
        W21 B[:, S] come from _switch_blocks, and the terms are kept as
        those d x |S| columns with the kept weights p,
        T_ab = W_a B diag(p) B† W_b† (_factored_terms); no d x d term is
        formed.  chi = tr A12 and the energies are O(d |S|) sums over the
        columns against a diagonal h_s (E12 = sum_j p_j c_j† h c_j over the
        columns c_j of W12 B[:, S], F_S likewise with W21 B on the left),
        and E_S = sum_i p_i h_i for B = I, tr{rho h_s} otherwise (_energy).
        The dropped levels hold mass at most u max p / 4, and each dropped
        term p_i c_i c_i† has entries of modulus at most p_i (1 + t), t the
        columns' Gram defect bound, so every entry of T_ab is within
        u max p (1 + t) / 4 of the full product: below the per-entry
        round-off that _mixture_psd_unit covers.  The dropped part is a sum
        of PSD terms, so the kept terms are PSD mixtures in their own right.
        A negative weight (validation allows -TOL_PSD, and eigh of a
        singular rho returns about -1e-17) keeps every level and leaves
        positivity to the Cholesky.
        """
        if isinstance(self.rho_s, _DiagonalState):
            return _factored_terms(self, self.rho_s._weights, None)
        p, basis = np.linalg.eigh(self.rho_s.mat)
        return _factored_terms(self, p, UnitaryOperator(basis))

    @cached_property
    def _joint_out(self) -> None:
        """Probe the cached terms, once per scenario: the joint state's
        blocks are their rho_c-weighted copies (module docstring).

        Freivalds' check: with X the first d rows of the probe table (k =
        _PROBE_COLUMNS columns of +-1), Y0 = rho U1† U2† X and
        Y1 = rho U2† U1† X, the products R12 X, A12 X and R21 X
        (_SwitchTerms.probe) must equal U2 U1 Y0, U2 U1 Y1 and U1 U2 Y1
        within TOL_ENERGY in every entry, at O(k d^2) cost.  Let
        Delta = T - J with J the conjugation and |Delta_ij| > TOL_ENERGY for
        some entry.  In each column, (Delta X)_i = Delta_ij x_j + S with S
        independent of x_j, and one of S +- Delta_ij has modulus
        >= |Delta_ij|, so the column exposes the entry with probability
        >= 1/2 over the signs and the check misses with probability
        <= 2^-k.  If Delta_ij is the only wrong entry of its row, S = 0 and
        every column catches it.  The probes are fixed, so the check is
        deterministic for a given scenario.

        U† X is taken as conj(U^T X), since X is real, and rho acts by
        scaling rows when it is diagonal.  The probe applies the factors
        one at a time through UnitaryOperator's trio (a Fock operator on its
        real core), never the products W12 and W21 the terms were filled
        from, so the two routes share no product.
        """
        u1, u2 = self.u1, self.u2
        x = _probes(self.rho_s.dim)
        y = np.empty((2, *x.shape), dtype=complex)
        y[0] = u1._apply_t(u2._apply_t(x))
        y[1] = u2._apply_t(u1._apply_t(x))
        np.conjugate(y, out=y)
        if isinstance(self.rho_s, _DiagonalState):
            y *= self.rho_s._weights[:, None]
        else:
            y = self.rho_s.mat @ y
        conjugated = np.empty((3, *x.shape), dtype=complex)
        conjugated[:2] = u2._apply(u1._apply(y))  # U2 U1 Y0 and U2 U1 Y1
        conjugated[2] = u1._apply(u2._apply(y[1]))
        if np.max(np.abs(self._terms.probe(x) - conjugated)) > TOL_ENERGY:
            raise AssertionError("post-switch expansion disagrees with conjugation path")

    @cached_property
    def _post_switch(self) -> DensityMatrix:
        self._joint_out  # probe the terms the blocks are filled from
        return DensityMatrix(_post_switch_expansion(self))


def _factored_terms(s: SwitchScenario, p: np.ndarray, basis: UnitaryOperator | None) -> _SwitchTerms:
    """SwitchScenario._terms of rho = B diag(p) B†, B = basis or I: the
    columns on p's working-precision support and the scalars read from
    them (_column_sums).  A negative weight keeps every level, the bounds
    read |p|, and psd_unit is inf."""
    negative = p.min() < 0.0
    cols = slice(None) if negative else _support(p)
    w12, w21, defect = _switch_blocks(s.u1, s.u2, cols, basis)
    kept = p[cols]
    x, e12, e21, f_s, a12_diag = _column_sums(w12, w21, kept, s.h_s)
    if basis is not None:
        e_s = _energy(s.rho_s.mat, s.h_s).real
    else:
        diagonal_h = isinstance(s.h_s, _DiagonalHermitian)
        e_s = float(p @ (s.h_s._energies if diagonal_h else s.h_s.mat.diagonal().real))
    kernel = KernelTerms(x - 1.0, e12 - e_s, e21 - e_s, f_s - x * e_s)
    kept_abs = np.abs(kept) if negative else kept
    r_norm = float(kept_abs.max()) * (1.0 + kept.size * defect)
    psd_unit = math.inf if negative else _mixture_psd_unit(kept, defect)
    v = np.concatenate((w12, w21), axis=1).reshape(-1, 2, kept.size)  # v[:, a] = W_a B[:, S]
    return _SwitchTerms(
        x, e_s, e12, e21, f_s, kernel, psd_unit, r_norm, _mix_error(kept.size), v, kept,
        _column_mass(kept_abs, defect), a12_diag,
    )


def _column_sums(w12, w21, p, h_s: HermitianOperator):
    """(chi, E12, E21, F_S, diag A12) from the columns W12, W21 and their
    weights p, each an O(d |S|) sum against a diagonal h_s:
    tr{W_a diag(p) W_b† h} = sum_ij conj(W_b)_ij (h W_a)_ij p_j, and
    chi = tr A12 the same sum with h = 1."""
    # chi sums A12's diagonal row by row, sum_j (W12 diag p)_ij conj(W21_ij).
    a12_diag = (w12 * p * w21.conj()).sum(axis=1)
    x = complex(a12_diag.sum())
    if isinstance(h_s, _DiagonalHermitian):
        h = h_s._energies[:, None]
        h_w12, h_w21 = w12 * h, w21 * h
    else:
        h_w12, h_w21 = h_s.mat @ w12, h_s.mat @ w21
    h_w12 *= p
    h_w21 *= p
    e12, e21 = float(np.vdot(w12, h_w12).real), float(np.vdot(w21, h_w21).real)
    return x, e12, e21, complex(np.vdot(w21, h_w12)), a12_diag


@dataclass(frozen=True)
class _SwitchTerms:
    """The d-space terms of one scenario (see the module docstring): the
    blocks T_00 = R12, T_01 = A12, T_10 = A12† and T_11 = R21, held as
    the kept columns v[:, 0] = W12 B[:, S] and v[:, 1] = W21 B[:, S] with
    their weights p, T_ab = W_a diag(p) W_b† for W_a the columns.  Two
    methods answer for them: mix(w), the weighted sum of the blocks, and
    probe(x), the products T_ab x that the Freivalds probe checks;
    blocks() forms the dense products for the oracle.  The columns also
    give diagonal(w), mix(w)'s diagonal in O(d |S|)."""

    chi: complex
    e_s: float
    e12: float
    e21: float
    f_s: complex
    kernel: KernelTerms
    # Round-off bound on -lambda_min of fl(mix(w)) per unit sum_ab |w_ab|
    # (_mixture_psd_unit), inf where a weight is negative; a bound
    # max |p| (1 + |S| t) on ||T_ab||_2 and on every entry of
    # |W_a| diag(|p|) |W_b|^T; and the relative error c of mix (_mix_error).
    psd_unit: float
    r_norm: float
    mix_error: float
    v: np.ndarray
    p: np.ndarray
    # A bound on the trace of |W_a| diag(|p|) |W_b|^T (_column_mass), and
    # diag A12 from _column_sums.
    mass: float
    a12_diag: np.ndarray

    def mix(self, w: np.ndarray) -> np.ndarray:
        """sum_ab w_ab T_ab for a 2 x 2 w, in a fresh array: [W12 | W21]
        times the right factor's blocks weighted by w, row block a being
        sum_b w_ab diag(p) W_b†, one product of inner length 2|S|."""
        d = self.v.shape[0]
        return self.v.reshape(d, -1) @ (w @ self._right.reshape(2, -1)).reshape(-1, d)

    def probe(self, x: np.ndarray) -> np.ndarray:
        """(R12 x, A12 x, R21 x) stacked for a real x, as
        W_a (p o conj(W_b^T x))."""
        out = np.empty((3, *x.shape), dtype=complex)
        d, k = self.v.shape[0], self.p.size
        g = np.conjugate(self.v.reshape(d, -1).T @ x).reshape(2, k, -1)
        g *= self.p[:, None]
        np.matmul(self.v[:, 0], g, out=out[:2])
        np.matmul(self.v[:, 1], g[1], out=out[2])
        return out

    def diagonal(self, w: np.ndarray) -> np.ndarray:
        """The diagonal of mix(w) from the columns, sum_ab w_ab diag T_ab,
        in a fresh array."""
        return w.reshape(-1) @ self._diagonals

    @cached_property
    def _diagonals(self) -> np.ndarray:
        """diag T_ab for ab = 00, 01, 10, 11, shape (4, d): the row sums
        sum_j |W_a[i, j]|^2 p_j of R12 and R21, and A12's from
        _column_sums."""
        r = (self.v.real**2 + self.v.imag**2) @ self.p
        return np.array([r[:, 0], self.a12_diag, self.a12_diag.conj(), r[:, 1]])

    @cached_property
    def _right(self) -> np.ndarray:
        """diag(p) W_a† for a = 0, 1, shape (2, |S|, d): the right factor
        of mix."""
        right = np.conjugate(self.v.transpose(1, 2, 0), order="C")
        right *= self.p[:, None]
        return right

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The dense (R12, R21, A12), formed from the columns on demand."""
        (w12, w21), (h12, h21) = self.v.transpose(1, 0, 2), self._right
        return w12 @ h12, w21 @ h21, w12 @ h21


def _probes(n: int) -> np.ndarray:
    """The first n rows of one read-only, fixed-seed table of +-1 probe
    columns, held as complex so that products with the complex operators
    need no cast.  The table is redrawn longer when a larger n is asked
    for; the draw is prefix-stable, so a row never changes once drawn."""
    global _probe_table
    if _probe_table.shape[0] < n:
        signs = np.random.default_rng(0).choice([-1.0, 1.0], size=(n, _PROBE_COLUMNS))
        _probe_table = signs.astype(complex)
        _probe_table.flags.writeable = False
    return _probe_table[:n]


def _support(p: np.ndarray) -> slice | np.ndarray:
    """The working-precision support of weights p >= 0, in ascending
    index order: every index but the smallest weights, dropped while their
    running sum stays <= u max p / 4 (u = 2^-53; the computed running sum
    is within a factor 1 + gamma_d of the true one).  Exact zeros always
    go, so a pure state keeps one level.  slice(None) when nothing is
    dropped, so the full support keeps the full products' bits.

    The quarter is for the post-selected state, which divides the dropped
    mass by n_m: at u max p the README sweep's delta_sm moved by 1.6e-12
    at n_m = 1.3e-5, at u max p / 4 by 5.8e-13.  A factor of 4 keeps about
    1.4 more levels at beta omega = 1.
    """
    order = np.argsort(p, kind="stable")
    tail = np.cumsum(p[order])
    dropped = int(np.searchsorted(tail, 0.25 * _UNIT_ROUNDOFF * float(p.max()), side="right"))
    return slice(None) if dropped == 0 else np.sort(order[dropped:])


def _mix_error(k: int) -> float:
    """c = 2 gamma_{2k+8}: the relative error of _SwitchTerms.mix from k
    kept columns, divided by a positive n or not.  Each entry of
    fl(mix(w)) is within c sum_ab |w_ab| (|W_a| diag(p) |W_b|^T)_ij of
    sum_ab w_ab W_a diag(p) W_b†: the complex product of inner length 2k
    is within 2 gamma_{2k+2} (Higham, sec. 3.6), and the scaling by p, the
    complex weights and their sum in each right block and the division add
    less than 2 gamma_6."""
    return 2.0 * _gamma(2 * k + 8)


def _mixture_psd_unit(p: np.ndarray, w_defect: float) -> float:
    """Round-off bound on -lambda_min of fl(mix(w)), divided by a positive
    n or not, per unit n^-1 sum_ab |w_ab|, for a PSD 2 x 2 w, from the
    kept columns W_0 = W12[:, S] and W_1 = W21[:, S], p >= 0 their k
    weights and w_defect a bound t on their Gram defect.

    In exact arithmetic sum_ab w_ab W_a diag(p) W_b† = V (w (x) diag(p)) V†
    with V = [W_0 W_1], which is positive semidefinite for any W, so only
    round-off can make an eigenvalue negative.  Each entry is off by at
    most c sum_ab |w_ab| (S_ab)_ij with S_ab = |W_a| diag(p) |W_b|^T
    (_mix_error), and
    ||S_ab||_F <= || |W_a| diag(sqrt p) ||_F || |W_b| diag(sqrt p) ||_F
    <= (1 + t) sum p (_column_mass).  The Cholesky reads the Hermitian
    matrix of the lower triangle, whose error is at most sqrt 2 times as
    large in Frobenius norm, and by Weyl's inequality that norm bounds how
    far lambda_min can fall below 0.  tilde_rho_s is the case
    w = diag(rc00, rc11), n = 1.
    """
    return math.sqrt(2.0) * _mix_error(p.size) * _column_mass(p, w_defect)


def _column_mass(p: np.ndarray, w_defect: float) -> float:
    """(1 + t) sum p, computed upward: a bound on ||S_ab||_F and on
    tr S_ab for S_ab = |W_a| diag(p) |W_b|^T, as each column of W has
    squared norm <= 1 + t (tr S_ab = sum_j p_j |W_a[:, j]| . |W_b[:, j]|);
    the computed sum of p is within gamma_k."""
    return (1.0 + w_defect) * float(p.sum()) / (1.0 - _gamma(p.size))


def _post_selected_psd_bound(t: _SwitchTerms, w: np.ndarray, d: int) -> float:
    """Bound on -lambda_min of the Hermitian matrix the Cholesky reads
    from fl(t.mix(w)), for any 2 x 2 w and the scenario's dimension d; inf
    where a weight is negative (t.psd_unit inf).

    w = outer(conj(m), m) o rho_c is positive semidefinite by the Schur
    product theorem, but its computed entries need not be, nor exactly
    Hermitian (a fused multiply-add leaves a diagonal imaginary part near
    u^2).  Split w = w_H + w_A into Hermitian and anti-Hermitian parts.
    With eps >= max(0, -lambda_min(w_H)), w_H + eps I is PSD and
    sum_ab (w_H)_ab T_ab = V ((w_H + eps I) (x) diag(p)) V† - eps (R12 + R21)
    (see _mixture_psd_unit), so its lambda_min is >= -2 eps r_norm, with
    r_norm = max p (1 + k t) >= max p ||W||_2^2, since W†W - I has entries
    of modulus <= t.
    lambda_min(w_H) = (a + b)/2 - hypot((a - b)/2, |z|) is evaluated within
    gamma_6 of (a + b)/2 + hypot(...) <= |a| + |b| + |z|, and gamma_8 adds
    the bound's own rounding.  sum_ab (w_A)_ab T_ab has 2-norm
    <= r_norm sum_ab |(w_A)_ab| <= r_norm skew, as ||T_ab||_2 <= r_norm,
    and the Hermitian matrix of its lower triangle <= sqrt(2 d) times
    that.  The round-off of mix adds psd_unit sum_ab |w_ab|.  Divide by
    n_m for rho_sm.
    """
    if math.isinf(t.psd_unit):
        return math.inf
    w01, w10 = complex(w[0, 1]), complex(w[1, 0])
    a, b, z = float(w[0, 0].real), float(w[1, 1].real), 0.5 * (w01 + w10.conjugate())
    lam_min = 0.5 * (a + b) - math.hypot(0.5 * (a - b), abs(z))
    eps = max(0.0, -lam_min) + _gamma(8) * (abs(a) + abs(b) + abs(z))
    spread = 2.0 * eps + math.sqrt(2.0 * d) * _skew(w)
    return spread * t.r_norm + t.psd_unit * float(np.abs(w).sum())


def _skew(w: np.ndarray) -> float:
    """sum_ab |(w_A)_ab| for w_A = (w - w†) / 2, w's anti-Hermitian part."""
    return abs(w[0, 0].imag) + abs(w[1, 1].imag) + abs(w[0, 1] - w[1, 0].conjugate())


def _hermitian_bound(t: _SwitchTerms, w: np.ndarray, n: float) -> float:
    """Bound on the max|m - m†| that the Hermiticity check measures on
    m = fl(t.mix(w)) / n, n > 0.

    Each entry of m is within c sum_ab |w_ab| (S_ab)_ij / n of
    X / n, X = sum_ab w_ab T_ab and S_ab = |W_a| diag(p) |W_b|^T
    (_mix_error), and every entry of S_ab is at most r_norm.  Exactly,
    X - X† = 2 sum_ab (w_A)_ab T_ab with w_A w's anti-Hermitian part, whose
    entries are at most 2 skew r_norm (_skew).  So every entry of m - m†
    is at most 2 (c sum |w| + skew) r_norm / n; gamma_8 covers the check's
    subtraction and modulus and this bound's own rounding.  The Higham
    model is the one _mixture_psd_unit uses (sec. 3.6)."""
    bound = 2.0 * (t.mix_error * float(np.abs(w).sum()) + _skew(w)) * t.r_norm / n
    return bound * (1.0 + _gamma(8))


def _derived_state(
    t: _SwitchTerms, w: np.ndarray, diag: np.ndarray, n: float, psd_bound: float
) -> _DeferredState:
    """t.mix(w) / n, n > 0, as a _DeferredState settled on
    diag = t.diagonal(w), its matrix formed and checked at once where a
    check cannot be settled there.

    psd_bound bounds -lambda_min of fl(t.mix(w)); divided by n it must be
    within TOL_PSD, and _hermitian_bound within TOL_HERM.  The trace is
    read from diag / n.  diag and the formed matrix's diagonal are each
    within c sum_ab |w_ab| (S_ab)_ii / n of the exact one (_mix_error;
    the diagonal route, row sums of length |S| weighted by one complex
    product of length 4, is within 2 gamma_{|S|+8} <= c), and
    sum_i (S_ab)_ii <= mass, so their traces differ by at most
    2 c sum |w| mass / n, plus gamma_d (1 + c) sum |w| mass / n for each
    of the two sums; the trace must pass TOL_TRACE with that room, so the
    matrix passes the trace check when it is formed.  The state keeps
    diag / n, which the reports read its energy from (_state_energy).
    """
    diag = diag / n
    psd_bound /= n
    c, d, w_abs = t.mix_error, diag.size, float(np.abs(w).sum())
    room = 2.0 * (c + _gamma(d) * (1.0 + c)) * w_abs * t.mass / n * (1.0 + _gamma(8))
    herm_bound = _hermitian_bound(t, w, n)
    trace = complex(diag.sum())
    rho = _DeferredState(t, w, n, diag, psd_bound, herm_bound)
    if not (
        psd_bound <= TOL_PSD
        and herm_bound <= TOL_HERM
        and abs(trace.real - 1.0) + room <= TOL_TRACE
        and abs(trace.imag) + room <= TOL_TRACE
    ):
        rho.mat  # form and check it now
    return rho


def _state_energy(rho: _DeferredState, h: HermitianOperator) -> float:
    """Re tr{rho h}: read from rho's diagonal against a _DiagonalHermitian,
    from its matrix otherwise."""
    if isinstance(h, _DiagonalHermitian):
        return float((rho._diagonal @ h._energies).real)
    return _tr(rho.mat, h.mat).real


def _tr(a: np.ndarray, b: np.ndarray) -> complex:
    """tr{a b} as an O(d^2) elementwise sum."""
    return complex(np.einsum("ij,ji->", a, b))


def _energy(a: np.ndarray, h: HermitianOperator) -> complex:
    """tr{a h}: sum_i a_ii h_i in O(d) against a _DiagonalHermitian, and
    _tr's einsum against a dense h."""
    if isinstance(h, _DiagonalHermitian):
        return complex(a.diagonal() @ h._energies)
    return _tr(a, h.mat)


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


def _switch_blocks(u1: UnitaryOperator, u2: UnitaryOperator, cols=None, basis=None):
    """W12 = U2 U1 and W21 = U1 U2: the one place either product is formed.

    Without cols, each is a UnitaryOperator whose Gram defect is bounded
    from the factors' recorded defects (qmat._unitary_product; a bound
    past TOL_UNITARY gets the full check).  With cols (an index array or
    a slice), the result is (W12 B[:, cols], W21 B[:, cols], t) at
    d^2 |cols| cost, B = basis or I, t a bound on the Gram defect of the
    columns: the larger _product_defect_bound of the two products.  Each
    is formed as U2._apply(U1._columns(cols)) (and the other way round),
    and the left factor's product has the error model that bound assumes,
    with g_prod its _apply_roundoff.  The columns are U1.mat's, or, from a
    Fock core, entries within the same entrywise bound of the exactly
    phased core as U1.mat's, which U1's recorded defect covers
    (cvcase._phased_defect_bound); so they are columns of a full matrix
    that the bound's argument holds for, and their Gram matrix is a
    principal submatrix of that product's.  A basis is one more certified
    factor: U1 B[:, cols] is formed as U1._apply(B._columns(cols)), and
    its _product_defect_bound from U1's and B's recorded defects stands in
    for U1's defect (likewise for U2).  A bound past TOL_UNITARY takes the
    full products and their full check, and t is the true defect the
    checked one implies.
    """
    if u1.dim != u2.dim:
        raise ValueError("unitaries must share a dimension")
    if cols is None:
        return _unitary_product(u2, u1), _unitary_product(u1, u2)
    d, d1, d2 = u1.dim, u1._defect, u2._defect
    if basis is None:
        c1, c2 = u1._columns(cols), u2._columns(cols)
    else:
        b = basis._columns(cols)
        c1, c2 = u1._apply(b), u2._apply(b)
        d1 = _product_defect_bound(d1, basis._defect, d, u1._apply_roundoff)
        d2 = _product_defect_bound(d2, basis._defect, d, u2._apply_roundoff)
    t = max(
        _product_defect_bound(d2, d1, d, u2._apply_roundoff),
        _product_defect_bound(d1, d2, d, u1._apply_roundoff),
    )
    if t <= TOL_UNITARY:
        return u2._apply(c1), u1._apply(c2), t
    w12, w21 = _switch_blocks(u1, u2)
    if basis is not None:
        w12, w21 = _unitary_product(w12, basis), _unitary_product(w21, basis)
    g = 2.0 * _gamma(u1.dim + 2)
    t = (max(w12._defect, w21._defect) + g) / (1.0 - g)
    return w12.mat[:, cols], w21.mat[:, cols], t


def build_switch_unitary(u1: UnitaryOperator, u2: UnitaryOperator) -> UnitaryOperator:
    """The dense switch unitary kron(U2U1, |0><0|) + kron(U1U2, |1><1|),
    validated as a whole.

    The oracle's construction: the probe applies U through its factors
    (see SwitchScenario._joint_out) and no report builds this 2d x 2d
    matrix.
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

    The matrix is the dense expansion of the blocks <a|rho_c|b> T_ab, whose
    d-space products a Freivalds probe has checked against the
    conjugation by the switch unitary (see SwitchScenario._joint_out).
    Built and validated lazily, once per scenario: the reports read the
    terms and never build this (2d) x (2d) state.  `verify`'s
    tilde-energy-split check compares it with the dense conjugation,
    entry for entry, rho_c weights included.
    """
    return s._post_switch


def _joint_blocks(s: SwitchScenario) -> np.ndarray:
    """The four d x d blocks of the post-switch joint state, blocks[a, b] =
    <a|rho_c|b> W_a rho W_b† with W_0 = U2 U1, W_1 = U1 U2, filled from
    the d-space terms; called only by _post_switch_expansion."""
    rc = s.rho_c.mat
    r12, r21, a12 = s._terms.blocks()
    return np.array([[rc[0, 0] * r12, rc[0, 1] * a12], [rc[1, 0] * a12.conj().T, rc[1, 1] * r21]])


def _post_switch_expansion(s: SwitchScenario) -> np.ndarray:
    """The blocks laid out as one (2d) x (2d) matrix,
    <i a| out |j b> = blocks[a, b][i, j], the kron(system, control) layout:
    the oracle's form, built only by post_switch_state."""
    d = s.rho_s.dim
    return _joint_blocks(s).transpose(2, 0, 3, 1).reshape(2 * d, 2 * d)


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

    Route (a): delta_qs from the joint state's rho_c-weighted blocks over
    the probe-checked terms (see _joint_energy), and the mixed-state split
    delta_qs = delta_s + delta_c of the tilde states.
    Route (b): the kernel assemble_qs on the d-space terms.  The routes
    must agree within TOL_ENERGY on delta_qs, on the split's sum and on
    delta_c.
    """
    rho_c = s.rho_c.mat
    h_c = s.h_c.mat
    s._joint_out  # probe the terms, once per scenario
    t = s._terms
    e_s, x = t.e_s, t.chi
    e_c = _tr(rho_c, h_c).real

    e_out_direct = _joint_energy(t, rho_c, h_c)
    delta_qs = e_out_direct - (e_s + e_c)
    rc00, rc11 = float(rho_c[0, 0].real), float(rho_c[1, 1].real)
    k = complex(rho_c[0, 1] * h_c[1, 0])
    qs_scalar, delta_c_closed = assemble_qs(rc00, rc11, k, t.kernel)
    if abs(delta_qs - qs_scalar) > TOL_ENERGY:
        raise AssertionError(f"energy routes disagree: direct {delta_qs!r} vs scalar {qs_scalar!r}")

    tilde_s, tilde_c = _tilde_states(s, x)
    e_tilde_s = _state_energy(tilde_s, s.h_s)
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


def _joint_energy(t: _SwitchTerms, rho_c: np.ndarray, h_c: np.ndarray) -> float:
    """tr{E H_SC} with H_SC = h_s (x) 1 + 1 (x) h_c, from E's blocks
    rc_ab T_ab: rc00 E12 + rc11 E21 + sum_ab h_c[b, a] rc_ab tr T_ab, with
    tr T_00 = tr T_11 = tr rho = 1 and tr T_01 = chi."""
    traces = np.array([[1.0, t.chi], [t.chi.conjugate(), 1.0]])
    system = rho_c[0, 0].real * t.e12 + rho_c[1, 1].real * t.e21
    return (system + (h_c.T * rho_c * traces).sum()).real


def _tilde_states(s: SwitchScenario, x: complex) -> tuple[DensityMatrix, DensityMatrix]:
    """Dephasing mixtures whose local energies sum to the post-switch energy.

    tilde_rho_s = rc00 U2U1 rho U1†U2† + rc11 U1U2 rho U2†U1†, a
    _DeferredState (_derived_state);
    tilde_rho_c mixes diag(1, ±e^{-i arg chi}) conjugations with convex
    weights (1 ± |chi|)/2, which leaves the diagonal alone and rescales the
    coherence by chi: [[rc00, chi rc01], [conj(chi) rc10, rc11]].
    """
    rho_c = s.rho_c.mat
    t = s._terms
    rc00, rc11 = np.real(rho_c[0, 0]), np.real(rho_c[1, 1])
    w = np.array([[rc00, 0.0], [0.0, rc11]])
    # Positivity is proved, not factored (see _mixture_psd_unit); a
    # negative weight of rho or rho_c sends tilde_s to the Cholesky.
    psd_bound = float((rc00 + rc11) * t.psd_unit) if min(rc00, rc11) >= 0.0 else math.inf
    tilde_s = _derived_state(t, w, t.diagonal(w), 1.0, psd_bound)

    tilde_c = np.array(rho_c)
    tilde_c[0, 1] *= x
    tilde_c[1, 0] *= x.conjugate()
    return tilde_s, DensityMatrix(tilde_c)


def measure_control(s: SwitchScenario, m: BlochState) -> MeasurementReport:
    """Project the control onto |m>, renormalize, and decompose the system
    energy change.

    Requires a pure control.  Raises NearZeroPostSelectionError when the
    outcome probability is at or below TOL_NM.  The projected state is
    computed by direct projection of the joint state, mix(w) over its
    blocks with w = outer(conj(m), m) o rho_c, and checked against the
    expansion by the angle factors f, both on the probe-checked terms:
    mix(f) - mix(w) = sum_ab (f - w)_ab T_ab, so every entry differs by at
    most r_norm (sum |f - w| + 4 mix_error), and the numerators are formed
    and compared only when that bound exceeds TOL_ENERGY.  n_m and
    delta_sm must agree with the kernel assemble_sm on the scenario's
    KernelTerms, whose delta_12, delta_21 and delta_f the report carries.
    rho_sm is the direct numerator divided by n_m, with bound
    _post_selected_psd_bound / n_m: w is PSD by the Schur product theorem,
    so the numerator is PSD up to round-off.  n_m is the real trace of
    the numerator's diagonal, and rho_sm a _DeferredState settled on that
    diagonal (_derived_state), built only once n_m is past TOL_NM.
    Against a _DiagonalHermitian H_S, e_sm must lie within tau of
    [min h, max h] (_spectrum_slack).
    """
    if not isinstance(s.control, BlochState):
        raise ValueError("measure_control requires a pure (BlochState) control")
    s._joint_out  # probe the terms, once per scenario
    t = s._terms

    # Direct path: <m| . |m> on the control index of the joint state's blocks.
    ket_m = m.to_ket()
    w = np.outer(ket_m.conj(), ket_m) * s.rho_c.mat

    # Expansion path: the kernel's angle factors f on the d-space terms.
    # mix(f) - mix(w) = sum_ab (f - w)_ab T_ab plus both sums' round-off,
    # so every entry is within `gap`, and the numerators are formed and
    # compared only past TOL_ENERGY.  Both sum |f| and sum |w| are
    # (|c0 m0| + |c1 m1|)^2 <= 1 (Cauchy-Schwarz) up to the rounding of a
    # few products, so 4 covers the two.
    a = measurement_angles(s.control, m)
    coh = 0.5 * a.half_sin_cm * a.e_psi
    f = np.array([[a.cc, coh], [coh.conjugate(), a.ss]])
    n_m_closed, bracket = assemble_sm(a, t.kernel)
    gap = t.r_norm * (float(np.abs(f - w).sum()) + 4.0 * t.mix_error)
    if not gap <= TOL_ENERGY:
        numerator_exp = t.mix(f)
        if np.max(np.abs(np.subtract(numerator_exp, t.mix(w), out=numerator_exp))) > TOL_ENERGY:
            raise AssertionError("projection and expansion numerators disagree")
    diag = t.diagonal(w)
    n_m_direct = float(diag.sum().real)
    if abs(n_m_direct - n_m_closed) > TOL_ENERGY:
        raise AssertionError("post-selection probability routes disagree")

    if post_selection_vanishes(n_m_direct):
        raise NearZeroPostSelectionError(n_m_direct)

    rho_sm = _derived_state(t, w, diag, n_m_direct, _post_selected_psd_bound(t, w, s.rho_s.dim))
    e_sm = _state_energy(rho_sm, s.h_s)
    if isinstance(s.h_s, _DiagonalHermitian):
        h = s.h_s._energies
        slack = _spectrum_slack(h, rho_sm)
        if not h.min() - slack <= e_sm <= h.max() + slack:
            raise AssertionError("post-selected energy lies outside the spectrum of H_S")
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


def _spectrum_slack(h: np.ndarray, rho: DensityMatrix) -> float:
    """tau with min h - tau <= tr{rho diag(h)} <= max h + tau, computed.

    Let b bound -lambda_min of rho: its _psd_bound, or 2 TOL_PSD after a
    Cholesky (TOL_PSD and the factorization's own round-off).  Every
    diagonal entry is then >= -b, so q_i = Re rho_ii + b >= 0, and with
    T = Re tr rho within TOL_TRACE of 1,
    sum_i Re rho_ii h_i = sum_i q_i h_i - b sum_i h_i
    <= max h (T + d b) - b sum_i h_i <= max h T + d b (max h - min h),
    and the lower end likewise.  max |h| TOL_TRACE covers T, and
    2 gamma_{d+2} max |h| the sum's round-off (sum |Re rho_ii| <= 2).
    """
    b = rho._psd_bound if not math.isnan(rho._psd_bound) else 2.0 * TOL_PSD
    d, h_abs = h.size, float(np.abs(h).max())
    return h_abs * (TOL_TRACE + 2.0 * _gamma(d + 2)) + d * b * float(h.max() - h.min())
