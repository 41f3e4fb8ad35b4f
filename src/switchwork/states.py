"""State and Hamiltonian constructors plus passivity/ergotropy diagnostics.

Thermal (Gibbs) states for qubits and truncated oscillator modes, the qubit
and mode Hamiltonians used throughout, and the spectral machinery that
decides whether a state is passive and how much work a unitary can extract
from it.

Units: hbar = k_B = 1; energies in units of the level splitting they are
built from.  beta = math.inf is a first-class value meaning the exact
ground-state limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import DensityMatrix, HermitianOperator, TOL_EIG, _DiagonalHermitian, _DiagonalState

TOL_TRUNC = 1e-12


@dataclass(frozen=True)
class BlochState:
    """Pure qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    theta in [0, pi], phi in [0, 2 pi).  Used both for control preparation
    and for the measurement projector.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ValueError(f"phi must lie in [0, 2 pi), got {self.phi}")

    def to_ket(self) -> np.ndarray:
        return np.array(
            [math.cos(self.theta / 2.0),
             np.exp(1j * self.phi) * math.sin(self.theta / 2.0)],
            dtype=complex,
        )

    def to_density(self) -> DensityMatrix:
        k = self.to_ket()
        return DensityMatrix(np.outer(k, k.conj()))


@dataclass(frozen=True)
class QubitSystemParams:
    """Two-level system with splitting omega: H = diag(0, omega)."""

    omega: float

    def __post_init__(self) -> None:
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")


@dataclass(frozen=True)
class ControlHamiltonianParams:
    """Control Hamiltonian [[0, t], [t*, omega]] with t = t_abs e^{i t_phase}."""

    omega: float
    t_abs: float
    t_phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if not (0 <= self.t_abs < math.inf and math.isfinite(self.t_phase)):
            raise ValueError(f"need a finite t_abs >= 0 and a finite t_phase, got {self!r}")

    @property
    def t(self) -> complex:
        return self.t_abs * np.exp(1j * self.t_phase)


@dataclass(frozen=True)
class ThermalParams:
    """Inverse temperature and level splitting; beta = inf means ground state."""

    beta: float
    omega: float

    def __post_init__(self) -> None:
        if not self.beta >= 0:
            raise ValueError(f"beta must be non-negative, got {self.beta!r}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")

    @property
    def n_th(self) -> float:
        """Thermal occupation 1/(e^{beta omega} - 1); 0 at beta = inf."""
        if math.isinf(self.beta):
            return 0.0
        if self.beta == 0.0:
            raise ValueError("thermal occupation diverges at beta = 0")
        return 1.0 / math.expm1(self.beta * self.omega)


def gibbs_qubit(p: ThermalParams) -> DensityMatrix:
    """Thermal qubit diag(1, e^{-beta omega}) / (1 + e^{-beta omega}).

    beta = inf returns the exact ground state diag(1, 0); beta = 0 gives the
    maximally mixed state.
    """
    if math.isinf(p.beta):
        return _DiagonalState(np.array([1.0, 0.0]))
    w = math.exp(-p.beta * p.omega)
    return _DiagonalState(np.array([1.0 / (1.0 + w), w / (1.0 + w)]))


def fock_truncation_rule(beta: float, omega: float) -> int:
    """Smallest retained level count making the thermal tail <= TOL_TRUNC."""
    if beta == 0.0:
        raise ValueError("beta = 0 admits no truncation (maximally mixed mode)")
    if math.isinf(beta):
        return 20
    return max(20, math.ceil(math.log(1.0 / TOL_TRUNC) / (beta * omega)) + 10)


def gibbs_fock(p: ThermalParams, n_max: int) -> DensityMatrix:
    """Thermal mode (1 - e^{-beta omega}) sum_n e^{-beta omega n} |n><n|.

    Truncated at n_max (inclusive) and renormalized; the pre-normalization
    tail e^{-beta omega (n_max+1)} must be <= TOL_TRUNC.  beta = 0 is
    rejected: the infinite-dimensional maximally mixed state does not
    truncate.  beta = inf returns |0><0| exactly.
    """
    if p.beta == 0.0:
        raise ValueError("gibbs_fock: beta = 0 is not truncatable")
    dim = n_max + 1
    if math.isinf(p.beta):
        return _DiagonalState(np.eye(1, dim)[0])
    tail = math.exp(-p.beta * p.omega * (n_max + 1))
    if tail > TOL_TRUNC:
        raise ValueError(
            f"gibbs_fock: truncation tail {tail:.3e} exceeds {TOL_TRUNC:.0e}; "
            f"raise n_max (rule suggests {fock_truncation_rule(p.beta, p.omega)})"
        )
    weights = np.exp(-p.beta * p.omega * np.arange(dim))
    weights /= weights.sum()
    return _DiagonalState(weights)


def hamiltonian_qubit_system(p: QubitSystemParams) -> HermitianOperator:
    """diag(0, omega): ground level at zero energy."""
    return HermitianOperator(np.diag([0.0, p.omega]).astype(complex))


def hamiltonian_control(p: ControlHamiltonianParams) -> HermitianOperator:
    """[[0, t], [t*, omega]]; the off-diagonal t is the activation resource."""
    t = p.t
    return HermitianOperator(np.array([[0.0, t], [np.conj(t), p.omega]], dtype=complex))


def hamiltonian_fock(omega: float, n_max: int) -> HermitianOperator:
    """Oscillator mode diag(omega (n + 1/2)) for n = 0..n_max, checked in
    O(d) as a diagonal operator."""
    n = np.arange(n_max + 1)
    return _DiagonalHermitian(omega * (n + 0.5))


def ergotropy(rho: DensityMatrix, h: HermitianOperator) -> float:
    """Maximal unitarily extractable work.

    tr(rho H) minus the energy of the passive rearrangement: state
    eigenvalues sorted descending against energy eigenvalues sorted
    ascending.  Always >= -TOL_EIG.
    """
    if rho.dim != h.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim} vs operator {h.dim}")
    r = np.linalg.eigvalsh(rho.mat)  # ascending
    eps = np.linalg.eigvalsh(h.mat)  # ascending
    r_desc = r[::-1]
    current = float(np.real(np.trace(rho.mat @ h.mat)))
    passive = float(np.dot(r_desc, eps))
    return current - passive


def is_passive(rho: DensityMatrix, h: HermitianOperator):
    """Decide passivity via the spectral criterion: ergotropy <= TOL_EIG.

    Returns (passive, witness): witness is None when passive, otherwise the
    work-extracting unitary mapping the state's descending eigenbasis onto
    the Hamiltonian's ascending one.
    """
    if rho.dim != h.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim} vs operator {h.dim}")
    w = ergotropy(rho, h)
    if w <= TOL_EIG:
        return True, None
    r_vals, r_vecs = np.linalg.eigh(rho.mat)
    _, e_vecs = np.linalg.eigh(h.mat)
    order = np.argsort(-r_vals, kind="stable")
    # U |r_k-descending> = |eps_k-ascending>
    witness = e_vecs @ r_vecs[:, order].conj().T
    return False, witness


def passive_state_from_spectrum(populations: np.ndarray, h: HermitianOperator) -> DensityMatrix:
    """Build the passive state carrying the given populations against h.

    Populations are sorted descending and attached to h's eigenvectors in
    ascending-energy order.
    """
    p = np.sort(np.asarray(populations, dtype=float))[::-1]
    if abs(p.sum() - 1.0) > 1e-12 or p.min() < -1e-15:
        raise ValueError("populations must be a probability vector")
    _, v = np.linalg.eigh(h.mat)
    return DensityMatrix((v * p) @ v.conj().T)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho ln rho) with 0 ln 0 := 0."""
    evals = np.linalg.eigvalsh(rho.mat)
    evals = evals[evals > 1e-300]
    return float(-np.sum(evals * np.log(evals)))


@dataclass(frozen=True)
class GibbsBoundResult:
    bound: float
    beta_star: float
    converged: bool
    entropy_residual: float


def ergotropy_gibbs_bound(rho: DensityMatrix, h: HermitianOperator) -> GibbsBoundResult:
    """Entropy-matched thermal bound on extractable work.

    Finds beta* with S(gibbs(beta*)) = S(rho) by a bracketed monotone root
    solve on beta in [1e-8, 1e8], then returns tr(rho H) - tr(gibbs(beta*) H).
    The bound dominates ergotropy.  Non-convergence (entropy outside the
    bracket's reachable range beyond tolerance) is reported, not raised.
    """
    if rho.dim != h.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim} vs operator {h.dim}")
    target = von_neumann_entropy(rho)
    eps = np.linalg.eigvalsh(h.mat)
    current = float(np.real(np.trace(rho.mat @ h.mat)))

    def gibbs_entropy_energy(beta: float) -> tuple[float, float]:
        x = -beta * (eps - eps.min())  # shift for overflow safety
        w = np.exp(x - np.max(x))
        w /= w.sum()
        s = float(-np.sum(w[w > 1e-300] * np.log(w[w > 1e-300])))
        e = float(np.dot(w, eps))
        return s, e

    lo, hi = 1e-8, 1e8
    s_lo, _ = gibbs_entropy_energy(lo)  # near-maximal entropy
    s_hi, _ = gibbs_entropy_energy(hi)  # near-minimal entropy
    entropy_tol = 1e-10
    if target > s_lo + entropy_tol:
        # Entropy above anything reachable: clamp to beta -> 0.
        _, e = gibbs_entropy_energy(lo)
        return GibbsBoundResult(current - e, lo, False, target - s_lo)
    if target < s_hi - entropy_tol:
        _, e = gibbs_entropy_energy(hi)
        return GibbsBoundResult(current - e, hi, False, s_hi - target)

    def f(log_beta: float) -> float:
        s, _ = gibbs_entropy_energy(math.exp(log_beta))
        return s - target

    # S is monotone decreasing in beta; solve on log-beta for conditioning.
    a, b = math.log(lo), math.log(hi)
    fa, fb = f(a), f(b)
    if fa <= 0.0:  # target essentially at max entropy
        beta_star = lo
    elif fb >= 0.0:
        beta_star = hi
    else:
        from scipy.optimize import brentq  # imported here: it costs ~0.2 s at start-up

        beta_star = math.exp(brentq(f, a, b, xtol=1e-13, rtol=1e-14))
    s_star, e_star = gibbs_entropy_energy(beta_star)
    return GibbsBoundResult(current - e_star, beta_star, True, abs(s_star - target))
