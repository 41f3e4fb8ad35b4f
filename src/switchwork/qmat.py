"""Dense complex-matrix kernel.

Tensor products and matrix exponentials, and the typed wrappers that
everything downstream is built on.  Matrices are plain complex128
numpy arrays in row-major order; each wrapper holds its own read-only copy
and validates the structural invariants (Hermiticity, unit trace,
positivity, unitarity) once at construction so the physics code never has
to re-check.  Every wrapper is made by its constructor, so none skips that
check; a diagonal state may be a _DiagonalState, whose constructor makes
the same checks on the weights in O(d).  The module runs on numpy alone and
imports no scipy: positivity is certified by numpy's Cholesky, and expm
takes only (anti-)Hermitian generators, through their eigendecomposition.

All operations are pure functions of immutable inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Absolute tolerances for the structural invariants.  Double-precision dense
# algebra at dim <= ~400 keeps round-off well below these.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_UNITARY = 1e-10
TOL_PSD = 1e-9
TOL_EIG = 1e-9


def _as_square_complex(mat: np.ndarray, what: str) -> np.ndarray:
    """A read-only complex128 copy, so no alias of the caller's array can
    change a matrix after it was validated."""
    m = np.array(mat, dtype=complex, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains non-finite entries")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Positive, unit-trace, Hermitian matrix: the state of a system.

    Validation: Hermitian within TOL_HERM, trace 1 within TOL_TRACE, all
    eigenvalues >= -TOL_PSD.  Positivity is certified by a Cholesky
    factorization of mat + TOL_PSD·I, which exists exactly when every
    eigenvalue exceeds -TOL_PSD (up to round-off of order dim·eps, far
    inside the tolerance).  Only when it fails is the spectrum computed,
    and the smallest eigenvalue then decides, so no state the eigenvalue
    test accepts is rejected.
    """

    mat: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = _as_square_complex(self.mat, "DensityMatrix")
        if np.abs(m - m.conj().T).max() > TOL_HERM:
            raise ValueError("DensityMatrix is not Hermitian within tolerance")
        trace = m.trace()
        if abs(trace.real - 1.0) > TOL_TRACE or abs(trace.imag) > TOL_TRACE:
            raise ValueError(f"DensityMatrix trace {trace} != 1 within tolerance")
        # The shift goes onto the diagonal of a copy: m is read-only.
        # numpy's Cholesky reads the lower triangle, as eigvalsh does.
        shifted = m.copy()
        shifted.flat[:: m.shape[0] + 1] += TOL_PSD
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lam_min = np.linalg.eigvalsh(m).min()
            if lam_min < -TOL_PSD:
                raise ValueError(f"DensityMatrix has negative eigenvalue {lam_min:.3e}") from None
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim", m.shape[0])


class _DiagonalState(DensityMatrix):
    """DensityMatrix diag(weights), whose eigenvalues are the weights: the
    checks are finite weights, trace 1 within TOL_TRACE and a smallest
    weight >= -TOL_PSD, made in O(d) with DensityMatrix's messages."""

    def __init__(self, weights: np.ndarray) -> None:
        if not np.isfinite(weights).all():
            raise ValueError("DensityMatrix contains non-finite entries")
        m = np.diag(weights).astype(complex)
        trace = m.trace()
        if abs(trace.real - 1.0) > TOL_TRACE:
            raise ValueError(f"DensityMatrix trace {trace} != 1 within tolerance")
        if weights.min() < -TOL_PSD:
            raise ValueError(f"DensityMatrix has negative eigenvalue {weights.min():.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim", m.shape[0])


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix; observables and Hamiltonians (units of energy, hbar = k_B = 1)."""

    mat: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = _as_square_complex(self.mat, "HermitianOperator")
        if np.abs(m - m.conj().T).max() > TOL_HERM:
            raise ValueError("HermitianOperator is not Hermitian within tolerance")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim", m.shape[0])


@dataclass(frozen=True)
class UnitaryOperator:
    """Matrix with U†U = I within TOL_UNITARY."""

    mat: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = _as_square_complex(self.mat, "UnitaryOperator")
        gram = m.conj().T @ m
        gram.flat[:: m.shape[0] + 1] -= 1.0
        defect = np.abs(gram).max()
        if defect > TOL_UNITARY:
            raise ValueError(f"UnitaryOperator defect {defect:.3e} exceeds tolerance")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim", m.shape[0])


def _mat(x) -> np.ndarray:
    """Accept a wrapper or a bare array and return the ndarray."""
    return x.mat if hasattr(x, "mat") else np.asarray(x, dtype=complex)


def kron(a, b) -> np.ndarray:
    """Kronecker product; dims multiply.  Realizes the tensor product."""
    return np.kron(_mat(a), _mat(b))


def expm(g) -> np.ndarray:
    """Matrix exponential of a Hermitian or anti-Hermitian generator.

    The spectral route is exact up to the eigendecomposition itself and
    guarantees the result of an anti-Hermitian generator passes the
    unitarity invariant.  Any other generator raises ValueError.
    """
    m = _as_square_complex(_mat(g), "expm argument")
    herm_defect = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    anti_defect = np.max(np.abs(m + m.conj().T)) if m.size else 0.0
    if herm_defect <= TOL_HERM:
        w, v = np.linalg.eigh(m)
        return (v * np.exp(w)) @ v.conj().T
    if anti_defect <= TOL_HERM:
        w, v = np.linalg.eigh(1j * m)  # 1j*m is Hermitian
        return (v * np.exp(-1j * w)) @ v.conj().T
    raise ValueError("expm generator is neither Hermitian nor anti-Hermitian within tolerance")
