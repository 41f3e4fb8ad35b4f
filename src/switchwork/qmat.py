"""Dense complex-matrix kernel.

Tensor products and matrix exponentials, and the typed wrappers that
everything downstream is built on.  Matrices are plain complex128
numpy arrays in row-major order; each wrapper holds its own read-only copy
and validates the structural invariants (Hermiticity, unit trace,
positivity, unitarity) once at construction so the physics code never has
to re-check.  Every wrapper is made by a constructor that checks it or
proves it, so none skips the fact it stands for.  The public constructors
always run the full check.  The private ones are for matrices the library
built itself, and each pays once for what it proves:

- _DiagonalState and _DiagonalHermitian check diagonal weights in O(d);
- _CertifiedUnitary takes a proved bound on the Gram defect max|U†U - I|,
  and _unitary_product derives that bound for a product of two checked
  unitaries from the defects each one records;
- _CertifiedState takes a proved bound on -lambda_min and keeps the
  Hermiticity and trace checks.

A bound that does not fit inside its tolerance, or a factor with no
recorded defect, sends the matrix to the full check, so a certificate can
only accept what the full check accepts.  The round-off terms follow
Higham's gamma_n = n u / (1 - n u) model (Accuracy and Stability of
Numerical Algorithms, 2nd ed., ch. 3).  The module runs on numpy alone and
imports no scipy: positivity is certified by numpy's Cholesky, and expm
takes only (anti-)Hermitian generators, through their eigendecomposition.

All operations are pure functions of immutable inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerances for the structural invariants.  Double-precision dense
# algebra at dim <= ~400 keeps round-off well below these.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_UNITARY = 1e-10
TOL_PSD = 1e-9
TOL_EIG = 1e-9

_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of a
    real inner product of length n.  A complex one of length n is within
    2 gamma_{n+2} (Higham, sec. 3.6, with 2 > sqrt 2)."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


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
        _check_hermitian_unit_trace(m)
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


def _hermitian_defect(m: np.ndarray) -> float:
    """max|m - m†|, bit for bit.  The transpose is copied once into C order
    and the rest runs in place on that copy: a subtraction that reads
    m.conj().T through its strides is about four times slower at d = 173."""
    x = m.T.copy()
    np.conjugate(x, out=x)
    np.subtract(m, x, out=x)
    return float(np.abs(x).max())


def _check_hermitian_unit_trace(m: np.ndarray) -> None:
    if _hermitian_defect(m) > TOL_HERM:
        raise ValueError("DensityMatrix is not Hermitian within tolerance")
    trace = m.trace()
    if abs(trace.real - 1.0) > TOL_TRACE or abs(trace.imag) > TOL_TRACE:
        raise ValueError(f"DensityMatrix trace {trace} != 1 within tolerance")


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


class _CertifiedState(DensityMatrix):
    """DensityMatrix(mat) whose positivity is proved instead of factored.

    psd_bound must bound -lambda_min of the Hermitian matrix that mat's
    lower triangle defines, the one the Cholesky reads.  The Hermiticity
    and trace checks run as in the public constructor; only when psd_bound
    exceeds TOL_PSD (or is nan) does the Cholesky run.  mat must be a fresh
    complex128 array that no one else holds: it is marked read-only, not
    copied.  The bound is kept as _psd_bound, or nan after a Cholesky.
    """

    def __init__(self, mat: np.ndarray, psd_bound: float) -> None:
        if not psd_bound <= TOL_PSD:
            object.__setattr__(self, "mat", mat)
            self.__post_init__()
            object.__setattr__(self, "_psd_bound", math.nan)
            return
        if not np.isfinite(mat).all():
            raise ValueError("DensityMatrix contains non-finite entries")
        _check_hermitian_unit_trace(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dim", mat.shape[0])
        object.__setattr__(self, "_psd_bound", psd_bound)


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix; observables and Hamiltonians (units of energy, hbar = k_B = 1)."""

    mat: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = _as_square_complex(self.mat, "HermitianOperator")
        if _hermitian_defect(m) > TOL_HERM:
            raise ValueError("HermitianOperator is not Hermitian within tolerance")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim", m.shape[0])


class _DiagonalHermitian(HermitianOperator):
    """HermitianOperator diag(energies), Hermitian by construction: the
    check is finite energies, made in O(d) with HermitianOperator's
    message."""

    def __init__(self, energies: np.ndarray) -> None:
        if not np.isfinite(energies).all():
            raise ValueError("HermitianOperator contains non-finite entries")
        m = np.diag(energies).astype(complex)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim", m.shape[0])


@dataclass(frozen=True)
class UnitaryOperator:
    """Matrix with U†U = I within TOL_UNITARY.

    The wrapper records its Gram defect max|U†U - I| as _defect: the
    measured one, or the proved bound of a _CertifiedUnitary.
    """

    mat: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = _as_square_complex(self.mat, "UnitaryOperator")
        defect = _gram_defect(m)
        if defect > TOL_UNITARY:
            raise ValueError(f"UnitaryOperator defect {defect:.3e} exceeds tolerance")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "_defect", defect)


def _gram_defect(m: np.ndarray) -> float:
    """max|m† m - I|, the defect that UnitaryOperator's check measures."""
    gram = m.conj().T @ m
    gram.flat[:: m.shape[0] + 1] -= 1.0
    return float(np.abs(gram).max())


class _CertifiedUnitary(UnitaryOperator):
    """UnitaryOperator(mat) whose Gram defect is proved instead of measured.

    bound must bound the defect that UnitaryOperator's check would measure
    on mat, round-off of that check included.  When it exceeds TOL_UNITARY
    (or is nan), the full check runs instead, so no matrix is accepted that
    the check rejects.  mat must be a fresh complex128 array that no one
    else holds: it is marked read-only, not copied.  Its entries are finite
    whenever the bound is, since every column norm is at most
    sqrt(1 + bound).
    """

    def __init__(self, mat: np.ndarray, bound: float) -> None:
        object.__setattr__(self, "mat", mat)
        if not bound <= TOL_UNITARY:
            self.__post_init__()
            return
        mat.flags.writeable = False
        object.__setattr__(self, "dim", mat.shape[0])
        object.__setattr__(self, "_defect", bound)


def _unitary_product(a: UnitaryOperator, b: UnitaryOperator) -> UnitaryOperator:
    """a.mat @ b.mat as a UnitaryOperator, its Gram defect bounded by
    _product_defect_bound from the defects a and b record.  A factor with
    no recorded defect sends the product to the full check."""
    da, db = getattr(a, "_defect", None), getattr(b, "_defect", None)
    m = a.mat @ b.mat
    bound = math.inf if da is None or db is None else _product_defect_bound(da, db, m.shape[0])
    return _CertifiedUnitary(m, bound)


def _product_defect_bound(def_a: float, def_b: float, d: int) -> float:
    """Bound on the Gram defect that UnitaryOperator would measure on
    fl(A B), from the measured defects of d x d factors A and B.

    With g = 2 gamma_{d+2}, each measured defect is within g (1 + t) of the
    true one t, so t <= (def + g) / (1 - g).  Exactly,
    (AB)†AB - I = B†(A†A - I)B + (B†B - I), and a matrix of largest entry t
    has 2-norm <= d t, so the product's true defect is at most
    d t_A (1 + d t_B) + t_B.  The computed product is AB + F with
    ||F||_2 <= ||F||_F <= g ||A||_F ||B||_F <= g d sqrt((1 + t_A)(1 + t_B)),
    which adds 2 ||AB||_2 ||F||_2 + ||F||_2^2, and the check's own Gram
    round-off adds g (1 + t).
    """
    g = 2.0 * _gamma(d + 2)
    t_a, t_b = (def_a + g) / (1.0 - g), (def_b + g) / (1.0 - g)
    f = g * d * math.sqrt((1.0 + t_a) * (1.0 + t_b))
    norm = math.sqrt((1.0 + d * t_a) * (1.0 + d * t_b))
    t = d * t_a * (1.0 + d * t_b) + t_b + 2.0 * norm * f + f * f
    return t + g * (1.0 + t)


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
