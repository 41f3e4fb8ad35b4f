"""Dense complex-matrix kernel.

Tensor products and matrix exponentials, and the typed wrappers that
everything downstream is built on.  Matrices are plain complex128
numpy arrays in row-major order; each wrapper's `.mat` is read-only, and
the wrapper validates the structural invariants (Hermiticity, unit trace,
positivity, unitarity) once at construction so the physics code never has
to re-check.  The public wrappers hold their own copy of the matrix.  A
wrapper built from a structure holds that structure instead and forms the
dense `.mat` on first read, cached: _DiagonalState and _DiagonalHermitian
keep their diagonal (the private _weights and _energies), and the Fock
operators of cvcase keep their real orthogonal cores.  Every wrapper is
made by a constructor that checks it or proves it, so none skips the fact
it stands for.  The public constructors always run the full check.  The
private ones are for matrices the library built itself, and each pays once
for what it proves:

- _DiagonalState and _DiagonalHermitian check diagonal weights in O(d);
- switchcore's switch-block columns carry _product_defect_bound, a bound
  on the Gram defect max|C†C - I| of columns C of a product of two
  checked unitaries, from the defects the factors record;
- _DeferredState holds switchcore's tilde_rho_s or post-selected rho_sm
  unformed, as its diagonal and proved bounds on -lambda_min and on its
  Hermiticity defect; the matrix, which carries that diagonal, is formed
  on first read, when the Hermiticity and trace checks run, and the
  Cholesky only where the positivity bound misses TOL_PSD.

A bound that does not fit inside its tolerance sends the matrix to the
full check (the switch-block columns to _gram_defect on themselves), so a
certificate can only accept what the full check accepts.
The round-off terms follow Higham's gamma_n = n u / (1 - n u) model
(Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3).  The
module runs on numpy alone and imports no scipy: positivity is certified
by numpy's Cholesky, and expm takes only (anti-)Hermitian generators,
through their eigendecomposition.

All operations are pure functions of immutable inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
        _check_psd(m)
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


def _check_psd(m: np.ndarray) -> None:
    """DensityMatrix's positivity check: a Cholesky of m + TOL_PSD·I, and
    the smallest eigenvalue only where it fails.  The shift goes onto the
    diagonal of a copy, as m may be read-only; numpy's Cholesky reads the
    lower triangle, as eigvalsh does."""
    shifted = m.copy()
    shifted.flat[:: m.shape[0] + 1] += TOL_PSD
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lam_min = np.linalg.eigvalsh(m).min()
        if lam_min < -TOL_PSD:
            raise ValueError(f"DensityMatrix has negative eigenvalue {lam_min:.3e}") from None


class _DiagonalState(DensityMatrix):
    """DensityMatrix diag(weights), whose eigenvalues are the weights: the
    checks are finite weights, trace 1 within TOL_TRACE and a smallest
    weight >= -TOL_PSD, made in O(d) with DensityMatrix's messages.  The
    weights are kept read-only as _weights; `.mat` is formed on first
    read."""

    def __init__(self, weights: np.ndarray) -> None:
        if not np.isfinite(weights).all():
            raise ValueError("DensityMatrix contains non-finite entries")
        p = np.array(weights, dtype=float)
        trace = np.complex128(p.sum())
        if abs(trace.real - 1.0) > TOL_TRACE:
            raise ValueError(f"DensityMatrix trace {trace} != 1 within tolerance")
        if p.min() < -TOL_PSD:
            raise ValueError(f"DensityMatrix has negative eigenvalue {p.min():.3e}")
        p.flags.writeable = False
        object.__setattr__(self, "_weights", p)
        object.__setattr__(self, "dim", p.size)

    @cached_property
    def mat(self) -> np.ndarray:
        return _read_only_diagonal(self._weights)


def _read_only_diagonal(values: np.ndarray) -> np.ndarray:
    m = np.diag(values).astype(complex)
    m.flags.writeable = False
    return m


class _DeferredState(DensityMatrix):
    """DensityMatrix terms.mix(w) / n whose matrix is formed on first read.

    The caller settles what it can without the matrix: `diagonal` is m's
    diagonal formed on its own route, which the caller reads the trace and
    energies from, and psd_bound and herm_bound are proved bounds on
    -lambda_min of the Hermitian matrix the Cholesky reads from m and on
    the max|m - m†| the Hermiticity check measures.  `.mat` has the bits of
    terms.mix(w) / n off the diagonal and `diagonal` on it, and runs the
    finite, Hermiticity and trace checks once, when it is formed, and the
    Cholesky only where psd_bound exceeds TOL_PSD (or is nan), after which
    _psd_bound is nan.  The diagonal is kept read-only as _diagonal, the
    bounds as _psd_bound and _herm_bound.
    """

    def __init__(self, terms, w, n, diagonal: np.ndarray, psd_bound: float, herm_bound: float) -> None:
        diagonal.flags.writeable = False
        for name, value in (
            ("_source", (terms, w, n)), ("_diagonal", diagonal), ("dim", diagonal.size),
            ("_psd_bound", psd_bound), ("_herm_bound", herm_bound),
        ):
            object.__setattr__(self, name, value)

    @cached_property
    def mat(self) -> np.ndarray:
        terms, w, n = self._source
        m = terms.mix(w)
        m /= n
        m.flat[:: self.dim + 1] = self._diagonal
        if not np.isfinite(m).all():
            raise ValueError("DensityMatrix contains non-finite entries")
        _check_hermitian_unit_trace(m)
        if not self._psd_bound <= TOL_PSD:
            _check_psd(m)
            object.__setattr__(self, "_psd_bound", math.nan)
        m.flags.writeable = False
        return m


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
    message.  The energies are kept read-only as _energies; `.mat` is
    formed on first read."""

    def __init__(self, energies: np.ndarray) -> None:
        if not np.isfinite(energies).all():
            raise ValueError("HermitianOperator contains non-finite entries")
        h = np.array(energies, dtype=float)
        h.flags.writeable = False
        object.__setattr__(self, "_energies", h)
        object.__setattr__(self, "dim", h.size)

    @cached_property
    def mat(self) -> np.ndarray:
        return _read_only_diagonal(self._energies)


@dataclass(frozen=True)
class UnitaryOperator:
    """Matrix with U†U = I within TOL_UNITARY.

    The wrapper records its Gram defect max|U†U - I| as _defect: the
    measured one, or the proved bound of a structured subclass.
    """

    mat: np.ndarray
    dim: int = field(init=False)

    # The relative error g of _apply in _product_defect_bound; None is
    # the complex product's 2 gamma_{d+2}.
    _apply_roundoff = None

    def __post_init__(self) -> None:
        m = _as_square_complex(self.mat, "UnitaryOperator")
        defect = _gram_defect(m)
        if defect > TOL_UNITARY:
            raise ValueError(f"UnitaryOperator defect {defect:.3e} exceeds tolerance")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "_defect", defect)

    # The products the switch terms and their probe need, on a block of
    # columns y of shape (..., d, k): U y, U^T y, and the columns U[:, cols]
    # with the bits of mat[:, cols], laid out C-contiguous as a structured
    # factor's products need.  A structured subclass overrides all three
    # and never forms mat.
    def _apply(self, y: np.ndarray) -> np.ndarray:
        return self.mat @ y

    def _apply_t(self, y: np.ndarray) -> np.ndarray:
        return self.mat.T @ y

    def _columns(self, cols) -> np.ndarray:
        return np.ascontiguousarray(self.mat[:, cols])


def _gram_defect(m: np.ndarray) -> float:
    """max|m† m - I| for a d x k block m, the defect that UnitaryOperator's
    check measures when k = d."""
    gram = m.conj().T @ m
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return float(np.abs(gram).max())


def _product_defect_bound(def_a: float, def_b: float, d: int, g_prod: float | None = None) -> float:
    """Bound on the Gram defect that UnitaryOperator would measure on
    fl(A B), from the measured defects of d x d factors A and B.

    With g = 2 gamma_{d+2}, each measured defect is within g (1 + t) of the
    true one t, so t <= (def + g) / (1 - g).  Exactly,
    (AB)†AB - I = B†(A†A - I)B + (B†B - I), and a matrix of largest entry t
    has 2-norm <= d t, so the product's true defect is at most
    d t_A (1 + d t_B) + t_B.  The computed product is AB + F with
    ||F||_2 <= ||F||_F <= g_prod ||A||_F ||B||_F
    <= g_prod d sqrt((1 + t_A)(1 + t_B)), g_prod = g for numpy's complex
    product (or _phased_product_roundoff for A applied through its real
    core), which adds 2 ||AB||_2 ||F||_2 + ||F||_2^2, and the check's own
    Gram round-off adds g (1 + t).
    """
    g = 2.0 * _gamma(d + 2)
    g_prod = g if g_prod is None else g_prod
    t_a, t_b = (def_a + g) / (1.0 - g), (def_b + g) / (1.0 - g)
    f = g_prod * d * math.sqrt((1.0 + t_a) * (1.0 + t_b))
    norm = math.sqrt((1.0 + d * t_a) * (1.0 + d * t_b))
    t = d * t_a * (1.0 + d * t_b) + t_b + 2.0 * norm * f + f * f
    return t + g * (1.0 + t)


def _phase_rounding(mu: float) -> float:
    """eps with |fl(r_jk phi_j conj(phi_k)) - D_j r_jk conj(D_k)| <= eps |r_jk|
    for D = phi / |phi| and every |phi_j| within mu of 1: the moduli give
    (1 + mu)^2 - 1, and the two rounded complex products 4 u (1 + mu)^2."""
    return (2.0 + mu) * mu + 4.0 * _UNIT_ROUNDOFF * (1.0 + mu) ** 2


def _phased_product_roundoff(mu: float, n: int) -> float:
    """g_prod of _product_defect_bound when A = fl(Phi R Phi†) is applied
    to B's columns through its real core: fl(phi o (R fl(conj(phi) o B))),
    the real product running on the interleaved float view, with R real
    (block diagonal, blocks of size <= n) and every |phi_j| within mu of 1.

    Each complex product by a phase is off by at most sqrt 2 gamma_2
    relative (Higham, lemma 3.5), and the real and imaginary parts of
    R z are each within gamma_n |R| |Re z| and gamma_n |R| |Im z|, so
    their complex error is at most gamma_n |R| |z|.  With the moduli
    |phi_j| <= 1 + mu, the computed columns are within
    ((1 + 2 gamma_2)^2 (1 + gamma_n) - 1)(1 + mu)^2 |R| |B| of
    Phi R Phi† B, which is within ((1 + mu)^2 - 1) |R| |B| of V B,
    V = D R D† and D = phi / |phi|, and A is within _phase_rounding(mu) |R|
    of V entry for entry (see cvcase._phased_defect_bound).  So
    |fl - A B| <= g_prod |R| |B| with g_prod the sum of the three, and
    || |R| |B| ||_F <= ||R||_F ||B||_F, where ||R||_F^2 <= d (1 + t_A):
    A's recorded defect bounds R's true one.
    """
    g2 = 2.0 * _gamma(2)
    moduli = (2.0 + mu) * mu
    return ((1.0 + g2) ** 2 * (1.0 + _gamma(n)) - 1.0) * (1.0 + mu) ** 2 + moduli + _phase_rounding(mu)


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
