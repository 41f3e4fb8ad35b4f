"""Dense complex-matrix kernel: typed wrappers and linear-algebra helpers."""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import partial_trace, random_density, random_hermitian, random_unitary
import switchwork
from switchwork.qmat import (
    TOL_PSD,
    TOL_TRACE,
    TOL_UNITARY,
    DensityMatrix,
    HermitianOperator,
    UnitaryOperator,
    _DiagonalState,
    expm,
    kron,
)
from switchwork.states import ThermalParams, gibbs_fock, gibbs_qubit, hamiltonian_fock


class TestDensityMatrix:
    def test_accepts_valid_state(self, rng):
        rho = DensityMatrix(random_density(rng, 4))
        assert rho.dim == 4
        assert abs(np.trace(rho.mat) - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_imaginary_trace(self):
        # 2·TOL_TRACE of imaginary trace, spread so each diagonal entry
        # stays within the Hermiticity tolerance.
        m = np.eye(8, dtype=complex) / 8.0
        m[np.diag_indices(8)] += 0.25j * TOL_TRACE
        trace = np.trace(m)
        assert trace.real == 1.0 and math.isclose(trace.imag, 2.0 * TOL_TRACE)
        with pytest.raises(ValueError, match=f"^{re.escape(f'DensityMatrix trace {trace} != 1')} within tolerance$"):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.ones((2, 3), dtype=complex))

    def test_rejects_non_finite(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)

    def test_accepts_non_contiguous_input(self, rng):
        rho = random_density(rng, 3)
        DensityMatrix(np.asfortranarray(rho))
        DensityMatrix(rho.T.conj().T)


class TestDiagonalState:
    """The O(d) route of the diagonal Gibbs states: the checked
    constructor's matrix, verdicts and messages."""

    @pytest.mark.parametrize(
        "rho",
        [
            gibbs_qubit(ThermalParams(0.7, 1.3)),
            gibbs_qubit(ThermalParams(math.inf, 1.0)),
            gibbs_fock(ThermalParams(1.0, 1.0), 172),
            gibbs_fock(ThermalParams(math.inf, 1.0), 20),
        ],
        ids=["qubit", "qubit_ground", "fock", "fock_ground"],
    )
    def test_gibbs_states_equal_the_checked_construction(self, rho):
        checked = DensityMatrix(np.diag(np.diag(rho.mat).real).astype(complex))
        assert isinstance(rho, _DiagonalState) and rho.dim == checked.dim
        assert rho.mat.tobytes() == checked.mat.tobytes() and not rho.mat.flags.writeable

    @pytest.mark.parametrize("build", ["fock_state", "fock_hamiltonian", "qubit_state"])
    def test_the_dense_form_is_built_on_first_read(self, build):
        """The wrappers keep their diagonal; `.mat` is formed on first
        read, cached, read-only, with the bits of the eager
        np.diag(values).astype(complex)."""
        wrapper, name = {
            "fock_state": (gibbs_fock(ThermalParams(1.0, 1.0), 172), "_weights"),
            "fock_hamiltonian": (hamiltonian_fock(1.3, 172), "_energies"),
            "qubit_state": (gibbs_qubit(ThermalParams(0.7, 1.3)), "_weights"),
        }[build]
        values = getattr(wrapper, name)
        assert "mat" not in vars(wrapper) and not values.flags.writeable
        assert wrapper.dim == values.size
        mat = wrapper.mat
        assert mat is wrapper.mat and not mat.flags.writeable
        assert mat.tobytes() == np.diag(values).astype(complex).tobytes()

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.0 + 1e-6, -1e-6], "negative eigenvalue -1.000e-06"),
            ([0.5, 0.5 + 1e-9], "trace"),
            ([0.5, math.nan], "non-finite"),
        ],
        ids=["negative_weight", "trace_off_by_1e-9", "nan"],
    )
    def test_rejects_what_the_checked_constructor_rejects(self, weights, message):
        with pytest.raises(ValueError, match=message) as fast:
            _DiagonalState(np.array(weights))
        with pytest.raises(ValueError) as checked:
            DensityMatrix(np.diag(weights).astype(complex))
        assert str(fast.value) == str(checked.value)


def _state_with_min_eigenvalue(rng, dim: int, lam_min: float) -> np.ndarray:
    """Unit-trace Hermitian matrix in a random eigenbasis whose smallest
    eigenvalue is lam_min."""
    rest = rng.uniform(0.5, 1.5, size=dim - 1)
    rest *= (1.0 - lam_min) / rest.sum()
    u = random_unitary(rng, dim)
    m = (u * np.concatenate(([lam_min], rest))) @ u.conj().T
    return 0.5 * (m + m.conj().T)


class TestPositivityCertificate:
    """The Cholesky certificate must decide exactly as the eigenvalue test
    `min eigenvalue >= -TOL_PSD` does, away from round-off at the boundary."""

    @pytest.mark.parametrize("dim", [2, 30, 346])
    def test_tolerance_boundary(self, rng, dim):
        DensityMatrix(_state_with_min_eigenvalue(rng, dim, -0.999 * TOL_PSD))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(_state_with_min_eigenvalue(rng, dim, -1.001 * TOL_PSD))

    def test_error_names_the_eigenvalue(self, rng):
        with pytest.raises(ValueError, match=r"negative eigenvalue -1\.001e-09"):
            DensityMatrix(_state_with_min_eigenvalue(rng, 30, -1.001 * TOL_PSD))

    @pytest.mark.parametrize("dim", [2, 30, 346])
    def test_pure_state_accepted(self, rng, dim):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        assert DensityMatrix(np.outer(psi, psi.conj())).dim == dim

    def test_gibbs_states_with_vanishing_populations_accepted(self, rng):
        rho = gibbs_fock(ThermalParams(1.0, 1.0), 172).mat
        assert np.diag(rho).real.min() < 1e-74
        u = random_unitary(rng, rho.shape[0])
        rotated = u @ rho @ u.conj().T
        DensityMatrix(0.5 * (rotated + rotated.conj().T))

    def test_decision_matches_eigenvalue_test(self, rng):
        decisions = {True: 0, False: 0}
        for _ in range(300):
            dim = int(rng.integers(2, 41))
            if rng.uniform() < 0.2:
                # Generic Hermitian matrix with unit trace: usually far from PSD.
                m = random_hermitian(rng, dim)
                m -= (np.trace(m).real - 1.0) / dim * np.eye(dim)
            else:
                offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.5, -7.0)
                m = _state_with_min_eigenvalue(rng, dim, -TOL_PSD + offset)
            lam_min = np.linalg.eigvalsh(m).min()
            if abs(lam_min + TOL_PSD) <= 1e-12:
                continue
            expected = lam_min >= -TOL_PSD
            try:
                DensityMatrix(m)
                accepted = True
            except ValueError as exc:
                assert "negative eigenvalue" in str(exc)
                accepted = False
            assert accepted == expected, (dim, lam_min)
            decisions[accepted] += 1
        assert min(decisions.values()) >= 50


@pytest.mark.parametrize(
    "wrapper, make",
    [
        (DensityMatrix, random_density),
        (HermitianOperator, random_hermitian),
        (UnitaryOperator, random_unitary),
    ],
)
def test_wrapper_owns_a_read_only_copy(rng, wrapper, make):
    source = make(rng, 3)
    w = wrapper(source)
    kept = w.mat.copy()
    source[0, 0] = 5.0
    assert np.array_equal(w.mat, kept)
    with pytest.raises(ValueError):
        w.mat[0, 0] = 5.0


@pytest.mark.parametrize(
    "wrapper, make",
    [
        (DensityMatrix, random_density),
        (HermitianOperator, random_hermitian),
        (UnitaryOperator, random_unitary),
    ],
)
def test_validation_writes_to_no_array(rng, wrapper, make):
    # The diagonal shifts of the positivity and unitarity checks act on
    # copies: neither the caller's array nor the stored copy changes.
    source = make(rng, 4)
    before = source.copy()
    w = wrapper(source)
    assert source.tobytes() == before.tobytes()
    assert w.mat.tobytes() == before.tobytes() and not w.mat.flags.writeable


class TestUnitaryOperator:
    def test_accepts_unitary(self, rng):
        u = UnitaryOperator(random_unitary(rng, 5))
        assert u.dim == 5

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="defect"):
            UnitaryOperator(np.diag([1.0, 2.0]).astype(complex))

    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_rejects_twice_the_tolerance(self, where):
        # U†U - I is 2·TOL_UNITARY at [0, 0], or at [0, 1] and [1, 0] (the
        # diagonal then carries only TOL_UNITARY^2).
        m = np.eye(3, dtype=complex)
        if where == "diagonal":
            m[0, 0] = math.sqrt(1.0 + 2.0 * TOL_UNITARY)
        else:
            m[0, 1] = m[1, 0] = TOL_UNITARY
        with pytest.raises(ValueError, match=r"^UnitaryOperator defect 2\.000e-10 exceeds tolerance$"):
            UnitaryOperator(m)


class TestWrapperContract:
    def test_no_module_builds_a_wrapper_around_its_validator(self):
        """Every DensityMatrix, HermitianOperator and UnitaryOperator the
        package builds passes through its validator: no module allocates
        one with object.__new__."""
        modules = sorted(Path(switchwork.__file__).parent.glob("*.py"))
        assert len(modules) > 5
        assert [m.name for m in modules if "object.__new__" in m.read_text()] == []


class TestHermitianOperator:
    def test_accepts_hermitian(self, rng):
        h = HermitianOperator(random_hermitian(rng, 5))
        assert h.dim == 5

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestExpm:
    def test_anti_hermitian_generator_gives_unitary(self, rng):
        h = random_hermitian(rng, 6)
        u = expm(1j * h)
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-12

    def test_matches_eigen_decomposition(self, rng):
        h = random_hermitian(rng, 4)
        evals, evecs = np.linalg.eigh(h)
        expected = evecs @ np.diag(np.exp(1j * evals)) @ evecs.conj().T
        assert np.max(np.abs(expm(1j * h) - expected)) < 1e-12

    def test_zero_generator_is_exact_identity(self):
        assert np.array_equal(expm(np.zeros((3, 3), dtype=complex)), np.eye(3, dtype=complex))

    def test_generator_neither_hermitian_nor_anti_hermitian_is_rejected(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ValueError, match="neither Hermitian nor anti-Hermitian"):
            expm(g)


class TestKronAndPartialTrace:
    def test_kron_shape_and_values(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        b = np.eye(3, dtype=complex)
        k = kron(a, b)
        assert k.shape == (6, 6)
        assert np.allclose(k[:3, :3], b)
        assert np.allclose(k[:3, 3:], 2.0 * b)

    def test_partial_trace_recovers_factors(self, rng):
        ra = random_density(rng, 3)
        rb = random_density(rng, 4)
        joint = kron(ra, rb)
        assert np.max(np.abs(partial_trace(joint, 3, 4, "a") - ra)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, 3, 4, "b") - rb)) < 1e-12

    def test_partial_trace_preserves_trace(self, rng):
        joint = random_density(rng, 12)
        for keep in ("a", "b"):
            red = partial_trace(joint, 3, 4, keep)
            assert abs(np.trace(red) - 1.0) < 1e-12

    def test_partial_trace_of_entangled_state(self):
        # Maximally entangled 2x2 state reduces to I/2 on both factors.
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        joint = np.outer(psi, psi.conj())
        for keep in ("a", "b"):
            assert np.max(np.abs(partial_trace(joint, 2, 2, keep) - np.eye(2) / 2.0)) < 1e-12
