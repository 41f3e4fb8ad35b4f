"""Dense complex-matrix kernel: typed wrappers and linear-algebra helpers."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_density, random_hermitian, random_unitary
from switchwork.qmat import (
    DensityMatrix,
    HermitianOperator,
    UnitaryOperator,
    dagger,
    eig_hermitian,
    expm,
    kron,
    partial_trace,
)


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


class TestUnitaryOperator:
    def test_accepts_unitary(self, rng):
        u = UnitaryOperator(random_unitary(rng, 5))
        assert u.dim == 5

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="defect"):
            UnitaryOperator(np.diag([1.0, 2.0]).astype(complex))


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


class TestEigAndDagger:
    def test_eig_hermitian_sorted_and_consistent(self, rng):
        h = random_hermitian(rng, 6)
        evals, evecs = eig_hermitian(h)
        assert np.all(np.diff(evals) >= 0.0)
        recon = evecs @ np.diag(evals) @ evecs.conj().T
        assert np.max(np.abs(recon - h)) < 1e-10

    def test_dagger(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(dagger(m), m.conj().T)
