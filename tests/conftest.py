"""Shared fixtures and helpers for the test suite."""
from __future__ import annotations

import math

import numpy as np
import pytest

from switchwork.qmat import DensityMatrix, HermitianOperator, UnitaryOperator
from switchwork.states import BlochState
from switchwork.switchcore import SwitchScenario


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def partial_trace(rho, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Reduce a (dim_a*dim_b)-dim matrix (or wrapper) over one tensor factor.

    keep: "a" keeps the first factor, "b" the second.  Trace is preserved.
    The library reduces states blockwise; this is the tests' independent
    reference for reduced states.
    """
    m = rho.mat if hasattr(rho, "mat") else np.asarray(rho, dtype=complex)
    if m.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError(f"matrix of shape {m.shape} does not factor as {dim_a}x{dim_b}")
    if keep not in ("a", "b"):
        raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")
    r = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "a":
        return np.einsum("ikjk->ij", r)
    return np.einsum("kikj->ij", r)


def random_qubit_scenario(rng: np.random.Generator) -> SwitchScenario:
    """Generic (not necessarily passive) qubit scenario."""
    return SwitchScenario(
        rho_s=DensityMatrix(random_density(rng, 2)),
        control=BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)),
        u1=UnitaryOperator(random_unitary(rng, 2)),
        u2=UnitaryOperator(random_unitary(rng, 2)),
        h_s=HermitianOperator(random_hermitian(rng, 2)),
        h_c=HermitianOperator(random_hermitian(rng, 2)),
    )
