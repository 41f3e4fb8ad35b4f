"""Thermal states, Hamiltonians, passivity, and ergotropy."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import random_density, random_hermitian
from switchwork.qmat import DensityMatrix, HermitianOperator
from switchwork.states import (
    BlochState,
    ControlHamiltonianParams,
    QubitSystemParams,
    ThermalParams,
    ergotropy,
    ergotropy_gibbs_bound,
    fock_truncation_rule,
    gibbs_fock,
    gibbs_qubit,
    hamiltonian_control,
    hamiltonian_fock,
    hamiltonian_qubit_system,
    is_passive,
    passive_state_from_spectrum,
    von_neumann_entropy,
)


def brute_force_ergotropy(rho: DensityMatrix, h: HermitianOperator) -> float:
    """Independent oracle: minimize tr{U rho U† H} over every permutation
    pairing of rho-eigenvectors with h-eigenvectors (optimal unitaries for
    work extraction are exactly these when the spectra are non-degenerate)."""
    pops = np.linalg.eigvalsh(rho.mat)
    energies = np.linalg.eigvalsh(h.mat)
    e_initial = float(np.trace(rho.mat @ h.mat).real)
    best = math.inf
    for perm in itertools.permutations(range(len(pops))):
        best = min(best, float(sum(pops[p] * energies[k] for k, p in enumerate(perm))))
    return e_initial - best


class TestBlochState:
    def test_density_matrix_convention(self):
        # cos(t/2)|0> + e^{i p} sin(t/2)|1>  =>  <0|rho|1> = (1/2) sin t e^{-i p}
        t, p = 1.1, 2.3
        rho = BlochState(t, p).to_density().mat
        assert abs(rho[0, 0] - math.cos(t / 2.0) ** 2) < 1e-14
        assert abs(rho[0, 1] - 0.5 * math.sin(t) * np.exp(-1j * p)) < 1e-14

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="theta"):
            BlochState(-0.1, 0.0)
        with pytest.raises(ValueError, match="theta"):
            BlochState(math.pi + 0.1, 0.0)
        with pytest.raises(ValueError, match="phi"):
            BlochState(1.0, 2.0 * math.pi)
        with pytest.raises(ValueError, match="phi"):
            BlochState(1.0, -0.1)

    def test_poles_are_basis_states(self):
        north = BlochState(0.0, 0.0).to_density().mat
        south = BlochState(math.pi, 0.0).to_density().mat
        assert np.allclose(north, np.diag([1.0, 0.0]))
        assert np.allclose(south, np.diag([0.0, 1.0]))


class TestThermalParams:
    def test_domain(self):
        ThermalParams(0.0, 1.0)  # infinite temperature is a valid qubit limit
        ThermalParams(math.inf, 1.0)
        with pytest.raises(ValueError):
            ThermalParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            ThermalParams(1.0, 0.0)

    @pytest.mark.parametrize("beta, omega", [(math.nan, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_nan_beta_and_non_finite_omega(self, beta, omega):
        with pytest.raises(ValueError, match="beta must be non-negative|omega must be positive"):
            ThermalParams(beta, omega)

    def test_n_th_values(self):
        assert ThermalParams(math.inf, 1.0).n_th == 0.0
        expected = 1.0 / (math.e - 1.0)
        assert abs(ThermalParams(1.0, 1.0).n_th - expected) < 1e-15
        with pytest.raises(ValueError, match="diverges"):
            ThermalParams(0.0, 1.0).n_th


class TestGibbsQubit:
    def test_unit_temperature_populations(self):
        rho = gibbs_qubit(ThermalParams(1.0, 1.0)).mat
        assert abs(rho[0, 0] - 0.7310585786300049) < 1e-15
        assert abs(rho[1, 1] - 0.2689414213699951) < 1e-15

    def test_limits(self):
        hot = gibbs_qubit(ThermalParams(0.0, 1.0)).mat
        assert np.allclose(hot, np.eye(2) / 2.0)
        cold = gibbs_qubit(ThermalParams(math.inf, 1.0)).mat
        assert np.allclose(cold, np.diag([1.0, 0.0]))

    def test_is_passive_for_system_hamiltonian(self):
        rho = gibbs_qubit(ThermalParams(0.7, 1.3))
        h = hamiltonian_qubit_system(QubitSystemParams(1.3))
        passive, witness = is_passive(rho, h)
        assert passive and witness is None


class TestGibbsFock:
    def test_mean_occupation_geometric(self):
        rho = gibbs_fock(ThermalParams(1.0, 1.0), 60).mat
        n_op = np.diag(np.arange(61, dtype=float))
        mean = float(np.trace(rho @ n_op).real)
        assert abs(mean - 0.58197670686932645) < 1e-8

    def test_ground_state_limit(self):
        rho = gibbs_fock(ThermalParams(math.inf, 1.0), 20).mat
        expected = np.zeros((21, 21))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected)

    def test_infinite_temperature_rejected(self):
        with pytest.raises(ValueError, match="not truncatable"):
            gibbs_fock(ThermalParams(0.0, 1.0), 50)

    def test_inadequate_cutoff_rejected(self):
        with pytest.raises(ValueError, match="truncation tail"):
            gibbs_fock(ThermalParams(0.1, 1.0), 20)

    def test_truncation_rule_certifies_tail(self):
        for beta in (0.3, 1.0, 4.0):
            n_max = fock_truncation_rule(beta, 1.0)
            assert math.exp(-beta * (n_max + 1)) <= 1e-12
            gibbs_fock(ThermalParams(beta, 1.0), n_max)  # must not raise

    def test_truncation_rule_values(self):
        assert fock_truncation_rule(1.0, 1.0) == 38
        assert fock_truncation_rule(math.inf, 1.0) == 20

    def test_mean_energy_offset(self):
        p = ThermalParams(1.0, 1.0)
        rho = gibbs_fock(p, 60).mat
        h = hamiltonian_fock(1.0, 60).mat
        assert abs(np.trace(rho @ h).real - (p.n_th + 0.5)) < 1e-8


class TestHamiltonians:
    def test_qubit_system_diagonal(self):
        h = hamiltonian_qubit_system(QubitSystemParams(2.5)).mat
        assert np.allclose(h, np.diag([0.0, 2.5]))

    def test_control_coupling_block(self):
        h = hamiltonian_control(ControlHamiltonianParams(1.0, 0.8, 0.3)).mat
        t = 0.8 * np.exp(1j * 0.3)
        assert np.allclose(h, np.array([[0.0, t], [t.conjugate(), 1.0]]))

    @pytest.mark.parametrize(
        "omega, t_abs, t_phase",
        [(1.0, math.nan, 0.0), (1.0, math.inf, 0.0), (1.0, 0.5, math.nan), (1.0, 0.5, -math.inf),
         (math.inf, 0.5, 0.0)],
    )
    def test_control_record_rejects_a_non_finite_parameter(self, omega, t_abs, t_phase):
        with pytest.raises(ValueError, match="finite"):
            ControlHamiltonianParams(omega, t_abs, t_phase)

    def test_qubit_system_record_rejects_infinite_omega(self):
        with pytest.raises(ValueError, match="finite"):
            QubitSystemParams(math.inf)

    def test_fock_ladder_spectrum(self):
        h = hamiltonian_fock(2.0, 5).mat
        assert np.allclose(np.diag(h), 2.0 * (np.arange(6) + 0.5))
        assert np.allclose(h, np.diag(np.diag(h)))


class TestErgotropy:
    def test_matches_permutation_brute_force(self, rng):
        for _ in range(100):
            rho = DensityMatrix(random_density(rng, 4))
            h = HermitianOperator(random_hermitian(rng, 4))
            assert abs(ergotropy(rho, h) - brute_force_ergotropy(rho, h)) < 1e-10

    def test_gibbs_states_have_zero_ergotropy(self, rng):
        for beta in (0.2, 1.0, 3.0):
            h = HermitianOperator(random_hermitian(rng, 4))
            evals, evecs = np.linalg.eigh(h.mat)
            pops = np.exp(-beta * evals)
            pops /= pops.sum()
            rho = DensityMatrix(evecs @ np.diag(pops) @ evecs.conj().T)
            assert abs(ergotropy(rho, h)) < 1e-10

    def test_nonnegative(self, rng):
        for _ in range(50):
            rho = DensityMatrix(random_density(rng, 3))
            h = HermitianOperator(random_hermitian(rng, 3))
            assert ergotropy(rho, h) >= -1e-12

    def test_passivity_criterion_is_ergotropy_threshold(self, rng):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]).astype(complex))
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0]).astype(complex))
        passive, witness = is_passive(rho, h)
        assert not passive
        assert witness is not None
        # The witness unitary must extract exactly the ergotropy.
        rotated = witness @ rho.mat @ witness.conj().T
        extracted = float(np.trace(rho.mat @ h.mat).real - np.trace(rotated @ h.mat).real)
        assert abs(extracted - ergotropy(rho, h)) < 1e-10


class TestPassiveStateFromSpectrum:
    def test_populations_anti_ordered_with_energies(self, rng):
        h = HermitianOperator(random_hermitian(rng, 4))
        pops = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        rho = passive_state_from_spectrum(pops, h)
        passive, witness = is_passive(rho, h)
        assert passive and witness is None

    def test_sorts_populations_before_attaching(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0]).astype(complex))
        rho = passive_state_from_spectrum(np.array([0.2, 0.5, 0.3]), h)
        assert np.allclose(np.diag(rho.mat).real, [0.5, 0.3, 0.2])


class TestEntropyAndGibbsBound:
    def test_entropy_limits(self):
        pure = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        mixed = DensityMatrix(np.eye(3, dtype=complex) / 3.0)
        assert abs(von_neumann_entropy(pure)) < 1e-12
        assert abs(von_neumann_entropy(mixed) - math.log(3.0)) < 1e-12

    def test_gibbs_bound_dominates_ergotropy(self, rng):
        for _ in range(10):
            rho = DensityMatrix(random_density(rng, 3))
            h = HermitianOperator(np.diag(np.sort(rng.uniform(0.0, 3.0, size=3))).astype(complex))
            res = ergotropy_gibbs_bound(rho, h)
            assert res.converged
            assert res.bound >= ergotropy(rho, h) - 1e-9
            # The entropy-matched Gibbs state reproduces the input entropy.
            assert res.entropy_residual < 1e-8

    @staticmethod
    def _reference_root(rho: DensityMatrix, h: HermitianOperator):
        """beta* to 50 digits for the float inputs the bound sees: the
        entropy of rho as computed, and the spectrum of h."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            target = mpmath.mpf(von_neumann_entropy(rho))
            eps = [mpmath.mpf(float(e)) for e in np.linalg.eigvalsh(h.mat)]

            def entropy(beta):
                w = [mpmath.exp(-beta * (e - eps[0])) for e in eps]
                p = [x / sum(w) for x in w]
                return -sum(x * mpmath.log(x) for x in p)

            beta = mpmath.exp(mpmath.findroot(lambda lb: entropy(mpmath.exp(lb)) - target, 0.0))
            # 1 / |d S / d log beta|: how far round-off in S moves beta*.
            condition = 1.0 / float(abs(beta * mpmath.diff(entropy, beta)))
            return float(beta), condition

    def test_gibbs_bound_root_matches_50_digit_reference(self, rng):
        """The bisection on log beta lands within a few ulp of beta*, scaled
        by the root's condition number, since S itself is evaluated in
        floating point."""
        cases = [
            (
                DensityMatrix(np.array([[0.5, 0.1j, 0.05], [-0.1j, 0.3, 0.0], [0.05, 0.0, 0.2]])),
                HermitianOperator(np.diag([0.0, 1.0, 2.5])),
            )
        ]
        for d in (2, 3, 8, 20):
            h = np.diag(np.sort(rng.uniform(0.0, 3.0, size=d))).astype(complex)
            cases.append((DensityMatrix(random_density(rng, d)), HermitianOperator(h)))
        for rho, h in cases:
            res = ergotropy_gibbs_bound(rho, h)
            beta, condition = self._reference_root(rho, h)
            assert res.converged
            assert abs(res.beta_star - beta) <= 4.0 * max(1.0, condition) * math.ulp(beta)

    def test_gibbs_bound_clamps_and_reports_unreachable_entropy(self):
        # A gap of 1e9 keeps S(gibbs(1e-8)) far below the entropy ln 2 of I/2.
        hot = ergotropy_gibbs_bound(
            DensityMatrix(np.eye(2, dtype=complex) / 2.0), HermitianOperator(np.diag([0.0, 1e9]))
        )
        assert (hot.beta_star, hot.converged) == (1e-8, False)
        assert hot.entropy_residual > 0.1
        # A doubly degenerate ground level leaves S(gibbs(1e8)) at ln 2 > 0.
        cold = ergotropy_gibbs_bound(
            DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex)),
            HermitianOperator(np.diag([0.0, 0.0, 1.0])),
        )
        assert (cold.beta_star, cold.converged) == (1e8, False)
        assert abs(cold.entropy_residual - math.log(2.0)) < 1e-12
