"""Controlled-order switch: joint unitary, chi, energy bookkeeping,
control-term minimization, and post-measurement reports."""
from __future__ import annotations

import cmath
import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    partial_trace,
    random_density,
    random_hermitian,
    random_qubit_scenario,
    random_unitary,
)
from switchwork import switchcore
from switchwork.cvcase import DisplacementParams, SqueezeParams, disp_squeeze_scenario
from switchwork.qmat import (
    DensityMatrix,
    HermitianOperator,
    UnitaryOperator,
    _DiagonalState,
    kron,
)
from switchwork.qubitcase import U2Params, qubit_scenario, rotation_unitary, u2_unitary
from switchwork.states import BlochState, ControlHamiltonianParams, hamiltonian_control
from switchwork.switchcore import (
    NearZeroPostSelectionError,
    SwitchScenario,
    activation_report,
    build_switch_unitary,
    chi,
    delta_c_min,
    measure_control,
    post_switch_state,
)
from switchwork.verifysuite import numeric_delta_c_minimum, random_passive_scenario

_ANGLE = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
_PHASE = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True, allow_nan=False)
_SEED = st.integers(min_value=0, max_value=2**31 - 1)


class TestSwitchUnitary:
    def test_block_structure(self, rng):
        u1 = random_unitary(rng, 3)
        u2 = random_unitary(rng, 3)
        u_qs = build_switch_unitary(UnitaryOperator(u1), UnitaryOperator(u2)).mat
        w12 = u2 @ u1
        w21 = u1 @ u2
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        expected = kron(w12, p0) + kron(w21, p1)
        assert np.max(np.abs(u_qs - expected)) < 1e-12

    def test_equal_orders_collapse_to_plain_product(self, rng):
        u = random_unitary(rng, 2)
        u_qs = build_switch_unitary(UnitaryOperator(u), UnitaryOperator(u)).mat
        expected = kron(u @ u, np.eye(2, dtype=complex))
        assert np.max(np.abs(u_qs - expected)) < 1e-12

    @staticmethod
    def _kron_formula(u1: UnitaryOperator, u2: UnitaryOperator) -> np.ndarray:
        w12, w21 = u2.mat @ u1.mat, u1.mat @ u2.mat
        return kron(w12, np.diag([1.0, 0.0])) + kron(w21, np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("d", [2, 3, 30])
    def test_equals_kron_formula_bit_for_bit(self, rng, d):
        for _ in range(3):
            u1 = UnitaryOperator(random_unitary(rng, d))
            u2 = UnitaryOperator(random_unitary(rng, d))
            assert np.array_equal(build_switch_unitary(u1, u2).mat, self._kron_formula(u1, u2))

    def test_equals_kron_formula_for_fock_pair_at_n_max_172(self):
        s = disp_squeeze_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(1.5, 0.9), SqueezeParams(0.8, 0.4),
            BlochState(math.pi / 2.0, 0.0), n_max=172,
        )
        u_qs = build_switch_unitary(s.u1, s.u2)
        assert u_qs.dim == 346
        assert np.array_equal(u_qs.mat, self._kron_formula(s.u1, s.u2))

    def test_defect_equals_dense_defect(self, rng):
        """Blocks a little off unitary (defect ~1e-12, inside the tolerance):
        the larger block defect is the dense U†U defect of the joint matrix."""

        def defect(m):
            return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))

        for _ in range(20):
            d = int(rng.integers(2, 9))
            u1, u2 = (
                UnitaryOperator(random_unitary(rng, d) * (1.0 + 1e-12 * rng.normal(size=(d, d))))
                for _ in range(2)
            )
            u_qs = build_switch_unitary(u1, u2).mat
            blocks = max(defect(u2.mat @ u1.mat), defect(u1.mat @ u2.mat))
            assert blocks > 1e-13
            assert abs(defect(u_qs) - blocks) <= 1e-15

    def test_non_unitary_block_raises(self, rng):
        # A wrapper that skipped its own check: only the validation inside
        # build_switch_unitary can catch it.
        bad = _unchecked_unitary(np.diag([1.0, 1.0 + 1e-9]).astype(complex))
        good = UnitaryOperator(random_unitary(rng, 2))
        for u1, u2 in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="UnitaryOperator defect"):
                build_switch_unitary(u1, u2)

    def test_unequal_sizes_raise(self, rng):
        with pytest.raises(ValueError, match="share a dimension"):
            build_switch_unitary(
                UnitaryOperator(random_unitary(rng, 2)), UnitaryOperator(random_unitary(rng, 3))
            )

    def test_matrix_is_read_only(self, rng):
        u = UnitaryOperator(random_unitary(rng, 3))
        u_qs = build_switch_unitary(u, u)
        with pytest.raises(ValueError):
            u_qs.mat[0, 0] = 1.0


class TestChi:
    def test_definition(self, rng):
        rho = DensityMatrix(random_density(rng, 4))
        u1 = UnitaryOperator(random_unitary(rng, 4))
        u2 = UnitaryOperator(random_unitary(rng, 4))
        w12 = u2.mat @ u1.mat
        w21 = u1.mat @ u2.mat
        expected = complex(np.trace(w12 @ rho.mat @ w21.conj().T))
        assert abs(chi(u1, u2, rho) - expected) < 1e-12

    def test_commuting_unitaries_give_unity(self, rng):
        d = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=3)))
        e = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=3)))
        rho = DensityMatrix(random_density(rng, 3))
        assert abs(chi(UnitaryOperator(d), UnitaryOperator(e), rho) - 1.0) < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=_SEED)
    def test_modulus_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        rho = DensityMatrix(random_density(rng, 3))
        u1 = UnitaryOperator(random_unitary(rng, 3))
        u2 = UnitaryOperator(random_unitary(rng, 3))
        assert abs(chi(u1, u2, rho)) <= 1.0 + 1e-10


class TestPostSwitchState:
    def test_matches_direct_conjugation(self, rng):
        s = random_qubit_scenario(rng)
        u_qs = build_switch_unitary(s.u1, s.u2).mat
        joint = kron(s.rho_s.mat, s.control.to_density().mat)
        expected = u_qs @ joint @ u_qs.conj().T
        assert np.max(np.abs(post_switch_state(s).mat - expected)) < 1e-12

    def test_reduced_control_coherence_is_chi_weighted(self, rng):
        s = random_qubit_scenario(rng)
        rho_c = partial_trace(post_switch_state(s).mat, 2, 2, "b")
        c = s.control.to_density().mat
        x = chi(s.u1, s.u2, s.rho_s)
        assert abs(rho_c[0, 1] - x * c[0, 1]) < 1e-12
        assert abs(rho_c[0, 0] - c[0, 0]) < 1e-12


class TestActivationReport:
    def test_energy_bookkeeping_identity(self, rng):
        for _ in range(25):
            s = random_qubit_scenario(rng)
            rep = activation_report(s)
            assert abs(rep.delta_qs - (rep.delta_s + rep.delta_c)) < 1e-12

    def test_order_energies_are_plain_conjugations(self, rng):
        s = random_qubit_scenario(rng)
        rep = activation_report(s)
        w12 = s.u2.mat @ s.u1.mat
        w21 = s.u1.mat @ s.u2.mat
        e12 = float(np.trace(w12 @ s.rho_s.mat @ w12.conj().T @ s.h_s.mat).real)
        e21 = float(np.trace(w21 @ s.rho_s.mat @ w21.conj().T @ s.h_s.mat).real)
        assert abs(rep.e12 - e12) < 1e-12
        assert abs(rep.e21 - e21) < 1e-12

    def test_tilde_states_split_joint_energy(self, rng):
        for _ in range(10):
            s = random_qubit_scenario(rng)
            rep = activation_report(s)
            joint = post_switch_state(s).mat
            h_joint = kron(s.h_s.mat, np.eye(2)) + kron(np.eye(2), s.h_c.mat)
            total = float(np.trace(joint @ h_joint).real)
            split = float(
                np.trace(rep.tilde_rho_s.mat @ s.h_s.mat).real
                + np.trace(rep.tilde_rho_c.mat @ s.h_c.mat).real
            )
            assert abs(total - split) < 1e-11

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=_SEED)
    def test_passive_inputs_never_activate(self, seed):
        rng = np.random.default_rng(seed)
        s = random_passive_scenario(rng)
        assert activation_report(s).delta_qs >= -1e-8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=_SEED, d=st.integers(min_value=2, max_value=4))
    def test_assemble_qs_matches_mixed_control(self, seed, d):
        # A mixed control and an h_c with a nonzero diagonal: the kernel
        # drops E_S and the diagonal of h_c, which tr rho_c = 1 cancels.
        rng = np.random.default_rng(seed)
        s = dataclasses.replace(_random_scenario(rng, d), control=DensityMatrix(random_density(rng, 2)))
        rc, hc = s.rho_c.mat, s.h_c.mat
        assert min(abs(hc[0, 0]), abs(hc[1, 1])) > 0.0 and np.linalg.eigvalsh(rc)[0] > 0.0
        rep = activation_report(s)
        terms = switchcore.KernelTerms(rep.chi - 1.0, rep.e12 - rep.e_s, rep.e21 - rep.e_s, 0j)
        delta_qs, delta_c = switchcore.assemble_qs(
            rc[0, 0].real, rc[1, 1].real, rc[0, 1] * hc[1, 0], terms
        )
        assert abs(delta_qs - rep.delta_qs) < 1e-12
        assert abs(delta_c - rep.delta_c) < 1e-12

    def test_identity_unitaries_give_zero(self, rng):
        rho = DensityMatrix(random_density(rng, 3))
        eye = UnitaryOperator(np.eye(3, dtype=complex))
        s = SwitchScenario(
            rho_s=rho,
            control=BlochState(1.0, 0.5),
            u1=eye,
            u2=eye,
            h_s=HermitianOperator(random_hermitian(rng, 3)),
            h_c=HermitianOperator(random_hermitian(rng, 2)),
        )
        rep = activation_report(s)
        assert abs(rep.delta_qs) < 1e-12
        assert abs(rep.chi - 1.0) < 1e-12


class TestDeltaCMin:
    def test_attained_value_and_optimizer_consistency(self):
        h_c = hamiltonian_control(ControlHamiltonianParams(1.0, 0.8, 0.3))
        res = delta_c_min(h_c, 0.2 + 0.5j)
        k = h_c.mat[1, 0] * (0.2 + 0.5j - 1.0)
        assert abs(res.attained - (-abs(k))) < 1e-12
        assert abs(res.tabulated - (-math.sqrt(2.0) * abs(k))) < 1e-12
        assert abs(res.delta_c_at_optimizer(h_c, 0.2 + 0.5j) - res.attained) < 1e-12

    def test_attained_matches_numeric_minimization(self, rng):
        for _ in range(10):
            t_abs = rng.uniform(0.1, 2.0)
            t_phase = rng.uniform(0.0, 2.0 * math.pi)
            x = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            x /= max(1.0, abs(x))
            h_c = hamiltonian_control(ControlHamiltonianParams(1.0, t_abs, t_phase))
            res = delta_c_min(h_c, x)
            numeric = numeric_delta_c_minimum(h_c, x)
            assert abs(numeric - res.attained) < 1e-6

    def test_tabulated_overshoots_by_sqrt2(self):
        h_c = hamiltonian_control(ControlHamiltonianParams(1.0, 1.0, 0.0))
        res = delta_c_min(h_c, -0.3 + 0.1j)
        assert res.tabulated == pytest.approx(math.sqrt(2.0) * res.attained, rel=1e-12)

    def test_chi_equal_one_gives_zero_minimum(self):
        h_c = hamiltonian_control(ControlHamiltonianParams(1.0, 1.0, 0.0))
        res = delta_c_min(h_c, 1.0 + 0.0j)
        assert res.attained == 0.0


_POLE_OR_ANGLE = st.one_of(st.sampled_from([0.0, math.pi]), _ANGLE)


class TestMeasureControl:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        angles=st.lists(_PHASE, min_size=6, max_size=6),
        beta=st.one_of(st.floats(min_value=0.0, max_value=5.0), st.just(math.inf)),
        c=st.builds(BlochState, _POLE_OR_ANGLE, _PHASE),
        m=st.builds(BlochState, _POLE_OR_ANGLE, _PHASE),
    )
    def test_kernel_matches_direct_route(self, angles, beta, c, m):
        u1, u2 = u2_unitary(U2Params(0.0, *angles[:3])), u2_unitary(U2Params(0.0, *angles[3:]))
        s = qubit_scenario(1.0, beta, 0.7, 0.3, u1, u2, c)
        t = s._terms
        a = switchcore.measurement_angles(c, m)
        df = t.f_s - t.chi * t.e_s
        terms = switchcore.KernelTerms(t.chi - 1.0, t.e12 - t.e_s, t.e21 - t.e_s, df)
        n_m, bracket = switchcore.assemble_sm(a, terms)
        conditions, lhs = switchcore.activation_conditions(a, df)
        try:
            rep = measure_control(s, m)
        except NearZeroPostSelectionError as exc:
            assert abs(exc.n_m - n_m) < 1e-12
            return
        assert abs(rep.n_m - n_m) < 1e-12
        assert abs(rep.delta_sm * rep.n_m - bracket) < 1e-12
        # The joint-space formulas decide each flag independently; compare
        # the flags wherever round-off cannot decide them.
        reference = _joint_space_reports(s, m)
        assert abs(reference["condition_ii_lhs"] - lhs) < 1e-12
        cross = (df * a.e_psi).real
        decided = (True, abs(lhs) > 1e-12, abs(cross) > 1e-12)
        for got, want, ok in zip(conditions, reference["conditions"], decided):
            assert got == want or not ok

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        c=st.builds(BlochState, _POLE_OR_ANGLE, _PHASE),
        m=st.builds(BlochState, _POLE_OR_ANGLE, _PHASE),
        chi_abs=st.floats(min_value=0.0, max_value=1.0),
        chi_arg=_PHASE,
        energies=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=4),
    )
    def test_kernel_branches_balance(self, c, m, chi_abs, chi_arg, energies):
        # The outcomes m and m_perp = -m split the unmeasured control: their
        # n_m sum to 1 and their brackets to the dephased energy change.
        # Every check is within 8 ulp of its operand scale.
        d12, d21, df_re, df_im = energies
        chi_m1 = cmath.rect(chi_abs, chi_arg) - 1.0
        terms = switchcore.KernelTerms(chi_m1, d12, d21, complex(df_re, df_im))
        m_perp = BlochState(math.pi - m.theta, (m.phi + math.pi) % (2.0 * math.pi))
        a, a_perp = switchcore.measurement_angles(c, m), switchcore.measurement_angles(c, m_perp)
        n_m, bracket = switchcore.assemble_sm(a, terms)
        n_perp, bracket_perp = switchcore.assemble_sm(a_perp, terms)
        ulp = 8.0 * np.finfo(float).eps
        assert abs(n_m + n_perp - 1.0) <= ulp
        dephased = math.cos(c.theta / 2.0) ** 2 * d12 + math.sin(c.theta / 2.0) ** 2 * d21
        assert abs(bracket + bracket_perp - dephased) <= ulp * max(map(abs, energies))
        # Commuting unitaries (chi - 1 = 0) leave the Born rule |<m|c>|^2.
        n_commuting = switchcore.assemble_sm(a, terms._replace(chi_m1=0j))[0]
        assert abs(n_commuting - abs(np.vdot(m.to_ket(), c.to_ket())) ** 2) <= ulp

    @pytest.mark.parametrize(
        "c, m",
        [(BlochState(math.pi, 0.0), BlochState(1.0, 4.0)), (BlochState(1.0, 0.0), BlochState(math.pi, 4.0))],
        ids=["control_south_pole", "measurement_south_pole"],
    )
    def test_south_pole_fails_condition_i_and_iii(self, c, m):
        # math.sin(math.pi) = 1.2e-16: a rule on the sines took these points
        # for points off the poles and reported (True, True, True).
        u1, u2 = rotation_unitary("x", 1.0), rotation_unitary("y", 0.7)
        rep = measure_control(qubit_scenario(1.0, 0.5, 0.3, 0.0, u1, u2, c), m)
        assert rep.conditions == (False, True, False)

    def test_post_selection_weight_formula(self, rng):
        for _ in range(20):
            s = random_qubit_scenario(rng)
            m = BlochState(rng.uniform(0.1, math.pi - 0.1), rng.uniform(0.0, 2.0 * math.pi))
            rep = measure_control(s, m)
            proj = m.to_density().mat
            joint = post_switch_state(s).mat
            big_proj = kron(np.eye(2, dtype=complex), proj)
            expected = float(np.trace(joint @ big_proj).real)
            assert abs(rep.n_m - expected) < 1e-12

    def test_conditioned_state_energy(self, rng):
        s = random_qubit_scenario(rng)
        m = BlochState(1.0, 0.3)
        rep = measure_control(s, m)
        assert abs(rep.e_sm - float(np.trace(rep.rho_sm.mat @ s.h_s.mat).real)) < 1e-11

    def test_divergence_raises_tagged_error(self):
        # chi = 1 with control |+> and measurement |->: N_M = 0 exactly.
        eye = UnitaryOperator(np.eye(2, dtype=complex))
        s = SwitchScenario(
            rho_s=DensityMatrix(np.eye(2, dtype=complex) / 2.0),
            control=BlochState(math.pi / 2.0, 0.0),
            u1=eye,
            u2=eye,
            h_s=HermitianOperator(np.diag([0.0, 1.0]).astype(complex)),
            h_c=HermitianOperator(np.diag([0.0, 1.0]).astype(complex)),
        )
        with pytest.raises(NearZeroPostSelectionError) as exc:
            measure_control(s, BlochState(math.pi / 2.0, math.pi))
        assert exc.value.n_m <= 1e-12

    def test_interference_term_cancels_unconditional_energy(self, rng):
        # The measured energy difference decomposes over (delta_12, delta_21,
        # interference) with no residual dependence on the pre-switch energy.
        for _ in range(10):
            s = random_qubit_scenario(rng)
            m = BlochState(rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2.0 * math.pi))
            rep_a = activation_report(s)
            try:
                rep_m = measure_control(s, m)
            except NearZeroPostSelectionError:
                continue
            cc = s.control.to_density().mat
            mm = m.to_density().mat
            psi = m.phi - s.control.phi
            num = (
                cc[0, 0].real * mm[0, 0].real * (rep_a.e12 - rep_a.e_s)
                + cc[1, 1].real * mm[1, 1].real * (rep_a.e21 - rep_a.e_s)
                + 0.5
                * math.sin(s.control.theta)
                * math.sin(m.theta)
                * (rep_m.delta_f * cmath.exp(1j * psi)).real
            )
            assert abs(rep_m.delta_sm - num / rep_m.n_m) < 1e-10

    def test_condition_flags_match_reported_sign(self, rng):
        hits = 0
        for _ in range(60):
            s = random_qubit_scenario(rng)
            m = BlochState(rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2.0 * math.pi))
            try:
                rep = measure_control(s, m)
            except NearZeroPostSelectionError:
                continue
            if all(rep.conditions):
                hits += 1
                assert rep.condition_ii_lhs != 0.0
        assert hits > 0  # the three flags must be attainable simultaneously


def _random_scenario(rng: np.random.Generator, d: int) -> SwitchScenario:
    return SwitchScenario(
        rho_s=DensityMatrix(random_density(rng, d)),
        control=BlochState(rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2.0 * math.pi)),
        u1=UnitaryOperator(random_unitary(rng, d)),
        u2=UnitaryOperator(random_unitary(rng, d)),
        h_s=HermitianOperator(random_hermitian(rng, d)),
        h_c=HermitianOperator(random_hermitian(rng, 2)),
    )


def _fock_scenario(n_max: int) -> SwitchScenario:
    return disp_squeeze_scenario(
        1.0, 1.0, 0.5, 0.0, DisplacementParams(1.0, 0.9), SqueezeParams(0.5, 0.4),
        BlochState(math.pi / 2.0, 0.0), n_max=n_max,
    )


def _shift_energy(rho: np.ndarray, h: np.ndarray, eta: float) -> DensityMatrix:
    """rho moved along the extreme eigenvectors of h so that tr{rho h}
    changes by eta and the trace does not."""
    w, v = np.linalg.eigh(h)
    lo, hi = v[:, 0], v[:, -1]
    step = eta / (w[-1] - w[0])
    return DensityMatrix(rho + step * (np.outer(hi, hi.conj()) - np.outer(lo, lo.conj())))


class TestCrossChecksFire:
    """Each runtime cross-check raises when one of its routes is corrupted.

    The corruptions: the joint energy read from the weighted blocks (off by
    a constant, or with rho_c's coherences swapped), the tilde route (the
    system mixture built from the wrong order's block, or energy moved
    between system and control, which keeps their sum), the cached columns
    and weights that the d-space products R12, A12 and R21 are formed from,
    or the factor order of the switch blocks W12 and W21, the angle factors
    measure_control weighs them with, and one cached kernel scalar.  The
    probe checks the three products before any report reads them, so a
    term corrupted before its first use raises there; the measure_control
    checks read the kernel record and the angles after the probe, as a
    faulty kernel or weight would leave them.
    """

    @pytest.fixture
    def scenario(self, rng):
        return _random_scenario(rng, 3)

    M = BlochState(1.1, 2.3)

    def _corrupt_terms(self, monkeypatch, s, **fields):
        monkeypatch.setitem(s.__dict__, "_terms", dataclasses.replace(s._terms, **fields))

    def test_energy_routes(self, scenario, monkeypatch):
        # The former shift of H_SC by 1e-6 I moves tr{E H_SC} by 1e-6 tr E.
        original = switchcore._joint_energy
        monkeypatch.setattr(
            switchcore, "_joint_energy", lambda t, rho_c, h_c: original(t, rho_c, h_c) + 1e-6
        )
        with pytest.raises(AssertionError, match="energy routes disagree"):
            activation_report(scenario)

    def test_swapped_control_coherences(self, scenario, monkeypatch):
        """Weights rc_10 and rc_01 swapped on the blocks A12 and A12†: with
        a complex t = <0|h_c|1> and a phased control the joint energy moves,
        and the kernel, which reads rc_01, disagrees."""
        rc, coupling = scenario.rho_c.mat, scenario.h_c.mat[0, 1]
        assert abs(rc[0, 1].imag) > 1e-3 and abs(coupling.imag) > 1e-3
        original = switchcore._joint_energy
        monkeypatch.setattr(
            switchcore, "_joint_energy", lambda t, rho_c, h_c: original(t, rho_c.T, h_c)
        )
        with pytest.raises(AssertionError, match="energy routes disagree"):
            activation_report(scenario)

    def test_mixed_split(self, scenario, monkeypatch):
        original = switchcore._tilde_states

        def wrong_order(s, x):
            t = s._terms  # the columns of W21 B and W12 B in swapped places
            swapped = dataclasses.replace(t, v=t.v[:, ::-1])
            return original(SimpleNamespace(rho_c=s.rho_c, h_s=s.h_s, _terms=swapped), x)

        monkeypatch.setattr(switchcore, "_tilde_states", wrong_order)
        with pytest.raises(AssertionError, match="mixed-state split disagrees"):
            activation_report(scenario)

    def test_mixed_split_on_the_diagonal_route(self, monkeypatch):
        """A thermal state's tilde_rho_s is read on its diagonal; that
        diagonal weighted with rc11 on R12 and rc00 on R21 moves its
        energy, and the split no longer matches the joint energy."""
        s = disp_squeeze_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(1.0, 0.9), SqueezeParams(0.5, 0.4),
            BlochState(1.1, 0.6), n_max=40,
        )
        original = switchcore._SwitchTerms.diagonal
        monkeypatch.setattr(switchcore._SwitchTerms, "diagonal", lambda t, w: original(t, w[::-1, ::-1]))
        with pytest.raises(AssertionError, match="mixed-state split disagrees"):
            activation_report(s)

    def test_delta_c_closed_form(self, scenario, monkeypatch):
        original = switchcore._tilde_states

        def moved(s, x):
            tilde_s, tilde_c = original(s, x)
            eta = 1e-6
            return (
                _shift_energy(tilde_s.mat, s.h_s.mat, eta),
                _shift_energy(tilde_c.mat, s.h_c.mat, -eta),
            )

        monkeypatch.setattr(switchcore, "_tilde_states", moved)
        with pytest.raises(AssertionError, match="delta_c closed form disagrees"):
            activation_report(scenario)

    @pytest.mark.parametrize("route", ["terms", "joint"])
    def test_post_switch_expansion(self, scenario, monkeypatch, route):
        if route == "terms":
            self._corrupt_terms(monkeypatch, scenario, v=scenario._terms.v + 1e-6)
        else:
            original = switchcore._switch_blocks
            monkeypatch.setattr(
                switchcore, "_switch_blocks", lambda u1, u2, *rest: original(u2, u1, *rest)
            )
        for call in (lambda: post_switch_state(scenario), lambda: measure_control(scenario, self.M)):
            with pytest.raises(AssertionError, match="post-switch expansion disagrees"):
                call()

    @pytest.mark.parametrize("kind", ["dense_3", "dense_30", "fock"])
    @pytest.mark.parametrize(
        "fault",
        ["entry_w12", "entry_w21", "swapped_w12_w21", "conjugated_w21", "scaled_p", "swapped_unitaries"],
    )
    def test_probe_catches_column_faults(self, rng, monkeypatch, kind, fault):
        """The Freivalds probe, not a dense comparison, is the only check
        between the terms and the conjugation.  The terms are the kept
        columns W12 B[:, S] and W21 B[:, S] with their weights, B rho's
        eigenbasis: a dense rho's from eigh (d = 3 and 30), the identity
        for a thermal state's.  Each corruption of them, or of the factor
        order they are formed in, trips the probe in every report.  An
        entry fault moves row 0 of the column of the largest weight by
        1e-6 / max p, so row 0 of each term it enters moves by about 1e-6
        in norm."""
        if fault == "swapped_unitaries":
            original = switchcore._switch_blocks
            monkeypatch.setattr(
                switchcore, "_switch_blocks", lambda u1, u2, *rest: original(u2, u1, *rest)
            )
        s = _fock_scenario(n_max=84) if kind == "fock" else _random_scenario(rng, int(kind[6:]))
        if fault != "swapped_unitaries":
            t = s._terms
            w12, w21, j = t.v[:, 0], t.v[:, 1], int(np.argmax(t.p))
            if fault.startswith("entry_"):
                wrong = t.v.copy()
                wrong[0, ("w12", "w21").index(fault.removeprefix("entry_")), j] += 1e-6 / t.p[j]
                faulty = {"v": wrong}
            else:
                faulty = {
                    "swapped_w12_w21": {"v": np.stack((w21, w12), axis=1)},
                    "conjugated_w21": {"v": np.stack((w12, w21.conj()), axis=1)},
                    "scaled_p": {"p": 1.001 * t.p},
                }[fault]
            self._corrupt_terms(monkeypatch, s, **faulty)
        for call in (
            lambda: activation_report(s),
            lambda: measure_control(s, self.M),
            lambda: post_switch_state(s),
        ):
            with pytest.raises(AssertionError, match="post-switch expansion disagrees"):
                call()

    def test_post_selected_energy_stays_in_the_spectrum(self, monkeypatch):
        """A weighted diagonal biased by (w00 + w11) (|n_max><n_max| - |0><0|),
        as R12 and R21 biased by that matrix would give, keeps its trace,
        n_m and the bounds that settle rho_sm on its diagonal; only the
        spectrum bound on e_sm is left to stop it, before the energy routes
        are compared.  A thermal state's terms are kept as columns, whose
        every weighted sum is PSD, and rho_sm is read on the diagonal route,
        so the bias goes into that route."""
        s = _fock_scenario(n_max=40)
        post_switch_state(s)  # probe the clean terms
        bias = np.zeros(s.rho_s.dim)
        bias[0], bias[-1] = -1.0, 1.0
        assert s._terms.v is not None
        original = switchcore._SwitchTerms.diagonal
        monkeypatch.setattr(
            switchcore._SwitchTerms, "diagonal", lambda t, w: original(t, w) + (w[0, 0] + w[1, 1]) * bias
        )
        with pytest.raises(AssertionError, match="post-selected energy lies outside the spectrum"):
            measure_control(s, BlochState(math.pi / 2.0, math.pi))

    @pytest.mark.parametrize("control", ["north_pole", "south_pole", "diagonal_mixed"])
    def test_probe_sees_a12_without_control_coherence(self, monkeypatch, control):
        """W21's kept columns and chi rotated by a phase: R12 and R21 keep
        their values and A12 = W12 diag(p) W21† turns with chi.  With no
        control coherence the joint state does not depend on A12, and only
        the probe of A12 itself stops the wrong chi from reaching the
        report."""
        c = BlochState(math.pi if control == "south_pole" else 0.0, 0.0)
        s = qubit_scenario(1.0, 0.8, 0.5, 0.3, rotation_unitary("x", 1.2), rotation_unitary("y", 0.7), c)
        if control == "diagonal_mixed":
            s = dataclasses.replace(s, control=DensityMatrix(np.diag([0.7, 0.3]).astype(complex)))
        assert abs(s.rho_c.mat[0, 1]) < 1e-16  # sin(pi) / 2 at the south pole
        t = s._terms
        turn = cmath.exp(0.3j)
        turned = np.stack((t.v[:, 0], turn * t.v[:, 1]), axis=1)
        self._corrupt_terms(monkeypatch, s, v=turned, chi=t.chi / turn)
        assert np.allclose(s._terms.blocks()[1], t.blocks()[1], rtol=0.0, atol=1e-15)
        with pytest.raises(AssertionError, match="post-switch expansion disagrees"):
            activation_report(s)

    def test_probe_table_is_prefix_stable_and_read_only(self, monkeypatch):
        monkeypatch.setattr(switchcore, "_probe_table", np.empty((0, 16)))
        head = switchcore._probes(6).copy()
        table = switchcore._probes(400)
        assert table.shape == (400, 16)
        assert set(np.unique(table)) == {-1.0, 1.0}
        assert np.array_equal(table[:6], head)
        assert np.array_equal(switchcore._probes(6), head)
        assert np.array_equal(table, np.random.default_rng(0).choice([-1.0, 1.0], size=(400, 16)))
        for view in (table, switchcore._probes(6)):
            with pytest.raises(ValueError):
                view[0, 0] = 2.0

    def test_measure_control_weight_check(self, scenario, monkeypatch):
        # The angle factor cos^2(tc/2) cos^2(tm/2) of R12 off by 1e-3.
        original = switchcore.measurement_angles
        monkeypatch.setattr(
            switchcore, "measurement_angles", lambda c, m: original(c, m)._replace(cc=original(c, m).cc + 1e-3)
        )
        with pytest.raises(AssertionError, match="projection and expansion numerators disagree"):
            measure_control(scenario, self.M)

    def test_angle_factor_fault_reaches_the_second_numerator_on_a_fock_scenario(self, monkeypatch):
        """Terms kept as columns: the numerators are formed only when the
        bound on their gap exceeds TOL_ENERGY.  A clean report forms no
        weighted sum (rho_sm is read on its diagonal); cos^2(tc/2)
        cos^2(tm/2) scaled by 1.001 pushes the bound past TOL_ENERGY, both
        sums are formed, and the check raises."""
        s = _fock_scenario(n_max=84)
        calls = []
        original_mix = switchcore._SwitchTerms.mix
        monkeypatch.setattr(
            switchcore._SwitchTerms, "mix", lambda t, w: calls.append(w) or original_mix(t, w)
        )
        measure_control(s, self.M)
        assert len(calls) == 0 and s._terms.v is not None
        original = switchcore.measurement_angles
        monkeypatch.setattr(
            switchcore, "measurement_angles", lambda c, m: original(c, m)._replace(cc=1.001 * original(c, m).cc)
        )
        with pytest.raises(AssertionError, match="projection and expansion numerators disagree"):
            measure_control(s, self.M)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "field, message",
        [
            ("chi_m1", "post-selection probability routes disagree"),
            ("df", "post-measurement energy routes disagree"),
        ],
    )
    def test_measure_control_checks(self, scenario, monkeypatch, field, message):
        # chi_m1 and df are fields of the kernel record, the only
        # scenario terms that assemble_sm reads.
        post_switch_state(scenario)
        k = scenario._terms.kernel
        wrong = {
            "chi_m1": k._replace(chi_m1=k.chi_m1 + 1e-3),
            "df": k._replace(df=k.df + 1e-3),
        }[field]
        self._corrupt_terms(monkeypatch, scenario, kernel=wrong)
        with pytest.raises(AssertionError, match=message):
            measure_control(scenario, self.M)


class TestMemoryBudget:
    def test_the_readme_corner_point_forms_only_the_states_it_returns(self):
        """activation_report and measure_control at |alpha| = 1.5,
        |z| = 0.8, n_max = 172 (the README sweep's largest point) allocate
        at most 2 complex d x d arrays at their peak, counted exactly by
        tracemalloc once the shared probe table is drawn, and leave the
        dense forms of U1, U2, rho_s and h_s and the two states they return
        unbuilt.  The terms hold no d x d array: every field has at most
        2 d |S| entries, |S| < d / 2 here."""
        s = disp_squeeze_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(1.5, 0.9), SqueezeParams(0.8, 0.4),
            BlochState(math.pi / 2.0, 0.0), n_max=172,
        )
        d = s.rho_s.dim
        switchcore._probes(d)  # the shared probe table, drawn once per size
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tilde = activation_report(s).tilde_rho_s
            rho_sm = measure_control(s, BlochState(math.pi / 2.0, math.pi)).rho_sm
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * d * d
        assert not any("mat" in vars(x) for x in (s.u1, s.u2, s.rho_s, s.h_s, tilde, rho_sm))
        t = s._terms
        assert 2 * t.p.size < d
        assert max(np.size(getattr(t, f.name)) for f in dataclasses.fields(t)) <= 2 * d * t.p.size


class TestTermCache:
    def test_switch_unitary_built_once_per_scenario(self, rng, monkeypatch):
        """Each scenario forms its blocks W12 and W21 once, and the reports
        never build the dense switch unitary."""
        calls = []
        original = switchcore._switch_blocks

        def counted(u1, u2, *rest):
            calls.append(1)
            return original(u1, u2, *rest)

        def forbidden(u1, u2):
            raise AssertionError("build_switch_unitary called by a report")

        monkeypatch.setattr(switchcore, "_switch_blocks", counted)
        monkeypatch.setattr(switchcore, "build_switch_unitary", forbidden)
        s = _random_scenario(rng, 4)
        m = BlochState(1.0, 0.4)
        activation_report(s)
        measure_control(s, m)
        measure_control(s, BlochState(2.0, 1.4))
        post_switch_state(s)
        assert len(calls) == 1

        fresh = dataclasses.replace(s, u2=UnitaryOperator(random_unitary(rng, 4)))
        rep = activation_report(fresh)
        assert len(calls) == 2
        assert abs(rep.chi - chi(fresh.u1, fresh.u2, fresh.rho_s)) < 1e-12
        assert abs(rep.chi - activation_report(s).chi) > 1e-6
        joint = post_switch_state(fresh).mat
        assert np.max(np.abs(joint - post_switch_state(s).mat)) > 1e-6
        u_qs = build_switch_unitary(fresh.u1, fresh.u2).mat
        expected = u_qs @ kron(fresh.rho_s, fresh.rho_c) @ u_qs.conj().T
        assert np.max(np.abs(joint - expected)) < 1e-12

    def test_reports_build_no_joint_density_matrix(self, monkeypatch):
        """The reports read the probe-checked terms: no (2d) x (2d)
        DensityMatrix, no post_switch_state call, and no joint-space
        unitary on the hot path; switchcore builds no unitary at all for
        a thermal state, only the columns W12[:, S] and W21[:, S] on the
        state's working-precision support S.  Its d x d states are
        deferred and left unformed, so the only state checked in full is
        tilde_rho_c."""
        s = disp_squeeze_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(1.0, 0.9), SqueezeParams(0.5, 0.4),
            BlochState(math.pi / 2.0, 0.0), n_max=84,
        )
        dims, block_shapes, derived = [], [], []
        density, deferred = switchcore.DensityMatrix, switchcore._DeferredState
        blocks = switchcore._switch_blocks

        def recorded(mat):
            dims.append(np.shape(mat)[0])
            return density(mat)

        def recorded_derived(*args):
            derived.append(deferred(*args))
            return derived[-1]

        def recorded_blocks(u1, u2, *cols):
            out = blocks(u1, u2, *cols)
            block_shapes.extend(np.shape(w) for w in out[:2])
            return out

        def forbidden(*args):
            raise AssertionError("joint-space route called by a report")

        monkeypatch.setattr(switchcore, "DensityMatrix", recorded)
        monkeypatch.setattr(switchcore, "_DeferredState", recorded_derived)
        monkeypatch.setattr(switchcore, "UnitaryOperator", forbidden)
        monkeypatch.setattr(switchcore, "_unitary_product", forbidden)
        monkeypatch.setattr(switchcore, "_switch_blocks", recorded_blocks)
        monkeypatch.setattr(switchcore, "post_switch_state", forbidden)
        monkeypatch.setattr(switchcore, "build_switch_unitary", forbidden)
        activation_report(s)
        measure_control(s, BlochState(math.pi / 2.0, math.pi))
        measure_control(s, BlochState(1.0, 0.4))
        d = s.rho_s.dim
        assert sorted(set(dims)) == [2]
        assert len(derived) == 3 and not any("mat" in vars(rho) for rho in derived)
        k = switchcore._support(s.rho_s.mat.diagonal().real).size
        assert k < d and block_shapes == [(d, k)] * 2

    def test_reports_never_fill_the_joint_blocks(self, rng, monkeypatch):
        """The reports weigh the probed terms with rho_c themselves; only
        post_switch_state fills the four weighted blocks."""

        def forbidden(s):
            raise RuntimeError("_joint_blocks called")

        monkeypatch.setattr(switchcore, "_joint_blocks", forbidden)
        fock = disp_squeeze_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(1.0, 0.9), SqueezeParams(0.5, 0.4),
            BlochState(math.pi / 2.0, 0.0), n_max=40,
        )
        for s in (random_qubit_scenario(rng), _random_scenario(rng, 30), fock):
            activation_report(s)
            measure_control(s, BlochState(1.0, 0.4))
            with pytest.raises(RuntimeError, match="_joint_blocks called"):
                post_switch_state(s)

    def test_only_post_switch_state_builds_the_dense_expansion(self, rng, monkeypatch):
        calls = []
        original = switchcore._post_switch_expansion

        def counted(s):
            calls.append(s)
            return original(s)

        monkeypatch.setattr(switchcore, "_post_switch_expansion", counted)
        for s in (_random_scenario(rng, 4), _random_scenario(rng, 30)):
            calls.clear()
            activation_report(s)
            measure_control(s, BlochState(1.0, 0.4))
            measure_control(s, BlochState(2.0, 1.4))
            assert calls == []
            joint = post_switch_state(s)
            assert post_switch_state(s) is joint
            assert calls == [s] and joint.dim == 2 * s.rho_s.dim


class TestReportsValidateBlocks:
    """A factor that skipped its own check is caught by the validation of
    W12 and W21 on every route into a scenario's terms."""

    @staticmethod
    def _scenarios(rng):
        yield _random_scenario(rng, 3)
        yield disp_squeeze_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(1.0, 0.9), SqueezeParams(0.5, 0.4),
            BlochState(math.pi / 2.0, 0.0), n_max=40,
        )

    @pytest.mark.parametrize("factor", ["u1", "u2"])
    def test_defective_factor_raises(self, rng, factor):
        for s in self._scenarios(rng):
            # Defect 1e-9, ten times TOL_UNITARY: bad† bad = I + 1e-9 |0><0|.
            stretch = np.ones(s.rho_s.dim)
            stretch[0] = math.sqrt(1.0 + 1e-9)
            bad = _unchecked_unitary(getattr(s, factor).mat * stretch)
            defective = dataclasses.replace(s, **{factor: bad})
            for call in (
                lambda: activation_report(defective),
                lambda: measure_control(defective, BlochState(1.0, 0.4)),
                lambda: post_switch_state(defective),
            ):
                with pytest.raises(ValueError, match="UnitaryOperator defect"):
                    call()

    def test_a_bound_past_tolerance_takes_the_full_products(self, rng, monkeypatch):
        """With no room under TOL_UNITARY, the columns come from the full
        products W12 and W21, and for a dense rho from W12 B and W21 B
        with its eigenbasis B, each through qmat._unitary_product; the
        reports keep their values."""
        m = BlochState(1.0, 0.4)
        for s in self._scenarios(rng):
            clean = (activation_report(s), measure_control(s, m))
            products = []
            original = switchcore._unitary_product
            monkeypatch.setattr(switchcore, "TOL_UNITARY", 0.0)
            monkeypatch.setattr(switchcore, "_unitary_product", lambda a, b: products.append(1) or original(a, b))
            fresh = dataclasses.replace(s)
            reports = (activation_report(fresh), measure_control(fresh, m))
            monkeypatch.undo()
            assert len(products) == (2 if isinstance(s.rho_s, _DiagonalState) else 4)
            for name in ("chi", "delta_qs", "delta_s"):
                assert abs(getattr(reports[0], name) - getattr(clean[0], name)) <= 1e-13, name
            for name in ("n_m", "delta_sm"):
                assert abs(getattr(reports[1], name) - getattr(clean[1], name)) <= 1e-13, name


def _unchecked_unitary(mat: np.ndarray) -> UnitaryOperator:
    """A UnitaryOperator wrapper that skipped its own validation, and so
    records an unbounded defect."""
    u = object.__new__(UnitaryOperator)
    object.__setattr__(u, "mat", mat)
    object.__setattr__(u, "dim", mat.shape[0])
    object.__setattr__(u, "_defect", math.inf)
    return u


def _joint_space_reports(s: SwitchScenario, m: BlochState) -> dict:
    """Both reports from the joint-space formulas: conjugation by the 2d x 2d
    switch unitary, dense projection and partial traces."""
    d = s.rho_s.dim
    rho, h_s, rc, h_c = s.rho_s.mat, s.h_s.mat, s.rho_c.mat, s.h_c.mat
    w12, w21 = s.u2.mat @ s.u1.mat, s.u1.mat @ s.u2.mat
    u_qs = kron(w12, np.diag([1.0, 0.0])) + kron(w21, np.diag([0.0, 1.0]))
    joint = u_qs @ kron(rho, rc) @ u_qs.conj().T
    h_sc = kron(h_s, np.eye(2)) + kron(np.eye(d), h_c)
    x = complex(np.trace(w12 @ rho @ w21.conj().T))
    e_s = float(np.trace(rho @ h_s).real)
    e_c = float(np.trace(rc @ h_c).real)
    e12 = float(np.trace(w12 @ rho @ w12.conj().T @ h_s).real)
    e21 = float(np.trace(w21 @ rho @ w21.conj().T @ h_s).real)
    tilde_s = partial_trace(joint, d, 2, keep="a")
    tilde_c = partial_trace(joint, d, 2, keep="b")

    ket = m.to_ket()
    proj = kron(np.eye(d), np.outer(ket, ket.conj()))
    numerator = partial_trace(proj @ joint @ proj, d, 2, keep="a")
    n_m = float(np.trace(numerator).real)
    rho_sm = numerator / n_m
    e_sm = float(np.trace(rho_sm @ h_s).real)
    delta_f = complex(np.trace(w12 @ rho @ w21.conj().T @ h_s)) - x * e_s
    psi = m.phi - s.control.phi
    sin_c, sin_m = math.sin(s.control.theta), math.sin(m.theta)
    off_poles = 0.0 < s.control.theta < math.pi and 0.0 < m.theta < math.pi
    lhs = delta_f.imag * math.sin(psi) - delta_f.real * math.cos(psi)
    cross = (delta_f * cmath.exp(1j * psi)).real
    return {
        "chi": x,
        "e_s": e_s,
        "e_c": e_c,
        "e12": e12,
        "e21": e21,
        "delta_qs": float(np.trace(joint @ h_sc).real) - e_s - e_c,
        "delta_s": float(np.trace(tilde_s @ h_s).real) - e_s,
        "delta_c": float(np.trace(tilde_c @ h_c).real) - e_c,
        "delta_c_min": -abs(h_c[1, 0] * (x - 1.0)),
        "tilde_rho_s": tilde_s,
        "tilde_rho_c": tilde_c,
        "n_m": n_m,
        "rho_sm": rho_sm,
        "e_sm": e_sm,
        "delta_12": e12 - e_s,
        "delta_21": e21 - e_s,
        "delta_f": delta_f,
        "delta_sm": e_sm - e_s,
        "conditions": (off_poles, abs(lhs) > 0.0, off_poles and sin_c * sin_m * cross < 0.0),
        "condition_ii_lhs": lhs,
    }


class TestJointSpaceParity:
    """Every field of both reports equals the joint-space formulas."""

    def _assert_parity(self, s: SwitchScenario, m: BlochState) -> None:
        reference = _joint_space_reports(s, m)
        reports = (activation_report(s), measure_control(s, m))
        fields = [f.name for r in reports for f in dataclasses.fields(r)]
        assert sorted(fields) == sorted(reference)
        for report in reports:
            for f in dataclasses.fields(report):
                got, want = getattr(report, f.name), reference[f.name]
                if f.name == "conditions":
                    assert got == want
                    continue
                got = got.mat if isinstance(got, DensityMatrix) else got
                assert np.max(np.abs(np.asarray(got) - want)) < 1e-12, f.name

    @pytest.mark.parametrize("d", [2, 5, 30])
    def test_random_scenarios(self, rng, d):
        for _ in range(3):
            m = BlochState(rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2.0 * math.pi))
            self._assert_parity(_random_scenario(rng, d), m)

    def test_disp_squeeze_at_n_max_84(self):
        s = disp_squeeze_scenario(
            1.0,
            1.0,
            0.5,
            0.0,
            DisplacementParams(1.0, 0.9),
            SqueezeParams(0.5, 0.4),
            BlochState(math.pi / 2.0, 0.0),
            n_max=84,
        )
        self._assert_parity(s, BlochState(math.pi / 2.0, math.pi))
