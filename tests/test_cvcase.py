"""Bosonic-mode unitary families on truncated Fock space: closed forms,
their brute-force oracle, and the documented defects of the reference
(`_tabulated`) variants."""
from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from switchwork.cvcase import (
    DisplacementParams,
    _ladder_block_defect,
    NoSolutionError,
    SqueezeParams,
    TOL_ORACLE,
    TruncationInadequacyWarning,
    alpha_min,
    calibrated_cutoff,
    chi_disp_squeeze,
    chi_displacements,
    cv_truncation_rule,
    delta_21_disp_squeeze,
    delta_f_disp_squeeze,
    delta_f_disp_squeeze_tabulated,
    delta_qs_disp_squeeze,
    delta_qs_disp_squeeze_tabulated,
    delta_qs_displacements,
    delta_qs_displacements_symmetric,
    delta_sm_disp_squeeze,
    delta_sm_displacements,
    delta_sm_xi0_tabulated,
    delta_sm_xipi_tabulated,
    disp_squeeze_scenario,
    displacement_op,
    displacement_scenario,
    e12_disp_squeeze,
    e12_disp_squeeze_tabulated,
    e21_disp_squeeze,
    f_s_disp_squeeze,
    f_s_disp_squeeze_tabulated,
    fock_oracle_report,
    gamma_braiding,
    ladder,
    n_m_disp_squeeze,
    n_m_xi0_tabulated,
    n_m_xipi_tabulated,
    squeeze_faithful_block,
    squeeze_op,
)
from switchwork.states import BlochState, ThermalParams
from switchwork.switchcore import (
    NearZeroPostSelectionError,
    activation_report,
    measure_control,
)

_EQ = BlochState(math.pi / 2.0, 0.0)
# Every quantity the Fock oracle compares, in report order.
_ORACLE_QUANTITIES = ("chi", "e12", "e21", "f_s", "delta_f", "delta_qs", "delta_sm")


class TestLadderAndOperators:
    def test_ladder_action(self):
        a = ladder(5)
        vec = np.zeros(6, dtype=complex)
        vec[3] = 1.0
        lowered = a @ vec
        assert abs(lowered[2] - math.sqrt(3.0)) < 1e-15
        assert np.count_nonzero(lowered) == 1

    def test_commutator_on_interior_block(self):
        a = ladder(30)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.max(np.abs(comm[:15, :15] - np.eye(15))) < 1e-12

    def test_zero_displacement_is_exact_identity(self):
        u = displacement_op(DisplacementParams(0.0, 0.0), 20).mat
        assert np.array_equal(u, np.eye(21, dtype=complex))

    def test_zero_squeeze_is_exact_identity(self):
        u = squeeze_op(SqueezeParams(0.0, 0.0), 20).mat
        assert np.array_equal(u, np.eye(21, dtype=complex))

    def test_coherent_state_occupation_is_poisson_mean(self):
        p = DisplacementParams(0.9, 1.2)
        n_max = 50
        u = displacement_op(p, n_max).mat
        vac = np.zeros(n_max + 1, dtype=complex)
        vac[0] = 1.0
        state = u @ vac
        n_op = np.diag(np.arange(n_max + 1, dtype=float))
        mean = float(np.real(state.conj() @ n_op @ state))
        assert abs(mean - p.alpha_abs**2) < 1e-10

    def test_squeezed_vacuum_occupation(self):
        p = SqueezeParams(0.5, 0.7)
        n_max = 60
        u = squeeze_op(p, n_max).mat
        vac = np.zeros(n_max + 1, dtype=complex)
        vac[0] = 1.0
        state = u @ vac
        n_op = np.diag(np.arange(n_max + 1, dtype=float))
        mean = float(np.real(state.conj() @ n_op @ state))
        assert abs(mean - math.sinh(p.z_abs) ** 2) < 1e-10

    def test_squeezed_vacuum_energy_growth(self):
        # <H> on squeezed vacuum = w cosh(2|z|) / 2.
        p = SqueezeParams(0.4, 0.0)
        n_max = 60
        u = squeeze_op(p, n_max).mat
        vac = np.zeros(n_max + 1, dtype=complex)
        vac[0] = 1.0
        state = u @ vac
        h = np.diag(np.arange(n_max + 1, dtype=float) + 0.5)
        assert abs(float(np.real(state.conj() @ h @ state)) - math.cosh(0.8) / 2.0) < 1e-10

    def test_displacement_conjugation_identity_on_safe_block(self):
        p = DisplacementParams(1.2, 0.4)
        n_max = 60
        u = displacement_op(p, n_max).mat
        a = ladder(n_max)
        conj = u.conj().T @ a @ u
        k = n_max // 2
        expected = a + p.alpha * np.eye(n_max + 1)
        assert np.max(np.abs(conj[:k, :k] - expected[:k, :k])) < 1e-8

    def test_inadequate_cutoff_warns(self):
        with pytest.warns(TruncationInadequacyWarning):
            displacement_op(DisplacementParams(3.0, 0.0), 12)
        with pytest.warns(TruncationInadequacyWarning):
            squeeze_op(SqueezeParams(0.8, 0.0), 10)
        # A single-level cutoff has a one-level safe block, not an empty one.
        with pytest.warns(TruncationInadequacyWarning):
            displacement_op(DisplacementParams(0.6, 0.1), 1)
        with pytest.warns(TruncationInadequacyWarning):
            squeeze_op(SqueezeParams(0.4, 0.2), 1)

    def test_adequate_cutoffs_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z_abs in (0.2, 0.5, 0.8):
                squeeze_op(SqueezeParams(z_abs, 0.9), calibrated_cutoff(1.0, z_abs, 1.0, 1.0))
            displacement_op(DisplacementParams(1.5, 0.0), calibrated_cutoff(1.5, 0.0, 1.0, 1.0))


class TestTridiagonalKernel:
    """D and S come from real tridiagonal eigendecompositions; the dense
    exponential of the truncated generator is the reference."""

    @pytest.mark.parametrize("n_max", [2, 3, 4, 46, 84, 172])
    def test_operators_match_dense_exponential(self, n_max):
        a = ladder(n_max)
        ad = a.conj().T
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationInadequacyWarning)
            for amp in (0.0, 0.6, 1.5):
                for phase in (0.0, 0.9, -2.4, math.pi):
                    dp = DisplacementParams(amp, phase)
                    sp = SqueezeParams(0.5 * amp, phase)
                    d_ref = scipy.linalg.expm(dp.alpha * ad - dp.alpha.conjugate() * a)
                    s_ref = scipy.linalg.expm(0.5 * (sp.z * ad @ ad - sp.z.conjugate() * a @ a))
                    assert np.max(np.abs(displacement_op(dp, n_max).mat - d_ref)) < 1e-12
                    assert np.max(np.abs(squeeze_op(sp, n_max).mat - s_ref)) < 1e-12

    def test_squeeze_has_no_entries_between_parities(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationInadequacyWarning)
            for n_max in (1, 2, 7, 46):
                s = squeeze_op(SqueezeParams(0.7, 1.3), n_max).mat
                lag = np.subtract.outer(np.arange(n_max + 1), np.arange(n_max + 1))
                assert np.all(s[lag % 2 == 1] == 0)
                assert np.all(s[lag == 2] != 0)

    def test_fock_path_runs_without_dense_eigensolvers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolver called on the Fock path")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        a = DisplacementParams(1.0, 0.9)
        s = SqueezeParams(0.5, 0.4)
        c = BlochState(1.9, 0.6)
        m = BlochState(math.pi / 2.0, math.pi / 2.0)
        scenario = disp_squeeze_scenario(1.0, 1.0, 0.5, 0.3, a, s, c, n_max=84)
        rep = activation_report(scenario)
        measured = measure_control(scenario, m)
        assert abs(rep.delta_qs - delta_qs_disp_squeeze(1.0, 1.0, 0.5, 0.3, a, s, c)) < 1e-6
        assert abs(measured.delta_sm - delta_sm_disp_squeeze(1.0, 1.0, a, s, c, m)) < 1e-6


class TestLadderBlockDefect:
    """The truncation checks compute only the leading block of u† a u; the
    dense product is the reference."""

    @pytest.mark.parametrize("n_max", [1, 2, 3, 46, 84, 172])
    def test_block_matches_dense_conjugation(self, n_max):
        a = ladder(n_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationInadequacyWarning)
            ops = (
                displacement_op(DisplacementParams(1.2, 0.7), n_max).mat,
                squeeze_op(SqueezeParams(0.6, -1.1), n_max).mat,
            )
        blocks = {max(1, n_max // 2), squeeze_faithful_block(n_max, 0.6), n_max + 1}
        for u in ops:
            dense = u.conj().T @ a @ u
            for k in blocks:
                assert _ladder_block_defect(u, dense[:k, :k]) < 1e-13
                assert _ladder_block_defect(u, np.zeros((k, k))) == pytest.approx(
                    np.max(np.abs(dense[:k, :k])), abs=1e-13
                )


class TestCutoffRules:
    def test_rule_floor(self):
        assert cv_truncation_rule(0.0, 0.0, 0.0) == 40

    def test_rule_formula(self):
        reach = 1.0 * math.exp(0.5) + math.sqrt(0.5)
        assert cv_truncation_rule(1.0, 0.5, 0.5) == math.ceil(4.0 * reach * reach) + 20

    def test_calibrated_dominates_rule(self):
        for aa, zz, beta in [(0.5, 0.2, 1.0), (1.5, 0.8, 1.0), (1.5, 0.8, math.inf)]:
            n_th = ThermalParams(beta, 1.0).n_th
            assert calibrated_cutoff(aa, zz, beta, 1.0) >= cv_truncation_rule(aa, zz, n_th)

    def test_faithful_block_shrinks_with_squeezing(self):
        assert squeeze_faithful_block(100, 0.0) > squeeze_faithful_block(100, 0.5)
        assert squeeze_faithful_block(100, 0.5) > squeeze_faithful_block(100, 1.0)
        assert squeeze_faithful_block(12, 1.5) >= 2


class TestDisplacementPair:
    def test_chi_is_pure_phase(self, rng):
        for _ in range(50):
            a1 = DisplacementParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi))
            a2 = DisplacementParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi))
            x = chi_displacements(a1, a2)
            assert abs(abs(x) - 1.0) < 1e-14

    def test_chi_matches_generic_path_up_to_amplitude_two(self, rng):
        for _ in range(5):
            a1 = DisplacementParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi))
            a2 = DisplacementParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi))
            s = displacement_scenario(1.0, 1.0, 0.5, 0.0, a1, a2, _EQ)
            assert abs(chi_displacements(a1, a2) - activation_report(s).chi) < 1e-7

    def test_weyl_composition_on_safe_block(self):
        a1 = DisplacementParams(0.7, 0.3)
        a2 = DisplacementParams(0.9, 2.1)
        n_max = 60
        d1 = displacement_op(a1, n_max).mat
        d2 = displacement_op(a2, n_max).mat
        w = a1.alpha * a2.alpha.conjugate()
        phase = cmath.exp(0.5 * (w - w.conjugate()))
        dsum = displacement_op(
            DisplacementParams(abs(a1.alpha + a2.alpha), cmath.phase(a1.alpha + a2.alpha)), n_max
        ).mat
        k = n_max // 2
        lhs = (d1 @ d2)[:k, :k]
        rhs = (phase * dsum)[:k, :k]
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_oracle_all_gaps_below_1e7_at_n60(self):
        report = fock_oracle_report(
            DisplacementParams(1.0, 0.4),
            DisplacementParams(0.8, 1.9),
            omega=1.0,
            beta=1.0,
            control=BlochState(1.1, 0.7),
            measurement=BlochState(0.9, 2.2),
            n_schedule=(40, 60),
        )
        assert report.passed
        assert [c.quantity for c in report.checks] == list(_ORACLE_QUANTITIES)
        for check in report.checks:
            assert check.rows[-1][0] == 60
            assert check.rows[-1][2] < 1e-7

    def test_oracle_identity_unitaries_gap_exactly_zero(self):
        zero = DisplacementParams(0.0, 0.0)
        report = fock_oracle_report(zero, zero, omega=1.0, beta=1.0, n_schedule=(40,))
        assert report.gap("chi") == 0.0
        # delta_qs goes through the generic conjugation path, so identity
        # unitaries leave only float-addition noise, not exact zero.
        assert report.gap("delta_qs") < 1e-12

    def test_oracle_fails_on_divergent_post_selection_rows(self):
        # Antipodal control and measurement: n_m = 0 for every unitary pair.
        report = fock_oracle_report(
            DisplacementParams(0.6, 0.9),
            DisplacementParams(0.5, 2.2),
            omega=1.0,
            beta=1.0,
            control=BlochState(0.0, 0.0),
            measurement=BlochState(math.pi, 0.0),
            n_schedule=(40, 50),
        )
        diverged = {"delta_f", "delta_sm"}
        for check in report.checks:
            divergent = check.quantity in diverged
            assert all(bool(np.isnan(row[1])) == divergent for row in check.rows), check.quantity
            assert all(math.isnan(row[2]) == divergent for row in check.rows), check.quantity
            assert check.converged != divergent and check.monotone != divergent, check.quantity
        assert not report.passed
        failing = [line for line in repr(report).splitlines() if "[FAIL]" in line]
        assert [line.split()[1] for line in failing] == ["delta_f:", "delta_sm:"]

    def test_measured_value_is_recombined_amplitude_energy(self, rng):
        a1 = DisplacementParams(0.6, 0.5)
        a2 = DisplacementParams(0.9, 2.6)
        expected = 1.0 * abs(a1.alpha + a2.alpha) ** 2
        assert delta_sm_displacements(a1, a2, 1.0) == pytest.approx(expected, rel=1e-14)
        # Independence from the measurement direction on the generic path.
        s = displacement_scenario(1.0, 1.0, 0.5, 0.0, a1, a2, _EQ)
        values = []
        for _ in range(20):
            m = BlochState(rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2.0 * math.pi))
            values.append(measure_control(s, m).delta_sm)
        assert np.std(values) < 1e-6
        assert abs(np.mean(values) - expected) < 1e-6

    def test_symmetric_curve_formula(self):
        # Equal amplitudes pi/2 apart in phase: 2 (w a^2 - |t| sin^2(a^2)).
        for t_abs in (0.5, 2.0):
            for alpha_abs in (0.3, 0.9, 1.4):
                v = delta_qs_displacements_symmetric(1.0, t_abs, alpha_abs)
                expected = 2.0 * (alpha_abs**2 - t_abs * math.sin(alpha_abs**2) ** 2)
                assert v == pytest.approx(expected, rel=1e-12)

    def test_symmetric_curve_matches_general_form(self):
        for alpha_abs in (0.4, 1.1):
            a1 = DisplacementParams(alpha_abs, 0.0)
            a2 = DisplacementParams(alpha_abs, math.pi / 2.0)
            general = delta_qs_displacements(1.0, 0.7, 0.0, a1, a2, _EQ)
            assert delta_qs_displacements_symmetric(1.0, 0.7, alpha_abs) == pytest.approx(
                general, abs=1e-12
            )


class TestAlphaMin:
    def test_frozen_values(self):
        assert alpha_min(1.0, 1.0) == pytest.approx(0.88622692545275794, abs=1e-15)
        assert alpha_min(1.0, 2.0) == pytest.approx(1.1441140410797113, abs=1e-15)

    def test_matches_numeric_minimization(self):
        from scipy.optimize import minimize_scalar

        for t_abs in (1.5, 2.0, 3.0):
            res = minimize_scalar(
                lambda x: delta_qs_displacements_symmetric(1.0, t_abs, x),
                bounds=(0.5, 1.6),
                method="bounded",
                options={"xatol": 1e-12},
            )
            assert abs(res.x - alpha_min(1.0, t_abs)) < 1e-6

    def test_no_solution_below_threshold(self):
        with pytest.raises(NoSolutionError):
            alpha_min(1.0, 0.99)

    def test_strong_coupling_limit(self):
        assert alpha_min(1.0, 1e9) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-4)


class TestBraiding:
    def test_general_amplitude(self):
        a = DisplacementParams(0.8, 0.5)
        s = SqueezeParams(0.4, 1.3)
        g = gamma_braiding(a, s)
        expected = a.alpha * math.cosh(0.4) - a.alpha.conjugate() * cmath.exp(1.3j) * math.sinh(0.4)
        assert abs(g - expected) < 1e-15

    def test_aligned_slice_contracts(self):
        # xi - 2 phi = 0  =>  gamma = alpha e^{-|z|}.
        a = DisplacementParams(0.9, 0.6)
        s = SqueezeParams(0.5, 1.2)
        g = gamma_braiding(a, s)
        assert abs(g - a.alpha * math.exp(-0.5)) < 1e-14

    def test_anti_aligned_slice_dilates(self):
        # xi - 2 phi = pi  =>  gamma = alpha e^{+|z|}.
        a = DisplacementParams(0.9, 0.6)
        s = SqueezeParams(0.5, 1.2 + math.pi)
        g = gamma_braiding(a, s)
        assert abs(g - a.alpha * math.exp(0.5)) < 1e-13

    def test_operator_identity_on_faithful_block(self):
        # D(alpha) S(z) = S(z) D(gamma) on the block the truncated S(z) keeps faithful.
        a, s, n_max = DisplacementParams(0.7, 0.9), SqueezeParams(0.3, 0.8), 80
        g = gamma_braiding(a, s)
        d_g = displacement_op(DisplacementParams(abs(g), cmath.phase(g)), n_max).mat
        lhs = displacement_op(a, n_max).mat @ squeeze_op(s, n_max).mat
        rhs = squeeze_op(s, n_max).mat @ d_g
        k = squeeze_faithful_block(n_max, s.z_abs)
        assert np.max(np.abs(lhs[:k, :k] - rhs[:k, :k])) <= TOL_ORACLE

    def test_amplitude_bound(self):
        a = DisplacementParams(1.4, 2.0)
        s = SqueezeParams(0.9, 0.1)
        g = gamma_braiding(a, s)
        assert abs(g) <= 1.4 * math.exp(0.9) + 1e-12


class TestDispSqueezeClosedForms:
    def test_oracle_gaps_below_1e6_at_n80_for_half_squeeze(self):
        report = fock_oracle_report(
            DisplacementParams(1.0, 0.9),
            SqueezeParams(0.5, 0.4),
            omega=1.0,
            beta=1.0,
            control=BlochState(1.9, 0.6),
            measurement=BlochState(1.1, 2.3),
            n_schedule=(60, 80),
        )
        assert [c.quantity for c in report.checks] == list(_ORACLE_QUANTITIES)
        for check in report.checks:
            assert check.rows[-1][0] == 80
            assert check.rows[-1][2] < 1e-6, check.quantity

    def test_oracle_converges_at_ground_state_limit(self):
        report = fock_oracle_report(
            DisplacementParams(1.2, 0.3),
            SqueezeParams(0.6, 1.0),
            omega=1.0,
            beta=math.inf,
        )
        assert report.passed

    def test_oracle_monotone_gap_sequences(self):
        report = fock_oracle_report(
            DisplacementParams(0.8, 0.2),
            SqueezeParams(0.4, 0.9),
            omega=1.0,
            beta=1.0,
            n_schedule=(40, 70, 100),
        )
        assert report.passed
        for check in report.checks:
            gaps = [row[2] for row in check.rows]
            for earlier, later in zip(gaps, gaps[1:]):
                assert later <= max(earlier, report.tol)

    def test_energy_order_difference_relation(self):
        # E12 - E21 = w |a|^2 [ (cosh 2|z| - 1) + cos(xi - 2 phi) sinh 2|z| ].
        a = DisplacementParams(1.1, 0.7)
        s = SqueezeParams(0.5, 0.9)
        lhs = e12_disp_squeeze(1.0, 1.0, a, s) - e21_disp_squeeze(1.0, 1.0, a, s)
        rel = 0.9 - 1.4
        rhs = 1.1**2 * ((math.cosh(1.0) - 1.0) + math.cos(rel) * math.sinh(1.0))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_aligned_slice_energy_difference(self):
        # xi = 2 phi: E12 - E21 = w |a|^2 (e^{2|z|} - 1).
        a = DisplacementParams(0.8, 0.45)
        s = SqueezeParams(0.6, 0.9)
        lhs = e12_disp_squeeze(1.0, 1.0, a, s) - e21_disp_squeeze(1.0, 1.0, a, s)
        assert lhs == pytest.approx(0.8**2 * (math.exp(1.2) - 1.0), rel=1e-12)

    def test_delta_f_reduces_to_f_minus_chi_energy(self):
        a = DisplacementParams(0.9, 0.2)
        s = SqueezeParams(0.4, 1.1)
        n_th = ThermalParams(1.0, 1.0).n_th
        df = delta_f_disp_squeeze(1.0, 1.0, a, s)
        expected = f_s_disp_squeeze(1.0, 1.0, a, s) - chi_disp_squeeze(a, s, 1.0, 1.0) * (
            n_th + 0.5
        )
        assert abs(df - expected) < 1e-14

    def test_delta_f_real_on_both_aligned_slices(self):
        for xi in (0.0, math.pi):
            df = delta_f_disp_squeeze(1.0, 1.0, DisplacementParams(0.7, 0.0), SqueezeParams(0.5, xi))
            assert abs(df.imag) < 1e-12

    def test_general_measured_form_matches_generic_path(self):
        a = DisplacementParams(0.7, 0.9)
        s = SqueezeParams(0.5, 0.4)
        c = BlochState(1.9, 0.6)
        m = BlochState(1.1, 2.3)
        scenario = disp_squeeze_scenario(1.0, 1.0, 0.5, 0.3, a, s, c)
        rep = measure_control(scenario, m)
        assert abs(n_m_disp_squeeze(1.0, 1.0, a, s, c, m) - rep.n_m) < 1e-8
        assert abs(delta_sm_disp_squeeze(1.0, 1.0, a, s, c, m) - rep.delta_sm) < 1e-7

    def test_divergent_post_selection_raises(self):
        zero_a = DisplacementParams(0.0, 0.0)
        zero_s = SqueezeParams(0.0, 0.0)
        with pytest.raises(NearZeroPostSelectionError):
            delta_sm_disp_squeeze(
                1.0, 1.0, zero_a, zero_s, _EQ, BlochState(math.pi / 2.0, math.pi)
            )

    def test_frozen_slice_values(self):
        # The phase-locked slices xi - 2 phi = 0 and pi: alpha phase 0, z phase xi.
        c = BlochState(math.pi / 2.0, 0.0)
        m = BlochState(math.pi / 2.0, math.pi / 2.0)
        a = DisplacementParams(0.6, 0.0)
        assert delta_sm_disp_squeeze(1.0, 1.0, a, SqueezeParams(0.3, 0.0), c, m) == pytest.approx(
            0.70865043014286133, abs=1e-12
        )
        assert delta_sm_disp_squeeze(
            1.0, math.inf, a, SqueezeParams(0.3, math.pi), c, m
        ) == pytest.approx(0.37151870361805855, abs=1e-12)

    def test_quarter_and_three_quarter_phase_series_coincide_at_ground_state(self):
        c = BlochState(math.pi / 2.0, 0.0)
        m_q = BlochState(math.pi / 2.0, math.pi / 2.0)
        m_3q = BlochState(math.pi / 2.0, 3.0 * math.pi / 2.0)
        for x in (0.2, 0.5, 0.9, 1.2):
            for xi in (0.0, math.pi):
                a, s = DisplacementParams(x, 0.0), SqueezeParams(x, xi)
                a_val = delta_sm_disp_squeeze(1.0, math.inf, a, s, c, m_q)
                b_val = delta_sm_disp_squeeze(1.0, math.inf, a, s, c, m_3q)
                assert abs(a_val - b_val) < 1e-10


class TestTabulatedReferenceForms:
    """The `_tabulated` variants reproduce reference expressions verbatim;
    these tests pin their documented discrepancies against the corrected
    (oracle-validated) forms so any silent edit of either side fails."""

    A = DisplacementParams(0.9, 0.35)
    S = SqueezeParams(0.5, 1.4)

    def test_order_energy_missing_quadratic_cosh_term(self):
        corrected = e12_disp_squeeze(1.0, 1.0, self.A, self.S)
        tabulated = e12_disp_squeeze_tabulated(1.0, 1.0, self.A, self.S)
        missing = 0.9**2 * (math.cosh(1.0) - 1.0)
        assert corrected - tabulated == pytest.approx(missing, rel=1e-12)

    def test_unmeasured_energy_offset_sign_at_identity(self):
        # With alpha = z = 0 both orders are the identity channel, so the
        # energy difference must vanish; the tabulated expression instead
        # returns +w because its constant carries the wrong sign.
        zero_a = DisplacementParams(0.0, 0.0)
        zero_s = SqueezeParams(0.0, 0.0)
        corrected = delta_qs_disp_squeeze(1.0, 1.0, 0.5, 0.0, zero_a, zero_s, _EQ)
        tabulated = delta_qs_disp_squeeze_tabulated(1.0, 1.0, 0.5, 0.0, zero_a, zero_s, _EQ)
        assert corrected == pytest.approx(0.0, abs=1e-12)
        assert tabulated == pytest.approx(1.0, abs=1e-12)

    def test_tabulated_cross_term_exact_without_squeezing(self):
        s = SqueezeParams(0.0, 1.1)
        for beta in (1.0, math.inf):
            corrected = f_s_disp_squeeze(1.0, beta, self.A, s)
            tabulated = f_s_disp_squeeze_tabulated(1.0, beta, self.A, s)
            assert abs(corrected - tabulated) <= 1e-12

    def test_tabulated_cross_term_drops_squeeze_quadratures(self):
        a = DisplacementParams(0.7, 0.4)
        s = SqueezeParams(0.5, 1.1)
        gap = abs(f_s_disp_squeeze(1.0, 1.0, a, s) - f_s_disp_squeeze_tabulated(1.0, 1.0, a, s))
        assert gap > 0.5

    def test_tabulated_interference_drops_squeeze_quadratures(self):
        corrected = delta_f_disp_squeeze(1.0, 1.0, self.A, self.S)
        tabulated = delta_f_disp_squeeze_tabulated(1.0, 1.0, self.A, self.S)
        assert abs(corrected - tabulated) > 1e-3

    def test_tabulated_aligned_weight_ignores_thermal_occupation(self):
        c = BlochState(math.pi / 2.0, 0.0)
        m = BlochState(math.pi / 2.0, math.pi / 4.0)
        a = DisplacementParams(0.7, 0.0)
        s = SqueezeParams(0.4, 0.0)
        # Exact agreement in the ground-state limit...
        cold_tab = n_m_xi0_tabulated(math.inf, 1.0, 0.7, 0.4, c, m)
        cold = n_m_disp_squeeze(1.0, math.inf, a, s, c, m)
        assert cold_tab == pytest.approx(cold, abs=1e-12)
        # ...but a finite-temperature gap, because the printed exponent is
        # missing the (2 n_th + 1) factor.
        warm_tab = n_m_xi0_tabulated(1.0, 1.0, 0.7, 0.4, c, m)
        warm = n_m_disp_squeeze(1.0, 1.0, a, s, c, m)
        assert abs(warm_tab - warm) > 1e-3

    def test_tabulated_anti_aligned_weight_is_exact(self):
        c = BlochState(math.pi / 2.0, 0.0)
        m = BlochState(math.pi / 2.0, math.pi / 4.0)
        a = DisplacementParams(0.7, 0.0)
        s = SqueezeParams(0.4, math.pi)
        for beta in (1.0, math.inf):
            tab = n_m_xipi_tabulated(beta, 1.0, 0.7, 0.4, c, m)
            exact = n_m_disp_squeeze(1.0, beta, a, s, c, m)
            assert tab == pytest.approx(exact, abs=1e-12)

    def test_tabulated_slice_polynomials_diverge_from_corrected(self):
        c = BlochState(math.pi / 2.0, 0.0)
        m = BlochState(math.pi / 2.0, math.pi)
        x = 0.9
        tab = delta_sm_xipi_tabulated(1.0, math.inf, x, x, c, m)
        corrected = delta_sm_disp_squeeze(
            1.0, math.inf, DisplacementParams(x, 0.0), SqueezeParams(x, math.pi), c, m
        )
        assert tab < 0.0 < corrected

    def test_tabulated_aligned_slice_matches_at_ground_state(self):
        # At beta = inf and small amplitudes the aligned-slice polynomial
        # agrees with the corrected decomposition to first order; pin the
        # residual so the verbatim transcription stays frozen.
        c = BlochState(math.pi / 2.0, 0.0)
        m = BlochState(math.pi / 2.0, math.pi / 2.0)
        tab = delta_sm_xi0_tabulated(1.0, math.inf, 0.3, 0.3, c, m)
        assert math.isfinite(tab)


class TestScenarioDefaults:
    def test_default_cutoff_is_calibrated(self):
        s = disp_squeeze_scenario(
            1.0, 1.0, 0.5, 0.0, DisplacementParams(1.0, 0.0), SqueezeParams(0.5, 0.0), _EQ
        )
        expected = calibrated_cutoff(1.0, 0.5, 1.0, 1.0)
        assert s.rho_s.dim == expected + 1

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    @pytest.mark.parametrize(
        "build, b",
        [
            (displacement_scenario, DisplacementParams(0.4, 2.2)),
            (disp_squeeze_scenario, SqueezeParams(0.3, 1.1)),
        ],
        ids=["displacements", "disp_squeeze"],
    )
    def test_oracle_schedule_centres_on_builder_cutoff(self, build, b, beta):
        a = DisplacementParams(0.5, 0.4)
        scenario = build(1.0, beta, 0.5, 0.0, a, b, _EQ)
        schedule = fock_oracle_report(a, b, omega=1.0, beta=beta).n_schedule
        assert len(schedule) == 3
        assert schedule[1] == scenario.rho_s.dim - 1

    def test_closed_forms_match_generic_at_default_cutoffs(self):
        cases = [(0.5, 0.2, 1.0), (1.0, 0.5, 1.0), (1.5, 0.8, math.inf)]
        c = BlochState(1.9, 0.6)
        for aa, zz, beta in cases:
            a = DisplacementParams(aa, 0.9)
            s = SqueezeParams(zz, 0.4)
            scenario = disp_squeeze_scenario(1.0, beta, 0.5, 0.3, a, s, c)
            rep = activation_report(scenario)
            assert abs(chi_disp_squeeze(a, s, beta, 1.0) - rep.chi) < 1e-6
            assert abs(e12_disp_squeeze(1.0, beta, a, s) - rep.e12) < 1e-6
            assert abs(e21_disp_squeeze(1.0, beta, a, s) - rep.e21) < 1e-6
            assert (
                abs(delta_qs_disp_squeeze(1.0, beta, 0.5, 0.3, a, s, c) - rep.delta_qs) < 1e-6
            )

    def test_unmeasured_decomposition_identity(self):
        # delta_qs = delta_21 + cos^2(tc/2)(E12 - E21) + coupling term.
        a = DisplacementParams(0.8, 0.3)
        s = SqueezeParams(0.4, 1.0)
        c = BlochState(1.2, 0.8)
        t_abs, t_phase = 0.6, 0.9
        x = chi_disp_squeeze(a, s, 1.0, 1.0)
        coupling = (
            t_abs
            * math.sin(c.theta)
            * (cmath.exp(-1j * (t_phase + c.phi)) * (x - 1.0)).real
        )
        expected = (
            delta_21_disp_squeeze(1.0, 1.0, a, s)
            + math.cos(c.theta / 2.0) ** 2
            * (e12_disp_squeeze(1.0, 1.0, a, s) - e21_disp_squeeze(1.0, 1.0, a, s))
            + coupling
        )
        assert delta_qs_disp_squeeze(1.0, 1.0, t_abs, t_phase, a, s, c) == pytest.approx(
            expected, rel=1e-12
        )
