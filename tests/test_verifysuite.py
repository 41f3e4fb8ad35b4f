"""Self-verification suite: the quick plan passes on the shipped library,
and the suite demonstrably fails (has teeth) when a closed form, the
optimizer's lower bound, the post-switch state or the config serializer is wrong."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from switchwork import cvcase, qmat, qubitcase, states, switchcore, verifysuite
from switchwork.config import FAMILIES
from switchwork.qmat import TOL_EIG, TOL_PSD, DensityMatrix, HermitianOperator, UnitaryOperator
from switchwork.states import BlochState, gibbs_qubit, ThermalParams
from switchwork.switchcore import (
    SwitchScenario,
    activation_report,
    assemble_sm,
    measure_control,
    measurement_angles,
)
from switchwork.verifysuite import random_passive_scenario, run_verify

# Every bosonic closed form that verify compares with the truncated-Fock
# path, and the check that must catch a corrupted one.
_BOSONIC_CLOSED_FORMS = {
    **{
        f"{q}_displacements": "displacement-closed-forms"
        for q in ("chi", "delta_qs", "delta_sm")
    },
    **{
        f"{q}_disp_squeeze": "disp-squeeze-closed-forms"
        for q in ("chi", "e12", "e21", "f_s", "delta_f", "delta_qs", "delta_sm")
    },
}


@pytest.fixture(scope="class")
def quick_seed0():
    """One quick-level report at seed 0, shared by the tests that read it."""
    return run_verify(level="quick", seed=0)


class TestQuickPlan:
    def test_all_checks_pass(self, quick_seed0):
        report = quick_seed0
        assert report.passed
        assert report.level == "quick"
        assert len(report.checks) >= 10
        assert all(c.passed for c in report.checks)
        details = {c.name: c.detail for c in report.checks}
        assert details["config-round-trip"].startswith(f"{len(FAMILIES)} sample configs ")

    def test_render_format(self, quick_seed0):
        report = quick_seed0
        lines = report.render().split("\n")
        assert lines[0] == "verify level=quick seed=0"
        assert all(line.startswith("PASS ") for line in lines[1:-1])
        assert lines[-1].endswith("all checks passed")
        # Header, one timed line per check, then the summary.
        assert len(lines) == len(report.checks) + 2
        for line in lines[1:-1]:
            assert line.rstrip().endswith("s]")

    def test_seed_variation_still_passes(self):
        assert run_verify(level="quick", seed=123).passed

    def test_plan_covers_library_surfaces(self, quick_seed0):
        names = [c.name for c in quick_seed0.checks]
        for expected in (
            "switch-algebra",
            "passivity",
            "tilde-energy-split",
            "control-term-minimum",
            "rotation-closed-form",
            "rotation-measured-closed-form",
            "u2-optimizer",
            "displacement-closed-forms",
            "disp-squeeze-closed-forms",
            "config-round-trip",
            "figure-regression",
        ):
            assert any(expected in name for name in names), expected

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            run_verify(level="paranoid")


class TestSuiteHasTeeth:
    def test_wrong_interference_sign_fails_disp_squeeze_check(self, monkeypatch):
        honest = cvcase.chi_disp_squeeze
        monkeypatch.setattr(
            cvcase, "chi_disp_squeeze", lambda *args, **kwargs: -honest(*args, **kwargs)
        )
        report = run_verify(level="quick", seed=0)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert any("disp-squeeze" in name for name in failed)
        assert "FAIL" in report.render()

    def test_small_energy_bias_fails_displacement_check(self, monkeypatch):
        honest = cvcase.delta_sm_displacements
        monkeypatch.setattr(
            cvcase,
            "delta_sm_displacements",
            lambda *args, **kwargs: honest(*args, **kwargs) + 1e-4,
        )
        report = run_verify(level="quick", seed=0)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert any("displacement" in name for name in failed)

    @pytest.mark.parametrize("name", _BOSONIC_CLOSED_FORMS)
    def test_biased_bosonic_closed_form_fails_only_closed_form_checks(self, monkeypatch, name):
        honest = getattr(cvcase, name)
        monkeypatch.setattr(cvcase, name, lambda *args, **kwargs: honest(*args, **kwargs) + 1e-4)
        report = run_verify(level="quick", seed=0)
        failed = {c.name for c in report.checks if not c.passed}
        assert _BOSONIC_CLOSED_FORMS[name] in failed
        assert failed <= set(_BOSONIC_CLOSED_FORMS.values())

    @pytest.mark.parametrize(
        "name, bias, check",
        [
            ("delta_qs_rotations", 1e-6, "rotation-closed-form"),
            ("delta_sm_rotations_beta0", 1e-5, "rotation-measured-closed-form"),
        ],
    )
    def test_biased_rotation_closed_form_fails_only_its_check(self, monkeypatch, name, bias, check):
        honest = getattr(qubitcase, name)
        monkeypatch.setattr(qubitcase, name, lambda *args: honest(*args) + bias)
        report = run_verify(level="quick", seed=0)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert set(failed) == {check}
        assert "worst closed-form gap" in failed[check]

    @pytest.mark.parametrize(
        "dropped, family",
        [("n_max", "displacements"), ("sweep2", "rotations")],
    )
    def test_serializer_that_drops_a_line_fails_round_trip(self, monkeypatch, dropped, family):
        honest = verifysuite.serialize_config
        monkeypatch.setattr(
            verifysuite,
            "serialize_config",
            lambda cfg: "".join(
                line
                for line in honest(cfg).splitlines(keepends=True)
                if not line.startswith(f"{dropped} =")
            ),
        )
        report = run_verify(level="quick", seed=0)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert set(failed) == {"config-round-trip"}
        assert failed["config-round-trip"] == f"round-trip mismatch for family {family}"

    def test_overstated_bound_fails_u2_check(self, monkeypatch):
        honest = qubitcase._delta_qs_lower_bound
        monkeypatch.setattr(qubitcase, "_delta_qs_lower_bound", lambda *args: honest(*args) + 1e-9)
        report = run_verify(level="quick", seed=0)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert set(failed) == {"u2-optimizer"}
        assert "below the proved lower bound" in failed["u2-optimizer"]

    @pytest.mark.parametrize(
        "module, name",
        [
            (switchcore, "_product_defect_bound"),
            (cvcase, "_phased_defect_bound"),
            (switchcore, "_mixture_psd_unit"),
            (switchcore, "_mix_error"),
            (switchcore, "_hermitian_bound"),
        ],
    )
    def test_understated_certificate_fails_only_switch_algebra(self, monkeypatch, module, name):
        """A bound scaled by 1e-6 still lets every certified matrix through,
        so only the audit in switch-algebra can see that it no longer holds."""
        honest = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: 1e-6 * honest(*args))
        report = run_verify(level="quick", seed=0)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert set(failed) == {"switch-algebra"}
        assert "worst defect/bound" in failed["switch-algebra"]

    def test_certificates_of_a_dense_hamiltonian_hold(self, rng):
        """A diagonal rho under a dense H_S has its terms formed in H_S's
        eigenbasis, where rho is dense: the audit holds there too, and
        compares mix(w) with the dense conjugation only in a frame where
        rho is diagonal."""
        d = 4
        h_s = np.diag(np.arange(d) + 0.5) + 0.3 * (np.eye(d, k=1) + np.eye(d, k=-1))
        u1, u2 = verifysuite._haar(rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d)))
        s = SwitchScenario(
            qmat._DiagonalState(np.array([0.4, 0.3, 0.2, 0.1])), BlochState(1.0, 0.3),
            UnitaryOperator(u1), UnitaryOperator(u2), HermitianOperator(h_s),
            states.hamiltonian_control(states.ControlHamiltonianParams(1.0, 0.5, 0.3)),
        )
        activation_report(s)
        ratios = verifysuite._certificate_ratios(s)
        assert len(ratios) == 1 and ratios[0] <= 1.0

    def test_post_switch_state_off_the_dense_oracle_fails_tilde_split(self, monkeypatch):
        assert verifysuite._check_tilde_split(np.random.default_rng(0))[0]
        original = switchcore._post_switch_expansion

        def nudged(s):
            out = original(s)
            out[0, 1] += 1e-11  # a Hermitian nudge far below what the runtime probe resolves
            out[1, 0] += 1e-11
            return out

        monkeypatch.setattr(switchcore, "_post_switch_expansion", nudged)
        passed, detail = verifysuite._check_tilde_split(np.random.default_rng(0))
        assert not passed
        assert "worst post-switch state gap 1.0" in detail

    def test_swapped_block_weights_fail_tilde_split(self, monkeypatch):
        """The blocks weighted with rc_10 on A12 and rc_01 on A12† form the
        valid state of the conjugate control, so only the dense oracle of
        tilde-energy-split sees the weighting fault."""
        original = switchcore._joint_blocks

        def swapped(s):
            conj_control = DensityMatrix(s.rho_c.mat.T)
            return original(SimpleNamespace(rho_c=conj_control, _terms=s._terms, rho_s=s.rho_s))

        monkeypatch.setattr(switchcore, "_joint_blocks", swapped)
        passed, detail = verifysuite._check_tilde_split(np.random.default_rng(0))
        assert not passed
        gap = float(detail.rsplit("worst post-switch state gap ", 1)[1])
        assert gap > 0.1  # the energy split, read from the terms, still holds

    def test_post_switch_fault_only_above_d2_fails_tilde_split(self, monkeypatch):
        passed, detail = verifysuite._check_tilde_split(np.random.default_rng(0))
        assert passed
        assert "d up to 41" in detail
        original = switchcore._post_switch_expansion

        def nudged(s):
            out = original(s)
            if s.rho_s.dim > 2:  # the qubit scenarios stay exact
                out[2, 3] += 1e-11
                out[3, 2] += 1e-11
            return out

        monkeypatch.setattr(switchcore, "_post_switch_expansion", nudged)
        passed, detail = verifysuite._check_tilde_split(np.random.default_rng(0))
        assert not passed
        assert "worst post-switch state gap 1.0" in detail

    @staticmethod
    def _drift_fig5(monkeypatch):
        """Move one fig5 cell by one ulp."""
        honest = verifysuite.figure_dataset

        def drifted(figure_id):
            header, rows = honest(figure_id)
            if figure_id == "fig5":
                rows[1][2] = math.nextafter(rows[1][2], math.inf)
            return header, rows

        monkeypatch.setattr(verifysuite, "figure_dataset", drifted)

    def test_one_ulp_figure_drift_fails_figure_regression(self, monkeypatch):
        assert verifysuite._check_figure_regression(("fig5",))[0]
        self._drift_fig5(monkeypatch)
        passed, detail = verifysuite._check_figure_regression(("fig5",))
        assert not passed
        assert detail.startswith("fig5: ")

    def test_one_ulp_fig5_drift_fails_quick_level(self, monkeypatch):
        self._drift_fig5(monkeypatch)
        report = run_verify(level="quick", seed=0)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert set(failed) == {"figure-regression"}
        assert failed["figure-regression"] == "fig5: bytes differ from fig5.csv"

    def test_missing_baseline_fails_figure_regression(self, monkeypatch, tmp_path):
        monkeypatch.setattr(verifysuite, "baseline_path", lambda figure_id: tmp_path / "fig5.csv")
        assert verifysuite._check_figure_regression(("fig5",)) == (
            False, "missing baseline fig5.csv"
        )

    def test_summary_counts_failures(self, monkeypatch):
        monkeypatch.setattr(cvcase, "chi_displacements", lambda *args, **kwargs: 0.0j)
        report = run_verify(level="quick", seed=0)
        last = report.render().split("\n")[-1]
        assert "FAILURES PRESENT" in last


class TestScenarioGenerators:
    def test_random_passive_scenarios_never_activate(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            scenario = random_passive_scenario(rng)
            assert activation_report(scenario).delta_qs >= -1e-10

    def test_random_passive_scenarios_use_thermal_like_states(self):
        rng = np.random.default_rng(8)
        scenario = random_passive_scenario(rng)
        pops = np.sort(np.linalg.eigvalsh(scenario.rho_s.mat))[::-1]
        assert all(pops[k] >= pops[k + 1] - 1e-12 for k in range(len(pops) - 1))

    def test_reference_gibbs_is_in_family(self):
        rho = gibbs_qubit(ThermalParams(1.0, 1.0))
        pops = np.diag(rho.mat).real
        assert pops[0] > pops[1]
        assert math.isclose(pops.sum(), 1.0, rel_tol=0.0, abs_tol=1e-12)


# Each generator with the upper end of its h_s spectrum.  The generic
# one draws a uniform pure control, which is passive only by accident.
_GENERATORS = [(random_passive_scenario, 3.0), (verifysuite._random_generic_scenario, 2.0)]


def _matrices(s) -> list:
    return [s.h_s.mat, s.h_c.mat, s.u1.mat, s.u2.mat, s.rho_s.mat, s.rho_c.mat]


class TestSamplerStreams:
    """What the generators draw: passive states on the drawn spectra, the
    same scenarios from the same seed, and one QR per draw."""

    @pytest.mark.parametrize("generator, e_max", _GENERATORS)
    def test_draws_are_passive_with_spectrum_in_range(self, generator, e_max):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = generator(rng)
            assert states.ergotropy(s.rho_s, s.h_s) <= TOL_EIG
            if generator is random_passive_scenario:
                assert states.ergotropy(s.rho_c, s.h_c) <= TOL_EIG
            # Up to the round-off of re-diagonalizing h_s.
            energies = np.linalg.eigvalsh(s.h_s.mat)
            assert -TOL_EIG <= energies[0] and energies[-1] < e_max + TOL_EIG

    @pytest.mark.parametrize("generator", [generator for generator, _ in _GENERATORS])
    def test_same_seed_gives_same_scenarios(self, generator):
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(50):
            a, b = generator(rng_a), generator(rng_b)
            assert all(np.array_equal(x, y) for x, y in zip(_matrices(a), _matrices(b)))

    def test_generic_draw_runs_one_qr_and_no_eigh(self, monkeypatch):
        calls = {"qr": 0, "eigh": 0}
        for name in calls:
            honest = getattr(np.linalg, name)

            def counted(*args, _name=name, _honest=honest, **kwargs):
                calls[_name] += 1
                return _honest(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        verifysuite._random_generic_scenario(np.random.default_rng(0))
        assert calls == {"qr": 1, "eigh": 0}

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        d=st.integers(min_value=2, max_value=30),
        zeros=st.integers(min_value=0, max_value=29),
        negative=st.one_of(
            st.none(), st.floats(min_value=-1e-4 * TOL_PSD, max_value=0.0, exclude_max=True)
        ),
    )
    def test_reports_are_invariant_under_a_common_change_of_basis(self, seed, d, zeros, negative):
        """The samplers draw rho_s and h_s diagonal: for Haar U1 and U2
        independent of a Haar V, (V† U1 V, V† U2 V) is again a Haar pair,
        so the reports of (V diag p V†, V diag E V†, U1, U2) and of
        (diag p, diag E, V† U1 V, V† U2 V) have one distribution.  This is
        its deterministic half: the two agree draw for draw within
        1e-12 max(1, |value|), and the returned states up to conjugation
        by V, on draws with n_m >= 1e-3.  The dense side runs rho's eigh
        factoring and a dense h_s; p has exact zeros and, when drawn, one
        negative weight, which sends both sides to the Cholesky.  It is at
        most 1e-4 TOL_PSD in modulus: the post-selected state scales it by
        up to 1 / n_m, and past -TOL_PSD both sides' full check rejects
        the state."""
        rng = np.random.default_rng(seed)
        k = max(1, d - zeros - (negative is not None))  # positive weights
        p = np.zeros(d)
        p[:k] = rng.dirichlet(np.ones(k))
        if negative is not None:
            p[:k] *= 1.0 - negative
            p[k] = negative
        rng.shuffle(p)
        energies = rng.uniform(0.0, 3.0, size=d)
        u1, u2, v = verifysuite._haar(np.stack([verifysuite._ginibre(rng, d) for _ in range(3)]))
        v_h = v.conj().T
        h_c = verifysuite._random_control_hamiltonian(rng, 0.0, 2.0, 3.0)
        c = BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        m = BlochState(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        dense = SwitchScenario(
            DensityMatrix((v * p) @ v_h), c, UnitaryOperator(u1), UnitaryOperator(u2),
            HermitianOperator((v * energies) @ v_h), h_c,
        )
        diagonal = SwitchScenario(
            qmat._DiagonalState(p), c, UnitaryOperator(v_h @ u1 @ v), UnitaryOperator(v_h @ u2 @ v),
            qmat._DiagonalHermitian(energies), h_c,
        )
        assume(assemble_sm(measurement_angles(c, m), diagonal._terms.kernel)[0] >= 1e-3)
        reports = [activation_report(s) for s in (dense, diagonal)]
        measured = [measure_control(s, m) for s in (dense, diagonal)]
        for (a, b), names in (
            (reports, ("chi", "delta_qs", "delta_s", "delta_c")),
            (measured, ("n_m", "delta_sm")),
        ):
            for name in names:
                value = getattr(b, name)
                assert abs(getattr(a, name) - value) <= 1e-12 * max(1.0, abs(value)), name
        for a, b in ([r.tilde_rho_s for r in reports], [r.rho_sm for r in measured]):
            assert np.max(np.abs(a.mat - v @ b.mat @ v_h)) <= 1e-12


def _haar_z_scores(dim: int, n: int = 4000, seed: int = 1) -> dict[str, float]:
    """z-scores, against the sample standard error, of the Haar moments of
    n stacked `verifysuite._haar` draws: E|U_00|^2 = 1/d and
    E|U_00|^4 = 2/(d(d+1)) on one fixed entry, E|tr U|^2 = 1 and
    E tr U = 0 (Diaconis and Shahshahani, J. Appl. Prob. 31A, 49, 1994)."""
    rng = np.random.default_rng(seed)
    u = verifysuite._haar(np.stack([verifysuite._ginibre(rng, dim) for _ in range(n)]))
    u00 = np.abs(u[:, 0, 0]) ** 2
    trace = np.trace(u, axis1=1, axis2=2)
    samples = {
        "|U00|^2": (u00, 1.0 / dim),
        "|U00|^4": (u00**2, 2.0 / (dim * (dim + 1))),
        "|tr U|^2": (np.abs(trace) ** 2, 1.0),
        "Re tr U": (trace.real, 0.0),
        "Im tr U": (trace.imag, 0.0),
    }
    return {
        name: (x.mean() - expected) / (x.std(ddof=1) / math.sqrt(n))
        for name, (x, expected) in samples.items()
    }


class TestHaarMoments:
    """The Haar draws match the moments of the Haar measure to 5 sigma; a
    QR without the phase fix of R's diagonal fails the trace moments."""

    @pytest.mark.parametrize("dim", [2, 5, 30])
    def test_moments_match_haar_measure(self, dim):
        z = _haar_z_scores(dim)
        assert all(abs(v) <= 5.0 for v in z.values()), z

    @pytest.mark.parametrize("dim", [2, 5, 30])
    def test_qr_without_phase_fix_fails_trace_moments(self, monkeypatch, dim):
        monkeypatch.setattr(verifysuite, "_haar", lambda z: np.linalg.qr(z)[0])
        z = _haar_z_scores(dim)
        assert abs(z["|tr U|^2"]) > 5.0 and abs(z["Re tr U"]) > 5.0, z
