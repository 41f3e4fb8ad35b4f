"""Self-verification suite: the quick plan passes on the shipped library,
and the suite demonstrably fails (has teeth) when a closed form, the
optimizer pool, the switch unitary or the config serializer is wrong."""
from __future__ import annotations

import math

import numpy as np
import pytest

from switchwork import cvcase, qubitcase, switchcore, verifysuite
from switchwork.config import FAMILIES
from switchwork.qmat import UnitaryOperator
from switchwork.states import gibbs_qubit, ThermalParams
from switchwork.switchcore import activation_report
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

    def test_pool_that_loses_a_start_fails_u2_check(self, monkeypatch):
        class LossyPool:
            def imap(self, fn, tasks, chunksize=1):
                return map(fn, tasks[:-1])

        monkeypatch.setattr(qubitcase, "_pool_workers", lambda n_starts: 2)
        monkeypatch.setattr(qubitcase, "_start_pool", lambda workers: LossyPool())
        report = run_verify(level="quick", seed=0)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert set(failed) == {"u2-optimizer"}
        assert "DIFFER FROM in-process" in failed["u2-optimizer"]

    def test_switch_unitary_off_the_kron_formula_fails_algebra_check(self, monkeypatch):
        original = switchcore.build_switch_unitary

        def nudged(u1, u2):
            m = original(u1, u2).mat.copy()
            m[0, 1] += 1e-13  # an entry between the blocks; every energy check still agrees
            return UnitaryOperator(m)

        monkeypatch.setattr(switchcore, "build_switch_unitary", nudged)
        report = run_verify(level="quick", seed=0)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert set(failed) == {"switch-algebra"}
        assert "DIFFERS FROM kron formula" in failed["switch-algebra"]

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
