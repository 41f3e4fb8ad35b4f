"""Self-verification suite: the quick plan passes on the shipped library,
and the suite demonstrably fails (has teeth) when a closed form is wrong."""
from __future__ import annotations

import math

import numpy as np
import pytest

from switchwork import qubitcase
from switchwork.states import gibbs_qubit, ThermalParams
from switchwork.switchcore import activation_report
from switchwork.verifysuite import (
    closed_form_table,
    random_passive_scenario,
    run_verify,
)


class TestQuickPlan:
    def test_all_checks_pass(self):
        report = run_verify(level="quick", seed=0)
        assert report.passed
        assert report.level == "quick"
        assert len(report.checks) >= 10
        assert all(c.passed for c in report.checks)

    def test_render_format(self):
        report = run_verify(level="quick", seed=0)
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

    def test_plan_covers_library_surfaces(self):
        names = [c.name for c in run_verify(level="quick", seed=0).checks]
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
            "csv-determinism",
        ):
            assert any(expected in name for name in names), expected

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            run_verify(level="paranoid")


class TestSuiteHasTeeth:
    def test_wrong_interference_sign_fails_disp_squeeze_check(self):
        table = closed_form_table()
        honest = table["chi_disp_squeeze"]
        table["chi_disp_squeeze"] = lambda *args, **kwargs: -honest(*args, **kwargs)
        report = run_verify(level="quick", seed=0, table=table)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert any("disp-squeeze" in name for name in failed)
        assert "FAIL" in report.render()

    def test_small_energy_bias_fails_displacement_check(self):
        table = closed_form_table()
        honest = table["delta_sm_displacements"]
        table["delta_sm_displacements"] = (
            lambda *args, **kwargs: honest(*args, **kwargs) + 1e-4
        )
        report = run_verify(level="quick", seed=0, table=table)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert any("displacement" in name for name in failed)

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

    def test_summary_counts_failures(self):
        table = closed_form_table()
        table["chi_displacements"] = lambda *args, **kwargs: 0.0j
        report = run_verify(level="quick", seed=0, table=table)
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
