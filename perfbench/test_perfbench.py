"""Self-tests of the benchmark: smoke-size runs pass their gates, and a
deliberately corrupted reference or output trips the gate and shows up as
failed items rather than as a timing.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from switchwork import cli, qmat, switchcore  # noqa: E402


def _run(workload, traced: bool = False) -> dict:
    return worker.measure(workload, 1, traced)


def _fock(**kwargs):
    return workloads.FockSweep(0, points=12, **kwargs)


def test_fock_sweep_smoke_passes_gate():
    result = _run(_fock())
    assert result["attempted"] == 12
    assert result["failed"] == 0
    assert result["gaps"]["chi"] < workloads.TOL_ORACLE


def test_fock_sweep_full_grid_and_divergent_rows_at_default_seed():
    sweep = workloads.FockSweep(0)
    assert len(sweep.items) == 279
    assert sum(sweep.forms["n_m"](*_nm_args(item)) <= workloads.TOL_NM for item in sweep.items) == 39


def _nm_args(item):
    p = dict(item.scalars)
    return (
        p["omega"],
        p["beta"],
        workloads.cvcase.DisplacementParams(p["alpha_abs"], p["alpha_phase"]),
        workloads.cvcase.SqueezeParams(p["z_abs"], p["z_phase"]),
        workloads.BlochState(p["control_theta"], p["control_phi"]),
        workloads.BlochState(p["measure_theta"], p["measure_phi"]),
    )


def test_fock_sweep_seed_redraws_phases_deterministically():
    a, b, c = workloads.FockSweep(3), workloads.FockSweep(3), workloads.FockSweep(4)
    assert a.items == b.items
    assert a.items != c.items
    assert dict(workloads.FockSweep(0).items[0].scalars)["measure_phi"] == 3.141592653589793


def test_fock_sweep_sign_flipped_chi_trips_gate():
    forms = workloads.closed_forms()
    forms["chi"] = lambda *args: -workloads.cvcase.chi_disp_squeeze(*args)
    result = _run(_fock(forms=forms))
    assert result["failed"] == result["attempted"] == 12
    assert "chi" in result["failures"][0]["error"]


def test_u2_figures_smoke_passes_gate():
    calls = workloads.u2_calls()
    assert len(calls) == 24
    assert {c.figure for c in calls} == {"fig3", "fig4"}
    result = _run(workloads.U2Figures(0, calls=calls[:1] + calls[-1:]))
    assert result["failed"] == 0


def test_u2_figures_offset_reference_trips_gate():
    calls = workloads.u2_calls()[:2]
    calls[1] = dataclasses.replace(calls[1], reference=calls[1].reference + 1e-6)
    result = _run(workloads.U2Figures(0, calls=calls))
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_passivity_scan_smoke_passes_gate():
    result = _run(workloads.PassivityScan(0, size=60))
    assert (result["attempted"], result["failed"]) == (60, 0)


def test_passivity_scan_corrupted_output_trips_gate(monkeypatch):
    original = switchcore.activation_report

    def activated(scenario):
        report = original(scenario)
        return dataclasses.replace(report, delta_qs=report.delta_qs - 1.0)

    monkeypatch.setattr(switchcore, "activation_report", activated)
    result = _run(workloads.PassivityScan(0, size=20))
    assert result["failed"] == 20


def test_closed_form_figures_pass_their_gate():
    gaps: dict = {}
    failures: list = []
    metrics, failed = layers.figure_benchmarks(gaps, failures)
    assert (failed, failures) == (0, [])
    assert all(metrics[f"figures.figure_dataset.{f}_ms"] > 0 for f in workloads.CLOSED_FORM_FIGURES)


@pytest.mark.parametrize("figure, cell", [("fig5", (3, 2)), ("fig6", (5, 4))])  # value cell, flag cell
def test_closed_form_figure_corrupted_reference_trips_gate(figure, cell):
    text = workloads.reference_csv(figure)
    lines = text.split("\n")
    row = lines[cell[0]].split(",")
    row[cell[1]] = repr(float(row[cell[1]]) + 1e-6) if figure == "fig5" else str(1 - int(row[cell[1]]))
    lines[cell[0]] = ",".join(row)
    corrupted = "\n".join(lines)
    assert workloads.figure_gate(figure, text, {}, text) is None
    assert figure in workloads.figure_gate(figure, text, {}, corrupted)
    references = {f: workloads.reference_csv(f) for f in workloads.CLOSED_FORM_FIGURES}
    references[figure] = corrupted
    _, failed = layers.figure_benchmarks({}, [], references)
    assert failed == 1


def test_item_that_raises_is_counted_and_the_batch_continues(monkeypatch):
    calls = {"n": 0}
    original = cli.run_sweep

    def flaky(cfg):
        calls["n"] += 1
        if calls["n"] == 2:
            raise AssertionError("cross-check tripped")
        return original(cfg)

    monkeypatch.setattr(cli, "run_sweep", flaky)
    result = _run(_fock())
    assert (result["attempted"], result["failed"]) == (12, 1)
    assert "AssertionError" in result["failures"][0]["error"]


def test_traced_run_reports_every_layer_metric_and_restores_bindings():
    result = _run(_fock(), traced=True)
    per_layer = {name: value for name, (value, _unit) in result["per_layer"].items()}
    assert list(per_layer) == layers.metric_names()
    assert per_layer["cvcase.disp_squeeze_scenario.calls"] == 12
    assert per_layer["switchcore.activation_report.calls"] == 12
    assert per_layer["cvcase.n_max.max"] >= per_layer["cvcase.n_max.p50"] >= 40
    assert per_layer["switchcore.measure_control.n172_ms"] > 0
    assert per_layer["figures.figure_dataset.fig2_ms"] > 0
    assert result["attempted"] == 2 * 12 + len(workloads.CLOSED_FORM_FIGURES)
    assert cli.activation_report is switchcore.activation_report
    assert not hasattr(qmat.DensityMatrix.__post_init__, "__wrapped__")


def test_item_times_are_medians_over_batches_and_tail_has_ten_beyond():
    items = list(range(100))
    batches = [
        {"items": items, "times_ms": [float(i) for i in items]},
        {"items": items[::-1], "times_ms": [float(i) + 1000.0 * (i == 0) for i in items]},
        {"items": items, "times_ms": [float(i) for i in items]},
    ]
    stats = worker.item_stats(batches)
    assert stats["items"] == 100
    assert stats["item_ms_tail"] == 89.0
    assert stats["tail_beyond"] == 10
    assert stats["item_ms_p50"] == 49.5


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run

    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [m["unit"] for m in spec["per_layer"]] == [layers.metric_unit(n) for n in layers.metric_names()]
