"""Figure datasets: cell formatting, grid flag logic, structure against the
shipped baselines, and determinism.  Full byte-identical regression of all
nine datasets (including the optimizer-backed ones) runs in the acceptance
suite; here the cheap closed-form figures are regressed directly."""
from __future__ import annotations

import math

import pytest

from switchwork.figures import (
    DEFAULT_FIGURE_SEED,
    FIGURE_IDS,
    _zero_crossing_flags,
    baseline_path,
    emit_figure,
    figure_dataset,
    format_cell,
    render_csv,
)
from switchwork import qubitcase
from switchwork.qubitcase import RotationParams, delta_qs_rotations
from switchwork.states import BlochState
from switchwork.cvcase import delta_qs_displacements_symmetric

_CHEAP_IDS = ("fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9")


def byte_pin_summary(baseline: str, regenerated: str) -> str:
    """How a regenerated figure CSV differs from its baseline, row by row:
    the changed-row count, the largest |delta| per numeric column, and
    every change to a flag, a tag, an empty cell or a non-finite cell
    (the first five listed)."""
    old, new = baseline.splitlines(), regenerated.splitlines()
    if old[:1] != new[:1] or len(old) != len(new):
        return f"header or row count changed: {old[:1]} -> {new[:1]}, {len(old) - 1} -> {len(new) - 1} rows"
    header = old[0].split(",")
    changed, worst, cells = 0, {}, []
    for row, (a, b) in enumerate(zip(old[1:], new[1:]), start=1):
        changed += a != b
        for name, x, y in zip(header, a.split(","), b.split(",")):
            if x == y:
                continue
            try:
                delta = abs(float(y) - float(x))
            except ValueError:
                delta = math.nan
            if name.endswith("[flag]") or not math.isfinite(delta):
                cells.append(f"row {row} {name}: {x!r} -> {y!r}")
            else:
                worst[name] = max(worst.get(name, 0.0), delta)
    largest = ", ".join(f"{name} {delta:.3g}" for name, delta in worst.items()) or "none"
    return (
        f"{changed} of {len(old) - 1} rows changed; largest |delta|: {largest}; "
        f"{len(cells)} flag, tag or empty-cell changes: {cells[:5]}"
    )


class TestFormatCell:
    def test_none_is_empty(self):
        assert format_cell(None) == ""

    def test_bools_are_flags(self):
        assert format_cell(True) == "1"
        assert format_cell(False) == "0"

    def test_ints_verbatim(self):
        assert format_cell(8000) == "8000"

    def test_floats_shortest_exact(self):
        assert format_cell(0.1) == "0.10000000000000001"
        assert float(format_cell(math.pi)) == math.pi

    def test_infinities(self):
        assert format_cell(math.inf) == "inf"
        assert format_cell(-math.inf) == "-inf"


class TestZeroCrossingFlags:
    def test_exact_zero_flags(self):
        flags = _zero_crossing_flags([[1.0, 0.0, 2.0]])
        assert flags == [[0, 1, 0]]

    def test_sign_change_flags_both_neighbors(self):
        flags = _zero_crossing_flags([[1.0, -1.0]])
        assert flags == [[1, 1]]
        flags = _zero_crossing_flags([[1.0], [-2.0]])
        assert flags == [[1], [1]]

    def test_divergent_cells_never_flag(self):
        flags = _zero_crossing_flags([[1.0, None, -1.0]])
        assert flags == [[0, 0, 0]]

    def test_uniform_sign_never_flags(self):
        flags = _zero_crossing_flags([[0.5, 1.5], [2.5, 3.5]])
        assert flags == [[0, 0], [0, 0]]


class TestCatalog:
    def test_nine_ids(self):
        assert FIGURE_IDS == tuple(f"fig{k}" for k in range(1, 10))

    def test_unknown_id_rejected_by_emit_before_writing(self, tmp_path):
        out = tmp_path / "fig10.csv"
        with pytest.raises(ValueError, match=r"unknown figure id 'fig10'; known: fig1, fig2"):
            emit_figure("fig10", out)
        assert not out.exists()

    def test_unknown_id_rejected_by_dataset(self):
        with pytest.raises(ValueError, match="unknown figure id 'fig0'; known: fig1"):
            figure_dataset("fig0")

    def test_unknown_id_rejected_by_baseline_path(self):
        with pytest.raises(ValueError, match="unknown figure id 'fig10'; known: fig1"):
            baseline_path("fig10")

    def test_baselines_shipped_for_all_ids(self):
        for figure_id in FIGURE_IDS:
            path = baseline_path(figure_id)
            assert path.is_file(), figure_id
            assert path.suffix == ".csv"


class TestStructureAgainstBaselines:
    @pytest.mark.parametrize("figure_id", _CHEAP_IDS)
    def test_regenerated_bytes_match_baseline(self, figure_id):
        header, rows = figure_dataset(figure_id)
        text, baseline = render_csv(header, rows), baseline_path(figure_id).read_bytes()
        assert text.encode() == baseline, byte_pin_summary(baseline.decode(), text)

    def test_byte_pin_summary_names_rows_columns_and_flags(self):
        baseline = "x[1],y[energy],f[flag]\n0,1.0,0\n1,2.0,0\n2,3.0,0\n"
        regenerated = "x[1],y[energy],f[flag]\n0,1.25,0\n1,2.0,1\n2,,0\n"
        assert byte_pin_summary(baseline, regenerated) == (
            "3 of 3 rows changed; largest |delta|: y[energy] 0.25; 2 flag, tag or empty-cell "
            "changes: [\"row 2 f[flag]: '0' -> '1'\", \"row 3 y[energy]: '3.0' -> ''\"]"
        )

    @pytest.mark.parametrize("figure_id", _CHEAP_IDS)
    def test_header_line_matches_baseline(self, figure_id):
        header, _ = figure_dataset(figure_id)
        first = baseline_path(figure_id).read_text(encoding="utf-8").split("\n", 1)[0]
        assert ",".join(header) == first


class TestFigureValues:
    def test_activation_curves_match_rotation_closed_form(self):
        header, rows = figure_dataset("fig1")
        assert header == ["t_abs[energy]", "beta[1/energy]", "delta_qs[energy]"]
        r = RotationParams(math.pi / 2.0, math.pi)
        from switchwork.states import BlochState

        plus = BlochState(math.pi / 2.0, 0.0)
        for row in rows[::17]:
            t_abs, beta, value = row
            assert value == delta_qs_rotations(1.0, beta, t_abs, 0.0, r, plus)

    def test_symmetric_displacement_curves(self):
        header, rows = figure_dataset("fig5")
        assert header == ["t_abs[energy]", "alpha_abs[1]", "delta_qs[energy]"]
        assert len(rows) == 4 * 111
        for t_abs, alpha_abs, value in rows[::23]:
            assert value == delta_qs_displacements_symmetric(1.0, t_abs, alpha_abs)

    def test_uncoupled_grid_is_nonnegative_with_flagged_zero_edge(self):
        _, rows = figure_dataset("fig6")
        at_zero_coupling = [row for row in rows if row[0] == 0.0]
        assert all(row[3] >= -1e-12 for row in at_zero_coupling)
        # The only zero contour at |t| = 0 is the alpha1 = alpha2 = 0 corner.
        flagged = [row for row in at_zero_coupling if row[4] == 1]
        assert all(row[1] == 0.0 and row[2] == 0.0 for row in flagged)

    def test_strong_coupling_grid_crosses_zero(self):
        _, rows = figure_dataset("fig6")
        strong = [row for row in rows if row[0] == 4.0]
        assert any(row[3] < 0.0 for row in strong)
        assert any(row[4] == 1 for row in strong)

    def test_measured_slice_grid_tags_divergence_instead_of_values(self):
        header, rows = figure_dataset("fig8")
        i_val = header.index("delta_sm[energy]")
        i_div = header.index("divergent[flag]")
        divergent_rows = [row for row in rows if row[i_div] == 1]
        assert divergent_rows, "expected at least one non-post-selectable point"
        assert all(row[i_val] is None for row in divergent_rows)
        valued = [row for row in rows if row[i_div] == 0]
        assert all(isinstance(row[i_val], float) for row in valued)

    def test_ground_state_sweep_quarter_phases_coincide(self):
        header, rows = figure_dataset("fig9")
        i_phi = header.index("phi_m[rad]")
        i_x = header.index("alpha_abs[1]")
        i_val = header.index("delta_sm[energy]")
        i_slice = header.index("xi_minus_2phi[rad]")
        for slice_angle in (0.0, math.pi):
            quarter = {
                row[i_x]: row[i_val]
                for row in rows
                if row[i_slice] == slice_angle and row[i_phi] == math.pi / 2.0
            }
            three_quarter = {
                row[i_x]: row[i_val]
                for row in rows
                if row[i_slice] == slice_angle and row[i_phi] == 3.0 * math.pi / 2.0
            }
            assert quarter.keys() == three_quarter.keys()
            for x, v in quarter.items():
                w = three_quarter[x]
                if v is None or w is None:
                    assert v is None and w is None
                else:
                    assert abs(v - w) < 1e-10

    def test_ground_state_sweep_divergences_are_origin_only(self):
        header, rows = figure_dataset("fig9")
        i_phi = header.index("phi_m[rad]")
        i_x = header.index("alpha_abs[1]")
        i_div = header.index("divergent[flag]")
        divergent = [row for row in rows if row[i_div] == 1]
        assert divergent
        # At the origin both process orders are the identity, so only the
        # orthogonal measurement direction loses all post-selection weight.
        assert all(row[i_x] == 0.0 and row[i_phi] == math.pi for row in divergent)


def _baseline_rows(figure_id: str) -> list[list[float]]:
    lines = baseline_path(figure_id).read_text(encoding="utf-8").strip().split("\n")
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


class TestOptimizerBaselinesMeetTheBounds:
    """fig3 and fig4 against the U(2) minima in closed form, which do not
    depend on the optimizer.  Both figures use omega = 1 and the control
    (pi/2, 0), so theta' is fig3's coupling phase."""

    @staticmethod
    def _delta_qs_bound(beta: float, theta: float, t_abs: float) -> float:
        # min delta_qs = -|t| sin(theta_c) (cos theta' + sqrt(cos^2 theta'
        # + tau^2 sin^2 theta')), tau = tanh(beta omega / 2).
        tau = math.tanh(beta / 2.0)
        c, s = math.cos(theta), math.sin(theta)
        return -t_abs * (c + math.sqrt(c * c + tau * tau * s * s))

    def test_fig3_rows_equal_the_delta_qs_bound(self):
        rows = _baseline_rows("fig3")
        assert len(rows) == 72
        for beta, theta, t_abs, value, _, _ in rows:
            assert abs(value - self._delta_qs_bound(beta, theta, t_abs)) <= 1e-12, (beta, theta, t_abs)

    def test_optimizer_bound_equals_the_reference_at_fig3_points(self):
        plus = BlochState(math.pi / 2.0, 0.0)
        for beta, theta, t_abs, _, _, _ in _baseline_rows("fig3"):
            got = qubitcase._delta_qs_lower_bound(1.0, beta, t_abs, theta, plus)
            assert got == self._delta_qs_bound(beta, theta, t_abs), (beta, theta, t_abs)

    def test_fig4_rows_off_the_real_axis_equal_minus_e_s(self):
        # delta_sm >= -E_S, attained on the equator where sin(phi_m) != 0.
        rows = [row for row in _baseline_rows("fig4") if abs(math.sin(row[1])) > 1e-9]
        assert len(rows) == 18
        for beta, phi_m, value, _ in rows:
            e_s = math.exp(-beta) / (1.0 + math.exp(-beta))
            assert abs(value + e_s) <= 1e-12, (beta, phi_m)


class TestEmission:
    def test_default_output_name_is_figure_id(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = emit_figure("fig5")
        assert path.name == "fig5.csv"
        assert path.read_bytes() == baseline_path("fig5").read_bytes()

    def test_repeat_emission_is_byte_identical(self, tmp_path):
        first = emit_figure("fig9", tmp_path / "a.csv")
        second = emit_figure("fig9", tmp_path / "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_render_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="row width"):
            render_csv(["a", "b"], [[1.0]])

    def test_seed_is_recorded_in_default(self):
        assert DEFAULT_FIGURE_SEED == 11
