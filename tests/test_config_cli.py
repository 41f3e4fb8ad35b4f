"""Config grammar (parse/serialize/grid) and the batch CLI front-end."""
from __future__ import annotations

import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from switchwork import cli
from switchwork.config import (
    ConfigError,
    ScenarioConfig,
    SweepAxis,
    grid_points,
    parse_config,
    serialize_config,
)
from switchwork.cvcase import TruncationInadequacyWarning
from switchwork.figures import format_cell
from switchwork.qubitcase import RotationParams, delta_qs_rotations
from switchwork.states import BlochState


ROTATIONS_TEXT = """\
# minimal rotation-pair scenario
kind = qubit
family = rotations

omega = 1.0
beta = 1.3
alpha_x = 1.1
alpha_y = 0.6
t_abs = 0.7
t_phase = 0.4
control_theta = 0.8
control_phi = 5.1
"""

U2_TEXT = """\
kind = qubit
family = u2
omega = 1.0
beta = 0.0
u1_alpha = 0.3
u1_lam = 1.0
u1_gamma = 2.0
u1_delta = 0.1
u2_alpha = 0.9
u2_lam = 0.2
u2_gamma = 1.4
u2_delta = 2.2
t_abs = 1.0
t_phase = 0.0
control_theta = 1.5707963267948966
control_phi = 0.0
"""

DISP_TEXT = """\
kind = fock
family = displacements
omega = 1.0
beta = 1.0
alpha1_abs = 0.6
alpha1_phase = 0.1
alpha2_abs = 0.8
alpha2_phase = 1.7
t_abs = 0.5
t_phase = 0.0
control_theta = 1.2
control_phi = 0.3
n_max = 40
"""

DISP_SQUEEZE_TEXT = """\
kind = fock
family = disp_squeeze
omega = 1.0
beta = 1.0
alpha_abs = 0.5
alpha_phase = 0.3
z_abs = 0.2
z_phase = 1.0
t_abs = 0.5
t_phase = 0.0
control_theta = 1.2
control_phi = 0.3
n_max = 40
"""

MEASURE_TEXT = "measure_theta = 1.0\nmeasure_phi = 2.0\n"

_SCENARIO_COLUMNS = "t_abs[energy],t_phase[rad],control_theta[rad],control_phi[rad]"
_MEASURE_COLUMNS = "measure_theta[rad],measure_phi[rad]"
_REPORT_COLUMNS = "chi_re[1],chi_im[1],delta_qs[energy],delta_s[energy],delta_c[energy]"
_MEASURED_COLUMNS = (
    "n_m[1],delta_sm[energy],cond_i[flag],cond_ii[flag],cond_iii[flag],divergent[flag]"
)

# (config, replaced line, replacement, field the error must name): a
# non-finite scalar other than beta = inf, a negative *_abs magnitude, or
# a control or measurement angle outside theta in [0, pi], phi in [0, 2 pi).
_BAD_SCALARS = [
    (DISP_TEXT, "alpha1_abs = 0.6", "alpha1_abs = inf", "alpha1_abs"),
    (DISP_TEXT, "alpha2_abs = 0.8", "alpha2_abs = -0.1", "alpha2_abs"),
    (DISP_SQUEEZE_TEXT, "z_abs = 0.2", "z_abs = -0.5", "z_abs"),
    (DISP_SQUEEZE_TEXT, "z_phase = 1.0", "z_phase = -inf", "z_phase"),
    (ROTATIONS_TEXT, "alpha_x = 1.1", "alpha_x = inf", "alpha_x"),
    (ROTATIONS_TEXT, "t_abs = 0.7", "t_abs = -1", "t_abs"),
    (ROTATIONS_TEXT, "omega = 1.0", "omega = inf", "omega"),
    (U2_TEXT, "u1_lam = 1.0", "u1_lam = inf", "u1_lam"),
    # The first point of this axis is 0 * inf = nan.
    (ROTATIONS_TEXT + "sweep1 = beta 0.0 inf 3\n", "", "", "beta"),
    (ROTATIONS_TEXT, "control_theta = 0.8", "control_theta = 3.2", "control_theta"),
    (ROTATIONS_TEXT, "control_phi = 5.1", "control_phi = 6.283185307179586", "control_phi"),
    (ROTATIONS_TEXT + MEASURE_TEXT, "measure_theta = 1.0", "measure_theta = -1", "measure_theta"),
    (DISP_TEXT + MEASURE_TEXT, "measure_phi = 2.0", "measure_phi = 7.0", "measure_phi"),
]


class TestParse:
    def test_parses_rotations(self):
        cfg = parse_config(ROTATIONS_TEXT)
        assert cfg.kind == "qubit"
        assert cfg.family == "rotations"
        assert cfg.scalar("alpha_x") == 1.1
        assert cfg.budget == 32000
        assert cfg.seed == 0
        assert cfg.n_max is None
        assert not cfg.has_measurement

    def test_measurement_keys_detected(self):
        cfg = parse_config(
            ROTATIONS_TEXT + "measure_theta = 1.0\nmeasure_phi = 2.0\n"
        )
        assert cfg.has_measurement
        assert cfg.scalar("measure_phi") == 2.0

    def test_measurement_keys_must_pair(self):
        with pytest.raises(ConfigError, match="must be given together"):
            parse_config(ROTATIONS_TEXT + "measure_theta = 1.0\n")

    def test_missing_required_field(self):
        text = ROTATIONS_TEXT.replace("omega = 1.0\n", "")
        with pytest.raises(ConfigError, match="missing required field: omega"):
            parse_config(text)

    def test_unknown_field_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 13: unknown field: bogus"):
            parse_config(ROTATIONS_TEXT + "bogus = 3\n")

    def test_bad_number_reports_line_and_field(self):
        text = ROTATIONS_TEXT.replace("beta = 1.3", "beta = warm")
        with pytest.raises(ConfigError, match=r"line 6: field beta: not a number"):
            parse_config(text)

    def test_nan_rejected(self):
        text = ROTATIONS_TEXT.replace("beta = 1.3", "beta = nan")
        with pytest.raises(ConfigError, match="NaN is not allowed"):
            parse_config(text)

    def test_inf_beta_accepted(self):
        text = ROTATIONS_TEXT.replace("beta = 1.3", "beta = inf")
        assert math.isinf(parse_config(text).scalar("beta"))

    def test_duplicate_assignment_rejected(self):
        with pytest.raises(ConfigError, match="duplicate assignment"):
            parse_config(ROTATIONS_TEXT + "omega = 2.0\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match=r"line 13: expected 'key = value'"):
            parse_config(ROTATIONS_TEXT + "omega 2.0\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="field kind: must be one of"):
            parse_config(ROTATIONS_TEXT.replace("kind = qubit", "kind = spin"))

    def test_family_kind_mismatch(self):
        with pytest.raises(ConfigError, match="requires kind"):
            parse_config(ROTATIONS_TEXT.replace("kind = qubit", "kind = fock"))

    def test_budget_floor(self):
        with pytest.raises(ConfigError, match="must be >= 1000"):
            parse_config(U2_TEXT + "budget = 999\n")
        assert parse_config(U2_TEXT + "budget = 1000\n").budget == 1000

    def test_n_max_is_fock_only(self):
        with pytest.raises(ConfigError, match="only valid for kind = fock"):
            parse_config(ROTATIONS_TEXT + "n_max = 40\n")
        assert parse_config(DISP_TEXT).n_max == 40

    def test_n_max_floor(self):
        with pytest.raises(ConfigError, match="must be >= 1"):
            parse_config(DISP_TEXT.replace("n_max = 40", "n_max = 0"))

    def test_negative_seed_rejected_with_line_and_field(self):
        with pytest.raises(ConfigError, match=r"^line 17: field seed: must be >= 0, got -1$"):
            parse_config(U2_TEXT + "seed = -1\n")
        assert parse_config(U2_TEXT + "seed = 0\n").seed == 0


class TestSweepGrammar:
    def test_single_axis(self):
        cfg = parse_config(ROTATIONS_TEXT + "sweep1 = alpha_x 0.0 2.0 5\n")
        assert cfg.axes == (SweepAxis("alpha_x", 0.0, 2.0, 5),)
        assert cfg.axes[0].values() == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_count_one_axis_is_single_value(self):
        assert SweepAxis("beta", 0.7, 9.9, 1).values() == [0.7]

    def test_two_axes_row_major(self):
        cfg = parse_config(
            ROTATIONS_TEXT + "sweep1 = alpha_x 0.0 1.0 2\nsweep2 = beta 0.0 3.0 3\n"
        )
        pts = grid_points(cfg)
        assert len(pts) == 6
        # First axis is the outer loop.
        assert [p["alpha_x"] for p in pts] == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        assert [p["beta"] for p in pts] == [0.0, 1.5, 3.0, 0.0, 1.5, 3.0]

    def test_no_axes_single_point(self):
        pts = grid_points(parse_config(ROTATIONS_TEXT))
        assert len(pts) == 1
        assert pts[0]["alpha_y"] == 0.6

    def test_axis_must_name_family_parameter(self):
        with pytest.raises(ConfigError, match="is not a parameter of family"):
            parse_config(ROTATIONS_TEXT + "sweep1 = z_abs 0.0 1.0 3\n")

    def test_sweep2_requires_sweep1(self):
        with pytest.raises(ConfigError, match="requires sweep1"):
            parse_config(ROTATIONS_TEXT + "sweep2 = alpha_x 0.0 1.0 3\n")

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigError, match="duplicate axis"):
            parse_config(
                ROTATIONS_TEXT
                + "sweep1 = alpha_x 0.0 1.0 3\nsweep2 = alpha_x 0.0 2.0 3\n"
            )

    def test_axis_token_count(self):
        with pytest.raises(ConfigError, match="expected '<name> <start>"):
            parse_config(ROTATIONS_TEXT + "sweep1 = alpha_x 0.0 1.0\n")

    def test_axis_count_floor(self):
        with pytest.raises(ConfigError, match="count must be >= 1"):
            parse_config(ROTATIONS_TEXT + "sweep1 = alpha_x 0.0 1.0 0\n")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            ROTATIONS_TEXT,
            U2_TEXT,
            DISP_TEXT,
            ROTATIONS_TEXT + "measure_theta = 1.0\nmeasure_phi = 2.0\n",
            ROTATIONS_TEXT + "budget = 2000\nseed = 7\nsweep1 = alpha_x 0.0 2.0 5\n",
            DISP_TEXT + "sweep1 = alpha1_abs 0.0 1.5 4\nsweep2 = beta 0.5 2.0 3\n",
        ],
    )
    def test_parse_serialize_parse_identity(self, text):
        cfg = parse_config(text)
        canonical = serialize_config(cfg)
        assert parse_config(canonical) == cfg
        # Canonical text is a fixed point of serialize(parse(.)).
        assert serialize_config(parse_config(canonical)) == canonical

    def test_serialize_omits_defaults(self):
        canonical = serialize_config(parse_config(ROTATIONS_TEXT))
        assert "budget" not in canonical
        assert "seed" not in canonical

    def test_serialize_keeps_overrides(self):
        canonical = serialize_config(parse_config(U2_TEXT + "budget = 2000\nseed = 5\n"))
        assert "budget = 2000" in canonical
        assert "seed = 5" in canonical

    def test_float_cells_are_shortest_exact(self):
        cfg = parse_config(ROTATIONS_TEXT.replace("beta = 1.3", "beta = 0.1"))
        assert "beta = 0.10000000000000001" in serialize_config(cfg)

    def test_infinities_serialize_as_inf_text(self):
        text = ROTATIONS_TEXT.replace("beta = 1.3", "beta = inf")
        cfg = parse_config(text + "sweep1 = alpha_x -inf 2.0 1\n")
        canonical = serialize_config(cfg)
        assert "\nbeta = inf\n" in canonical
        assert canonical.endswith("\nsweep1 = alpha_x -inf 2 1\n")
        assert parse_config(canonical) == cfg
        assert parse_config(canonical).axes[0].start == -math.inf


class TestSweepCommand:
    def _run(self, capsys, tmp_path, text, name="scenario.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code = cli.main(["sweep", str(path)])
        out = capsys.readouterr().out
        return code, out

    def test_golden_rotation_sweep_matches_closed_form(self, capsys, tmp_path):
        code, out = self._run(
            capsys, tmp_path, ROTATIONS_TEXT + "sweep1 = alpha_x 0.2 2.2 5\n"
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "omega[energy]"
        assert "chi_re[1]" in header
        assert "delta_qs[energy]" in header
        assert len(lines) == 6
        i_ax = header.index("alpha_x[rad]")
        i_dqs = header.index("delta_qs[energy]")
        c = BlochState(0.8, 5.1)
        for line in lines[1:]:
            cells = line.split(",")
            ax = float(cells[i_ax])
            expected = delta_qs_rotations(1.0, 1.3, 0.7, 0.4, RotationParams(ax, 0.6), c)
            assert float(cells[i_dqs]) == pytest.approx(expected, abs=1e-10)

    def test_single_point_matches_direct_scenario(self, capsys, tmp_path):
        code, out = self._run(capsys, tmp_path, DISP_TEXT)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        cells = lines[1].split(",")

        from switchwork.cvcase import DisplacementParams, displacement_scenario
        from switchwork.switchcore import activation_report

        scenario = displacement_scenario(
            1.0,
            1.0,
            0.5,
            0.0,
            DisplacementParams(0.6, 0.1),
            DisplacementParams(0.8, 1.7),
            BlochState(1.2, 0.3),
            n_max=40,
        )
        rep = activation_report(scenario)
        for name, value in [
            ("chi_re[1]", rep.chi.real),
            ("chi_im[1]", rep.chi.imag),
            ("delta_qs[energy]", rep.delta_qs),
            ("delta_s[energy]", rep.delta_s),
            ("delta_c[energy]", rep.delta_c),
        ]:
            assert cells[header.index(name)] == format_cell(value)

    def test_readme_sweep_matches_the_closed_forms(self, capsys, tmp_path):
        """The README's example config, 279 disp_squeeze points at the
        calibrated cutoffs: chi, delta_qs, n_m and delta_sm within 1e-7 of
        the cvcase closed forms (calibrated_cutoff's promise), the split
        delta_qs = delta_s + delta_c within 1e-9, and the divergent flag
        exactly where the closed-form n_m is at or below TOL_NM."""
        from switchwork import cvcase
        from switchwork.switchcore import TOL_NM

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        (text,) = re.findall(r"^```ini\n(kind = fock\nfamily = disp_squeeze\n.*?)^```$", readme, re.M | re.S)
        code, out = self._run(capsys, tmp_path, text)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 31 * 9
        divergent = 0
        for row in rows:
            p = {name.split("[")[0]: float(value) for name, value in row.items() if value and "flag" not in name}
            omega, beta = p["omega"], p["beta"]
            a = cvcase.DisplacementParams(p["alpha_abs"], p["alpha_phase"])
            z = cvcase.SqueezeParams(p["z_abs"], p["z_phase"])
            c, m = BlochState(p["control_theta"], p["control_phi"]), BlochState(p["measure_theta"], p["measure_phi"])
            chi = complex(p["chi_re"], p["chi_im"])
            assert abs(chi - cvcase.chi_disp_squeeze(a, z, beta, omega)) <= 1e-7
            dqs = cvcase.delta_qs_disp_squeeze(omega, beta, p["t_abs"], p["t_phase"], a, z, c)
            assert abs(p["delta_qs"] - dqs) <= 1e-7
            assert abs(p["delta_qs"] - (p["delta_s"] + p["delta_c"])) <= 1e-9
            n_m = cvcase.n_m_disp_squeeze(omega, beta, a, z, c, m)
            assert abs(p["n_m"] - n_m) <= 1e-7
            assert row["divergent[flag]"] == str(int(n_m <= TOL_NM))
            if n_m <= TOL_NM:
                divergent += 1
                assert row["delta_sm[energy]"] == ""
                continue
            assert abs(p["delta_sm"] - cvcase.delta_sm_disp_squeeze(omega, beta, a, z, c, m)) <= 1e-7
        assert divergent == 39

    def test_measured_sweep_has_condition_columns(self, capsys, tmp_path):
        text = ROTATIONS_TEXT + "measure_theta = 1.0\nmeasure_phi = 2.0\n"
        code, out = self._run(capsys, tmp_path, text)
        assert code == 0
        header = out.strip().split("\n")[0].split(",")
        for col in (
            "n_m[1]",
            "delta_sm[energy]",
            "cond_i[flag]",
            "cond_ii[flag]",
            "cond_iii[flag]",
            "divergent[flag]",
        ):
            assert col in header

    @pytest.mark.parametrize(
        "control_theta, measure_theta",
        [(math.pi, 1.0), (1.0, math.pi)],
        ids=["control_south_pole", "measurement_south_pole"],
    )
    def test_south_pole_row_fails_condition_i(self, capsys, tmp_path, control_theta, measure_theta):
        text = ROTATIONS_TEXT.replace("control_theta = 0.8", f"control_theta = {control_theta!r}")
        text = text.replace("control_phi = 5.1", "control_phi = 0.0")
        text += f"measure_theta = {measure_theta!r}\nmeasure_phi = 4.0\n"
        code, out = self._run(capsys, tmp_path, text)
        assert code == 0
        header, cells = (line.split(",") for line in out.strip().split("\n"))
        flags = [cells[header.index(f"{name}[flag]")] for name in ("cond_i", "cond_ii", "cond_iii", "divergent")]
        assert flags == ["0", "1", "0", "0"]

    def test_divergent_point_tagged_not_valued(self, capsys, tmp_path):
        # Identity unitaries with control |+> and measurement |->: the
        # post-selection weight vanishes, so the row must carry empty value
        # cells and divergent = 1 rather than fabricated numbers.
        text = ROTATIONS_TEXT
        text = text.replace("alpha_x = 1.1", "alpha_x = 0.0")
        text = text.replace("alpha_y = 0.6", "alpha_y = 0.0")
        text = text.replace("control_theta = 0.8", "control_theta = 1.5707963267948966")
        text = text.replace("control_phi = 5.1", "control_phi = 0.0")
        text += "measure_theta = 1.5707963267948966\nmeasure_phi = 3.141592653589793\n"
        code, out = self._run(capsys, tmp_path, text)
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        cells = lines[1].split(",")
        assert cells[header.index("divergent[flag]")] == "1"
        assert cells[header.index("delta_sm[energy]")] == ""
        assert cells[header.index("cond_i[flag]")] == ""
        assert float(cells[header.index("n_m[1]")]) <= 1e-12

    def test_byte_determinism(self, capsys, tmp_path):
        text = DISP_TEXT + "sweep1 = alpha1_abs 0.0 1.0 3\n"
        _, first = self._run(capsys, tmp_path, text, "a.cfg")
        _, second = self._run(capsys, tmp_path, text, "b.cfg")
        assert first == second

    def test_cells_use_full_precision(self, capsys, tmp_path):
        code, out = self._run(capsys, tmp_path, ROTATIONS_TEXT)
        cells = out.strip().split("\n")[1].split(",")
        # 17 significant digits survive a text round-trip exactly.
        for cell in cells:
            assert format_cell(float(cell)) == cell

    def test_out_of_range_grid_point_fails_before_output(self, capsys, tmp_path):
        text = ROTATIONS_TEXT + "sweep1 = beta -1.0 1.0 3\n"
        code, out = self._run(capsys, tmp_path, text)
        assert code == 1
        assert out == ""

    def test_single_level_fock_cutoff_warns_and_completes(self, capsys, tmp_path):
        text = DISP_TEXT.replace("beta = 1.0", "beta = inf").replace("n_max = 40", "n_max = 1")
        with pytest.warns(TruncationInadequacyWarning):
            code, out = self._run(capsys, tmp_path, text)
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_fock_beta_zero_rejected(self, capsys, tmp_path):
        code, out = self._run(capsys, tmp_path, DISP_TEXT.replace("beta = 1.0", "beta = 0.0"))
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize(
        "text, old, new, field", _BAD_SCALARS, ids=[case[-1] for case in _BAD_SCALARS]
    )
    def test_non_finite_or_negative_magnitude_rejected(
        self, capsys, tmp_path, text, old, new, field
    ):
        path = tmp_path / "bad.cfg"
        path.write_text(text.replace(old, new), encoding="utf-8")
        code = cli.main(["sweep", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: grid point 0: {field} ")

    @pytest.mark.parametrize(
        "text, family_columns",
        [
            (ROTATIONS_TEXT, "alpha_x[rad],alpha_y[rad]"),
            (
                U2_TEXT,
                "u1_alpha[rad],u1_lam[rad],u1_gamma[rad],u1_delta[rad],"
                "u2_alpha[rad],u2_lam[rad],u2_gamma[rad],u2_delta[rad]",
            ),
            (DISP_TEXT, "alpha1_abs[1],alpha1_phase[rad],alpha2_abs[1],alpha2_phase[rad]"),
            (DISP_SQUEEZE_TEXT, "alpha_abs[1],alpha_phase[rad],z_abs[1],z_phase[rad]"),
        ],
    )
    @pytest.mark.parametrize("measured", [False, True])
    def test_header_is_pinned(self, capsys, tmp_path, text, family_columns, measured):
        columns = ["omega[energy],beta[1/energy]", family_columns, _SCENARIO_COLUMNS]
        if measured:
            columns.append(_MEASURE_COLUMNS)
        columns.append(_REPORT_COLUMNS)
        if measured:
            columns.append(_MEASURED_COLUMNS)
        code, out = self._run(capsys, tmp_path, text + (MEASURE_TEXT if measured else ""))
        assert code == 0
        assert out.split("\n")[0] == ",".join(columns)

    def test_u2_point_matches_direct_scenario(self, capsys, tmp_path):
        code, out = self._run(capsys, tmp_path, U2_TEXT)
        assert code == 0
        header, cells = (line.split(",") for line in out.strip().split("\n"))

        from switchwork.qubitcase import U2Params, u2_unitary
        from switchwork.states import (
            ControlHamiltonianParams,
            QubitSystemParams,
            ThermalParams,
            gibbs_qubit,
            hamiltonian_control,
            hamiltonian_qubit_system,
        )
        from switchwork.switchcore import SwitchScenario, activation_report

        scenario = SwitchScenario(
            rho_s=gibbs_qubit(ThermalParams(0.0, 1.0)),
            control=BlochState(math.pi / 2.0, 0.0),
            u1=u2_unitary(U2Params(0.3, 1.0, 2.0, 0.1)),
            u2=u2_unitary(U2Params(0.9, 0.2, 1.4, 2.2)),
            h_s=hamiltonian_qubit_system(QubitSystemParams(1.0)),
            h_c=hamiltonian_control(ControlHamiltonianParams(1.0, 1.0, 0.0)),
        )
        rep = activation_report(scenario)
        for name, value in [
            ("chi_re[1]", rep.chi.real),
            ("chi_im[1]", rep.chi.imag),
            ("delta_qs[energy]", rep.delta_qs),
            ("delta_s[energy]", rep.delta_s),
            ("delta_c[energy]", rep.delta_c),
        ]:
            assert cells[header.index(name)] == format_cell(value)


class TestMinimizeCommand:
    def _run(self, capsys, tmp_path, text):
        path = tmp_path / "min.cfg"
        path.write_text(text, encoding="utf-8")
        code = cli.main(["minimize", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_report_format_and_value(self, capsys, tmp_path):
        code, out, _ = self._run(capsys, tmp_path, U2_TEXT + "budget = 4000\nseed = 11\n")
        assert code == 0
        report = dict(
            line.split(" = ", 1) for line in out.strip().split("\n") if " = " in line
        )
        assert report["objective"] == "delta_qs"
        assert report["family"] == "u2"
        assert report["seed"] == "11"
        assert report["budget"] == "4000"
        assert int(report["evaluations"]) > 0
        assert float(report["min_value"]) < -1.5
        for tag in ("u1", "u2"):
            for field in ("alpha", "lam", "gamma", "delta"):
                assert f"{tag}_{field}" in report

    def test_measured_objective_selected(self, capsys, tmp_path):
        text = U2_TEXT + "measure_theta = 1.5707963267948966\nmeasure_phi = 1.5707963267948966\nbudget = 2000\n"
        code, out, _ = self._run(capsys, tmp_path, text)
        assert code == 0
        assert "objective = delta_sm" in out

    def test_deterministic_report(self, capsys, tmp_path):
        text = U2_TEXT + "budget = 2000\nseed = 3\n"
        _, first, _ = self._run(capsys, tmp_path, text)
        _, second, _ = self._run(capsys, tmp_path, text)
        assert first == second

    def test_requires_u2_family(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, ROTATIONS_TEXT)
        assert code == 1
        assert "requires family = u2" in err

    def test_rejects_sweep_axes(self, capsys, tmp_path):
        code, _, err = self._run(
            capsys, tmp_path, U2_TEXT + "sweep1 = u1_alpha 0.0 1.0 3\n"
        )
        assert code == 1
        assert "does not accept sweep axes" in err


    def test_negative_seed_rejected_with_line_and_field(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, U2_TEXT + "seed = -1\n")
        assert code == 1
        assert out == ""
        assert err == "error: line 17: field seed: must be >= 0, got -1\n"

    @pytest.mark.parametrize("control_theta, measure_theta", [(0.0, math.pi), (math.pi, 0.0)])
    def test_antipodal_post_selection_rejected_before_optimizing(
        self, capsys, tmp_path, control_theta, measure_theta
    ):
        # n_m <= (1 + cos(theta_c - theta_m)) / 2 = 0 for every unitary pair.
        text = U2_TEXT.replace(
            "control_theta = 1.5707963267948966", f"control_theta = {control_theta!r}"
        ) + f"measure_theta = {measure_theta!r}\nmeasure_phi = 0.0\nbudget = 1000\n"
        code, out, err = self._run(capsys, tmp_path, text)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "control_theta" in err and "measure_theta" in err
        assert "Traceback" not in err


class TestOtherCommands:
    def test_verify_quick_exit_zero(self, capsys):
        assert cli.main(["verify", "--level", "quick", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") >= 10
        assert "FAIL" not in out

    def test_verify_failure_maps_to_exit_two(self, capsys, monkeypatch):
        class _Fake:
            passed = False

            def render(self):
                return "FAIL stub-check (injected)"

        monkeypatch.setattr(cli, "run_verify", lambda level, seed: _Fake())
        assert cli.main(["verify"]) == 2

    def test_internal_invariant_failure_maps_to_exit_two(self, capsys, monkeypatch, tmp_path):
        def _boom(cfg):
            raise AssertionError("cross-check tripped")

        monkeypatch.setattr(cli, "run_sweep", _boom)
        path = tmp_path / "s.cfg"
        path.write_text(ROTATIONS_TEXT, encoding="utf-8")
        assert cli.main(["sweep", str(path)]) == 2
        assert "invariant failure" in capsys.readouterr().err

    def test_figure_writes_named_csv(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        assert cli.main(["figure", "fig5", "--out", str(out_path)]) == 0
        assert capsys.readouterr().out.strip() == str(out_path)
        from switchwork.figures import baseline_path

        assert out_path.read_bytes() == baseline_path("fig5").read_bytes()

    def test_unknown_figure_id_exit_one(self, capsys):
        assert cli.main(["figure", "fig99"]) == 1
        assert "unknown figure id" in capsys.readouterr().err

    def test_unknown_figure_id_creates_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["figure", "fig10"]) == 1
        assert "known: fig1, fig2" in capsys.readouterr().err
        assert cli.main(["figure", "fig10", "--out", str(tmp_path / "x.csv")]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_exit_one(self, capsys):
        assert cli.main(["sweep", "/nonexistent/path.cfg"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_config_error_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("kind = qubit\n", encoding="utf-8")
        assert cli.main(["sweep", str(path)]) == 1
        assert "missing required field" in capsys.readouterr().err

    def test_no_command_exit_one(self, capsys):
        assert cli.main([]) == 1

    def test_help_exit_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_python_m_switchwork_matches_the_script(self):
        """`python -m switchwork` runs the entry point that pyproject.toml
        declares for the `switchwork` script, with the same output."""
        root = Path(__file__).resolve().parent.parent
        assert 'switchwork = "switchwork.cli:main"' in (root / "pyproject.toml").read_text()
        script = "import sys; from switchwork.cli import main; sys.argv[0] = 'switchwork'; sys.exit(main())"
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        module, entry = (
            subprocess.run([sys.executable, *argv, "--help"], capture_output=True, text=True, env=env)
            for argv in (["-m", "switchwork"], ["-c", script])
        )
        assert module.returncode == entry.returncode == 0
        assert module.stdout == entry.stdout and "usage: switchwork" in module.stdout
        assert module.stderr == entry.stderr == ""
