"""Batch front-end: `sweep`, `minimize`, `verify`, and `figure`.

Exit codes: 0 success, 1 validation error (bad arguments, config errors,
unknown figure ids), 2 invariant or regression failure (a failed verify
check, or an internal cross-check tripping during computation).

`sweep <config>` and `minimize <config>` write their dataset/report to
stdout; `figure <id> [--out path]` writes a CSV file and prints its path;
`verify [--level quick|full] [--seed N]` prints one PASS/FAIL line per
check.  All randomness is seeded through the config or CLI argument; no
environment variables are consulted.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple
from pathlib import Path

from .config import (
    FAMILIES,
    UNITS,
    ConfigError,
    ScenarioConfig,
    grid_points,
    load_config,
)
from .cvcase import (
    DisplacementParams,
    SqueezeParams,
    disp_squeeze_scenario,
    displacement_scenario,
)
from .figures import FigureSpec, emit_figure, render_csv
from .qubitcase import (
    U2Params,
    minimize_delta_qs_u2,
    minimize_delta_sm_u2,
    qubit_scenario,
    rotation_unitary,
    u2_unitary,
)
from .states import BlochState, ThermalParams
from .switchcore import (
    NearZeroPostSelectionError,
    SwitchScenario,
    activation_report,
    measure_control,
    post_selection_impossible,
)
from .verifysuite import run_verify

def _annotated(name: str) -> str:
    return f"{name}[{UNITS[name]}]"


def _build_scenario(cfg: ScenarioConfig, p: dict[str, float]) -> SwitchScenario:
    control = BlochState(p["control_theta"], p["control_phi"])
    if cfg.kind == "qubit":
        if cfg.family == "rotations":
            u1, u2 = rotation_unitary("x", p["alpha_x"]), rotation_unitary("y", p["alpha_y"])
        else:
            angles = [p[n] for n in FAMILIES["u2"][1]]
            u1, u2 = u2_unitary(U2Params(*angles[:4])), u2_unitary(U2Params(*angles[4:]))
        return qubit_scenario(p["omega"], p["beta"], p["t_abs"], p["t_phase"], u1, u2, control)
    if cfg.family == "displacements":
        return displacement_scenario(
            p["omega"],
            p["beta"],
            p["t_abs"],
            p["t_phase"],
            DisplacementParams(p["alpha1_abs"], p["alpha1_phase"]),
            DisplacementParams(p["alpha2_abs"], p["alpha2_phase"]),
            control,
            n_max=cfg.n_max,
        )
    return disp_squeeze_scenario(
        p["omega"],
        p["beta"],
        p["t_abs"],
        p["t_phase"],
        DisplacementParams(p["alpha_abs"], p["alpha_phase"]),
        SqueezeParams(p["z_abs"], p["z_phase"]),
        control,
        n_max=cfg.n_max,
    )


def _prevalidate(cfg: ScenarioConfig, points: list[dict[str, float]]) -> None:
    """Fail with a ConfigError before emitting anything if any grid point
    carries out-of-range physics parameters: a non-finite scalar (beta = inf,
    the ground state, excepted), a negative magnitude `*_abs`, or a value
    the state and thermal wrappers reject (an out-of-range control or
    measurement angle is named by its config field)."""
    for idx, p in enumerate(points):
        try:
            for name, value in p.items():
                if not (math.isfinite(value) or (name == "beta" and value == math.inf)):
                    raise ValueError(f"{name} must be finite, got {value!r}")
                if name.endswith("_abs") and value < 0.0:
                    raise ValueError(f"{name} must be >= 0")
            for prefix in ("control", "measure") if cfg.has_measurement else ("control",):
                try:
                    BlochState(p[f"{prefix}_theta"], p[f"{prefix}_phi"])
                except ValueError as exc:
                    # The message starts with the angle's name, theta or phi.
                    raise ValueError(f"{prefix}_{exc}") from None
            ThermalParams(p["beta"], p["omega"])
            if cfg.kind == "fock" and p["beta"] == 0.0:
                raise ValueError("beta = 0 is not truncatable for fock scenarios")
        except ValueError as exc:
            raise ConfigError(f"grid point {idx}: {exc}") from exc


def run_sweep(cfg: ScenarioConfig) -> tuple[list[str], list[list]]:
    """One row per grid point, row-major over the sweep axes."""
    points = grid_points(cfg)
    _prevalidate(cfg, points)
    param_names = [k for k, _ in cfg.scalars]
    header = [_annotated(n) for n in param_names]
    header += ["chi_re[1]", "chi_im[1]", "delta_qs[energy]", "delta_s[energy]", "delta_c[energy]"]
    if cfg.has_measurement:
        header += [
            "n_m[1]",
            "delta_sm[energy]",
            "cond_i[flag]",
            "cond_ii[flag]",
            "cond_iii[flag]",
            "divergent[flag]",
        ]
    rows: list[list] = []
    for p in points:
        scenario = _build_scenario(cfg, p)
        report = activation_report(scenario)
        row: list = [p[n] for n in param_names]
        row += [
            report.chi.real,
            report.chi.imag,
            report.delta_qs,
            report.delta_s,
            report.delta_c,
        ]
        if cfg.has_measurement:
            m = BlochState(p["measure_theta"], p["measure_phi"])
            try:
                measured = measure_control(scenario, m)
                c1, c2, c3 = measured.conditions
                row += [
                    measured.n_m,
                    measured.delta_sm,
                    int(c1),
                    int(c2),
                    int(c3),
                    0,
                ]
            except NearZeroPostSelectionError as exc:
                row += [exc.n_m, None, None, None, None, 1]
        rows.append(row)
    return header, rows


def run_minimize(cfg: ScenarioConfig) -> str:
    """Multistart minimization report for the generic-qubit-pair family.

    Without a measurement the objective is the pre-measurement energy
    difference; with one, the post-measurement energy difference.
    """
    if cfg.family != "u2":
        raise ConfigError(
            f"minimize requires family = u2, got family = {cfg.family}"
        )
    if cfg.axes:
        raise ConfigError("minimize does not accept sweep axes")
    p = dict(cfg.scalars)
    _prevalidate(cfg, [p])
    control = BlochState(p["control_theta"], p["control_phi"])
    if cfg.has_measurement:
        measurement = BlochState(p["measure_theta"], p["measure_phi"])
        if post_selection_impossible(control, measurement):
            raise ConfigError(
                "control_theta and measure_theta are antipodal: the post-selection "
                "probability vanishes for every unitary pair"
            )
        objective = "delta_sm"
        result = minimize_delta_sm_u2(
            p["omega"], p["beta"], control, measurement, budget=cfg.budget, seed=cfg.seed
        )
    else:
        objective = "delta_qs"
        result = minimize_delta_qs_u2(
            p["omega"],
            p["beta"],
            p["t_abs"],
            p["t_phase"],
            control,
            budget=cfg.budget,
            seed=cfg.seed,
        )
    lines = [
        "objective = " + objective,
        "family = u2",
        f"seed = {result.seed}",
        f"budget = {cfg.budget}",
        f"starts = {result.starts}",
        f"evaluations = {result.evaluations}",
        f"divergent_evaluations = {result.divergent_evaluations}",
        f"min_value = {format(result.value, '.17g')}",
    ]
    angles = [value for u in result.params for value in astuple(u)]
    lines += [f"{n} = {format(v, '.17g')}" for n, v in zip(FAMILIES["u2"][1], angles)]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="switchwork",
        description=(
            "Controlled-order energy bookkeeping: parameter sweeps, "
            "optimizer runs, self-verification, and figure datasets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a grid sweep from a config file")
    p_sweep.add_argument("config", help="path to a key = value config file")

    p_min = sub.add_parser("minimize", help="multistart minimization from a config file")
    p_min.add_argument("config", help="path to a key = value config file")

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--seed", type=int, default=0)

    p_fig = sub.add_parser("figure", help="emit one reference figure dataset as CSV")
    p_fig.add_argument("id", help="figure id (fig1..fig9)")
    p_fig.add_argument("--out", default=None, help="output path (default: <id>.csv)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1

    try:
        if args.command == "sweep":
            header, rows = run_sweep(load_config(args.config))
            sys.stdout.write(render_csv(header, rows))
            return 0
        if args.command == "minimize":
            sys.stdout.write(run_minimize(load_config(args.config)))
            return 0
        if args.command == "verify":
            report = run_verify(level=args.level, seed=args.seed)
            sys.stdout.write(report.render() + "\n")
            return 0 if report.passed else 2
        # figure
        spec = FigureSpec(args.id, None if args.out is None else Path(args.out))
        path = emit_figure(spec)
        sys.stdout.write(f"{path}\n")
        return 0
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except AssertionError as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
