"""Deterministic plot-ready CSV datasets for the nine reference figures.

No plotting happens here: each figure id maps to a dataset with exactly
the axes of the corresponding plot, emitted as comma-separated UTF-8 text
with LF line endings, unit-annotated headers, floats at 17 significant
digits, and complex values split into _re/_im columns.  Grid points in a
divergence regime (post-selection probability below the near-zero
threshold) are tagged in the `divergent[flag]` column and their value
cells are left empty — they are never emitted as numbers.  Where the
reference plot draws a zero contour, a `zero_crossing[flag]` column marks
the grid cells straddling it.

The datasets (natural units, hbar = 1):

fig1  rotation-pair energy difference vs inverse temperature for several
      control-coherence strengths |t|.
fig2  measured rotation pair at beta -> 0: minimizing measurement phase
      vs rotation angle (left panel) and the energy difference vs
      measurement phase (right panel).
fig3  minimized energy difference for generic qubit unitary pairs vs
      |t| for several (beta, theta); includes the implied slope
      diagnostic epsilon = 16 min / (cos(theta) |t|) + 12.
fig4  minimized post-measurement energy difference vs measurement phase
      for several beta (the plateau dataset).
fig5  symmetric displacement-pair slice vs |alpha| for several |t|.
fig6  displacement-pair energy difference over the (|alpha_1|,
      |alpha_2|) grid for several |t|, with the zero contour tagged.
fig7  displacement+squeeze energy difference over the (|alpha|, |z|)
      grid for |t| in {0, 20, 30}, with the zero contour tagged.
fig8  post-measurement displacement+squeeze energy difference over the
      (|alpha|, |z|) grid, slices xi-2phi in {0, pi} by measurement
      phase in {0, pi/2, pi, 3pi/2}.
fig9  ground-state limit of fig8 along the diagonal |alpha| = |z|.

Everything is seeded (fig3 and fig4 with DEFAULT_FIGURE_SEED) and
deterministic: every call produces byte-identical CSV.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

from .cvcase import (
    DisplacementParams,
    SqueezeParams,
    delta_qs_disp_squeeze,
    delta_qs_displacements,
    delta_qs_displacements_symmetric,
    delta_sm_disp_squeeze,
)
from .qubitcase import (
    RotationParams,
    delta_qs_rotations,
    delta_sm_rotations_beta0,
    implied_epsilon,
    minimize_delta_qs_u2,
    minimize_delta_sm_u2,
)
from .states import BlochState
from .switchcore import NearZeroPostSelectionError

DEFAULT_FIGURE_SEED = 11
FIGURE_BUDGET = 8000
FIGURE_IDS = tuple(f"fig{k}" for k in range(1, 10))

_PLUS = BlochState(math.pi / 2.0, 0.0)


def format_cell(value) -> str:
    """One CSV cell: '' for missing, integer text for flags, %.17g floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise ValueError(f"cell text may not contain separators: {value!r}")
        return value
    raise TypeError(f"unsupported cell type {type(value).__name__}")


def render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} != header width {width}")
        lines.append(",".join(format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _grid(step: float, count: int) -> list[float]:
    return [step * k for k in range(count)]


def _zero_crossing_flags(values: list[list[float | None]]) -> list[list[int]]:
    """1 where a cell sits on or adjacent (left/down neighbor straddling)
    to the zero level; divergent cells (None) never flag."""
    rows = len(values)
    cols = len(values[0])
    flags = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            v = values[i][j]
            if v is None:
                continue
            if v == 0.0:
                flags[i][j] = 1
                continue
            for ni, nj in ((i - 1, j), (i, j - 1)):
                if ni < 0 or nj < 0:
                    continue
                w = values[ni][nj]
                if w is None:
                    continue
                if v * w < 0.0:
                    flags[i][j] = 1
                    flags[ni][nj] = 1
    return flags


def _fig1() -> tuple[list[str], list[list]]:
    header = ["t_abs[energy]", "beta[1/energy]", "delta_qs[energy]"]
    r = RotationParams(math.pi / 2.0, math.pi)
    rows: list[list] = []
    for t_abs in (0.0, 0.5, 1.0, 2.0):
        for beta in _grid(0.1, 51):
            value = delta_qs_rotations(1.0, beta, t_abs, 0.0, r, _PLUS)
            rows.append([t_abs, beta, value])
    return header, rows


def _fig2() -> tuple[list[str], list[list]]:
    header = ["panel[tag]", "alpha[rad]", "phi_m[rad]", "delta_sm[energy]"]
    rows: list[list] = []
    theta_m = math.pi / 2.0
    scan = [2.0 * math.pi * k / 3600 for k in range(3600)]
    for k in range(1, 63):
        alpha = 0.05 * k
        best_phi, best_val = 0.0, math.inf
        for phi_m in scan:
            v = delta_sm_rotations_beta0(1.0, alpha, theta_m, phi_m)
            if v < best_val:
                best_phi, best_val = phi_m, v
        rows.append(["left", alpha, best_phi, best_val])
    for alpha in (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0):
        for k in range(180):
            phi_m = 2.0 * math.pi * k / 180
            v = delta_sm_rotations_beta0(1.0, alpha, theta_m, phi_m)
            rows.append(["right", alpha, phi_m, v])
    return header, rows


def _fig3() -> tuple[list[str], list[list]]:
    header = [
        "beta[1/energy]",
        "theta[rad]",
        "t_abs[energy]",
        "min_delta_qs[energy]",
        "epsilon[1]",
        "evaluations[1]",
    ]
    rows: list[list] = []
    for beta in (0.0, 0.1, 0.2):
        for theta in (0.0, math.pi / 4.0, math.pi / 3.0):
            for k in range(1, 9):
                t_abs = 0.25 * k
                res = minimize_delta_qs_u2(
                    1.0, beta, t_abs, theta, _PLUS, budget=FIGURE_BUDGET, seed=DEFAULT_FIGURE_SEED
                )
                rows.append(
                    [
                        beta,
                        theta,
                        t_abs,
                        res.value,
                        implied_epsilon(res.value, theta, t_abs),
                        res.evaluations,
                    ]
                )
    return header, rows


def _fig4() -> tuple[list[str], list[list]]:
    header = [
        "beta[1/energy]",
        "phi_m[rad]",
        "min_delta_sm[energy]",
        "evaluations[1]",
    ]
    rows: list[list] = []
    for beta in (0.0, 0.5, 1.0):
        for k in range(8):
            phi_m = k * math.pi / 4.0
            m = BlochState(math.pi / 2.0, phi_m)
            res = minimize_delta_sm_u2(
                1.0, beta, _PLUS, m, budget=FIGURE_BUDGET, seed=DEFAULT_FIGURE_SEED
            )
            rows.append([beta, phi_m, res.value, res.evaluations])
    return header, rows


def _fig5() -> tuple[list[str], list[list]]:
    header = ["t_abs[energy]", "alpha_abs[1]", "delta_qs[energy]"]
    rows: list[list] = []
    for t_abs in (0.5, 1.0, 2.0, 3.0):
        for alpha_abs in _grid(0.02, 111):
            rows.append(
                [t_abs, alpha_abs, delta_qs_displacements_symmetric(1.0, t_abs, alpha_abs)]
            )
    return header, rows


def _value_or_none(fn: Callable[..., float], *args) -> float | None:
    """fn(*args), or None where the post-selection diverges."""
    try:
        return fn(*args)
    except NearZeroPostSelectionError:
        return None


def _grid_dataset(
    header: list[str],
    prefixes: list[tuple[float, ...]],
    x_grid: list[float],
    y_grid: list[float],
    fn: Callable[..., float],
) -> tuple[list[str], list[list]]:
    """One row per prefix and (x, y) grid point, x the outer loop: the
    prefix, x, y, fn(*prefix, x, y) (None where the post-selection
    diverges), a divergent flag when the header has that column, and the
    zero-crossing flag over the prefix's value grid."""
    tagged = "divergent[flag]" in header
    rows: list[list] = []
    for prefix in prefixes:
        values = [[_value_or_none(fn, *prefix, x, y) for y in y_grid] for x in x_grid]
        flags = _zero_crossing_flags(values)
        for x, line, flag_line in zip(x_grid, values, flags):
            for y, v, flag in zip(y_grid, line, flag_line):
                tag = [int(v is None)] if tagged else []
                rows.append([*prefix, x, y, v, *tag, flag])
    return header, rows


def _fig6() -> tuple[list[str], list[list]]:
    header = [
        "t_abs[energy]",
        "alpha1_abs[1]",
        "alpha2_abs[1]",
        "delta_qs[energy]",
        "zero_crossing[flag]",
    ]
    grid = _grid(0.05, 41)
    return _grid_dataset(
        header,
        [(0.0,), (2.0,), (4.0,)],
        grid,
        grid,
        lambda t_abs, a1, a2: delta_qs_displacements(
            1.0, t_abs, 0.0, DisplacementParams(a1, math.pi / 2.0), DisplacementParams(a2, 0.0),
            _PLUS,
        ),
    )


_A_GRID = _grid(0.05, 31)
_Z_GRID = _grid(0.05, 17)


def _fig7() -> tuple[list[str], list[list]]:
    header = [
        "t_abs[energy]",
        "alpha_abs[1]",
        "z_abs[1]",
        "delta_qs[energy]",
        "zero_crossing[flag]",
    ]
    return _grid_dataset(
        header,
        [(0.0,), (20.0,), (30.0,)],
        _A_GRID,
        _Z_GRID,
        lambda t_abs, alpha_abs, z_abs: delta_qs_disp_squeeze(
            1.0, 1.0, t_abs, 0.0, DisplacementParams(alpha_abs, 0.0), SqueezeParams(z_abs, 0.0),
            _PLUS,
        ),
    )


# delta_sm's phase-locked slices xi - 2 phi in {0, pi}: alpha phase 0 and
# z phase xi.  Measurement phase -> measurement.
_SLICES = (0.0, math.pi)
_MEASUREMENTS = {
    phi_m: BlochState(math.pi / 2.0, phi_m)
    for phi_m in (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
}


def _fig8() -> tuple[list[str], list[list]]:
    header = [
        "xi_minus_2phi[rad]",
        "phi_m[rad]",
        "alpha_abs[1]",
        "z_abs[1]",
        "delta_sm[energy]",
        "divergent[flag]",
        "zero_crossing[flag]",
    ]
    return _grid_dataset(
        header,
        [(angle, phi_m) for angle in _SLICES for phi_m in _MEASUREMENTS],
        _A_GRID,
        _Z_GRID,
        lambda angle, phi_m, alpha_abs, z_abs: delta_sm_disp_squeeze(
            1.0, 1.0, DisplacementParams(alpha_abs, 0.0), SqueezeParams(z_abs, angle),
            _PLUS, _MEASUREMENTS[phi_m],
        ),
    )


def _fig9() -> tuple[list[str], list[list]]:
    header = [
        "xi_minus_2phi[rad]",
        "phi_m[rad]",
        "alpha_abs[1]",
        "delta_sm[energy]",
        "divergent[flag]",
    ]
    rows: list[list] = []
    for angle in _SLICES:
        for phi_m, m in _MEASUREMENTS.items():
            for x in _grid(0.02, 61):
                value = _value_or_none(
                    delta_sm_disp_squeeze, 1.0, math.inf, DisplacementParams(x, 0.0),
                    SqueezeParams(x, angle), _PLUS, m,
                )
                rows.append([angle, phi_m, x, value, int(value is None)])
    return header, rows


_DATASETS = dict(zip(FIGURE_IDS, (_fig1, _fig2, _fig3, _fig4, _fig5, _fig6, _fig7, _fig8, _fig9)))


def _known_figure(figure_id: str) -> str:
    """`figure_id`, or a ValueError that lists the known ids."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}")
    return figure_id


def figure_dataset(figure_id: str) -> tuple[list[str], list[list]]:
    """Header and rows for one figure id (deterministic)."""
    return _DATASETS[_known_figure(figure_id)]()


def emit_figure(figure_id: str, out_path: str | Path | None = None) -> Path:
    """Write the figure dataset as CSV (UTF-8, LF) to `out_path` (default
    `<figure_id>.csv`); returns the path.  Rendering comes first, so an
    unknown id or a failed render leaves no file."""
    text = render_csv(*figure_dataset(figure_id))
    out = Path(out_path if out_path is not None else f"{figure_id}.csv")
    out.write_text(text, encoding="utf-8", newline="\n")
    return out


def baseline_path(figure_id: str) -> Path:
    """Packaged regression baseline CSV for one figure id."""
    return Path(__file__).parent / "_baselines" / f"{_known_figure(figure_id)}.csv"
