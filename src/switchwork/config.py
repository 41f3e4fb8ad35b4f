"""Strict flat key = value scenario configuration.

One assignment per line; blank lines and `#` comments are ignored.  Every
key must be known for the declared family, every required key must be
present, and unknown keys are rejected with their line number.  A parsed
config serializes back to canonical text whose re-parse is identical
(round-trip identity), which is what makes configs usable as regression
artifacts.

Sweep axes are declared as `sweep1 = <name> <start> <stop> <count>` (and
optionally `sweep2 = ...`); the axis name must be one of the sweepable
scalar parameters of the family, and at most two axes are allowed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

# The one description of each scenario family: family -> (kind, {own
# parameter: unit}).  A config lists the system scalars first, then the
# family's own parameters, then the control scalars, then the optional
# measurement; the sweep CSV header annotates each name with its unit.
SYSTEM_PARAMS = {"omega": "energy", "beta": "1/energy"}
FAMILIES: dict[str, tuple[str, dict[str, str]]] = {
    "rotations": ("qubit", {"alpha_x": "rad", "alpha_y": "rad"}),
    # Each unitary's angles in the field order of qubitcase.U2Params.
    "u2": (
        "qubit",
        {f"{u}_{a}": "rad" for u in ("u1", "u2") for a in ("alpha", "lam", "gamma", "delta")},
    ),
    "displacements": (
        "fock",
        {"alpha1_abs": "1", "alpha1_phase": "rad", "alpha2_abs": "1", "alpha2_phase": "rad"},
    ),
    "disp_squeeze": (
        "fock",
        {"alpha_abs": "1", "alpha_phase": "rad", "z_abs": "1", "z_phase": "rad"},
    ),
}
CONTROL_PARAMS = {"t_abs": "energy", "t_phase": "rad", "control_theta": "rad", "control_phi": "rad"}
MEASURE_PARAMS = {"measure_theta": "rad", "measure_phi": "rad"}
UNITS = {
    **SYSTEM_PARAMS,
    **CONTROL_PARAMS,
    **MEASURE_PARAMS,
    **{name: unit for _, params in FAMILIES.values() for name, unit in params.items()},
}
KINDS = tuple(dict.fromkeys(kind for kind, _ in FAMILIES.values()))
# The U(2) optimizer's evaluation budget: the default, and the least one
# accepted (qubitcase's minimizers use the same two numbers).
_DEFAULT_BUDGET, _MIN_BUDGET = 32000, 1000


class ConfigError(ValueError):
    """Config validation failure; the message carries line/field context."""


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + k * step for k in range(self.count)]


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    family: str
    scalars: tuple[tuple[str, float], ...]
    axes: tuple[SweepAxis, ...] = ()
    seed: int = 0
    n_max: int | None = None
    budget: int = _DEFAULT_BUDGET

    def scalar(self, name: str) -> float:
        for key, value in self.scalars:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def has_measurement(self) -> bool:
        names = {k for k, _ in self.scalars}
        return "measure_theta" in names


def _scalar_order(family: str, with_measure: bool) -> tuple[str, ...]:
    measure = MEASURE_PARAMS if with_measure else {}
    return (*SYSTEM_PARAMS, *FAMILIES[family][1], *CONTROL_PARAMS, *measure)


def _parse_float(raw: str, key: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: field {key}: not a number: {raw!r}") from None
    if math.isnan(value):
        raise ConfigError(f"line {line_no}: field {key}: NaN is not allowed")
    return value


def _parse_int(raw: str, key: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: field {key}: not an integer: {raw!r}") from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse config text; raises ConfigError with line/field references."""
    assignments: dict[str, tuple[str, int]] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        if key in assignments:
            raise ConfigError(f"line {line_no}: field {key}: duplicate assignment")
        assignments[key] = (value, line_no)

    def take(key: str) -> tuple[str, int] | None:
        return assignments.pop(key, None)

    got = take("kind")
    if got is None:
        raise ConfigError("missing required field: kind")
    kind, kind_line = got
    if kind not in KINDS:
        raise ConfigError(f"line {kind_line}: field kind: must be one of {KINDS}, got {kind!r}")

    got = take("family")
    if got is None:
        raise ConfigError("missing required field: family")
    family, family_line = got
    if family not in FAMILIES:
        raise ConfigError(
            f"line {family_line}: field family: must be one of {tuple(FAMILIES)}, got {family!r}"
        )
    family_kind = FAMILIES[family][0]
    if family_kind != kind:
        raise ConfigError(
            f"line {family_line}: field family: {family!r} requires kind = "
            f"{family_kind!r}, got {kind!r}"
        )

    measure_present = [k for k in MEASURE_PARAMS if k in assignments]
    if len(measure_present) == 1:
        raise ConfigError(
            f"field {measure_present[0]}: measure_theta and measure_phi must "
            "be given together"
        )
    with_measure = bool(measure_present)

    scalars: list[tuple[str, float]] = []
    for key in _scalar_order(family, with_measure):
        got = take(key)
        if got is None:
            raise ConfigError(f"missing required field: {key}")
        raw, line_no = got
        scalars.append((key, _parse_float(raw, key, line_no)))

    seed = 0
    got = take("seed")
    if got is not None:
        seed = _parse_int(got[0], "seed", got[1])
        if seed < 0:
            raise ConfigError(f"line {got[1]}: field seed: must be >= 0, got {seed}")

    budget = _DEFAULT_BUDGET
    got = take("budget")
    if got is not None:
        budget = _parse_int(got[0], "budget", got[1])
        if budget < _MIN_BUDGET:
            raise ConfigError(
                f"line {got[1]}: field budget: must be >= {_MIN_BUDGET}, got {budget}"
            )

    n_max: int | None = None
    got = take("n_max")
    if got is not None:
        if kind != "fock":
            raise ConfigError(f"line {got[1]}: field n_max: only valid for kind = fock")
        n_max = _parse_int(got[0], "n_max", got[1])
        if n_max < 1:
            raise ConfigError(f"line {got[1]}: field n_max: must be >= 1, got {n_max}")

    sweepable = tuple(k for k, _ in scalars)
    axes: list[SweepAxis] = []
    for axis_key in ("sweep1", "sweep2"):
        got = take(axis_key)
        if got is None:
            continue
        raw, line_no = got
        parts = raw.split()
        if len(parts) != 4:
            raise ConfigError(
                f"line {line_no}: field {axis_key}: expected '<name> <start> "
                f"<stop> <count>', got {raw!r}"
            )
        name = parts[0]
        if name not in sweepable:
            raise ConfigError(
                f"line {line_no}: field {axis_key}: {name!r} is not a parameter "
                f"of family {family!r} (choose from {', '.join(sweepable)})"
            )
        if any(a.name == name for a in axes):
            raise ConfigError(f"line {line_no}: field {axis_key}: duplicate axis {name!r}")
        start = _parse_float(parts[1], axis_key, line_no)
        stop = _parse_float(parts[2], axis_key, line_no)
        count = _parse_int(parts[3], axis_key, line_no)
        if count < 1:
            raise ConfigError(f"line {line_no}: field {axis_key}: count must be >= 1")
        axes.append(SweepAxis(name, start, stop, count))
        if axis_key == "sweep2" and len(axes) == 1:
            raise ConfigError(f"line {line_no}: field sweep2: requires sweep1")

    if assignments:
        leftover = sorted(assignments.items(), key=lambda kv: kv[1][1])
        key, (_, line_no) = leftover[0]
        raise ConfigError(f"line {line_no}: unknown field: {key}")

    return ScenarioConfig(
        kind=kind,
        family=family,
        scalars=tuple(scalars),
        axes=tuple(axes),
        seed=seed,
        n_max=n_max,
        budget=budget,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text whose parse equals cfg (round-trip identity)."""
    lines = [f"kind = {cfg.kind}", f"family = {cfg.family}"]
    for key, value in cfg.scalars:
        lines.append(f"{key} = {value:.17g}")
    if cfg.n_max is not None:
        lines.append(f"n_max = {cfg.n_max}")
    if cfg.budget != _DEFAULT_BUDGET:
        lines.append(f"budget = {cfg.budget}")
    if cfg.seed != 0:
        lines.append(f"seed = {cfg.seed}")
    for i, axis in enumerate(cfg.axes, start=1):
        lines.append(
            f"sweep{i} = {axis.name} {axis.start:.17g} {axis.stop:.17g} {axis.count}"
        )
    return "\n".join(lines) + "\n"


def grid_points(cfg: ScenarioConfig) -> list[dict[str, float]]:
    """Row-major grid over the sweep axes applied to the base scalars:
    the first axis is the outer loop; without axes, the base point alone."""
    base = dict(cfg.scalars)
    names = [axis.name for axis in cfg.axes]
    return [
        {**base, **dict(zip(names, values))}
        for values in itertools.product(*(axis.values() for axis in cfg.axes))
    ]
