"""Flat key-value run configuration for the command-line front end.

The format is one dotted `key = value` assignment per line, `#` comments,
blank lines ignored.  Complex coefficients are written as `re, im` pairs
(a bare real is accepted).  See the README for the full schema.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .channels import SCALE_RANGE, Local, NoiseScenario, PairCollective, TripleCollective
from .montecarlo import TrajectoryConfig
from .presets import SCENARIO_LAYOUTS
from .states import STATE_TYPES, StateSpec, projector, slots
from .timescales import DEFAULT_SAMPLES, TimeGrid, default_grid


class ConfigParseError(Exception):
    """The config file could not be read or is syntactically malformed."""


class ConfigValidationError(Exception):
    """A config value is missing or invalid; `field` names the offender."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


_COEFFICIENTS = sorted({slot for cls in STATE_TYPES.values() for slot in slots(cls)})

_KEY_PATTERNS = [
    r"state\.(class|" + "|".join(_COEFFICIENTS) + ")",
    r"scenario\.register",
    r"scenario\.channels\[\d+\]\.(kind|qubits|rate)",
    r"grid\.(t_max|samples)",
    r"outputs",
    r"format",
    r"plots",
    r"plots\.log_y",
    r"convention",
    r"out",
    r"mc\.(trajectories|seed|t)",
    r"sweep\.(draws|seed|classes|scenarios|rate)",
]
_KEY_RE = re.compile("^(" + "|".join(_KEY_PATTERNS) + ")$")

OUTPUT_GROUPS = ("elements", "concurrence", "eof", "reduced", "timescales", "audit")
DEFAULT_OUTPUTS = ("elements", "concurrence", "eof", "timescales", "audit")


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value mapping; syntax errors only."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigParseError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"config {path} is not UTF-8 text: {exc}") from None
    raw = parse_config_text(text)
    for key in raw:
        if not _KEY_RE.match(key):
            raise ConfigValidationError(key, "unknown configuration key")
    return raw


def _require(raw: dict[str, str], key: str) -> str:
    if key not in raw:
        raise ConfigValidationError(key, "required key is missing")
    return raw[key]


def _as_float(raw: dict[str, str], key: str, default: Optional[float] = None) -> float:
    if key not in raw:
        if default is None:
            raise ConfigValidationError(key, "required key is missing")
        return default
    try:
        value = float(raw[key])
    except ValueError:
        raise ConfigValidationError(key, f"not a number: {raw[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigValidationError(key, f"must be finite, got {raw[key]!r}")
    return value


def _as_rate(raw: dict[str, str], key: str, default: Optional[float] = None) -> float:
    """A rate within SCALE_RANGE, checked here so that the error names its own key."""
    value = _as_float(raw, key, default)
    low, high = SCALE_RANGE
    if not low <= value <= high:
        raise ConfigValidationError(key, f"must be in [{low:g}, {high:g}], got {value!r}")
    return value


def _as_int(raw: dict[str, str], key: str, default: Optional[int] = None) -> int:
    if key not in raw:
        if default is None:
            raise ConfigValidationError(key, "required key is missing")
        return default
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigValidationError(key, f"not an integer: {raw[key]!r}") from None


def _as_bool(raw: dict[str, str], key: str, default: bool = False) -> bool:
    if key not in raw:
        return default
    value = raw[key].lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ConfigValidationError(key, f"not a boolean: {raw[key]!r}")


def _as_complex(raw: dict[str, str], key: str) -> complex:
    value = _require(raw, key)
    parts = [p.strip() for p in value.split(",")]
    if len(parts) not in (1, 2):
        raise ConfigValidationError(key, f"expected 're' or 're, im', got {value!r}")
    try:
        re_part = float(parts[0])
        im_part = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise ConfigValidationError(key, f"not a complex pair: {value!r}") from None
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ConfigValidationError(key, f"must be finite, got {value!r}")
    return complex(re_part, im_part)


def _field_error(exc: ValueError, keys: dict[str, str]) -> ConfigValidationError:
    """A constructor's error under the config key of the field its message starts with."""
    message = str(exc)
    return ConfigValidationError(keys[message.split()[0]], message)


def _as_list(raw: dict[str, str], key: str, default: tuple[str, ...]) -> tuple[str, ...]:
    if key not in raw:
        return default
    items = tuple(item.strip() for item in raw[key].split(",") if item.strip())
    if not items:
        raise ConfigValidationError(key, "empty list")
    return items


def state_from(raw: dict[str, str]) -> StateSpec:
    cls = _require(raw, "state.class").lower()
    if cls not in STATE_TYPES:
        known = ", ".join(STATE_TYPES)
        raise ConfigValidationError("state.class", f"unknown class {cls!r}; known: {known}")
    expected = slots(STATE_TYPES[cls])
    for key in raw:
        slot = key.removeprefix("state.")
        if key.startswith("state.") and slot != "class" and slot not in expected:
            raise ConfigValidationError(
                key, f"not a coefficient of class {cls!r} (expects {expected})"
            )
    spec = STATE_TYPES[cls](*(_as_complex(raw, f"state.{slot}") for slot in expected))
    try:
        projector(spec)
    except ValueError as exc:
        raise ConfigValidationError(", ".join(f"state.{slot}" for slot in expected), str(exc)) from None
    return spec


#: each channel kind by config name: its class and how many qubits it names
_KINDS = {
    "local": (Local, 1),
    "pair_collective": (PairCollective, 2),
    "triple_collective": (TripleCollective, 0),
}


def scenario_from(raw: dict[str, str]) -> NoiseScenario:
    register = _as_int(raw, "scenario.register")
    if register not in (2, 3):
        raise ConfigValidationError("scenario.register", f"must be 2 or 3, got {register}")
    channels = []
    index = 0
    while f"scenario.channels[{index}].kind" in raw:
        prefix = f"scenario.channels[{index}]"
        kind_name = raw[f"{prefix}.kind"].lower()
        qubits = tuple(
            q.strip().upper() for q in raw.get(f"{prefix}.qubits", "").split(",") if q.strip()
        )
        rate = _as_rate(raw, f"{prefix}.rate")
        try:
            if kind_name not in _KINDS:
                raise ValueError(f"unknown kind {kind_name!r} ({', '.join(_KINDS)})")
            cls, arity = _KINDS[kind_name]
            if len(qubits) != arity:
                raise ValueError(f"{kind_name} channel takes {arity} qubit(s), got {qubits}")
            kind = cls(*qubits)
        except ValueError as exc:
            raise ConfigValidationError(f"{prefix}.kind", str(exc)) from None
        channels.append((kind, rate))
        index += 1
    for key in raw:
        if key.startswith("scenario.channels["):
            idx = int(key.split("[", 1)[1].split("]", 1)[0])
            if idx >= index:
                raise ConfigValidationError(key, f"channel indices must be contiguous from 0")
    if not channels:
        raise ConfigValidationError("scenario.channels[0].kind", "at least one channel required")
    try:
        return NoiseScenario(register, tuple(channels))
    except ValueError as exc:
        raise ConfigValidationError("scenario.channels", str(exc)) from None


def grid_from(raw: dict[str, str], scenario: NoiseScenario) -> TimeGrid:
    samples = _as_int(raw, "grid.samples", DEFAULT_SAMPLES)
    t_max = _as_float(raw, "grid.t_max") if "grid.t_max" in raw else default_grid(scenario).t_max
    try:
        return TimeGrid(t_max, samples)
    except ValueError as exc:
        raise _field_error(exc, {"t_max": "grid.t_max", "n_samples": "grid.samples"}) from None


def mc_from(raw: dict[str, str]) -> Optional[TrajectoryConfig]:
    if "mc.trajectories" not in raw and "mc.seed" not in raw:
        return None
    n = _as_int(raw, "mc.trajectories", 10_000)
    seed = _as_int(raw, "mc.seed")
    t_final = _as_float(raw, "mc.t", 1.0)
    try:
        return TrajectoryConfig(n_trajectories=n, seed=seed, t_final=t_final)
    except ValueError as exc:
        keys = {"n_trajectories": "mc.trajectories", "seed": "mc.seed", "t_final": "mc.t"}
        raise _field_error(exc, keys) from None


@dataclass(frozen=True)
class SweepConfig:
    draws: int
    seed: int
    classes: tuple[str, ...]
    scenarios: tuple[str, ...]
    rate: float


def sweep_from(raw: dict[str, str]) -> SweepConfig:
    draws = _as_int(raw, "sweep.draws", 100)
    if draws < 1:
        raise ConfigValidationError("sweep.draws", "must be at least 1")
    seed = _as_int(raw, "sweep.seed", 0)
    if seed < 0:
        raise ConfigValidationError("sweep.seed", f"must be nonnegative, got {seed}")
    classes = _as_list(raw, "sweep.classes", ("fragile", "robust", "w", "ghz"))
    for cls in classes:
        if cls not in STATE_TYPES:
            raise ConfigValidationError("sweep.classes", f"unknown class {cls!r}")
    scenarios = _as_list(raw, "sweep.scenarios", tuple(sorted(SCENARIO_LAYOUTS)))
    for name in scenarios:
        if name not in SCENARIO_LAYOUTS:
            raise ConfigValidationError("sweep.scenarios", f"unknown scenario {name!r}")
    sizes = {len(STATE_TYPES[cls].register) for cls in classes}
    if not any(SCENARIO_LAYOUTS[name][0] in sizes for name in scenarios):
        raise ConfigValidationError(
            "sweep.scenarios", "no scenario matches the register size of a class in sweep.classes"
        )
    rate = _as_rate(raw, "sweep.rate", 1.0)
    return SweepConfig(draws, seed, classes, scenarios, rate)


def format_from(raw: dict[str, str]) -> str:
    """Table format of a command that takes --format."""
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigValidationError("format", f"must be csv or json, got {fmt!r}")
    return fmt


@dataclass(frozen=True)
class RunOptions:
    outputs: tuple[str, ...]
    fmt: str
    plots: bool
    log_y: bool
    convention: str


def run_options_from(raw: dict[str, str]) -> RunOptions:
    outputs = _as_list(raw, "outputs", DEFAULT_OUTPUTS)
    for group in outputs:
        if group not in OUTPUT_GROUPS:
            raise ConfigValidationError("outputs", f"unknown output group {group!r}")
    fmt = format_from(raw)
    convention = raw.get("convention", "both")
    if convention not in ("c", "c2", "both"):
        raise ConfigValidationError("convention", f"must be c, c2 or both, got {convention!r}")
    plots = _as_bool(raw, "plots")
    log_y = _as_bool(raw, "plots.log_y")
    return RunOptions(outputs, fmt, plots, log_y, convention)
