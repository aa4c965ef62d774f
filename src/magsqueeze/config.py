"""Run-configuration schema: YAML parsing, validation and unit conversion.

Config files quote every frequency-like quantity the way instruments do,
as an ordinary frequency in Hz (the value of omega/2pi); conversion to
angular rad/s happens here and nowhere else.  Temperature takes an
explicit unit key (mK or K).  Unknown keys anywhere in the file are
rejected rather than ignored.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np
import yaml

from .analysis import SWEEP_AXES, PhasePairing
from .errors import ConfigError, InvalidInputError
from .model import TWO_PI, SystemParams

__all__ = [
    "AxisSpec",
    "SweepSpec",
    "WignerSpec",
    "RunConfig",
    "load_config",
    "build_run_config",
]

# config key -> (SystemParams field, multiplicative scale to SI)
PARAM_KEYS: dict[str, tuple[str, float]] = {
    "omega_a_over_2pi_hz": ("omega_a", TWO_PI),
    "omega_m_over_2pi_hz": ("omega_m", TWO_PI),
    "omega_b_over_2pi_hz": ("omega_b", TWO_PI),
    "omega_0_over_2pi_hz": ("omega_0", TWO_PI),
    "delta_a_over_2pi_hz": ("delta_a", TWO_PI),
    "delta_m_over_2pi_hz": ("delta_m", TWO_PI),
    "kappa_a_over_2pi_hz": ("kappa_a", TWO_PI),
    "kappa_m_over_2pi_hz": ("kappa_m", TWO_PI),
    "gamma_b_over_2pi_hz": ("gamma_b", TWO_PI),
    "g_a_over_2pi_hz": ("g_a", TWO_PI),
    "G_m_over_2pi_hz": ("G_m", TWO_PI),
    "g_m_over_2pi_hz": ("g_m", TWO_PI),
    "upsilon_over_2pi_hz": ("upsilon", TWO_PI),
    "theta_rad": ("theta", 1.0),
    "rabi_rad_per_s": ("rabi", 1.0),
    "h_d_tesla": ("h_d", 1.0),
    "sphere_diameter_m": ("sphere_diameter", 1.0),
}

# The temperature is the one field entered as a value and a unit.
_TEMPERATURE_KEYS = ("temperature_value", "temperature_unit")
_TEMPERATURE_UNITS: dict[str, float] = {"mK": 1e-3, "K": 1.0}

# The keys of the SystemParams fields without a default, in PARAM_KEYS order.
_REQUIRED_FIELDS = {f.name for f in fields(SystemParams) if f.default is MISSING}
REQUIRED_PARAM_KEYS: tuple[str, ...] = (
    *(key for key, (name, _) in PARAM_KEYS.items() if name in _REQUIRED_FIELDS),
    *_TEMPERATURE_KEYS,
)

_SECTIONS = ("parameters", "sweep", "wigner", "steady", "validate")

# axis name -> (scale to SI, output column name): the library's sweep axes,
# each named, scaled and reported as its parameter key, and temperature in K.
_AXIS_COLUMNS: dict[str, tuple[float, str]] = {
    name: (scale, key) for key, (name, scale) in PARAM_KEYS.items() if name in SWEEP_AXES
}
_AXIS_COLUMNS["temperature"] = (1.0, "temperature_K")

_DEFAULT_WIGNER_PHASES = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)

# libyaml's safe loader when pyyaml was built with it (about 8x faster on a
# config file), else the pure-Python one; both build the same objects.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class AxisSpec(NamedTuple):
    """One sweep axis: SI values for the engine, display values for output."""

    name: str
    si_values: np.ndarray
    display_values: np.ndarray
    column_name: str


class SweepSpec(NamedTuple):
    axes: tuple[AxisSpec, ...]
    pairing: PhasePairing | None


class WignerSpec(NamedTuple):
    phases: tuple[float, ...]
    points_per_axis: int
    extent_sigmas: float


class RunConfig(NamedTuple):
    """Validated run configuration with parameters already in SI units."""

    params: SystemParams
    raw_parameters: dict[str, Any]
    sweep: SweepSpec | None
    wigner: WignerSpec
    dump_covariance: bool
    kerr: float | None


def _require_mapping(obj: Any, where: str) -> dict[str, Any]:
    if obj is None:
        return {}
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    bad = [k for k in obj if not isinstance(k, str)]
    if bad:
        raise ConfigError(f"{where} has non-string keys: {bad}")
    return dict(obj)


def _reject_unknown(block: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    # YAML 1.1 only treats exponent forms with a decimal point as floats;
    # accept the bare string form ("6e6") as a convenience.
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _temperature_scale(unit: Any, where: str) -> float:
    """The factor from the temperature ``unit`` to kelvin."""
    if not (isinstance(unit, str) and unit in _TEMPERATURE_UNITS):
        names = " or ".join(map(repr, _TEMPERATURE_UNITS))
        raise ConfigError(f"{where} must be {names}, got {unit!r}")
    return _TEMPERATURE_UNITS[unit]


def _parse_parameters(raw: dict[str, Any]) -> SystemParams:
    unknown = sorted(set(raw) - set(PARAM_KEYS) - set(_TEMPERATURE_KEYS))
    if unknown:
        raise ConfigError(f"unknown parameter keys: {unknown}")
    missing = [k for k in REQUIRED_PARAM_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing required parameter keys: {missing}")

    scale = _temperature_scale(raw["temperature_unit"], "temperature_unit")
    values: dict[str, Any] = {
        "temperature": scale * _as_number(raw["temperature_value"], "temperature_value")
    }
    for key, value in raw.items():
        if key in _TEMPERATURE_KEYS:
            continue
        field, to_si = PARAM_KEYS[key]
        values[field] = to_si * _as_number(value, key)
    try:
        return SystemParams(**values)
    except InvalidInputError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc


def _parse_axis(raw: Any, index: int) -> AxisSpec:
    axis = _require_mapping(raw, f"sweep.axes[{index}]")
    _reject_unknown(axis, {"name", "start", "stop", "points", "unit"}, f"sweep.axes[{index}]")
    for key in ("name", "start", "stop", "points"):
        if key not in axis:
            raise ConfigError(f"sweep.axes[{index}] is missing required key {key!r}")
    name = axis["name"]
    if name not in _AXIS_COLUMNS:
        raise ConfigError(
            f"unknown sweep axis {name!r}; valid axes: {sorted(_AXIS_COLUMNS)}"
        )
    points = axis["points"]
    if isinstance(points, bool) or not isinstance(points, int) or points < 1:
        raise ConfigError(f"sweep.axes[{index}].points must be a positive integer")
    start = _as_number(axis["start"], f"sweep.axes[{index}].start")
    stop = _as_number(axis["stop"], f"sweep.axes[{index}].stop")

    scale, column = _AXIS_COLUMNS[name]
    if "unit" in axis:
        if name != "temperature":
            raise ConfigError("axis 'unit' is only supported for the temperature axis")
        scale = _temperature_scale(axis["unit"], "temperature axis unit")
    grid = np.linspace(start, stop, points)
    si = grid * scale
    # Temperature is always reported in kelvin regardless of the input unit.
    display = si if name == "temperature" else grid
    return AxisSpec(name=name, si_values=si, display_values=display, column_name=column)


def _parse_sweep(raw: dict[str, Any]) -> SweepSpec:
    _reject_unknown(raw, {"axes", "pairing"}, "sweep section")
    if "axes" not in raw or not isinstance(raw["axes"], Sequence) or isinstance(raw["axes"], str):
        raise ConfigError("sweep.axes must be a list of axis mappings")
    axes = tuple(_parse_axis(a, i) for i, a in enumerate(raw["axes"]))

    pairing: PhasePairing | None = None
    if "pairing" in raw and raw["pairing"] is not None:
        block = _require_mapping(raw["pairing"], "sweep.pairing")
        _reject_unknown(block, {"theta_forward_rad", "theta_backward_rad"}, "sweep.pairing")
        for key in ("theta_forward_rad", "theta_backward_rad"):
            if key not in block:
                raise ConfigError(f"sweep.pairing is missing required key {key!r}")
        try:
            pairing = PhasePairing(
                theta_forward=_as_number(block["theta_forward_rad"], "theta_forward_rad"),
                theta_backward=_as_number(block["theta_backward_rad"], "theta_backward_rad"),
            )
        except InvalidInputError as exc:
            raise ConfigError(f"invalid sweep.pairing: {exc}") from exc
    return SweepSpec(axes=axes, pairing=pairing)


def _parse_wigner(raw: dict[str, Any]) -> WignerSpec:
    _reject_unknown(raw, {"phases_rad", "points_per_axis", "extent_sigmas"}, "wigner section")
    phases = _DEFAULT_WIGNER_PHASES
    if "phases_rad" in raw:
        if not isinstance(raw["phases_rad"], Sequence) or isinstance(raw["phases_rad"], str):
            raise ConfigError("wigner.phases_rad must be a list of phases in radians")
        if not raw["phases_rad"]:
            raise ConfigError("wigner.phases_rad must not be empty")
        phases = tuple(
            _as_number(v, f"wigner.phases_rad[{i}]") for i, v in enumerate(raw["phases_rad"])
        )
        for i, phase in enumerate(phases):
            if not math.isfinite(phase):
                raise ConfigError(f"wigner.phases_rad[{i}] must be finite")
    points = raw.get("points_per_axis", 101)
    if isinstance(points, bool) or not isinstance(points, int) or points < 2:
        raise ConfigError("wigner.points_per_axis must be an integer >= 2")
    sigmas = _as_number(raw.get("extent_sigmas", 6.0), "wigner.extent_sigmas")
    if not (math.isfinite(sigmas) and sigmas > 0.0):
        raise ConfigError("wigner.extent_sigmas must be positive and finite")
    return WignerSpec(phases=phases, points_per_axis=points, extent_sigmas=sigmas)


def apply_overrides(raw: dict[str, Any], assignments: Sequence[str]) -> dict[str, Any]:
    """Apply ``--set key=value`` assignments onto the raw config tree.

    Bare keys address the parameters section; dotted keys address scalar
    keys in other sections (for example ``steady.dump_covariance=true``).
    Values are parsed as YAML scalars.
    """
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in raw.items()}
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        key, text = assignment.split("=", 1)
        key = key.strip()
        try:
            value = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse override value {text!r}: {exc}") from exc
        if "." in key:
            section, sub = key.split(".", 1)
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section {section!r} in override {key!r}")
            out.setdefault(section, {})
            if not isinstance(out[section], dict):
                raise ConfigError(f"section {section!r} is not a mapping")
            out[section][sub] = value
        else:
            out.setdefault("parameters", {})
            out["parameters"][key] = value
    return out


def build_run_config(raw: Any, overrides: Sequence[str] = ()) -> RunConfig:
    """Validate a raw config tree (plus overrides) into a RunConfig."""
    tree = _require_mapping(raw, "config")
    unknown = sorted(set(tree) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config sections: {unknown}")
    tree = apply_overrides(tree, overrides)

    raw_params = _require_mapping(tree.get("parameters"), "parameters")
    if not raw_params:
        raise ConfigError("config is missing the parameters section")
    params = _parse_parameters(raw_params)

    sweep_spec: SweepSpec | None = None
    if "sweep" in tree and tree["sweep"] is not None:
        sweep_spec = _parse_sweep(_require_mapping(tree["sweep"], "sweep"))

    wigner_spec = _parse_wigner(_require_mapping(tree.get("wigner"), "wigner"))

    steady_block = _require_mapping(tree.get("steady"), "steady")
    _reject_unknown(steady_block, {"dump_covariance"}, "steady section")
    dump = steady_block.get("dump_covariance", False)
    if not isinstance(dump, bool):
        raise ConfigError("steady.dump_covariance must be a boolean")

    validate_block = _require_mapping(tree.get("validate"), "validate")
    _reject_unknown(validate_block, {"kerr_over_2pi_hz"}, "validate section")
    kerr: float | None = None
    if "kerr_over_2pi_hz" in validate_block:
        kerr = TWO_PI * _as_number(validate_block["kerr_over_2pi_hz"], "kerr_over_2pi_hz")
        if not (math.isfinite(kerr) and kerr >= 0.0):
            raise ConfigError("kerr_over_2pi_hz must be non-negative and finite")

    return RunConfig(
        params=params,
        raw_parameters=dict(raw_params),
        sweep=sweep_spec,
        wigner=wigner_spec,
        dump_covariance=dump,
        kerr=kerr,
    )


def load_config(path: str | Path, overrides: Sequence[str] = ()) -> RunConfig:
    """Load and validate a YAML config file."""
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {file}")
    try:
        raw = yaml.load(file.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {file}: {exc}") from exc
    return build_run_config(raw, overrides)
