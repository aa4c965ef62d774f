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
from typing import Any, Callable, Collection, Mapping, NamedTuple, Sequence

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


def _block(
    obj: Any, where: str, allowed: Collection[str], required: Sequence[str] = (), unknown: str = ""
) -> dict[str, Any]:
    """``obj`` (None reads as empty) as a dict: a mapping with string keys, only ``allowed`` ones,
    holding the ``required`` ones.  ``unknown`` heads the message for other keys, by default
    "unknown keys in <where>" (and " section" after a section's name)."""
    if obj is None:
        obj = {}
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    bad = [k for k in obj if not isinstance(k, str)]
    if bad:
        raise ConfigError(f"{where} has non-string keys: {bad}")
    extra = sorted(set(obj) - set(allowed))
    if extra:
        section = " section" if where in _SECTIONS else ""
        raise ConfigError(f"{unknown or f'unknown keys in {where}{section}'}: {extra}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where} is missing required key {key!r}")
    return dict(obj)


def _number(
    value: Any, where: str, scale: float = 1.0, must: str = "",
    test: Callable[[float], bool] | None = None,
) -> float:
    """``scale`` times ``value`` as a float, which must pass ``test`` if one is given;
    the message then says what ``where`` ``must`` be."""
    # YAML 1.1 only treats exponent forms with a decimal point as floats;
    # accept the bare string form ("6e6") as a convenience.
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError
        number = scale * float(value)
    except OverflowError:  # an int past the float range reads as +-inf, as YAML reads 1e400
        number = scale * (math.inf if value > 0 else -math.inf)
    except ValueError:
        raise ConfigError(f"{where} must be a number, got {value!r}") from None
    if test is None or test(number):
        return number
    raise ConfigError(f"{where} must be {must}")


def _integer(value: Any, where: str, least: int, must: str) -> int:
    """``value``, which must be an integer (not a bool) of at least ``least`` that fits np.intp."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{where} must be {must}")
    if value > np.iinfo(np.intp).max:
        raise ConfigError(f"{where} must be at most {np.iinfo(np.intp).max}")
    return value


def _temperature_scale(unit: Any, where: str) -> float:
    """The factor from the temperature ``unit`` to kelvin."""
    if not (isinstance(unit, str) and unit in _TEMPERATURE_UNITS):
        names = " or ".join(map(repr, _TEMPERATURE_UNITS))
        raise ConfigError(f"{where} must be {names}, got {unit!r}")
    return _TEMPERATURE_UNITS[unit]


def _parse_parameters(raw: dict[str, Any]) -> SystemParams:
    missing = [k for k in REQUIRED_PARAM_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing required parameter keys: {missing}")

    scale = _temperature_scale(raw["temperature_unit"], "temperature_unit")
    values: dict[str, Any] = {
        "temperature": _number(raw["temperature_value"], "temperature_value", scale)
    }
    for key, value in raw.items():
        if key in _TEMPERATURE_KEYS:
            continue
        field, to_si = PARAM_KEYS[key]
        values[field] = _number(value, key, to_si)
    try:
        return SystemParams(**values)
    except InvalidInputError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc


def _parse_axis(raw: Any, index: int) -> AxisSpec:
    where = f"sweep.axes[{index}]"
    axis = _block(raw, where, ("name", "start", "stop", "points", "unit"),
                  ("name", "start", "stop", "points"))
    name = axis["name"]
    if not isinstance(name, str) or name not in _AXIS_COLUMNS:
        raise ConfigError(
            f"unknown sweep axis {name!r}; valid axes: {sorted(_AXIS_COLUMNS)}"
        )
    points = _integer(axis["points"], f"{where}.points", 1, "a positive integer")
    start = _number(axis["start"], f"{where}.start")
    stop = _number(axis["stop"], f"{where}.stop")

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


def _parse_sweep(raw: Any) -> SweepSpec:
    raw = _block(raw, "sweep", ("axes", "pairing"))
    if not isinstance(raw.get("axes"), Sequence) or isinstance(raw["axes"], str):
        raise ConfigError("sweep.axes must be a list of axis mappings")
    axes = tuple(_parse_axis(a, i) for i, a in enumerate(raw["axes"]))

    pairing: PhasePairing | None = None
    if raw.get("pairing") is not None:
        keys = ("theta_forward_rad", "theta_backward_rad")
        block = _block(raw["pairing"], "sweep.pairing", keys, keys)
        try:
            pairing = PhasePairing(*(_number(block[key], key) for key in keys))
        except InvalidInputError as exc:
            raise ConfigError(f"invalid sweep.pairing: {exc}") from exc
    return SweepSpec(axes=axes, pairing=pairing)


def _parse_wigner(raw: Any) -> WignerSpec:
    raw = _block(raw, "wigner", ("phases_rad", "points_per_axis", "extent_sigmas"))
    phases = _DEFAULT_WIGNER_PHASES
    if "phases_rad" in raw:
        if not isinstance(raw["phases_rad"], Sequence) or isinstance(raw["phases_rad"], str):
            raise ConfigError("wigner.phases_rad must be a list of phases in radians")
        if not raw["phases_rad"]:
            raise ConfigError("wigner.phases_rad must not be empty")
        phases = tuple(_number(v, f"wigner.phases_rad[{i}]", 1.0, "finite", math.isfinite)
                       for i, v in enumerate(raw["phases_rad"]))
    points = _integer(raw.get("points_per_axis", 101), "wigner.points_per_axis", 2,
                      "an integer >= 2")
    sigmas = _number(raw.get("extent_sigmas", 6.0), "wigner.extent_sigmas", 1.0,
                     "positive and finite", lambda x: 0.0 < x < math.inf)
    return WignerSpec(phases=phases, points_per_axis=points, extent_sigmas=sigmas)


def _load_yaml(text: str, what: str) -> Any:
    """``text`` by the safe loader; a parse or tag error (``!!int abc``) is a ConfigError."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
        raise ConfigError(f"cannot parse {what}: {exc}") from exc


def apply_overrides(raw: dict[str, Any], assignments: Sequence[str]) -> dict[str, Any]:
    """Apply ``--set key=value`` assignments onto the raw config tree.

    A bare key is ``parameters.<key>``; a dotted key addresses a scalar key of
    any section (for example ``steady.dump_covariance=true``), and a null
    section reads as empty.  Values are parsed as YAML scalars.
    """
    out = dict(raw)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        key, text = assignment.split("=", 1)
        key = key.strip()
        value = _load_yaml(text, f"override value {text!r}")
        section, sub = key.split(".", 1) if "." in key else ("parameters", key)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r} in override {key!r}")
        block = {} if out.get(section) is None else out[section]
        if not isinstance(block, Mapping):
            raise ConfigError(f"section {section!r} is not a mapping")
        out[section] = {**block, sub: value}
    return out


def build_run_config(raw: Any, overrides: Sequence[str] = ()) -> RunConfig:
    """Validate a raw config tree (plus overrides) into a RunConfig."""
    tree = _block(raw, "config", _SECTIONS, unknown="unknown config sections")
    tree = apply_overrides(tree, overrides)

    raw_params = _block(tree.get("parameters"), "parameters", (*PARAM_KEYS, *_TEMPERATURE_KEYS),
                        unknown="unknown parameter keys")
    if not raw_params:
        raise ConfigError("config is missing the parameters section")
    params = _parse_parameters(raw_params)

    sweep_spec: SweepSpec | None = None
    if tree.get("sweep") is not None:
        sweep_spec = _parse_sweep(tree["sweep"])
    wigner_spec = _parse_wigner(tree.get("wigner"))

    dump = _block(tree.get("steady"), "steady", ("dump_covariance",)).get("dump_covariance", False)
    if not isinstance(dump, bool):
        raise ConfigError("steady.dump_covariance must be a boolean")

    validate_block = _block(tree.get("validate"), "validate", ("kerr_over_2pi_hz",))
    kerr: float | None = None
    if "kerr_over_2pi_hz" in validate_block:
        kerr = _number(validate_block["kerr_over_2pi_hz"], "kerr_over_2pi_hz", TWO_PI,
                       "non-negative and finite", lambda x: 0.0 <= x < math.inf)

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
    return build_run_config(_load_yaml(file.read_text(encoding="utf-8"), f"{file}"), overrides)
