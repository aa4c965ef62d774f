"""The exact message of each config rule, one malformed tree per rule."""

from __future__ import annotations

import math
from pathlib import Path

import pytest
import yaml

from magsqueeze.config import build_run_config
from magsqueeze.errors import ConfigError

FIG2 = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / "fig2.yaml").read_text())
PARAMS = FIG2["parameters"]
AXIS = FIG2["sweep"]["axes"][0]
PAIRING = {"theta_forward_rad": 0.0, "theta_backward_rad": math.pi}


def tree(**sections) -> dict:
    """fig2.yaml's parameters and sweep with ``sections`` replacing or adding top-level keys."""
    return {**FIG2, **sections}


def axis(**keys) -> dict:
    """A sweep section of one axis: fig2.yaml's first axis updated by ``keys``."""
    return {"axes": [{**AXIS, **keys}]}


def without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


CASES = [
    ("config_not_mapping", [FIG2], "config must be a mapping, got list"),
    ("config_non_string_keys", {**FIG2, 1: {}}, "config has non-string keys: [1]"),
    ("unknown_section", tree(output={}), "unknown config sections: ['output']"),
    ("no_parameters", {}, "config is missing the parameters section"),
    ("parameters_not_mapping", tree(parameters=[1]), "parameters must be a mapping, got list"),
    ("unknown_parameter", tree(parameters=dict(PARAMS, coupling_hz=1.0)),
     "unknown parameter keys: ['coupling_hz']"),
    ("missing_parameter", tree(parameters=without(PARAMS, "kappa_m_over_2pi_hz")),
     "missing required parameter keys: ['kappa_m_over_2pi_hz']"),
    ("parameter_not_number", tree(parameters=dict(PARAMS, g_a_over_2pi_hz="fast")),
     "g_a_over_2pi_hz must be a number, got 'fast'"),
    ("parameter_bool", tree(parameters=dict(PARAMS, theta_rad=True)),
     "theta_rad must be a number, got True"),
    ("temperature_unit", tree(parameters=dict(PARAMS, temperature_unit="C")),
     "temperature_unit must be 'mK' or 'K', got 'C'"),
    ("invalid_parameters", tree(parameters=dict(PARAMS, kappa_a_over_2pi_hz=0.0)),
     "invalid parameters: kappa_a must be positive (dissipation required)"),
    ("sweep_not_mapping", tree(sweep="upsilon"), "sweep must be a mapping, got str"),
    ("sweep_non_string_keys", tree(sweep={**FIG2["sweep"], 2: 3}),
     "sweep has non-string keys: [2]"),
    ("unknown_sweep_key", tree(sweep={**FIG2["sweep"], "measures": ["E_am"]}),
     "unknown keys in sweep section: ['measures']"),
    ("axes_missing", tree(sweep={"pairing": None}), "sweep.axes must be a list of axis mappings"),
    ("axes_string", tree(sweep={"axes": "upsilon"}), "sweep.axes must be a list of axis mappings"),
    ("axis_not_mapping", tree(sweep={"axes": [3]}), "sweep.axes[0] must be a mapping, got int"),
    ("unknown_axis_key", tree(sweep=axis(step=1.0)), "unknown keys in sweep.axes[0]: ['step']"),
    ("missing_axis_key", tree(sweep={"axes": [without(AXIS, "stop")]}),
     "sweep.axes[0] is missing required key 'stop'"),
    ("unknown_axis", tree(sweep=axis(name="kappa_a")),
     "unknown sweep axis 'kappa_a'; valid axes: ['G_m', 'delta_a', 'delta_m', 'g_a',"
     " 'temperature', 'theta', 'upsilon']"),
    ("points_zero", tree(sweep=axis(points=0)), "sweep.axes[0].points must be a positive integer"),
    ("points_bool", tree(sweep=axis(points=True)),
     "sweep.axes[0].points must be a positive integer"),
    ("points_float", tree(sweep=axis(points=2.0)),
     "sweep.axes[0].points must be a positive integer"),
    ("axis_start", tree(sweep=axis(start=None)), "sweep.axes[0].start must be a number, got None"),
    ("unit_off_temperature", tree(sweep=axis(unit="K")),
     "axis 'unit' is only supported for the temperature axis"),
    ("temperature_axis_unit", tree(sweep=axis(name="temperature", unit="F")),
     "temperature axis unit must be 'mK' or 'K', got 'F'"),
    ("pairing_not_mapping", tree(sweep={**FIG2["sweep"], "pairing": [0.0, 1.0]}),
     "sweep.pairing must be a mapping, got list"),
    ("unknown_pairing_key", tree(sweep={**FIG2["sweep"], "pairing": dict(PAIRING, theta=0.0)}),
     "unknown keys in sweep.pairing: ['theta']"),
    ("missing_pairing_key",
     tree(sweep={**FIG2["sweep"], "pairing": without(PAIRING, "theta_backward_rad")}),
     "sweep.pairing is missing required key 'theta_backward_rad'"),
    ("pairing_not_number",
     tree(sweep={**FIG2["sweep"], "pairing": dict(PAIRING, theta_forward_rad="up")}),
     "theta_forward_rad must be a number, got 'up'"),
    ("pairing_equal",
     tree(sweep={**FIG2["sweep"], "pairing": dict(PAIRING, theta_backward_rad=0.0)}),
     "invalid sweep.pairing: pairing phases must be distinct"),
    ("wigner_not_mapping", tree(wigner=[1, 2]), "wigner must be a mapping, got list"),
    ("unknown_wigner_key", tree(wigner={"points": 11}), "unknown keys in wigner section: ['points']"),
    ("phases_string", tree(wigner={"phases_rad": "pi"}),
     "wigner.phases_rad must be a list of phases in radians"),
    ("phases_empty", tree(wigner={"phases_rad": []}), "wigner.phases_rad must not be empty"),
    ("phases_nan", tree(wigner={"phases_rad": [0.0, math.nan]}), "wigner.phases_rad[1] must be finite"),
    ("phases_not_number", tree(wigner={"phases_rad": [0.0, "pi"]}),
     "wigner.phases_rad[1] must be a number, got 'pi'"),
    ("points_per_axis_one", tree(wigner={"points_per_axis": 1}),
     "wigner.points_per_axis must be an integer >= 2"),
    ("points_per_axis_bool", tree(wigner={"points_per_axis": True}),
     "wigner.points_per_axis must be an integer >= 2"),
    ("extent_zero", tree(wigner={"extent_sigmas": 0}), "wigner.extent_sigmas must be positive and finite"),
    ("extent_negative", tree(wigner={"extent_sigmas": -1}),
     "wigner.extent_sigmas must be positive and finite"),
    ("extent_inf", tree(wigner={"extent_sigmas": math.inf}),
     "wigner.extent_sigmas must be positive and finite"),
    ("extent_not_number", tree(wigner={"extent_sigmas": [6]}),
     "wigner.extent_sigmas must be a number, got [6]"),
    ("steady_not_mapping", tree(steady=True), "steady must be a mapping, got bool"),
    ("unknown_steady_key", tree(steady={"dump": True}), "unknown keys in steady section: ['dump']"),
    ("dump_not_bool", tree(steady={"dump_covariance": "yes"}), "steady.dump_covariance must be a boolean"),
    ("validate_non_string_keys", tree(validate={1.5: 2}), "validate has non-string keys: [1.5]"),
    ("unknown_validate_key", tree(validate={"kerr_hz": 1.0}),
     "unknown keys in validate section: ['kerr_hz']"),
    ("kerr_negative", tree(validate={"kerr_over_2pi_hz": -6.4e-9}),
     "kerr_over_2pi_hz must be non-negative and finite"),
    ("kerr_overflows", tree(validate={"kerr_over_2pi_hz": 1e308}),
     "kerr_over_2pi_hz must be non-negative and finite"),
    ("kerr_not_number", tree(validate={"kerr_over_2pi_hz": "small"}),
     "kerr_over_2pi_hz must be a number, got 'small'"),
]


@pytest.mark.parametrize("raw, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_malformed_tree_message(raw, message):
    with pytest.raises(ConfigError) as caught:
        build_run_config(raw)
    assert str(caught.value) == message


OVERRIDES = [
    ("not_assignment", ["upsilon_over_2pi_hz"],
     "override 'upsilon_over_2pi_hz' is not of the form key=value"),
    ("unknown_section", ["output.format=json"],
     "unknown config section 'output' in override 'output.format'"),
    ("section_not_mapping", ["sweep.pairing=null"], "section 'sweep' is not a mapping"),
]


@pytest.mark.parametrize("overrides, message", [case[1:] for case in OVERRIDES],
                         ids=[case[0] for case in OVERRIDES])
def test_malformed_override_message(overrides, message):
    with pytest.raises(ConfigError) as caught:
        build_run_config(tree(sweep=[AXIS]), overrides)
    assert str(caught.value) == message
