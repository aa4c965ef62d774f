"""The exact message of each config rule, one malformed tree per rule."""

from __future__ import annotations

import math
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magsqueeze.config import PARAM_KEYS, RunConfig, build_run_config, load_config
from magsqueeze.errors import ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FIG2 = yaml.safe_load((CONFIGS / "fig2.yaml").read_text())
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
    ("parameter_int_past_float", tree(parameters=dict(PARAMS, omega_a_over_2pi_hz=10**400)),
     "invalid parameters: omega_a must be finite"),
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
    ("points_past_intp", tree(sweep=axis(points=2**63)),
     "sweep.axes[0].points must be at most 9223372036854775807"),
    ("points_1e30", tree(sweep=axis(points=10**30)),
     "sweep.axes[0].points must be at most 9223372036854775807"),
    ("axis_name_list", tree(sweep=axis(name=[1])),
     "unknown sweep axis [1]; valid axes: ['G_m', 'delta_a', 'delta_m', 'g_a',"
     " 'temperature', 'theta', 'upsilon']"),
    ("axis_name_mapping", tree(sweep=axis(name={"a": 1})),
     "unknown sweep axis {'a': 1}; valid axes: ['G_m', 'delta_a', 'delta_m', 'g_a',"
     " 'temperature', 'theta', 'upsilon']"),
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
    ("points_per_axis_past_intp", tree(wigner={"points_per_axis": 2**63}),
     "wigner.points_per_axis must be at most 9223372036854775807"),
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
    ("bad_tag", ["upsilon_over_2pi_hz=!!int abc"],
     "cannot parse override value '!!int abc': invalid literal for int() with base 10: 'abc'"),
]


@pytest.mark.parametrize("overrides, message", [case[1:] for case in OVERRIDES],
                         ids=[case[0] for case in OVERRIDES])
def test_malformed_override_message(overrides, message):
    with pytest.raises(ConfigError) as caught:
        build_run_config(tree(sweep=[AXIS]), overrides)
    assert str(caught.value) == message


@pytest.mark.parametrize("parameters", [None, {}], ids=["null", "empty"])
def test_bare_keys_fill_an_empty_parameters_section(parameters):
    # A bare key is parameters.<key>, and a null section reads as empty.
    bare = [f"{key}={value}" for key, value in PARAMS.items()]
    filled = build_run_config(tree(parameters=parameters), bare)
    dotted = build_run_config(tree(parameters=parameters), [f"parameters.{s}" for s in bare])
    assert filled.params == dotted.params == build_run_config(tree()).params
    assert filled.raw_parameters == dotted.raw_parameters == PARAMS


def test_bare_key_on_a_list_parameters_section():
    with pytest.raises(ConfigError) as caught:
        build_run_config(tree(parameters=[1]), ["upsilon_over_2pi_hz=1"])
    assert str(caught.value) == "section 'parameters' is not a mapping"


def test_dotted_key_fills_a_null_section():
    assert build_run_config(tree(steady=None), ["steady.dump_covariance=true"]).dump_covariance


@pytest.mark.parametrize("text", ["!!float abc", "!!bool x", "!!timestamp x", "!!float "])
def test_rejected_tags_are_config_errors(text, tmp_path):
    # The loader's constructors raise ValueError, KeyError, AttributeError and IndexError here.
    with pytest.raises(ConfigError) as caught:
        build_run_config(tree(), [f"upsilon_over_2pi_hz={text}"])
    assert str(caught.value).startswith(f"cannot parse override value {text!r}: ")
    file = tmp_path / "tagged.yaml"
    file.write_text(f"parameters: {{upsilon_over_2pi_hz: {text}}}\n")
    with pytest.raises(ConfigError) as caught:
        load_config(file)
    assert str(caught.value).startswith(f"cannot parse {file}: ")


FIG3A = yaml.safe_load((CONFIGS / "fig3a.yaml").read_text())
# fig3a.yaml plus a valid block for each section it leaves out.
VALID = {**FIG3A, "wigner": {"points_per_axis": 11}, "steady": {"dump_covariance": False},
         "validate": {"kerr_over_2pi_hz": 6.4e-9}}
SECTION_KEYS = {
    "parameters": [*PARAM_KEYS, "temperature_value", "temperature_unit"],
    "sweep": ["axes", "pairing"],
    "wigner": ["phases_rad", "points_per_axis", "extent_sigmas"],
    "steady": ["dump_covariance"],
    "validate": ["kerr_over_2pi_hz"],
}
AXIS_KEYS = ["name", "start", "stop", "points", "unit"]
# Counts stay at 10**4 or below, so that no drawn sweep allocates much.
SCALARS = (st.none() | st.booleans() | st.integers(-10**4, 10**4) | st.floats()
           | st.text(max_size=6))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.integers(-3, 3) | st.none(), inner, max_size=3),
    max_leaves=6,
)
TAGS = st.sampled_from(["", "!!int ", "!!float ", "!!bool ", "!!timestamp ", "!!binary "])
OVERRIDES = st.one_of(
    st.tuples(
        st.sampled_from([*PARAM_KEYS, *(f"{s}.{k}" for s, ks in SECTION_KEYS.items() for k in ks)])
        | st.text(max_size=8),
        VALUES.map(lambda v: yaml.safe_dump(v, default_flow_style=True, sort_keys=False))
        | st.tuples(TAGS, st.text(max_size=6)).map("".join),
    ).map("=".join),
    st.text(max_size=10),
)


@st.composite
def drawn_trees(draw) -> dict:
    """``VALID`` with each section kept (3 in 5), replaced by a drawn value, or given one at
    one key (its own or a drawn one); the first sweep axis may take a drawn value at one key."""
    raw = dict(VALID)
    for section, keys in SECTION_KEYS.items():
        how = draw(st.sampled_from(["keep", "keep", "keep", "replace", "key"]))
        if how == "replace":
            raw[section] = draw(VALUES)
        elif how == "key":
            raw[section] = {**raw[section], draw(st.sampled_from(keys) | st.text(max_size=6)):
                            draw(VALUES)}
    key = draw(st.none() | st.sampled_from(AXIS_KEYS))
    if key is not None and raw["sweep"] is VALID["sweep"]:
        raw["sweep"] = {**raw["sweep"], "axes": [{**raw["sweep"]["axes"][0], key: draw(VALUES)}]}
    return raw


# The examples are inputs that escaped as TypeError, OverflowError, IndexError or ValueError
# (2**63 and 10**30 points before they allocate anything), or read a null section as non-empty.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn_trees(), st.lists(OVERRIDES, max_size=2))
@example(tree(parameters=None), ["upsilon_over_2pi_hz=1"])
@example(tree(parameters=[1]), ["upsilon_over_2pi_hz=1"])
@example(tree(steady=None), ["steady.dump_covariance=true"])
@example(tree(), ["omega_a_over_2pi_hz=1" + "0" * 400])
@example(tree(sweep=axis(points=2**63)), [])
@example(tree(sweep=axis(points=10**30)), [])
@example(tree(), ["wigner.points_per_axis=9223372036854775808"])
@example(tree(sweep=axis(name=[1])), [])
@example(tree(sweep=axis(name={"a": 1})), [])
@example(tree(), ["upsilon_over_2pi_hz=!!int abc"])
def test_every_tree_reads_or_raises_config_error(raw, overrides):
    """``build_run_config`` returns a RunConfig or raises ConfigError, and nothing else."""
    try:
        config = build_run_config(raw, overrides)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)
