"""End-to-end CLI checks: config handling, outputs, exit codes."""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from magsqueeze import cli
from magsqueeze.tableio import read_csv

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

BASE_PARAMETERS = {
    "omega_a_over_2pi_hz": 10.0e9,
    "omega_m_over_2pi_hz": 10.0e9,
    "omega_b_over_2pi_hz": 10.0e6,
    "delta_a_over_2pi_hz": 10.0e6,
    "delta_m_over_2pi_hz": 10.0e6,
    "kappa_a_over_2pi_hz": 3.0e6,
    "kappa_m_over_2pi_hz": 0.6e6,
    "gamma_b_over_2pi_hz": 100.0,
    "g_a_over_2pi_hz": 4.8e6,
    "G_m_over_2pi_hz": 4.8e6,
    "upsilon_over_2pi_hz": 3.9e6,
    "theta_rad": 4.71238898038469,
    "temperature_value": 10,
    "temperature_unit": "mK",
}


def write_config(tmp_path: Path, tree: dict, name: str = "run.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree), encoding="utf-8")
    return str(path)


def measure_lines(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for name in ("E_am", "E_ab", "E_mb", "R_min"):
        match = re.search(rf"^{name} = (\S+)$", text, re.MULTILINE)
        assert match is not None, f"missing {name} line in output:\n{text}"
        out[name] = float(match.group(1))
    return out


class TestSteady:
    def test_working_point_measures(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        assert cli.main(["steady", "--config", cfg]) == 0
        values = measure_lines(capsys.readouterr().out)
        assert values["E_am"] == pytest.approx(0.09252275629220927, rel=1e-9)
        assert values["E_ab"] == pytest.approx(0.04060438886875909, rel=1e-9)
        assert values["E_mb"] == pytest.approx(0.3161324279493292, rel=1e-9)
        assert values["R_min"] == pytest.approx(0.008450664041460804, rel=1e-9)

    def test_covariance_dump(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"parameters": dict(BASE_PARAMETERS), "steady": {"dump_covariance": True}},
        )
        out_dir = tmp_path / "out"
        assert cli.main(["steady", "--config", cfg, "--output", str(out_dir)]) == 0
        table = read_csv(out_dir / "covariance.csv")
        assert list(table.columns) == ["x_a", "p_a", "x_m", "p_m", "q", "p"]
        matrix = np.array(list(table.columns.values()), dtype=float).T
        assert matrix.shape == (6, 6)
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_dotted_override_enables_dump(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        out_dir = tmp_path / "dump"
        code = cli.main(
            [
                "steady", "--config", cfg, "--output", str(out_dir),
                "--set", "steady.dump_covariance=true",
            ]
        )
        assert code == 0
        assert (out_dir / "covariance.csv").is_file()

    def test_kelvin_and_millikelvin_agree(self, tmp_path, capsys):
        cfg_mk = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)}, "mk.yaml")
        kelvin = dict(BASE_PARAMETERS, temperature_value=0.01, temperature_unit="K")
        cfg_k = write_config(tmp_path, {"parameters": kelvin}, "k.yaml")
        assert cli.main(["steady", "--config", cfg_mk]) == 0
        first = measure_lines(capsys.readouterr().out)
        assert cli.main(["steady", "--config", cfg_k]) == 0
        second = measure_lines(capsys.readouterr().out)
        assert first == second

    def test_thermal_death_without_squeezing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        code = cli.main(
            [
                "steady", "--config", cfg,
                "--set", "upsilon_over_2pi_hz=0",
                "--set", "temperature_value=10", "--set", "temperature_unit=K",
            ]
        )
        assert code == 0
        values = measure_lines(capsys.readouterr().out)
        assert all(v == 0.0 for v in values.values())

    def test_unstable_point_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        code = cli.main(["steady", "--config", cfg, "--set", "upsilon_over_2pi_hz=6.0e6"])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: drift matrix is not stable (max eigenvalue real part "
        )

    def test_unstable_point_reads_the_same_in_steady_and_wigner(self, tmp_path, capsys):
        # default.yaml's phase, as the one wigner phase: both commands solve the same point.
        argv = ["--config", str(REPO_CONFIGS / "default.yaml"), "--output", str(tmp_path),
                "--set", "upsilon_over_2pi_hz=6.0e6"]
        assert cli.main(["steady", *argv]) == 3
        steady_err = capsys.readouterr().err
        assert cli.main(["wigner", *argv, "--set", "wigner.phases_rad=[4.71238898038469]"]) == 3
        assert capsys.readouterr().err == steady_err

    @pytest.mark.parametrize("drive", [{"rabi_rad_per_s": 1.48e15}, {}])
    def test_zero_sphere_diameter_exits_2(self, tmp_path, capsys, drive):
        params = dict(BASE_PARAMETERS, h_d_tesla=2.87e-5, **drive)
        cfg = write_config(tmp_path, {"parameters": params, "validate": {"kerr_over_2pi_hz": 6.4e-9}})
        assert cli.main(["steady", "--config", cfg, "--set", "sphere_diameter_m=0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid parameters: sphere_diameter must be positive\n"

    def test_zero_cavity_frequency_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS, omega_a_over_2pi_hz=0)})
        assert cli.main(["steady", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid parameters: omega_a must be positive\n"

    def test_validity_without_a_drive_is_skipped(self, capsys):
        # fig3a sets G_m directly and has no drive, so a Kerr coefficient has nothing to check.
        code = cli.main(["steady", "--config", str(REPO_CONFIGS / "fig3a.yaml"),
                         "--set", "validate.kerr_over_2pi_hz=6.4e-9"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.endswith(
            "validity: skipped (validity checks need a drive: set rabi, or h_d with sphere_diameter)\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_overflowing_amplitude_prints_failed_validity(self, tmp_path, capsys):
        # The amplitude's cube overflows a float; the measures are unaffected.
        code = cli.main(["steady", "--config", str(REPO_CONFIGS / "default.yaml"),
                         "--output", str(tmp_path), "--set", "rabi_rad_per_s=1e120"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert "low-excitation FAIL)\n" in captured.out
        assert "validity: Kerr/drive ratio = inf (threshold 0.5, FAIL)\n" in captured.out

    def test_missing_key_is_named(self, tmp_path, capsys):
        params = dict(BASE_PARAMETERS)
        del params["upsilon_over_2pi_hz"]
        cfg = write_config(tmp_path, {"parameters": params})
        assert cli.main(["steady", "--config", cfg]) == 2
        assert "upsilon_over_2pi_hz" in capsys.readouterr().err

    def test_unknown_parameter_key_rejected(self, tmp_path, capsys):
        params = dict(BASE_PARAMETERS, coupling_hz=1.0)
        cfg = write_config(tmp_path, {"parameters": params})
        assert cli.main(["steady", "--config", cfg]) == 2
        assert "coupling_hz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["spin_density_per_m3", "spin_s", "gyromagnetic_rad_per_s_per_t"]
    )
    def test_fixed_yig_constants_are_unknown_keys(self, tmp_path, capsys, key):
        # The spin density, spin number and gyromagnetic ratio are YIG constants.
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS, **{key: 1.0})})
        assert cli.main(["steady", "--config", cfg]) == 2
        assert f"unknown parameter keys: ['{key}']" in capsys.readouterr().err

    def test_missing_keys_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": {"G_m_over_2pi_hz": 4.8e6}})
        assert cli.main(["steady", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: missing required parameter keys: ['omega_a_over_2pi_hz',"
            " 'omega_m_over_2pi_hz', 'omega_b_over_2pi_hz', 'kappa_a_over_2pi_hz',"
            " 'kappa_m_over_2pi_hz', 'gamma_b_over_2pi_hz', 'g_a_over_2pi_hz',"
            " 'upsilon_over_2pi_hz', 'theta_rad', 'temperature_value', 'temperature_unit']\n"
        )

    @pytest.mark.parametrize("unit", ["C", ["mK"]])
    def test_temperature_units_named(self, tmp_path, capsys, unit):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS, temperature_unit=unit)})
        assert cli.main(["steady", "--config", cfg]) == 2
        assert f"temperature_unit must be 'mK' or 'K', got {unit!r}" in capsys.readouterr().err
        axis = {"name": "temperature", "start": 1.0, "stop": 2.0, "points": 2, "unit": unit}
        cfg = write_config(tmp_path, dict(sweep_tree(), sweep={"axes": [axis]}))
        assert cli.main(["sweep", "--config", cfg, "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"temperature axis unit must be 'mK' or 'K', got {unit!r}" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS), "plotting": {}})
        assert cli.main(["steady", "--config", cfg]) == 2
        assert "plotting" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["steady", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_malformed_override_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        assert cli.main(["steady", "--config", cfg, "--set", "upsilon"]) == 2

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_nonfinite_parameter_exits_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        code = cli.main(["steady", "--config", cfg, "--set", f"upsilon_over_2pi_hz={value}"])
        assert code == 2
        assert "upsilon must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize(
    "command, key", [("wigner", "wigner.extent_sigmas"), ("validate", "validate.kerr_over_2pi_hz")]
)
def test_nonfinite_section_value_exits_2(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
    out_dir = tmp_path / "out"
    code = cli.main([command, "--config", cfg, "--output", str(out_dir), "--set", f"{key}={value}"])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command, config", [("steady", "default.yaml"), ("validate", "validate.yaml")])
def test_sphere_without_a_finite_spin_count_exits_2(tmp_path, capsys, command, config):
    argv = [command, "--config", str(REPO_CONFIGS / config), "--output", str(tmp_path)]
    assert cli.main([*argv, "--set", "sphere_diameter_m=1e120"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: invalid parameters: sphere_diameter must give a finite spin count\n"
    )


def sweep_tree() -> dict:
    return {
        "parameters": dict(BASE_PARAMETERS),
        "sweep": {
            "axes": [
                {"name": "upsilon", "start": 0.0, "stop": 3.0e6, "points": 5},
            ],
        },
    }


class TestSweep:
    def test_csv_round_trip_matches_library(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep_tree())
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--output", str(out_dir)]) == 0
        table = read_csv(out_dir / "sweep.csv")
        assert len(table.columns["stable"]) == 5
        assert table.columns["upsilon_over_2pi_hz"] == pytest.approx(
            list(np.linspace(0.0, 3.0e6, 5))
        )
        assert all(s == 1 for s in table.columns["stable"])

        from conftest import TWO_PI, make_params
        from magsqueeze import sweep as run_sweep
        from magsqueeze.analysis import MEASURES

        grid = np.linspace(0.0, 3.0e6, 5) * TWO_PI
        direct = run_sweep(make_params(), [("upsilon", grid)])
        expected = direct.measures[:, MEASURES.index("E_mb")].tolist()
        assert table.columns["E_mb"] == expected  # repr round-trip is exact

    def test_byte_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep_tree())
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep", "--config", cfg, "--output", str(a)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--output", str(b), "--threads", "3"]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_json_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep_tree())
        out_dir = tmp_path / "out"
        code = cli.main(
            ["sweep", "--config", cfg, "--output", str(out_dir), "--format", "json"]
        )
        assert code == 0
        payload = json.loads((out_dir / "sweep.json").read_text())
        table = read_csv(out_dir / "sweep.csv")
        assert payload["columns"]["E_mb"] == table.columns["E_mb"]
        assert "stable_points" in payload["metadata"]

    def test_pairing_adds_contrast_columns_and_zones(self, tmp_path, capsys):
        tree = {
            "parameters": dict(BASE_PARAMETERS, upsilon_over_2pi_hz=1.8e6),
            "sweep": {
                "axes": [
                    {"name": "temperature", "start": 1.0, "stop": 20.0, "points": 3, "unit": "mK"},
                ],
                "pairing": {"theta_forward_rad": 0.0, "theta_backward_rad": 3.141592653589793},
            },
        }
        cfg = write_config(tmp_path, tree)
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--output", str(out_dir)]) == 0
        table = read_csv(out_dir / "sweep.csv")
        assert "C_E_am" in table.columns
        assert table.columns["temperature_K"] == pytest.approx([0.001, 0.0105, 0.020])
        keys = {key for key, _ in table.metadata}
        assert "pairing" in keys
        assert "ideal_zone C_E_am" in keys

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        tree = sweep_tree()
        tree["sweep"]["axes"][0]["name"] = "kappa_a"
        cfg = write_config(tmp_path, tree)
        assert cli.main(["sweep", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "axes, message",
        [
            ("[{name: theta, start: 0, stop: 1, points: 3}]",
             "a theta axis cannot be combined with a phase pairing"),
            ("[{name: upsilon, start: 0, stop: 1, points: 3},"
             " {name: upsilon, start: 0, stop: 2, points: 3}]",
             "duplicate axis names: ['upsilon', 'upsilon']"),
        ],
        ids=["theta_with_pairing", "duplicate_names"],
    )
    def test_axes_the_sweep_rejects_exit_2_and_make_no_directory(
        self, tmp_path, capsys, axes, message
    ):
        # fig3a pairs two phases. Its config accepts both axes lists, and
        # analysis.sweep rejects them.
        out_dir = tmp_path / "o"
        argv = ["sweep", "--config", str(REPO_CONFIGS / "fig3a.yaml"), "--output", str(out_dir),
                "--set", f"sweep.axes={axes}"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out_dir.exists()

    def test_config_axes_are_the_library_axes(self):
        # The config builds its scale and column per axis from the library's
        # axis names and its parameter keys; every library axis must be
        # reachable from a config file, and the config must offer no other.
        from magsqueeze.analysis import SWEEP_AXES
        from magsqueeze.config import _AXIS_COLUMNS

        assert set(_AXIS_COLUMNS) == SWEEP_AXES

    def test_unwritable_output_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        # The write's own error is the writability check: a permission bit is no
        # test here, since root may write through a read-only mode.
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "write_text", denied)
        out_dir = tmp_path / "o"
        argv = ["sweep", "--config", str(REPO_CONFIGS / "fig3a.yaml"), "--output", str(out_dir)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 13] Permission denied: '{out_dir / 'sweep.csv'}'\n"
        assert captured.out == ""
        assert list(out_dir.iterdir()) == []

    def test_output_naming_a_file_exits_2(self, tmp_path, capsys):
        out_file = tmp_path / "o"
        out_file.write_text("kept\n", encoding="utf-8")
        argv = ["sweep", "--config", str(REPO_CONFIGS / "fig3a.yaml"), "--output", str(out_file)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 17] File exists: '{out_file}'\n"
        assert captured.out == ""
        assert out_file.read_text(encoding="utf-8") == "kept\n"

    def test_axis_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # 2**59 points of 8 bytes exceed any x86-64 address space, so the
        # allocation fails before a page is touched.
        text = (REPO_CONFIGS / "fig3a.yaml").read_text(encoding="utf-8")
        cfg = tmp_path / "huge.yaml"
        cfg.write_text(text.replace("points: 101", f"points: {2**59}"), encoding="utf-8")
        out_dir = tmp_path / "o"
        assert cli.main(["sweep", "--config", str(cfg), "--output", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate 4.00 EiB")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_requires_sweep_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        assert cli.main(["sweep", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
        assert "sweep section" in capsys.readouterr().err


class TestWigner:
    def test_grids_normalized_and_nonnegative(self, tmp_path, capsys):
        tree = {
            "parameters": dict(BASE_PARAMETERS),
            "wigner": {
                "phases_rad": [0.0, 1.5707963267948966],
                "points_per_axis": 41,
                "extent_sigmas": 6.0,
            },
        }
        cfg = write_config(tmp_path, tree)
        out_dir = tmp_path / "out"
        assert cli.main(["wigner", "--config", cfg, "--output", str(out_dir)]) == 0
        for tag in ("0", "0p5"):
            table = read_csv(out_dir / f"wigner_theta_{tag}pi.csv")
            assert list(table.columns) == ["x", "y", "W"]
            assert len(table.columns["W"]) == 41 * 41
            w = np.array(table.columns["W"], dtype=float)
            assert np.all(w >= 0.0)
            meta = dict(table.metadata)
            assert float(meta["normalization_integral"]) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "phases, upsilon, code, message",
        [
            ([0.0, ".nan"], 3.9e6, 2, "wigner.phases_rad[1] must be finite"),
            ([0.0, 4.71238898038469], 6.0e6, 3, "drift matrix is not stable"),
        ],
    )
    def test_failing_phase_writes_no_file(self, tmp_path, capsys, phases, upsilon, code, message):
        # The first phase solves; the second is NaN or has no steady state. An
        # existing output directory gets no file, and an absent one is not made.
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        existing, absent = tmp_path / "out", tmp_path / "absent"
        existing.mkdir()
        overrides = ["--set", f"wigner.phases_rad=[{', '.join(map(str, phases))}]",
                     "--set", f"upsilon_over_2pi_hz={upsilon}"]
        for out_dir in (existing, absent):
            argv = ["wigner", "--config", cfg, "--output", str(out_dir), *overrides]
            assert cli.main(argv) == code
            assert message in capsys.readouterr().err
        assert list(existing.iterdir()) == []
        assert not absent.exists()

    def test_rejects_empty_phase_list(self, tmp_path, capsys):
        tree = {"parameters": dict(BASE_PARAMETERS), "wigner": {"phases_rad": []}}
        cfg = write_config(tmp_path, tree)
        assert cli.main(["wigner", "--config", cfg, "--output", str(tmp_path / "o")]) == 2


class TestValidate:
    def test_repo_config_passes(self, capsys):
        code = cli.main(["validate", "--config", str(REPO_CONFIGS / "validate.yaml")])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out
        assert "low-excitation PASS" in out
        assert "configured/derived" in out

    def test_overdriven_field_fails(self, tmp_path, capsys):
        params = dict(BASE_PARAMETERS, theta_rad=1.5707963267948966, h_d_tesla=2.87e-3,
                      sphere_diameter_m=250.0e-6)
        tree = {"parameters": params, "validate": {"kerr_over_2pi_hz": 6.4e-9}}
        cfg = write_config(tmp_path, tree)
        code = cli.main(["validate", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 1
        assert "overall: FAIL" in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rabi", ["1e120", "1e200", "1e305"])
    def test_overflowing_amplitude_fails(self, capsys, rabi):
        # The cube of the amplitude overflows at 1e120, its square too at 1e200;
        # at 1e305 its numerator overflows and the amplitude reads inf.
        code = cli.main(["validate", "--config", str(REPO_CONFIGS / "validate.yaml"),
                         "--set", f"rabi_rad_per_s={rabi}"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        assert ("validity: |m_s| = inf\n" in captured.out) == (rabi == "1e305")
        assert "low-excitation FAIL)\n" in captured.out
        assert "validity: Kerr/drive ratio = inf (threshold 0.5, FAIL)\n" in captured.out
        assert captured.out.endswith("overall: FAIL\n")

    def test_missing_kerr_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "kerr_over_2pi_hz" in capsys.readouterr().err

    def test_kerr_via_override(self, tmp_path, capsys):
        params = dict(BASE_PARAMETERS, theta_rad=1.5707963267948966, rabi_rad_per_s=1.48e15,
                      sphere_diameter_m=250.0e-6)
        cfg = write_config(tmp_path, {"parameters": params})
        code = cli.main(
            ["validate", "--config", cfg, "--set", "validate.kerr_over_2pi_hz=6.4e-9"]
        )
        assert code == 0

    def test_missing_drive_exits_2(self, tmp_path, capsys):
        tree = {"parameters": dict(BASE_PARAMETERS), "validate": {"kerr_over_2pi_hz": 6.4e-9}}
        cfg = write_config(tmp_path, tree)
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "drive" in capsys.readouterr().err

    @pytest.mark.parametrize("kerr, code, verdict", [(6.4e-9, 0, "PASS"), (6.4e-8, 1, "FAIL")])
    def test_zero_field_prints_no_ratio(self, kerr, code, verdict):
        # h_d = 0 derives a zero rabi; the configured rabi drives the checks.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "magsqueeze.cli", "validate",
             "--config", str(REPO_CONFIGS / "validate.yaml"),
             "--set", "h_d_tesla=0", "--set", f"validate.kerr_over_2pi_hz={kerr}"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (code, "")
        assert "drive: field-derived rabi = 0 rad/s\n" in done.stdout
        assert "drive: configured rabi = 1.48e+15 rad/s\n" in done.stdout
        assert done.stdout.endswith(f"overall: {verdict}\n")


@pytest.mark.parametrize("command, config", [("steady", "default.yaml"), ("validate", "validate.yaml")])
class TestOneSolvePerCommand:
    def test_one_derivation_and_one_eigensolve(self, monkeypatch, tmp_path, capsys, command, config):
        # The validity report reads the point's evaluation instead of solving it again.
        from magsqueeze import analysis, model

        calls = {"derive_many": 0, "eigvals": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        derive = counted("derive_many", model.derive_many)
        for module in (model, analysis):
            monkeypatch.setattr(module, "derive_many", derive)
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        argv = [command, "--config", str(REPO_CONFIGS / config), "--output", str(tmp_path)]
        assert cli.main(argv) == 0
        assert calls == {"derive_many": 1, "eigvals": 1}

    @pytest.mark.filterwarnings("error")
    def test_diffusion_near_the_float_range_solves(self, tmp_path, capsys, command, config):
        # Squares of the diffusion entries overflow; the residual norm is taken on
        # matrices scaled by max|Lambda|, and the bath kills the entanglement.
        code = cli.main([command, "--config", str(REPO_CONFIGS / config), "--output",
                         str(tmp_path), "--set", "temperature_value=1e300"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        if command == "steady":
            assert all(v == 0.0 for v in measure_lines(captured.out).values())
        else:
            assert captured.out.endswith("overall: PASS\n")


class TestOverflowVerdicts:
    """Inputs whose derived quantities leave the float range get a verdict and its exit code,
    with no numpy warning."""

    NON_FINITE = "error: gamma and diffusion must have finite entries\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("overrides", [
        ["g_a_over_2pi_hz=1e200"],  # g_a^2 overflows in the amplitude's mean-field system
        ["omega_b_over_2pi_hz=1e-300", "temperature_value=1e10"],  # n_b overflows
        ["temperature_value=1e306"],  # kappa (2 n + 1) overflows in the diffusion
    ])
    def test_steady_reports_non_finite(self, tmp_path, capsys, overrides):
        argv = ["steady", "--config", str(REPO_CONFIGS / "default.yaml"), "--output", str(tmp_path)]
        code = cli.main(argv + [arg for item in overrides for arg in ("--set", item)])
        assert (code, capsys.readouterr()) == (2, ("", self.NON_FINITE))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("override", ["g_a_over_2pi_hz=1e200", "temperature_value=1e308"])
    def test_validate_reports_non_finite(self, capsys, override):
        # The validity report takes no point without a finite drift and diffusion.
        code = cli.main(["validate", "--config", str(REPO_CONFIGS / "validate.yaml"),
                         "--set", override])
        assert (code, capsys.readouterr()) == (2, ("", self.NON_FINITE))

    @pytest.mark.filterwarnings("error")
    def test_wigner_of_a_hot_bath(self, tmp_path, capsys):
        # Squares of the covariance entries and the det of the magnon block overflow.
        code = cli.main(["wigner", "--config", str(REPO_CONFIGS / "wigner.yaml"), "--output",
                         str(tmp_path), "--set", "temperature_value=1e300"])
        assert (code, capsys.readouterr().err) == (0, "")
        for path in sorted(tmp_path.glob("wigner_theta_*.csv")):
            table = read_csv(path)
            assert np.isfinite(table.columns["W"]).all() and max(table.columns["W"]) > 0.0
            assert float(dict(table.metadata)["normalization_integral"]) == pytest.approx(1.0, abs=1e-6)


class TestThreads:
    @pytest.mark.parametrize(
        "command, config",
        [("steady", "default.yaml"), ("sweep", "fig3a.yaml"), ("wigner", "wigner.yaml"),
         ("validate", "validate.yaml")],
    )
    def test_below_one_exits_2_before_any_output(self, tmp_path, capsys, command, config):
        out_dir = tmp_path / "o"
        argv = [command, "--config", str(REPO_CONFIGS / config), "--output", str(out_dir)]
        assert cli.main(argv + ["--threads", "0"]) == 2
        captured = capsys.readouterr()
        assert "threads must be >= 1, got 0" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()


class TestRepoConfigs:
    def test_default_config_steady_runs(self, capsys):
        assert cli.main(["steady", "--config", str(REPO_CONFIGS / "default.yaml")]) == 0
        out = capsys.readouterr().out
        assert "E_mb = " in out

    def test_all_repo_configs_parse(self):
        from magsqueeze.config import load_config

        for path in sorted(REPO_CONFIGS.glob("*.yaml")):
            load_config(path)

    def test_readme_config_example_builds(self):
        from magsqueeze.config import build_run_config

        blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        config = build_run_config(yaml.safe_load(blocks[0]))
        assert config.sweep is not None and config.sweep.pairing is not None
        assert config.wigner.points_per_axis == 101 and config.wigner.extent_sigmas == 6.0
        assert config.kerr is not None


def yaml_documents() -> list[tuple[str, str]]:
    """(name, text) of every bundled config, the README example and the benchmark inputs."""
    docs = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(REPO_CONFIGS.glob("*.yaml"))]
    readme = README.read_text(encoding="utf-8")
    docs += [("README", block) for block in re.findall(r"```yaml\n(.*?)```", readme, re.S)]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    for name in sorted(workloads.WORKLOADS):
        for seed in range(21):
            tree = workloads.generate(name, seed).config
            docs.append((f"{name} seed {seed}", yaml.safe_dump(tree, sort_keys=False)))
    return docs


class TestYamlLoader:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="pyyaml built without libyaml")
    def test_libyaml_and_python_loaders_agree(self):
        from magsqueeze.config import _YAML_LOADER

        assert _YAML_LOADER is yaml.CSafeLoader
        for name, text in yaml_documents():
            fast = yaml.load(text, Loader=yaml.CSafeLoader)
            assert fast == yaml.load(text, Loader=yaml.SafeLoader), name
            assert fast["parameters"], name

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("parameters: {omega_a_over_2pi_hz: [10.0e9\n", encoding="utf-8")
        assert cli.main(["steady", "--config", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_malformed_override_value_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        assert cli.main(["steady", "--config", cfg, "--set", "upsilon_over_2pi_hz=[1, 2"]) == 2
        assert "cannot parse override value" in capsys.readouterr().err


class TestProcessEntry:
    def test_main_freezes_the_heap_alive_at_entry(self, tmp_path):
        cfg = write_config(tmp_path, {"parameters": dict(BASE_PARAMETERS)})
        script = (
            "import gc, sys\n"
            "from magsqueeze import cli\n"
            "before = gc.get_freeze_count()\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, before, gc.get_freeze_count(), file=sys.stderr)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script, "steady", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        code, before, after = (int(x) for x in done.stderr.split())
        assert code == 0
        assert after > before

    def test_library_calls_leave_the_collector_alone(self, params_factory):
        from magsqueeze.analysis import evaluate, sweep
        from magsqueeze.config import load_config

        # Earlier cli.main calls in this process froze their heap, and frozen objects
        # freed since then lower the count; start from an empty permanent generation.
        gc.unfreeze()
        load_config(REPO_CONFIGS / "default.yaml")
        evaluate([params_factory()])
        sweep(params_factory(), axes=[("upsilon", np.linspace(0.0, 2.0e7, 3))])
        assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "module",
    ["magsqueeze", *(f"magsqueeze.{layer}" for layer in
                     ("config", "model", "solver", "gaussian", "analysis", "tableio", "cli"))],
)
def test_every_exported_name_resolves(module):
    # perfbench/child.py --trace 1 looks up each __all__ name of these layers with getattr.
    loaded = importlib.import_module(module)
    assert [name for name in loaded.__all__ if not hasattr(loaded, name)] == []


def test_package_exports_each_modules_public_names():
    import magsqueeze
    from magsqueeze import analysis, errors, gaussian, model, solver

    modules = (errors, gaussian, model, solver, analysis)
    expected = ["__version__", *(name for module in modules for name in module.__all__)]
    assert magsqueeze.__all__ == expected
    assert len(set(expected)) == len(expected)
