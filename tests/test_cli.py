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
        assert table.columns == ["x_a", "p_a", "x_m", "p_m", "q", "p"]
        matrix = np.array(table.rows, dtype=float)
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
        assert "no steady state" in capsys.readouterr().err

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


def sweep_tree(**sweep_extra) -> dict:
    tree = {
        "parameters": dict(BASE_PARAMETERS),
        "sweep": {
            "axes": [
                {"name": "upsilon", "start": 0.0, "stop": 3.0e6, "points": 5},
            ],
        },
    }
    tree["sweep"].update(sweep_extra)
    return tree


class TestSweep:
    def test_csv_round_trip_matches_library(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep_tree())
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--output", str(out_dir)]) == 0
        table = read_csv(out_dir / "sweep.csv")
        assert len(table.rows) == 5
        assert table.column("upsilon_over_2pi_hz") == pytest.approx(
            list(np.linspace(0.0, 3.0e6, 5))
        )
        assert all(s == 1 for s in table.column("stable"))

        from conftest import TWO_PI, make_params
        from magsqueeze import sweep as run_sweep
        from magsqueeze.analysis import MEASURES

        grid = np.linspace(0.0, 3.0e6, 5) * TWO_PI
        direct = run_sweep(make_params(), [("upsilon", grid)])
        expected = direct.measures[:, MEASURES.index("E_mb")].tolist()
        assert table.column("E_mb") == expected  # repr round-trip is exact

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
        assert payload["columns"]["E_mb"] == table.column("E_mb")
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
        assert table.column("temperature_K") == pytest.approx([0.001, 0.0105, 0.020])
        keys = {key for key, _ in table.metadata}
        assert "pairing" in keys
        assert "ideal_zone C_E_am" in keys

    def test_measure_subset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep_tree(measures=["E_mb"]))
        out_dir = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--output", str(out_dir)]) == 0
        table = read_csv(out_dir / "sweep.csv")
        assert all(v is None for v in table.column("E_am"))
        assert all(v is not None for v in table.column("E_mb"))

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        tree = sweep_tree()
        tree["sweep"]["axes"][0]["name"] = "kappa_a"
        cfg = write_config(tmp_path, tree)
        assert cli.main(["sweep", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_config_axes_are_the_library_axes(self):
        # The sweepable axes are listed twice: the library's names and the
        # config's scale and column per name. An axis added to one list only
        # would be rejected by the other.
        from magsqueeze.analysis import SWEEP_AXES
        from magsqueeze.config import _AXIS_COLUMNS

        assert set(_AXIS_COLUMNS) == SWEEP_AXES

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep_tree())
        out_dir = tmp_path / "o"
        assert cli.main(["sweep", "--config", cfg, "--output", str(out_dir), "--threads", "0"]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err

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
            assert table.columns == ["x", "y", "W"]
            assert len(table.rows) == 41 * 41
            w = np.array(table.column("W"), dtype=float)
            assert np.all(w >= 0.0)
            meta = dict(table.metadata)
            assert float(meta["normalization_integral"]) == pytest.approx(1.0, abs=1e-3)

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


class TestThreads:
    @pytest.mark.parametrize(
        "command, config",
        [("steady", "default.yaml"), ("wigner", "wigner.yaml"), ("validate", "validate.yaml")],
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
