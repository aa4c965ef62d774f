"""End-to-end CLI checks: config handling, outputs, exit codes."""

from __future__ import annotations

import gc
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import NormalDist
from typing import NamedTuple

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze import cli
from magsqueeze.config import _AXIS_COLUMNS
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

    def test_unstable_point_reads_the_same_in_steady_and_wigner(self, tmp_path, capsys):
        # default.yaml's phase, as the one wigner phase: both commands solve the same point.
        argv = ["--config", str(REPO_CONFIGS / "default.yaml"), "--output", str(tmp_path),
                "--set", "upsilon_over_2pi_hz=6.0e6"]
        assert cli.main(["steady", *argv]) == 3
        steady_err = capsys.readouterr().err
        assert cli.main(["wigner", *argv, "--set", "wigner.phases_rad=[4.71238898038469]"]) == 3
        assert capsys.readouterr().err == steady_err

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

    def test_config_axes_are_the_library_axes(self):
        # The config builds its scale and column per axis from the library's
        # axis names and its parameter keys; every library axis must be
        # reachable from a config file, and the config must offer no other.
        from magsqueeze.analysis import SWEEP_AXES

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


# Exit contracts. run_cli checks what every exit keeps; each Exit row adds its code and message.


def run_cli(tmp_path: Path, command: str, config: str | dict, args: str = "") -> tuple[int, str]:
    """Run ``magsqueeze <command> --config <config> --output <tmp_path>/<command> <args>``
    in-process with warnings raised as errors, and return its exit code and stderr.

    ``config`` names a file in configs/, or is a tree or YAML text. Every exit is 0-4; exits 0
    and 1 print nothing on stderr, exits 2-4 one ``error:`` line (a YAML parse error continues
    it on lines of its own) and nothing on stdout, and a non-zero exit makes no output directory.
    """
    if isinstance(config, str) and config.endswith(".yaml"):
        path = REPO_CONFIGS / config
    else:
        path = tmp_path / "run.yaml"
        text = config if isinstance(config, str) else yaml.safe_dump(config)
        path.write_text(text, encoding="utf-8")
    out_dir = tmp_path / command
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main([command, "--config", str(path), "--output", str(out_dir),
                         *shlex.split(args)])
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in range(5), (code, err)
    if code < 2:
        assert err == ""
    else:
        assert out == "" and err.startswith("error: ") and "\nerror:" not in err, (out, err)
    assert code == 0 or not out_dir.exists()
    return code, err


class Exit(NamedTuple):
    """``run_cli(command, config, args)`` exits ``code``, and for 2-4 prints ``error: <message>``;
    a ``message`` ending in "..." states only the start of the line."""

    test: str  # the id it runs under: [class::]function[[parameter id]]
    command: str
    config: str | dict
    args: str
    code: int
    message: str = ""


def check_exit(row: Exit, tmp_path: Path) -> None:
    code, err = run_cli(tmp_path, row.command, row.config, row.args)
    message = err[len("error: "):-1]
    if row.message.endswith("..."):
        message = message[:len(row.message) - 3] + "..."
    assert (code, message) == (row.code, row.message)


def base(**changes) -> dict:
    """A tree of BASE_PARAMETERS updated by ``changes``; a change to None deletes its key."""
    params = {k: v for k, v in {**BASE_PARAMETERS, **changes}.items() if v is not None}
    return {"parameters": params}


def edited(config: str, old: str, new: str) -> str:
    """The text of configs/``config`` with ``old`` replaced by ``new``."""
    text = (REPO_CONFIGS / config).read_text(encoding="utf-8")
    assert old in text
    return text.replace(old, new)


KERR = {"validate": {"kerr_over_2pi_hz": 6.4e-9}}
UNSTABLE = "drift matrix is not stable (max eigenvalue real part ..."
NON_FINITE = "gamma and diffusion must have finite entries"
TINY_RATES = " ".join(f"--set {rate}_over_2pi_hz=1.6e-309" for rate in (
    "omega_b", "delta_a", "delta_m", "kappa_a", "kappa_m", "gamma_b", "g_a", "G_m", "upsilon"))
TEMPERATURE_AXIS = {"name": "temperature", "start": 1.0, "stop": 2.0, "points": 2}

EXITS = [
    Exit("TestSteady::test_unstable_point_exits_3", "steady", base(),
         "--set upsilon_over_2pi_hz=6.0e6", 3, UNSTABLE),
    *(Exit(f"TestSteady::test_zero_sphere_diameter_exits_2[drive{k}]", "steady",
           {**base(h_d_tesla=2.87e-5, **drive), **KERR}, "--set sphere_diameter_m=0", 2,
           "invalid parameters: sphere_diameter must be positive")
      for k, drive in enumerate([{"rabi_rad_per_s": 1.48e15}, {}])),
    Exit("TestSteady::test_zero_cavity_frequency_exits_2", "steady", base(omega_a_over_2pi_hz=0),
         "", 2, "invalid parameters: omega_a must be positive"),
    Exit("TestSteady::test_integer_past_the_float_range_exits_2", "steady", "default.yaml",
         f"--set omega_a_over_2pi_hz=1{'0' * 400}", 2,
         "invalid parameters: omega_a must be finite"),
    *(Exit(f"TestSteady::test_nonfinite_parameter_exits_2[{value}]", "steady", base(),
           f"--set upsilon_over_2pi_hz={value}", 2, "invalid parameters: upsilon must be finite")
      for value in [".nan", ".inf", "-.inf"]),
    Exit("TestSteady::test_missing_key_is_named", "steady", base(upsilon_over_2pi_hz=None), "", 2,
         "missing required parameter keys: ['upsilon_over_2pi_hz']"),
    Exit("TestSteady::test_missing_keys_message", "steady",
         {"parameters": {"G_m_over_2pi_hz": 4.8e6}}, "", 2,
         "missing required parameter keys: ['omega_a_over_2pi_hz', 'omega_m_over_2pi_hz',"
         " 'omega_b_over_2pi_hz', 'kappa_a_over_2pi_hz', 'kappa_m_over_2pi_hz',"
         " 'gamma_b_over_2pi_hz', 'g_a_over_2pi_hz', 'upsilon_over_2pi_hz', 'theta_rad',"
         " 'temperature_value', 'temperature_unit']"),
    Exit("TestYamlLoader::test_null_parameters_section_exits_2", "steady", "parameters:\n",
         "--set upsilon_over_2pi_hz=1", 2,
         "missing required parameter keys: ['omega_a_over_2pi_hz', ..."),
    Exit("TestSteady::test_unknown_parameter_key_rejected", "steady", base(coupling_hz=1.0), "", 2,
         "unknown parameter keys: ['coupling_hz']"),
    # The spin density, spin number and gyromagnetic ratio are YIG constants.
    *(Exit(f"TestSteady::test_fixed_yig_constants_are_unknown_keys[{key}]", "steady",
           base(**{key: 1.0}), "", 2, f"unknown parameter keys: ['{key}']")
      for key in ["spin_density_per_m3", "spin_s", "gyromagnetic_rad_per_s_per_t"]),
    *(Exit(f"TestSteady::test_temperature_units_named[{key}]", "steady",
           base(temperature_unit=unit), "", 2,
           f"temperature_unit must be 'mK' or 'K', got {unit!r}")
      for key, unit in [("C", "C"), ("unit1", ["mK"])]),
    *(Exit(f"TestSweep::test_temperature_axis_units_named[{key}]", "sweep",
           {**base(), "sweep": {"axes": [dict(TEMPERATURE_AXIS, unit=unit)]}}, "", 2,
           f"temperature axis unit must be 'mK' or 'K', got {unit!r}")
      for key, unit in [("C", "C"), ("unit1", ["mK"])]),
    Exit("TestSteady::test_unknown_section_rejected", "steady", {**base(), "plotting": {}}, "", 2,
         "unknown config sections: ['plotting']"),
    Exit("TestSteady::test_missing_file_exits_2", "steady", "nope.yaml", "", 2,
         f"config file not found: {REPO_CONFIGS / 'nope.yaml'}"),
    Exit("TestSteady::test_malformed_override_exits_2", "steady", base(), "--set upsilon", 2,
         "override 'upsilon' is not of the form key=value"),
    Exit("TestYamlLoader::test_malformed_file_exits_2", "steady",
         "parameters: {omega_a_over_2pi_hz: [10.0e9\n", "", 2, "cannot parse ..."),
    Exit("TestYamlLoader::test_malformed_override_value_exits_2", "steady", base(),
         "--set 'upsilon_over_2pi_hz=[1, 2'", 2, "cannot parse override value '[1, 2': ..."),
    *(Exit(f"test_nonfinite_section_value_exits_2[{command}-{key}-{value}]", command, base(),
           f"--set {key}={value}", 2, message)
      for command, key, message in [
          ("wigner", "wigner.extent_sigmas", "wigner.extent_sigmas must be positive and finite"),
          ("validate", "validate.kerr_over_2pi_hz",
           "kerr_over_2pi_hz must be non-negative and finite")]
      for value in [".nan", ".inf", "-.inf"]),
    *(Exit(f"test_sphere_without_a_finite_spin_count_exits_2[{command}-{config}]", command, config,
           "--set sphere_diameter_m=1e120", 2,
           "invalid parameters: sphere_diameter must give a finite spin count")
      for command, config in [("steady", "default.yaml"), ("validate", "validate.yaml")]),
    Exit("TestSweep::test_requires_sweep_section", "sweep", base(), "", 2,
         "the sweep command needs a sweep section in the config"),
    Exit("TestSweep::test_unknown_axis_exits_2", "sweep",
         {**base(), "sweep": {"axes": [dict(TEMPERATURE_AXIS, name="kappa_a")]}}, "", 2,
         "unknown sweep axis 'kappa_a'; valid axes: ..."),
    # fig3a pairs two phases. Its config accepts both axes lists, and analysis.sweep rejects them.
    *(Exit(f"TestSweep::test_axes_the_sweep_rejects_exit_2_and_make_no_directory[{key}]", "sweep",
           "fig3a.yaml", f"--set 'sweep.axes={axes}'", 2, message)
      for key, axes, message in [
          ("theta_with_pairing", "[{name: theta, start: 0, stop: 1, points: 3}]",
           "a theta axis cannot be combined with a phase pairing"),
          ("duplicate_names", "[{name: upsilon, start: 0, stop: 1, points: 3},"
           " {name: upsilon, start: 0, stop: 2, points: 3}]",
           "duplicate axis names: ['upsilon', 'upsilon']")]),
    *(Exit(f"TestSweep::test_axis_ends_past_the_float_range_exit_2[{key}]", "sweep",
           edited("fig3a.yaml", "start: 0.0, stop: 6.0e6", ends), "", 2,
           "sweep.axes[0].start must be finite in SI units")
      for key, ends in [
          ("inf_start", "start: .inf, stop: 6.0e6"),
          ("start_past_si", "start: 1.0e308, stop: 6.0e6"),
          ("ends_past_si", "start: -1.0e308, stop: 1.0e308")]),
    # 2**59 points of 8 bytes exceed any x86-64 address space, so the allocation fails
    # before a page is touched.
    Exit("TestSweep::test_axis_too_large_to_allocate_exits_2", "sweep",
         edited("fig3a.yaml", "points: 101", f"points: {2**59}"), "", 2,
         "Unable to allocate 4.00 EiB..."),
    Exit("TestWigner::test_rejects_empty_phase_list", "wigner",
         {**base(), "wigner": {"phases_rad": []}}, "", 2, "wigner.phases_rad must not be empty"),
    Exit("TestWigner::test_points_past_the_index_range_exit_2", "wigner", "wigner.yaml",
         "--set wigner.points_per_axis=9223372036854775808", 2,
         "wigner.points_per_axis must be at most 9223372036854775807"),
    # The magnon's largest standard deviation is 0.90-1.18 at the four phases of wigner.yaml,
    # so every extent is finite and every span 2 * extent overflows.
    Exit("TestWigner::test_grid_span_past_the_float_range_exits_2", "wigner", "wigner.yaml",
         "--set wigner.extent_sigmas=1e308", 2,
         "wigner.extent_sigmas = 1e+308 gives a grid span that is not finite"),
    Exit("TestWigner::test_unstable_point_exits_3", "wigner", "wigner.yaml",
         "--set upsilon_over_2pi_hz=1e9", 3, UNSTABLE),
    Exit("TestValidate::test_missing_kerr_exits_2", "validate", base(), "", 2,
         "the validate command needs validate.kerr_over_2pi_hz in the config"),
    Exit("TestValidate::test_missing_drive_exits_2", "validate", {**base(), **KERR}, "", 2,
         "validity checks need a drive: set rabi, or h_d with sphere_diameter"),
    Exit("TestValidate::test_kerr_via_override", "validate",
         base(theta_rad=1.5707963267948966, rabi_rad_per_s=1.48e15, sphere_diameter_m=250.0e-6),
         "--set validate.kerr_over_2pi_hz=6.4e-9", 0),
    # g_a^2 overflows the amplitude's mean-field system, omega_b the thermal occupation, and
    # temperature_value=1e306 kappa (2 n + 1) in the diffusion; a g_m that overflows the
    # coupling it forms from a drive gives the point's drift an infinite entry.
    *(Exit(f"TestOverflowVerdicts::test_steady_reports_non_finite[{key}]", "steady", config,
           args, 2, NON_FINITE)
      for key, config, args in [
          ("overrides0", "default.yaml", "--set g_a_over_2pi_hz=1e200"),
          ("overrides1", "default.yaml",
           "--set omega_b_over_2pi_hz=1e-300 --set temperature_value=1e10"),
          ("overrides2", "default.yaml", "--set temperature_value=1e306"),
          ("formed_coupling", edited("default.yaml", "  G_m_over_2pi_hz: 4.8e6\n", ""),
           "--set g_m_over_2pi_hz=1e302")]),
    *(Exit(f"TestOverflowVerdicts::test_validate_reports_non_finite[{override}]", "validate",
           "validate.yaml", f"--set {override}", 2, NON_FINITE)
      for override in ["g_a_over_2pi_hz=1e200", "temperature_value=1e306",
                       "temperature_value=1e308"]),
    Exit("TestOverflowVerdicts::test_wigner_reports_non_finite", "wigner", "wigner.yaml",
         "--set temperature_value=1e306", 2, NON_FINITE),
    # With G_m set, the coupling a drive would form is not used, and its overflow is silent.
    # default.yaml's validity checks fail at any g_m.
    *(Exit(f"TestOverflowVerdicts::test_unused_coupling_overflow_is_silent[{command}]", command,
           config, f"--set g_m_over_2pi_hz=1e302 {args}", code)
      for command, config, args, code in [
          ("steady", "default.yaml", "", 0), ("validate", "default.yaml", "", 1),
          ("wigner", "default.yaml", "", 0),
          ("sweep", "fig3a.yaml", "--set rabi_rad_per_s=1.48e15", 0)]),
    # fig2's point at 0 K with its nine rates at 1.6e-309 Hz solves like its 1.6 Hz twin.
    Exit("TestOverflowVerdicts::test_float_min_rates_solve", "steady", "fig2.yaml",
         f"{TINY_RATES} --set temperature_value=0", 0),
    *(Exit(f"TestThreads::test_below_one_exits_2_before_any_output[{command}-{config}]", command,
           config, "--threads 0", 2, "threads must be >= 1, got 0")
      for command, config in [("steady", "default.yaml"), ("sweep", "fig3a.yaml"),
                              ("wigner", "wigner.yaml"), ("validate", "validate.yaml")]),
]


def _define_exit_tests(rows: list[Exit]) -> None:
    """Define each test the rows name, which runs its rows through ``check_exit``.

    Rows that replaced a hand-written test keep its id, so a report or a deselection that
    names it still does."""
    assert len({row.test for row in rows}) == len(rows)
    tests: dict[str, dict[str, Exit]] = {}
    for row in rows:
        name, _, param = row.test.partition("[")
        tests.setdefault(name, {})[param[:-1]] = row
    for name, params in tests.items():
        if list(params) == [""]:
            def test(tmp_path, row=params[""]):
                check_exit(row, tmp_path)
        else:
            @pytest.mark.parametrize("row", list(params.values()), ids=list(params))
            def test(tmp_path, row):
                check_exit(row, tmp_path)
        owner, _, function = name.rpartition("::")
        if owner:
            setattr(globals().setdefault(owner, type(owner, (), {})), function, staticmethod(test))
        else:
            globals()[function] = test


_define_exit_tests(EXITS)


BUNDLED = [yaml.safe_load(path.read_text(encoding="utf-8"))
           for path in sorted(REPO_CONFIGS.glob("*.yaml"))]
PHASES = st.floats(0.0, 2.0 * math.pi)


@st.composite
def drawn_configs(draw) -> dict:
    """A bundled config's parameters, each number kept (12 in 16, so that many configs still
    solve), scaled log-normally (2 in 16), set to 0 or drawn log-uniformly from 1e-320 to 1e308,
    with 1-2 axes of at most 5 points drawn the same way around its values, an optional phase
    pairing, and drawn wigner and validate blocks."""
    def near(value: float) -> float:
        how = draw(st.sampled_from(["zero", "draw", "scale", "scale", *["keep"] * 12]))
        if how == "scale":
            value *= math.exp(NormalDist(0.0, 2.0).inv_cdf(draw(st.floats(1e-3, 1.0 - 1e-3))))
        elif how != "keep":
            value = 0.0 if how == "zero" else 10.0 ** draw(st.floats(-320.0, 308.0))
        return value

    params = {key: value if key == "temperature_unit" else near(float(value))
              for key, value in draw(st.sampled_from(BUNDLED))["parameters"].items()}
    axes = []
    for name in draw(st.lists(st.sampled_from(sorted(_AXIS_COLUMNS)), min_size=1, max_size=2,
                              unique=True)):
        around = params.get(_AXIS_COLUMNS[name][1], 1.0)
        axes.append({"name": name, "start": near(around), "stop": near(around),
                     "points": draw(st.integers(1, 5))})
        if name == "temperature":
            axes[-1]["unit"] = draw(st.sampled_from(["mK", "K"]))
    sweep = {"axes": axes}
    if draw(st.booleans()):
        sweep["pairing"] = {"theta_forward_rad": draw(PHASES), "theta_backward_rad": draw(PHASES)}
    wigner = {"phases_rad": draw(st.lists(PHASES, min_size=1, max_size=2)),
              "points_per_axis": draw(st.integers(2, 9)), "extent_sigmas": near(6.0)}
    return {"parameters": params, "sweep": sweep, "wigner": wigner,
            "validate": {"kerr_over_2pi_hz": near(6.4e-9)}}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn_configs())
def test_every_drawn_config_keeps_the_exit_contract(tree):
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("steady", "sweep", "wigner", "validate"):
            run_cli(Path(tmp), command, tree)
