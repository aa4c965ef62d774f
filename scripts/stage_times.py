"""Per-stage wall time of one sweep, in process or per CLI launch.

By default, runs the seed-0 input of each benchmark workload
(``perfbench/workloads.py``, read only) through ``analysis.sweep`` and
``tableio.sweep_table`` and ``tableio.write_csv`` (into a temporary
directory), as the ``sweep`` command does, and times the stages of the
operating-point path:
``derive_many``, ``drift_stack``, ``diffusion_stack``, ``steady_stack`` and
``three_mode_measures`` are wrapped in timers where ``magsqueeze.analysis``
binds them, from outside the package, and the table build and the CSV write
are timed around their calls.  ``sweep_other`` is the rest of ``sweep``, and
``total`` runs from the sweep to the written file.  Every stage is reported
as the median and quartiles over the repeats, in microseconds per table row.

With ``--launch``, each repeat is instead one full ``magsqueeze sweep`` CLI
process per workload, started as the benchmark starts them (``--threads 1``,
single-threaded BLAS, one unmeasured warm-up launch first).  A launch is split
into three phases, in milliseconds: ``setup`` from process start to the return
of ``load_config``, ``run`` from there to the return of ``cli.main`` and
``exit`` from there to the end of the process (interpreter shutdown).

The run is stored under ``--label`` in the JSON file ``--output`` (other
labels in that file are kept; stage runs under ``runs``, launch runs under
``launch_runs``), with the repeat count, the git sha of the timed checkout,
the hash of the git tree of the timed ``src`` directory (with any uncommitted
changes to it), the machine and the numpy and BLAS versions.  ``--src`` times
another checkout's ``src`` directory with the same inputs.

Usage:
    python scripts/stage_times.py --output BENCH.json [--label change] [--repeats 21]
                                  [--src DIR] [--launch]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Single-threaded BLAS, as in the benchmark; must be set before numpy loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import yaml  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

WORKLOADS = ("map_direct", "contrast_driven")
WRAPPED = ("derive_many", "drift_stack", "diffusion_stack", "steady_stack", "three_mode_measures")
STAGES = (*WRAPPED, "sweep_other", "sweep_table", "write_csv", "total")
PHASES = ("setup", "run", "exit", "total")

# The process of one --launch repeat: the CLI entry point, with CLOCK_MONOTONIC
# stamps (the parent's clock too) when load_config and main return.
LAUNCH_CHILD = """\
import json, sys, time
from magsqueeze import cli
stamps, load_config = {}, cli.load_config
def stamped(*args, **kwargs):
    config = load_config(*args, **kwargs)
    stamps.setdefault("config", time.monotonic_ns())
    return config
cli.load_config = stamped
try:
    code = cli.main(sys.argv[2:])
finally:
    stamps["main"] = time.monotonic_ns()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
sys.exit(code)
"""


def _git(src: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _tree_sha(src: Path, dirty: bool) -> str | None:
    """The git tree of the tracked files under ``src`` as they are in its checkout, so
    that an edit elsewhere (a document, a BENCH file) leaves it unchanged.

    With uncommitted changes under ``src`` that is ``src``'s tree in ``git stash
    create``'s commit, which snapshots them without touching the working tree or
    any ref; otherwise it is ``src``'s tree at HEAD.
    """
    commit = _git(src, "stash", "create") if dirty else "HEAD"
    return _git(src, "rev-parse", f"{commit}:./") if commit else None


def _machine() -> dict[str, object]:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"arch": platform.machine(), "cpu": cpu, "logical_cpus": os.cpu_count(),
            "system": platform.system(), "python": platform.python_version()}


def _versions() -> dict[str, object]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {name: os.environ.get(name) for name in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def _runners(src: Path, out: Path):
    """One closure per workload that runs its sweep, table build and CSV write into ``out`` once."""
    sys.path.insert(0, str(src))
    config = importlib.import_module("magsqueeze.config")
    analysis = importlib.import_module("magsqueeze.analysis")
    tableio = importlib.import_module("magsqueeze.tableio")
    elapsed = dict.fromkeys(STAGES, 0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed[name] += time.perf_counter_ns() - start
        return wrapper

    for name in WRAPPED:
        setattr(analysis, name, timed(name, getattr(analysis, name)))

    def runner(name: str):
        workload = workloads.generate(name, 0)
        run = config.build_run_config(workload.config)
        spec = run.sweep
        axes = [(axis.name, axis.si_values) for axis in spec.axes]
        display = [(axis.column_name, axis.display_values) for axis in spec.axes]

        def once() -> dict[str, int]:
            elapsed.update(dict.fromkeys(STAGES, 0))
            start = time.perf_counter_ns()
            result = analysis.sweep(run.params, axes=axes, pairing=spec.pairing)
            middle = time.perf_counter_ns()
            table = tableio.sweep_table(result, axis_columns=display)
            built = time.perf_counter_ns()
            tableio.write_csv(table, out / f"{name}.csv")
            end = time.perf_counter_ns()
            assert len(table.columns["stable"]) == workload.rows
            elapsed["sweep_other"] = middle - start - sum(elapsed[n] for n in WRAPPED)
            elapsed["sweep_table"], elapsed["write_csv"] = built - middle, end - built
            elapsed["total"] = end - start
            return dict(elapsed)

        return workload.rows, once

    return {name: runner(name) for name in WORKLOADS}


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def measure(src: Path, repeats: int) -> dict[str, object]:
    out: dict[str, object] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (rows, once) in _runners(src, Path(tmp)).items():
            once()  # warm-up: first-call costs (caches, lazy imports) are not per-point work
            samples = [once() for _ in range(repeats)]
            stages = {stage: _quartiles([s[stage] / 1e3 / rows for s in samples])
                      for stage in STAGES}
            out[name] = {"rows": rows, "us_per_row": stages}
    return out


def measure_launches(src: Path, repeats: int) -> dict[str, object]:
    env = dict(os.environ, PYTHONPATH=str(src))
    out: dict[str, object] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            workload = workloads.generate(name, 0)
            work = Path(tmp) / name
            work.mkdir()
            config, report = work / "input.yaml", work / "stamps.json"
            config.write_text(yaml.safe_dump(workload.config, sort_keys=False), encoding="utf-8")
            argv = [sys.executable, "-c", LAUNCH_CHILD, str(report), "sweep", "--config",
                    str(config), "--output", str(work / "out"), "--threads", "1"]

            def once() -> dict[str, int]:
                start = time.monotonic_ns()
                subprocess.run(argv, env=env, cwd=work, stdout=subprocess.DEVNULL, check=True)
                end = time.monotonic_ns()
                stamps = json.loads(report.read_text(encoding="utf-8"))
                return {"setup": stamps["config"] - start, "run": stamps["main"] - stamps["config"],
                        "exit": end - stamps["main"], "total": end - start}

            once()  # warm-up: bytecode and page caches, as the benchmark's set-up launch
            samples = [once() for _ in range(repeats)]
            phases = {phase: _quartiles([s[phase] / 1e6 for s in samples]) for phase in PHASES}
            out[name] = {"rows": workload.rows, "ms": phases}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--output", type=Path, required=True, help="JSON file to write or update")
    parser.add_argument("--label", default="change", help="key of this run in the file")
    parser.add_argument("--repeats", type=int, default=21, help="timed sweeps per workload")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the checkout to time (default: this one)")
    parser.add_argument("--launch", action="store_true",
                        help="time the phases of whole CLI launches instead of in-process stages")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    src = args.src.resolve()
    timed = measure_launches(src, args.repeats) if args.launch else measure(src, args.repeats)
    dirty = bool(_git(src, "status", "--porcelain", "--untracked-files=no", "--", "."))
    run = {
        "git_sha": _git(src, "rev-parse", "HEAD"),
        "tree_sha": _tree_sha(src, dirty),
        "uncommitted_changes": dirty,
        "repeats": args.repeats,
        "machine": _machine(),
        "versions": _versions(),
        "workloads": timed,
    }
    try:
        report = json.loads(args.output.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = {}
    if args.launch:
        runs, field, unit = "launch_runs", "ms", "ms/launch"
        report["launch_unit"] = "milliseconds per CLI launch, by phase (median and quartiles)"
    else:
        runs, field, unit = "runs", "us_per_row", "us/row"
        report["unit"] = "microseconds per table row (median and quartiles over the repeats)"
    report.setdefault(runs, {})[args.label] = run
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, result in timed.items():
        cells = ", ".join(f"{key} {v['median']:.1f}" for key, v in result[field].items())
        print(f"{args.label} {name} ({unit}): {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
