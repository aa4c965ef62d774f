"""Per-stage wall time of one sweep, measured in this process.

Runs the seed-0 input of each benchmark workload (``perfbench/workloads.py``,
read only) through ``analysis.sweep`` and ``tableio.sweep_table``, as the
``sweep`` command does, and times the stages of the operating-point path:
``derive_many``, ``drift_stack``, ``diffusion_stack``, ``steady_stack`` and
``three_mode_measures`` are wrapped in timers where ``magsqueeze.analysis``
binds them, from outside the package, and the table build is timed around
its call.  ``sweep_other`` is the rest of ``sweep``.  Every stage is reported
as the median and quartiles over the repeats, in microseconds per table row.

The run is stored under ``--label`` in the JSON file ``--output`` (other
labels in that file are kept), with the repeat count, the git sha of the
timed checkout, the machine and the numpy and BLAS versions.  ``--src``
times another checkout's ``src`` directory with the same inputs.

Usage:
    python scripts/stage_times.py --output BENCH.json [--label change] [--repeats 21] [--src DIR]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS, as in the benchmark; must be set before numpy loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("map_direct", "contrast_driven")
WRAPPED = ("derive_many", "drift_stack", "diffusion_stack", "steady_stack", "three_mode_measures")
STAGES = (*WRAPPED, "sweep_other", "sweep_table", "total")


def _git(src: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


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


def _runners(src: Path):
    """One closure per workload that runs its sweep and table build once."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    config = importlib.import_module("magsqueeze.config")
    analysis = importlib.import_module("magsqueeze.analysis")
    tableio = importlib.import_module("magsqueeze.tableio")
    workloads = importlib.import_module("workloads")
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
            result = analysis.sweep(run.params, axes=axes, pairing=spec.pairing,
                                    measures=spec.measures)
            middle = time.perf_counter_ns()
            table = tableio.sweep_table(result, axis_columns=display)
            end = time.perf_counter_ns()
            assert len(table.rows) == workload.rows
            elapsed["sweep_other"] = middle - start - sum(elapsed[n] for n in WRAPPED)
            elapsed["sweep_table"], elapsed["total"] = end - middle, end - start
            return dict(elapsed)

        return workload.rows, once

    return {name: runner(name) for name in WORKLOADS}


def measure(src: Path, repeats: int) -> dict[str, object]:
    out: dict[str, object] = {}
    for name, (rows, once) in _runners(src).items():
        once()  # warm-up: first-call costs (caches, lazy imports) are not per-point work
        samples = [once() for _ in range(repeats)]
        stages = {}
        for stage in STAGES:
            us = np.array([s[stage] for s in samples]) / 1e3 / rows
            q1, median, q3 = np.percentile(us, [25, 50, 75])
            stages[stage] = {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}
        out[name] = {"rows": rows, "us_per_row": stages}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--output", type=Path, required=True, help="JSON file to write or update")
    parser.add_argument("--label", default="change", help="key of this run in the file")
    parser.add_argument("--repeats", type=int, default=21, help="timed sweeps per workload")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory of the checkout to time (default: this one)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    src = args.src.resolve()
    run = {
        "git_sha": _git(src, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(src, "status", "--porcelain", "--untracked-files=no")),
        "repeats": args.repeats,
        "machine": _machine(),
        "versions": _versions(),
        "workloads": measure(src, args.repeats),
    }
    try:
        report = json.loads(args.output.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = {}
    report["unit"] = "microseconds per table row (median and quartiles over the repeats)"
    report.setdefault("runs", {})[args.label] = run
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, result in run["workloads"].items():
        cells = ", ".join(f"{stage} {v['median']:.1f}" for stage, v in result["us_per_row"].items())
        print(f"{args.label} {name} (us/row): {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
