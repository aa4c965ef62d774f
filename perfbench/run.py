"""magsqueeze benchmark: one workload, closed loop of CLI processes.

Usage::

    python3 perfbench/run.py --workload map_direct --seed 0 --seconds 60 --trace 0

Run from the root of a checkout; the package is taken from ``src/``.
One caller launches one ``magsqueeze`` CLI process at a time with
``--threads 1`` and single-threaded BLAS, and starts the next one after
the previous one exits.  With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` untraced and
traced runs alternate and the JSON holds the per-layer metrics.  The
process exits 1 when an output check fails and 2 when the benchmark
cannot run at all.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"

# Every process of one benchmark run must end within this many seconds.
DEADLINE_S = 170.0
MIN_RUNS = 3

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SPANS = (
    "magsqueeze.import",
    "config.load_config",
    "analysis.sweep",
    "analysis.directional_measures",
    "analysis.steady_state",
    "model.derive",
    "model.build_drift",
    "model.build_diffusion",
    "solver.stability",
    "solver.solve_lyapunov",
    "gaussian.log_negativity",
    "gaussian.check_physicality",
    "gaussian.min_residual_contangle",
    "tableio.sweep_table",
    "tableio.write_csv",
    "cli.main",
)


@dataclass
class Run:
    """One child process: wall, set-up and CPU seconds, peak RSS and its report."""

    wall: float
    setup: float | None
    cpu: float
    rss_mb: float | None
    exit_code: int
    report: dict


class Bench:
    def __init__(self, workload: workloads.Workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.started = time.monotonic()
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out = self.dir / "out"
        self.out.mkdir(parents=True)
        self.config = self.dir / "input.yaml"
        import yaml

        self.config.write_text(yaml.safe_dump(workload.config, sort_keys=False), encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{k: "1" for k in THREAD_ENV})
        self.launches = 0
        self.samples: dict[str, list[float]] = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def launch(self, mode: str) -> Run:
        """Start one child, wait for it with wait4 and collect its CPU time and report."""
        self.launches += 1
        report_path = self.dir / f"report{self.launches}.json"
        (self.out / workloads.OUTPUT).unlink(missing_ok=True)
        cli = ["sweep", "--config", str(self.config), "--output", str(self.out), "--threads", "1"]
        with open(self.dir / "stderr.log", "ab") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(report_path), mode, "--", *cli],
                env=self.env, cwd=self.dir, stdout=subprocess.DEVNULL, stderr=err,
            )
            watchdog = threading.Timer(max(1.0, DEADLINE_S - self.elapsed()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGTERM, Ctrl-C): do not leave the child behind.
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = json.loads(report_path.read_text()) if report_path.is_file() else {}
        report_path.unlink(missing_ok=True)
        setup = report["setup_done"] - start if "setup_done" in report else None
        return Run(end - start, setup, usage.ru_utime + usage.ru_stime,
                   report.get("peak_rss_mb"), proc.returncode, report)

    def warm_up(self) -> None:
        """One unmeasured set-up launch, so bytecode caches and the page cache are warm."""
        run = self.launch("setup")
        if run.exit_code != 0 or run.setup is None:
            raise SystemExit(f"set-up launch failed with exit code {run.exit_code};"
                             f" see {self.dir / 'stderr.log'}")

    def more(self, durations: list[float], minimum: int) -> bool:
        """Another round fits: fewer than ``minimum`` so far, or one more ends in time."""
        if len(durations) < minimum:
            return True
        return self.elapsed() + statistics.median(durations) <= self.seconds


def end_to_end(bench: Bench, checker) -> tuple[dict, int, int, bool]:
    rows = bench.workload.rows
    bench.warm_up()
    runs: list[Run] = []
    failed = 0
    while bench.more([r.wall for r in runs], MIN_RUNS):
        run = bench.launch("run")
        runs.append(run)
        failed += checker.failed_rows(bench.out, run.exit_code)
    ok = all(r.exit_code == 0 and r.setup is not None for r in runs)
    timed = [r for r in runs if r.setup is not None]
    setups = [r.setup for r in timed]
    rss = [r.rss_mb for r in runs if r.rss_mb is not None]
    # Wall and CPU time are means over the runs and throughput is a ratio of
    # sums: the host's speed flips between fast and slow spells within one
    # measurement, and a median jumps between them where a mean does not.
    metrics = {
        "wall_s": (statistics.fmean(r.wall for r in runs), "s"),
        "rows_per_s": (rows * len(timed) / sum(r.wall - r.setup for r in timed) if timed else 0.0,
                       "1/s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "cpu_s": (statistics.fmean(r.cpu for r in runs), "s"),
        "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
    }
    bench.samples = {"wall_s": [r.wall for r in runs], "setup_s": setups,
                     "cpu_s": [r.cpu for r in runs], "peak_rss_mb": rss}
    print(f"{len(runs)} CLI runs")
    return metrics, rows * len(runs), failed, ok


def self_times(trace: dict) -> tuple[Counter, Counter, Counter]:
    """Calls, self nanoseconds and inclusive nanoseconds per span name."""
    names, name, start, end, parent = (trace[k] for k in ("names", "name", "start", "end", "parent"))
    duration = [e - s for s, e in zip(start, end)]
    children = [0] * len(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p] += duration[i]
    calls, self_ns, total_ns = Counter(), Counter(), Counter()
    for i, nid in enumerate(name):
        calls[names[nid]] += 1
        self_ns[names[nid]] += duration[i] - children[i]
        total_ns[names[nid]] += duration[i]
    return calls, self_ns, total_ns


def per_layer(bench: Bench, checker) -> tuple[dict, int, int, bool]:
    rows = bench.workload.rows
    bench.warm_up()
    plain: list[Run] = []
    traced: list[Run] = []
    pairs: list[float] = []
    failed = 0
    while bench.more(pairs, 1):
        for mode, runs in (("run", plain), ("trace", traced)):
            run = bench.launch(mode)
            runs.append(run)
            failed += checker.failed_rows(bench.out, run.exit_code)
        pairs.append(plain[-1].wall + traced[-1].wall)
    ok = all(r.exit_code == 0 for r in plain + traced)

    calls, self_ns, total_ns = Counter(), Counter(), Counter()
    errors, counts = Counter(), Counter()
    for run in traced:
        if "trace" not in run.report:
            ok = False
            continue
        c, s, t = self_times(run.report["trace"])
        calls += c
        self_ns += s
        total_ns += t
        errors.update(run.report["trace"]["errors"])
        counts.update(run.report["trace"]["counts"])
    traced_rows = rows * len(traced)
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.calls_per_row"] = (calls[span] / traced_rows, "calls/row")
        metrics[f"{span}.self_us_per_row"] = (self_ns[span] / 1e3 / traced_rows, "us/row")
        metrics[f"{span}.errors"] = (errors[span] / len(traced), "count")
    metrics["gaussian.covariance_validations_per_row"] = (
        counts["covariance_validations"] / traced_rows, "calls/row")
    metrics["model.brentq_share"] = (
        counts["brentq"] / calls["model.derive"] if calls["model.derive"] else 0.0, "share")
    output = bench.out / workloads.OUTPUT
    written = output.stat().st_size if output.is_file() else 0
    write_s = total_ns["tableio.write_csv"] / 1e9
    metrics["tableio.write_csv.mb_per_s"] = (
        written * len(traced) / 1e6 / write_s if write_s else 0.0, "MB/s")
    metrics["trace.overhead_share"] = (
        statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain) - 1.0,
        "share")
    print(f"{len(plain)} untraced and {len(traced)} traced CLI runs")
    return metrics, rows * (len(plain) + len(traced)), failed, ok


def environment() -> dict:
    """Versions, BLAS build and thread settings the numbers were measured with."""
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or sha
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": {k: "1" for k in THREAD_ENV},
        "cli_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="magsqueeze benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "magsqueeze" / "__init__.py").is_file():
        print(f"error: no magsqueeze package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in THREAD_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from check import Checker

    workload = workloads.generate(args.workload, args.seed)
    bench = Bench(workload, args.seconds)
    checker = Checker(workload, bench.config, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, ok = measure(bench, checker)
    correct = ok and failed == 0

    env = environment()
    print(f"workload {workload.name} seed {args.seed}: {workload.rows} rows per run,"
          f" closed loop, 1 caller, --threads 1")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(f"  {'failed_share':48s} {failed / attempted:.6g} share ({failed} of {attempted} rows)")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "samples": bench.samples, **result}
    (bench.dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
