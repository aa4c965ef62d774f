"""Run the benchmark over several seeds and summarise every metric.

Usage (from the root of a checkout)::

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 0,1 --out perfbench/baseline.json

For each workload in BENCHMARK.json this runs ``perfbench/run.py`` once per
seed with the configured ``run_seconds``, one run at a time.  Each
end-to-end metric gets its median, quartiles and spread (interquartile
range over median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles); each per-layer metric from the traced seeds gets its values.
The environment of the last run is recorded with the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"0,3,5"`` as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run: its result line, exit code, duration and per-CLI-run samples."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode},"
          f" correct {result.get('correct')}", file=sys.stderr, flush=True)
    record = ROOT / ".perfbench_work" / workload / "result.json"
    samples = json.loads(record.read_text()).get("samples", {}) if record.is_file() else {}
    return {"seed": seed, "exit_code": proc.returncode, "elapsed_s": elapsed,
            "samples": samples, **result}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace-seeds", type=seeds, default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    report: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = [run(name, seed, bench["run_seconds"], 0) for seed in args.seeds]
        traced = [run(name, seed, bench["run_seconds"], 1) for seed in args.trace_seeds]
        entry: dict = {
            "seeds": args.seeds,
            "elapsed_s": [round(r["elapsed_s"], 1) for r in runs + traced],
            "failed_seeds": [r["seed"] for r in runs + traced if not r.get("correct")],
            "wall_s_per_cli_run": [[round(v, 3) for v in r["samples"].get("wall_s", [])]
                                   for r in runs],
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in bench["end_to_end"] if all("metrics" in r for r in runs)},
        }
        if traced:
            entry["trace_seeds"] = args.trace_seeds
            entry["per_layer"] = {m["name"]: [r.get("metrics", {}).get(m["name"], {}).get("value")
                                              for r in traced]
                                  for m in bench["per_layer"]}
        report["workloads"][name] = entry
        result = ROOT / ".perfbench_work" / name / "result.json"
        if result.is_file():
            report["environment"] = json.loads(result.read_text())["environment"]
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in report["workloads"].items():
        for metric, s in entry["end_to_end"].items():
            print(f"{name:16s} {metric:12s} median {s['median']:.6g}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
