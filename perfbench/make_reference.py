"""Regenerate the seed-0 reference outputs under perfbench/reference/.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py

Runs each workload once through the CLI, stores its sweep table whole, and
checks the ``map_direct`` reference against the bundled
``results/fig2/sweep.csv``: the stable mask must match exactly and values
within ``check.ATOL``.  The largest deviation goes into
reference/provenance.json.  Only regenerate the
references on purpose: every later run at seed 0 is compared with them.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import yaml

import workloads
from check import ATOL, REFERENCE_DIR, read_rows, rows_match

ROOT = Path(__file__).resolve().parents[1]
FIG2_POINTS = 61


def run_cli(workload: workloads.Workload, tmp: Path) -> str:
    """Text of the workload's output table after one CLI run."""
    config = tmp / f"{workload.name}.yaml"
    config.write_text(yaml.safe_dump(workload.config, sort_keys=False), encoding="utf-8")
    out = tmp / workload.name
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = "import sys; from magsqueeze.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, "sweep", "--config", str(config),
                    "--output", str(out), "--threads", "1"], env=env, check=True)
    return (out / workloads.OUTPUT).read_text(encoding="utf-8")


def max_deviation(got: list, want: list) -> float:
    return max((abs(a - b) for g, w in zip(got, want) for a, b in zip(g, w)
                if a is not None and b is not None), default=0.0)


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip()
    provenance: dict = {"source_commit": sha or "unknown", "atol": ATOL}
    tmp = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    for name in workloads.WORKLOADS:
        workload = workloads.generate(name, workloads.DEFAULT_SEED)
        text = run_cli(workload, tmp)
        with gzip.GzipFile(REFERENCE_DIR / f"{name}.csv.gz", "wb", mtime=0) as fh:
            fh.write(text.encode("utf-8"))

        if name == "map_direct":
            # The map_direct grid is every other point of the fig2 grid.
            got = read_rows(text)
            fig2 = read_rows((ROOT / "results" / "fig2" / "sweep.csv").read_text())
            n = workloads.MAP_POINTS
            step = (FIG2_POINTS - 1) // (n - 1)
            want = [fig2[step * (i * FIG2_POINTS + j)] for i in range(n) for j in range(n)]
            mismatched = sum(not rows_match(g, w) for g, w in zip(got, want))
            provenance["map_direct_vs_results_fig2"] = {
                "rows": len(got),
                "rows_compared": len(want),
                "mismatched_rows": mismatched,
                "max_abs_deviation": max_deviation(got, want),
            }
            if mismatched or len(got) != len(want):
                print(f"map_direct disagrees with results/fig2/sweep.csv in {mismatched} rows",
                      file=sys.stderr)
                return 1
    (REFERENCE_DIR / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n")
    print(json.dumps(provenance, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
