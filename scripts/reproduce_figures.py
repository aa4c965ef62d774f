"""Regenerate every shipped figure dataset into results/.

Runs the CLI in-process over the configs under configs/, one output
directory per config, and prints a timing line per job.  Exit status is
the first nonzero CLI status encountered (remaining jobs still run).

Usage:
    python scripts/reproduce_figures.py [--output results] [--only fig6]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from magsqueeze import cli

ROOT = Path(__file__).resolve().parents[1]

JOBS: tuple[tuple[str, str], ...] = (
    ("fig2", "sweep"),
    ("fig3a", "sweep"),
    ("fig3c", "sweep"),
    ("fig6a", "sweep"),
    ("fig6c", "sweep"),
    ("coupling_map_quarter", "sweep"),
    ("coupling_map_axial", "sweep"),
    ("wigner", "wigner"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=str(ROOT / "results"))
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--only", default="", help="run only configs whose name contains this")
    args = parser.parse_args(argv)

    status = 0
    for name, command in JOBS:
        if args.only and args.only not in name:
            continue
        config = ROOT / "configs" / f"{name}.yaml"
        out_dir = Path(args.output) / name
        argv_job = [command, "--config", str(config), "--output", str(out_dir),
                    "--format", args.format]
        start = time.perf_counter()
        code = cli.main(argv_job)
        print(f"[{name}] exit {code} in {time.perf_counter() - start:.1f} s -> {out_dir}")
        if code != 0 and status == 0:
            status = code
    return status


if __name__ == "__main__":
    raise SystemExit(main())
