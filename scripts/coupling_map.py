"""Map nonreciprocity contrast over the cavity-magnon coupling and squeezing amplitude.

Sweeps a 2-D (g_a, upsilon) grid at a fixed phase pairing on top of the
default working point and writes one CSV with the four contrast columns.
The quarter pairing compares {pi/2, 3pi/2} (detuning-split asymmetry),
the axial pairing {0, pi} (dissipation-split asymmetry).

Usage:
    python scripts/coupling_map.py [--pairing quarter|axial] [--points 61]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from magsqueeze import PhasePairing, sweep
from magsqueeze.config import load_config
from magsqueeze.tableio import sweep_table, write_csv

ROOT = Path(__file__).resolve().parents[1]
TWO_PI = 2.0 * np.pi

PAIRINGS = {
    "quarter": PhasePairing(0.5 * np.pi, 1.5 * np.pi),
    "axial": PhasePairing(0.0, np.pi),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairing", choices=sorted(PAIRINGS), default="quarter")
    parser.add_argument("--points", type=int, default=61)
    parser.add_argument("--g-a-max-hz", type=float, default=9.6e6,
                        help="upper edge of the g_a/2pi grid (Hz)")
    parser.add_argument("--upsilon-max-hz", type=float, default=6.0e6,
                        help="upper edge of the upsilon/2pi grid (Hz)")
    parser.add_argument("--output", default=str(ROOT / "results"))
    args = parser.parse_args(argv)

    config = load_config(ROOT / "configs" / "default.yaml")
    pairing = PAIRINGS[args.pairing]
    g_a_hz = np.linspace(0.0, args.g_a_max_hz, args.points)
    ups_hz = np.linspace(0.0, args.upsilon_max_hz, args.points)

    start = time.perf_counter()
    result = sweep(
        config.params,
        [("g_a", TWO_PI * g_a_hz), ("upsilon", TWO_PI * ups_hz)],
        pairing=pairing,
    )
    elapsed = time.perf_counter() - start

    table = sweep_table(
        result,
        axis_columns=[("g_a_over_2pi_hz", g_a_hz), ("upsilon_over_2pi_hz", ups_hz)],
        extra_metadata=[
            ("command", "coupling_map"),
            ("pairing", f"theta_forward_rad={pairing.theta_forward!r}"
                        f" theta_backward_rad={pairing.theta_backward!r}"),
        ],
    )
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"coupling_map_{args.pairing}.csv"
    write_csv(table, path)
    print(f"{len(table.rows)} points in {elapsed:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
