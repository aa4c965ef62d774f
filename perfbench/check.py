"""Output checks: stored reference outputs (seed 0) and a seeded scalar recompute.

Every CLI run's output is compared row by row.  A row fails when it is
missing, malformed, its stable/unstable (empty-cell) mask differs, or a
value differs by more than ``ATOL``.  A run that exits non-zero or leaves
its output file missing fails all of its rows.
"""

from __future__ import annotations

import gzip
import math
import random
from dataclasses import replace
from pathlib import Path

from workloads import DEFAULT_SEED, OUTPUT, Workload

# Absolute tolerance on every output value.  Reruns on one platform agree to
# the last bit; the bundled results/ reproduce across platforms to ~3e-13.
ATOL = 1e-9

# Rows recomputed through the scalar public API on every seed.
SAMPLE_ROWS = 8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

Row = list  # parsed CSV row: floats, with None for empty cells


def data_lines(text: str) -> list[str]:
    """Data lines of a CSV written by ``magsqueeze``, metadata and header removed."""
    return [line for line in text.split("\n") if line and not line.startswith("#")][1:]


def parse_row(line: str) -> Row:
    return [float(cell) if cell else None for cell in line.split(",")]


def read_rows(text: str) -> list[Row]:
    """Data rows of one CSV written by ``magsqueeze``."""
    return [parse_row(line) for line in data_lines(text)]


def rows_match(got: Row, want: Row) -> bool:
    """Same length, same empty-cell mask, and values within ``ATOL``."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if (a is None) != (b is None):
            return False
        if a is not None and not (math.isfinite(a) and abs(a - b) <= ATOL):
            return False
    return True


def _reference(workload: Workload) -> dict[int, Row]:
    """Stored seed-0 rows by row index."""
    with gzip.open(REFERENCE_DIR / f"{workload.name}.csv.gz", "rt", encoding="utf-8") as fh:
        return dict(enumerate(read_rows(fh.read())))


class Checker:
    """Checks the outputs of one workload's CLI runs; counts failed rows."""

    def __init__(self, workload: Workload, config_path: Path, seed: int) -> None:
        self.workload = workload
        self.reference = _reference(workload) if seed == DEFAULT_SEED else {}
        rng = random.Random(f"check:{workload.name}:{seed}")
        sample = sorted(rng.sample(range(workload.rows), SAMPLE_ROWS))
        self.expected = _scalar_rows(workload, config_path, sample)

    def failed_rows(self, out_dir: Path, exit_code: int) -> int:
        """Failed rows of one run whose outputs are in ``out_dir``.

        Every row is checked for its cell count and for non-finite values
        (the only letters a float's repr can hold besides ``e`` spell nan
        and inf); the sampled and reference rows are parsed and compared.
        """
        wl = self.workload
        path = out_dir / OUTPUT
        if exit_code != 0 or not path.is_file():
            return wl.rows
        lines = data_lines(path.read_text(encoding="utf-8"))
        if len(lines) != wl.rows:
            return wl.rows
        commas = lines[0].count(",")
        bad = {k for k, line in enumerate(lines) if line.count(",") != commas or "n" in line}
        for k, want in (*self.expected.items(), *self.reference.items()):
            if k in bad:
                continue
            try:
                if want is None or not rows_match(parse_row(lines[k]), want):
                    bad.add(k)
            except ValueError:
                bad.add(k)
        return len(bad)


def _scalar_rows(workload: Workload, config_path: Path, sample: list[int]) -> dict[int, Row | None]:
    """Recompute the sampled output rows through the scalar public API.

    A row whose recompute raises is expected as None, so it counts as failed.
    """
    from magsqueeze import (
        MagsqueezeError,
        ModePair,
        NoMeasuresError,
        bipartite_entanglement,
        build_drift,
        directional_measures,
        min_residual_contangle,
        stability,
        steady_state,
    )
    from magsqueeze.config import load_config

    config = load_config(config_path)

    def measures(v) -> list[float]:
        return [bipartite_entanglement(v, ModePair.CAVITY_MAGNON),
                bipartite_entanglement(v, ModePair.CAVITY_PHONON),
                bipartite_entanglement(v, ModePair.MAGNON_PHONON),
                min_residual_contangle(v)]

    def sweep_row(k: int) -> Row:
        axes = config.sweep.axes
        index = divmod(k, len(axes[-1].si_values)) if len(axes) == 2 else (k,)
        params = replace(config.params,
                         **{a.name: float(a.si_values[i]) for a, i in zip(axes, index)})
        row: Row = [float(a.display_values[i]) for a, i in zip(axes, index)]
        if config.sweep.pairing is None:
            if not stability(build_drift(params)).is_stable:
                return row + [0.0, None, None, None, None]
            return row + [1.0] + measures(steady_state(params))
        try:
            record = directional_measures(params, config.sweep.pairing)
        except NoMeasuresError:
            return row + [0.0] + [None] * 8
        f = record.forward
        return row + [float(f.stable), f.e_am, f.e_ab, f.e_mb, f.r_min,
                      record.c_am, record.c_ab, record.c_mb, record.c_r]

    expected: dict[int, Row | None] = {}
    for k in sample:
        try:
            expected[k] = sweep_row(k)
        except MagsqueezeError:
            expected[k] = None
    return expected
