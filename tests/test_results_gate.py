"""Value-level regression gate: regenerated sweeps against the bundled results/.

Byte identity of the CSV files only holds on one platform, so each
dataset is recomputed through the library and compared by value: the
null (unstable) pattern must match exactly and every measure must agree
within ``ATOL``.  fig2 and the two coupling maps are checked at every
other point of both axes.  The Wigner grids are regenerated through the
``wigner`` command and compared on their x, y and W columns and their
normalization integral.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from magsqueeze import cli, sweep
from magsqueeze.config import load_config
from magsqueeze.tableio import ResultTable, read_csv, sweep_table

ROOT = Path(__file__).resolve().parents[1]

# Regenerated values agree with results/ to about 3e-13 across platforms.
ATOL = 1e-12

CASES = {
    "fig2": 2, "fig3a": 1, "fig3c": 1, "fig6a": 1, "fig6c": 1,
    "coupling_map_quarter": 2, "coupling_map_axial": 2,
}


def as_array(table: ResultTable, names: list[str]) -> np.ndarray:
    """The named columns of ``table`` as floats, one row per point, with empty cells as NaN."""
    return np.array(
        [[np.nan if cell is None else float(cell) for cell in table.columns[name]]
         for name in names]
    ).T


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_bundled_results(name):
    step = CASES[name]
    config = load_config(ROOT / "configs" / f"{name}.yaml")
    spec = config.sweep
    result = sweep(
        config.params,
        axes=[(axis.name, axis.si_values[::step]) for axis in spec.axes],
        pairing=spec.pairing,
    )
    got = sweep_table(
        result, [(axis.column_name, axis.display_values[::step]) for axis in spec.axes]
    )
    stored = read_csv(ROOT / "results" / name / "sweep.csv")

    # Row-major indices of the regenerated points in the stored full grid.
    shape = [len(axis.si_values) for axis in spec.axes]
    kept = np.ravel_multi_index(
        np.meshgrid(*[np.arange(0, n, step) for n in shape], indexing="ij"), shape
    ).reshape(-1)
    names = [c for c in got.columns if c not in [axis.column_name for axis in spec.axes]]
    want = as_array(stored, names)[kept]
    have = as_array(got, names)

    assert len(got.columns["stable"]) == len(kept)
    np.testing.assert_array_equal(np.isnan(have), np.isnan(want))
    np.testing.assert_allclose(have, want, rtol=0.0, atol=ATOL, equal_nan=True)


@pytest.fixture(scope="module")
def wigner_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("wigner")
    assert cli.main(["wigner", "--config", str(ROOT / "configs" / "wigner.yaml"),
                     "--output", str(out)]) == 0
    return out


@pytest.mark.parametrize("tag", ["0", "0p5", "1", "1p5"])
def test_wigner_matches_bundled_results(wigner_dir, tag):
    name = f"wigner_theta_{tag}pi.csv"
    got, stored = read_csv(wigner_dir / name), read_csv(ROOT / "results" / "wigner" / name)
    np.testing.assert_allclose(
        as_array(got, ["x", "y", "W"]), as_array(stored, ["x", "y", "W"]), rtol=0.0, atol=ATOL
    )
    norms = [float(dict(table.metadata)["normalization_integral"]) for table in (got, stored)]
    assert norms[0] == pytest.approx(norms[1], rel=0.0, abs=ATOL)
