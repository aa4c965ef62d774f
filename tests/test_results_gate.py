"""Value-level regression gate: the bundled results/ against the commands that made them.

Each dataset is regenerated as ``scripts/reproduce_figures.py`` made it, by
running the ``sweep`` or ``wigner`` command in process on the full grid of its
config, and the regenerated file is compared with the stored one, column by
column.  A sweep's metadata lines (counts, axes, pairing, ideal-nonreciprocity
zones) must match exactly, and so must its axis and ``stable`` columns.  Its
measures must agree within ``ATOL``.

Byte identity holds only on one platform.  Across the OpenBLAS kernels of one
x86-64 host (native AVX-512, ``OPENBLAS_CORETYPE=Haswell`` and ``=Sandybridge``)
the measures move by at most 6.3e-14, but a contrast |f - b| / (f + b) divides
those moves by f + b: on the coupling maps, contrast cells moved by up to
1.7e-10.  So a contrast cell passes within ``contrast_tolerance`` of the stored
one: ``2 * MEASURE_EPS / (f + b)``, the first-order bound of the contrast's
change when each phase's measure moves by ``MEASURE_EPS``, and never less than
``ATOL``.  Cells whose f + b is below the contrast floor are 0 by rule and must
match exactly.

A Wigner grid's x, y and W columns and its normalization integral must agree
within ``ATOL``, and its other metadata lines exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from magsqueeze import cli
from magsqueeze.analysis import _CONTRAST_FLOOR, CONTRASTS, MEASURES
from magsqueeze.config import load_config
from magsqueeze.tableio import read_csv

ROOT = Path(__file__).resolve().parents[1]

# Measures agree with results/ within 6.3e-14 across BLAS kernels.
ATOL = 1e-12
# The largest move of one phase's measure that a contrast cell may reflect.  Without
# the ATOL floor, the largest any cell needs across the three kernels above is 7.5e-14.
MEASURE_EPS = 2.5e-13

SWEEPS = ("coupling_map_axial", "coupling_map_quarter", "fig2", "fig3a", "fig3c", "fig6a",
          "fig6c")


def run(command: str, name: str, out: Path, *overrides: str) -> None:
    """Run ``command`` on ``configs/<name>.yaml`` into ``out``, with ``--set`` overrides."""
    argv = [command, "--config", str(ROOT / "configs" / f"{name}.yaml"), "--output", str(out)]
    assert cli.main(argv + [arg for o in overrides for arg in ("--set", o)]) == 0


def contrast_tolerance(forward: np.ndarray, backward: np.ndarray) -> np.ndarray:
    """Per-cell tolerance of a contrast column, from each phase's measure (NaN where the
    phase is not steady, which enters the contrast as 0): 0 below the contrast floor."""
    total = np.nan_to_num(forward) + np.nan_to_num(backward)
    with np.errstate(divide="ignore"):
        tol = np.maximum(ATOL, 2.0 * MEASURE_EPS / total)
    return np.where(total < _CONTRAST_FLOOR, 0.0, tol)


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_matches_bundled_results(tmp_path, name):
    run("sweep", name, tmp_path / "run")
    got = read_csv(tmp_path / "run" / "sweep.csv")
    stored = read_csv(ROOT / "results" / name / "sweep.csv")

    assert got.metadata == stored.metadata
    assert list(got.columns) == list(stored.columns)
    backward = None
    if "C_R" in got.columns:
        # The same sweep with the pairing reversed: its forward measures are the backward phase's.
        pairing = load_config(ROOT / "configs" / f"{name}.yaml").sweep.pairing
        run("sweep", name, tmp_path / "reversed", "sweep.pairing={"
            f"theta_forward_rad: {pairing.theta_backward!r},"
            f" theta_backward_rad: {pairing.theta_forward!r}}}")
        backward = read_csv(tmp_path / "reversed" / "sweep.csv").columns

    for column, have in got.columns.items():
        want = stored.columns[column]
        if column in MEASURES:
            np.testing.assert_allclose(have, want, rtol=0.0, atol=ATOL, err_msg=column)
        elif column in CONTRASTS:
            measure = MEASURES[CONTRASTS.index(column)]
            tol = contrast_tolerance(got.columns[measure], backward[measure])
            np.testing.assert_array_equal(np.isnan(have), np.isnan(want), err_msg=column)
            past = np.abs(have - want) > tol  # False on the null cells, matched above
            assert not past.any(), (
                f"{column}: {int(past.sum())} cells past their tolerance, first at row"
                f" {int(np.argmax(past))}"
            )
        else:  # the axes and the stable column
            np.testing.assert_array_equal(have, want, err_msg=column)


@pytest.fixture(scope="module")
def wigner_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("wigner")
    run("wigner", "wigner", out)
    return out


@pytest.mark.parametrize("tag", ["0", "0p5", "1", "1p5"])
def test_wigner_matches_bundled_results(wigner_dir, tag):
    name = f"wigner_theta_{tag}pi.csv"
    got, stored = read_csv(wigner_dir / name), read_csv(ROOT / "results" / "wigner" / name)
    assert list(got.columns) == ["x", "y", "W"] == list(stored.columns)
    for column in got.columns:
        np.testing.assert_allclose(got.columns[column], stored.columns[column], rtol=0.0,
                                   atol=ATOL, err_msg=column)
    have, want = dict(got.metadata), dict(stored.metadata)
    norms = [float(meta.pop("normalization_integral")) for meta in (have, want)]
    assert norms[0] == pytest.approx(norms[1], rel=0.0, abs=ATOL)
    assert list(have.items()) == list(want.items())
