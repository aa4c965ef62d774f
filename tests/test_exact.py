"""Measures and contrasts of sampled sweep cells against a 40-digit oracle.

The oracle starts from each state's float64 drift A and diffusion D, the ones
``evaluate`` solves.  It solves the 36-unknown Kronecker system
(I (x) A + A (x) I) vec V = -vec D with ``mpmath.lu_solve`` at 40 digits, so it
shares nothing with ``solver._vech_operator``.  It takes the six partial-transpose
spectra of V with ``test_symplectic.exact_spectrum`` and forms the measures and
contrasts from them at 40 digits.  ``exact_spectrum`` rounds each symplectic
eigenvalue to a float, which moves the sampled contrasts by at most 3e-11 (row 22
of contrast_driven) from an all-40-digit route.

The oracle cannot see an error upstream of the drift: it checks the Lyapunov
solve, the spectra and the measures, not the model.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from magsqueeze import evaluate, sweep
from magsqueeze.config import RunConfig, build_run_config, load_config
from magsqueeze.errors import OK
from magsqueeze.model import derive_many, diffusion_stack, drift_stack, gather

from test_symplectic import exact_spectrum

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

# Distance from the exact value allowed to a measure and to a contrast.  A contrast
# of two small tangles divides their rounding by their sum: row 22's C_R, whose R_min
# sum to 1.5e-7, is the one sampled cell past 1e-12 (about 6.4e-10).
MEASURE_ATOL = 1e-13
CONTRAST_ATOL = 1e-9

DIGITS = 40

# Grid indices of the sampled cells, one per axis; sweeps are row-major, so row
# 21 i + j of contrast_driven (21 x 21) is cell (i, j).
CELLS = {
    # Spread (upsilon, theta) points of the fig2 map.
    "fig2": [(10, 15), (30, 45), (40, 0), (60, 30)],
    # The (g_a, upsilon) cells of the quarter map whose C_R divides by the smallest
    # R_min sums (6.4e-10, 1.5e-9 and 3.7e-9): the contrasts most sensitive to rounding.
    "coupling_map_quarter": [(1, 17), (1, 15), (5, 29)],
    # Seed-0 rows 22, 29, 30, 31 (the benchmark's tightest C_R cells) and 200.
    "contrast_driven": [(1, 1), (1, 8), (1, 9), (1, 10), (9, 11)],
}


def run_config(name: str) -> RunConfig:
    if name == "contrast_driven":
        return build_run_config(workloads.generate(name, 0).config)
    return load_config(ROOT / "configs" / f"{name}.yaml")


def exact_covariance(drift: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """The 40-digit V of A V + V A^T = -D, as a 6x6 object array of mpf."""
    n = drift.shape[0]
    with mpmath.workdps(DIGITS):
        # Column-major vec: (A V)[i, j] takes A[i, m] V[m, j], (V A^T)[i, j] takes A[j, m] V[i, m].
        kron = mpmath.zeros(n * n, n * n)
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    kron[i + n * j, m + n * j] += drift[i, m]
                    kron[i + n * j, i + n * m] += drift[j, m]
        rhs = mpmath.matrix([-mpmath.mpf(diffusion[i, j]) for j in range(n) for i in range(n)])
        vec = mpmath.lu_solve(kron, rhs)
        return np.array([[vec[i + n * j] for j in range(n)] for i in range(n)], dtype=object)


def transposed(v: np.ndarray, modes: tuple[int, ...], flipped: int) -> np.ndarray:
    """The state of ``modes`` with the momentum of mode ``flipped`` reversed (exact in mpf)."""
    quadratures = [2 * m + s for m in modes for s in (0, 1)]
    signs = np.array([-1 if q == 2 * flipped + 1 else 1 for q in quadratures])
    return v[np.ix_(quadratures, quadratures)] * np.outer(signs, signs)


def exact_measures(v: np.ndarray) -> list:
    """E_am, E_ab, E_mb and R_min of a 40-digit three-mode state."""
    pairs = [(0, 1), (0, 2), (1, 2)]
    with mpmath.workdps(DIGITS):
        def negativity(w: np.ndarray):
            return max(mpmath.mpf(0), -mpmath.log(2 * mpmath.mpf(exact_spectrum(w)[0])))

        pair = [negativity(transposed(v, p, p[0])) for p in pairs]
        # The residual tangle of focus f: E(f|rest)^2 less E^2 of the two pairs holding f.
        residuals = [
            negativity(transposed(v, (0, 1, 2), f)) ** 2
            - sum(e**2 for p, e in zip(pairs, pair) if f in p)
            for f in range(3)
        ]
        return [*pair, max(mpmath.mpf(0), min(residuals))]


def exact_contrast(forward, backward):
    """|f - b| / (f + b) at 40 digits, 0 below the program's 1e-12 floor."""
    with mpmath.workdps(DIGITS):
        total = forward + backward
        return mpmath.mpf(0) if total < 1e-12 else abs(forward - backward) / total


@pytest.mark.parametrize("name", sorted(CELLS))
def test_sampled_cells_match_exact(name):
    config = run_config(name)
    spec = config.sweep
    pairing = spec.pairing
    thetas = (None,) if pairing is None else (pairing.theta_forward, pairing.theta_backward)
    measure_distance = contrast_distance = 0.0
    for cell in CELLS[name]:
        axes = [(axis.name, axis.si_values[[i]]) for axis, i in zip(spec.axes, cell)]
        base = replace(config.params, **{axis: float(values[0]) for axis, values in axes})
        points = [base if theta is None else replace(base, theta=theta) for theta in thetas]
        evaluation = evaluate(points)
        assert (evaluation.code == OK).all(), f"{name} cell {cell} is not steady at every phase"

        columns = gather(points)
        drifts = drift_stack(columns, derive_many(columns))
        exact = [exact_measures(exact_covariance(a, d))
                 for a, d in zip(drifts, diffusion_stack(columns))]
        measure_distance = max(measure_distance, *(
            float(abs(h - w)) for have, want in zip(evaluation.measures, exact)
            for h, w in zip(have, want)))
        if pairing is not None:
            contrasts = sweep(config.params, axes, pairing).contrasts[0]
            contrast_distance = max(contrast_distance, *(
                float(abs(have - exact_contrast(f, b))) for have, f, b in zip(contrasts, *exact)))
    assert measure_distance <= MEASURE_ATOL, f"{name}: a measure is {measure_distance:.3g} off"
    assert contrast_distance <= CONTRAST_ATOL, f"{name}: a contrast is {contrast_distance:.3g} off"
