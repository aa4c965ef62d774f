from __future__ import annotations

import numpy as np
import pytest

from magsqueeze import CovarianceMatrix, MagsqueezeError, Partition, SystemParams, log_negativity
from magsqueeze.errors import verdict_error

TWO_PI = 2.0 * np.pi
KAPPA_A = TWO_PI * 3e6

# Reference operating point: resonant red-detuned drive, squeezing 1.3 kappa_a
# at phase 3pi/2, 10 mK bath, direct effective coupling.
BASE_PARAMS: dict[str, float] = dict(
    omega_a=TWO_PI * 10e9,
    omega_m=TWO_PI * 10e9,
    omega_b=TWO_PI * 10e6,
    kappa_a=KAPPA_A,
    kappa_m=KAPPA_A / 5.0,
    gamma_b=TWO_PI * 100.0,
    g_a=TWO_PI * 4.8e6,
    G_m=TWO_PI * 4.8e6,
    delta_a=TWO_PI * 10e6,
    delta_m=TWO_PI * 10e6,
    upsilon=1.3 * KAPPA_A,
    theta=1.5 * np.pi,
    temperature=0.010,
)


def make_params(**overrides: float) -> SystemParams:
    merged = dict(BASE_PARAMS)
    merged.update(overrides)
    return SystemParams(**merged)


def verdict(code: int, value: float = np.nan) -> MagsqueezeError | None:
    """The exception of a verdict code and its quoted value, None for ok."""
    return verdict_error(code, value) if code else None


def focus_residuals(state: CovarianceMatrix) -> list[float]:
    """The unclamped residual tangle E(f|jk)^2 - (E(f|j)^2 + E(f|k)^2) of each focus mode f."""
    out = []
    for focus in range(3):
        j, k = (m for m in range(3) if m != focus)
        total, pair_j, pair_k = (log_negativity(state, Partition({focus}, party)) ** 2
                                 for party in ({j, k}, {j}, {k}))
        out.append(total - (pair_j + pair_k))
    return out


@pytest.fixture(scope="session")
def params_factory():
    return make_params
