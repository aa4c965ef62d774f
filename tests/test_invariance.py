"""Invariances of the steady state that need no reference values.

Each property compares the package with itself under a transformation that
must leave the physics unchanged: a change of the unit of frequency, a
relabeling of the modes, or a local symplectic transformation of each mode.
The points are ``configs/default.yaml`` (direct ``G_m``) and the
``contrast_driven`` benchmark point (``G_m`` from ``g_m``, a drive and
``omega_0``, with the self-consistent shift), each at eight phases.  The
mean-field property compares the steady amplitude with the drift it feeds:
both come from one Hamiltonian, so ``m_s`` solves the drift's own linear
system, at drawn driven points.

Each tolerance is a small multiple of the largest difference measured on
the eight phases (x86_64, numpy 2.4 with OpenBLAS), stated beside it.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from magsqueeze import SystemParams
from magsqueeze.analysis import evaluate
from magsqueeze.config import load_config
from magsqueeze.gaussian import three_mode_measures
from magsqueeze.model import build_drift, derive_many

from conftest import TWO_PI

DEFAULT = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml").params

# The contrast_driven benchmark point at seed 0, without a direct G_m.
DRIVEN = SystemParams(
    omega_a=TWO_PI * 10e9, omega_m=TWO_PI * 10e9, omega_b=TWO_PI * 10e6,
    kappa_a=TWO_PI * 3e6, kappa_m=TWO_PI * 0.6e6, gamma_b=TWO_PI * 100.0,
    g_a=TWO_PI * 4.8e6, upsilon=TWO_PI * 3.9e6, theta=0.0, temperature=0.010,
    omega_0=TWO_PI * 9.99e9, g_m=TWO_PI * 0.2, rabi=2.0e14,
)

PHASES = TWO_PI * np.arange(8) / 8

# The fields in rad/s, and the temperature: k_B T / hbar is a frequency too.
# The drive scales with them, so the magnon amplitude m_s is unchanged.
FREQUENCIES = ("omega_a", "omega_m", "omega_b", "omega_0", "delta_a", "delta_m", "kappa_a",
               "kappa_m", "gamma_b", "g_a", "G_m", "g_m", "upsilon", "rabi", "temperature")

# Largest |change| of a measure on the eight phases: 1.6e-15 for default.yaml and
# 5.4e-14 for the driven point, whose shift iteration carries the rounding along.
UNITS_ATOL = {"default": 4e-15, "driven": 1.5e-13}
# Largest |change| under a cyclic relabeling: 9.9e-16.
RELABEL_ATOL = 2.5e-15
# Largest |change| under 20 drawn local transformations: 3.7e-15.
SYMPLECTIC_ATOL = 1e-14
# Largest relative |change| of m_s against the drift's linear system over the
# drawn points of seeds 0, 1 and 2: 2.8e-14 with direct detunings (500 draws
# each); 1.35e-8 with the shift (300 draws each), where m_s is the amplitude
# of the last trial detuning, one iterate before the returned one.
MEAN_FIELD_RTOL = {"direct": 1e-13, "shifted": 5e-8}

POINTS = {"default": DEFAULT, "driven": DRIVEN}


def at_phases(base: SystemParams) -> list[SystemParams]:
    return [replace(base, theta=float(theta)) for theta in PHASES]


@pytest.fixture(scope="module", params=sorted(POINTS))
def point(request):
    """The name of a point and its steady covariance matrices and measures at the phases."""
    evaluation = evaluate(at_phases(POINTS[request.param]))
    assert (evaluation.code == 0).all()
    return request.param, evaluation.covariances, evaluation.measures


@pytest.mark.parametrize("scale", [0.5, 3.0, 1000.0])
@pytest.mark.parametrize("name", sorted(POINTS))
def test_measures_do_not_depend_on_the_unit_of_frequency(name, scale):
    points = at_phases(POINTS[name])
    rescaled = [
        replace(p, **{f: scale * getattr(p, f) for f in FREQUENCIES if getattr(p, f) is not None})
        for p in points
    ]
    before, after = evaluate(points), evaluate(rescaled)
    np.testing.assert_array_equal(after.code, before.code)
    np.testing.assert_allclose(after.measures, before.measures, rtol=0, atol=UNITS_ATOL[name])


@pytest.mark.parametrize("shift", [1, 2])
def test_relabeled_modes_permute_the_pair_negativities(point, shift):
    _, covariances, measures = point
    # New mode k is old mode (k + shift) % 3.
    order = (np.arange(3) + shift) % 3
    quadratures = (2 * order[:, None] + [0, 1]).ravel()
    relabeled, code, _ = three_mode_measures(covariances[:, quadratures][:, :, quadratures])
    assert (code == 0).all()
    # E_am, E_ab, E_mb are the pairs (0, 1), (0, 2), (1, 2); R_min is symmetric.
    pairs = [(0, 1), (0, 2), (1, 2)]
    old = [pairs.index(tuple(sorted((order[i], order[j])))) for i, j in pairs]
    expected = measures[:, [*old, 3]]
    np.testing.assert_allclose(relabeled, expected, rtol=0, atol=RELABEL_ATOL)


def _local_symplectic(rng: np.random.Generator) -> np.ndarray:
    """S1 + S2 + S3 (direct sum), each a rotation, a squeeze by e^{+-r}, |r| <= 1, and a rotation."""
    def rotation(angle: float) -> np.ndarray:
        c, s = np.cos(angle), np.sin(angle)
        return np.array([[c, s], [-s, c]])

    s = np.zeros((6, 6))
    for k in range(3):
        first, second = rng.uniform(0.0, TWO_PI, 2)
        r = rng.uniform(-1.0, 1.0)
        s[2 * k:2 * k + 2, 2 * k:2 * k + 2] = (
            rotation(first) @ np.diag([np.exp(r), np.exp(-r)]) @ rotation(second)
        )
    return s


def test_local_symplectic_maps_leave_the_measures_unchanged(point):
    _, covariances, measures = point
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = _local_symplectic(rng)
        transformed, code, _ = three_mode_measures(s @ covariances @ s.T)
        assert (code == 0).all()
        np.testing.assert_allclose(transformed, measures, rtol=0, atol=SYMPLECTIC_ATOL)


def _drawn_driven_points(kind: str, count: int) -> list[SystemParams]:
    """``count`` drives of the driven point, at drawn detunings (``kind`` "direct")
    or drawn drive frequencies with the self-consistent shift ("shifted")."""
    rng = np.random.default_rng(0)
    points = []
    for _ in range(count):
        drawn = dict(
            g_a=TWO_PI * rng.uniform(0.0, 10e6), upsilon=TWO_PI * rng.uniform(0.0, 6.5e6),
            theta=rng.uniform(0.0, TWO_PI), rabi=rng.uniform(1e13, 4e14),
            kappa_m=TWO_PI * rng.uniform(0.2e6, 1.5e6),
        )
        if kind == "shifted":
            drawn["omega_0"] = TWO_PI * (10e9 - rng.uniform(2e6, 20e6))
        else:
            delta_a, delta_m = TWO_PI * rng.uniform(-20e6, 20e6, 2)
            drawn.update(omega_0=None, delta_a=delta_a, delta_m=delta_m)
        points.append(replace(DRIVEN, **drawn))
    return points


@pytest.mark.parametrize(("kind", "count"), [("direct", 500), ("shifted", 300)])
def test_steady_amplitude_solves_the_drifts_own_mean_field_system(kind, count):
    # The cavity-magnon block G of the drift with the drive f = (0, 0, sqrt(2) rabi, 0)
    # holds the mean-field equations: G x = -f and m_s = (x_m + i p_m) / sqrt(2).
    for p in _drawn_driven_points(kind, count):
        derived = derive_many([p])
        assert derived.code[0] == 0
        x = -np.linalg.solve(build_drift(p)[:4, :4], [0.0, 0.0, np.sqrt(2.0) * p.rabi, 0.0])
        m = (x[2] + 1j * x[3]) / np.sqrt(2.0)
        np.testing.assert_allclose(derived.m_s[0], m, rtol=MEAN_FIELD_RTOL[kind], atol=0)
