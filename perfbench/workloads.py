"""Seeded inputs of the two benchmark workloads.

Each workload is one ``magsqueeze sweep`` CLI invocation driven by a
generated YAML config; it writes one table, ``OUTPUT``.  Seed 0 reproduces the reference inputs exactly; any other
seed jitters axis ends, phases and the drive by at most a few percent
while keeping the grid size, so the amount of work stays the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

OUTPUT = "sweep.csv"

TWO_PI = 2.0 * math.pi

# Operating point of configs/fig2.yaml.
_BASE = {
    "omega_a_over_2pi_hz": 10.0e9,
    "omega_m_over_2pi_hz": 10.0e9,
    "omega_b_over_2pi_hz": 10.0e6,
    "delta_a_over_2pi_hz": 10.0e6,
    "delta_m_over_2pi_hz": 10.0e6,
    "kappa_a_over_2pi_hz": 3.0e6,
    "kappa_m_over_2pi_hz": 0.6e6,
    "gamma_b_over_2pi_hz": 100.0,
    "g_a_over_2pi_hz": 4.8e6,
    "G_m_over_2pi_hz": 4.8e6,
    "upsilon_over_2pi_hz": 3.9e6,
    "theta_rad": 0.0,
    "temperature_value": 10,
    "temperature_unit": "mK",
}

# Grids are sized so one CLI run takes a few seconds and one measurement holds
# about fifteen runs; see NOTES.md for why fig2's full 61 x 61 grid is not used.
MAP_POINTS = 31
CONTRAST_POINTS = 21


@dataclass(frozen=True)
class Workload:
    """One generated input: its config and the number of rows it writes."""

    name: str
    config: dict
    rows: int


def _jitter(rng: random.Random | None, value: float, share: float) -> float:
    """``value`` scaled by a uniform factor in [1 - share, 1 + share]."""
    if rng is None:
        return value
    return value * (1.0 + share * (2.0 * rng.random() - 1.0))


def _shift(rng: random.Random | None, value: float, width: float) -> float:
    """``value`` moved by a uniform offset in [-width, width]."""
    if rng is None:
        return value
    return value + width * (2.0 * rng.random() - 1.0)


def map_direct(rng: random.Random | None) -> Workload:
    """The axes of configs/fig2.yaml at every other point: a 31 x 31 (upsilon, theta) map."""
    config = {
        "parameters": dict(_BASE),
        "sweep": {
            "axes": [
                {"name": "upsilon", "start": 0.0, "stop": _jitter(rng, 6.0e6, 0.02),
                 "points": MAP_POINTS},
                {"name": "theta", "start": abs(_shift(rng, 0.0, 0.01)),
                 "stop": _shift(rng, TWO_PI, 0.01), "points": MAP_POINTS},
            ]
        },
    }
    return Workload("map_direct", config, MAP_POINTS**2)


def contrast_driven(rng: random.Random | None) -> Workload:
    """(g_a, upsilon) map at the quarter pairing with G_m derived from a drive."""
    params = {k: v for k, v in _BASE.items()
              if k not in ("delta_a_over_2pi_hz", "delta_m_over_2pi_hz", "G_m_over_2pi_hz")}
    params.update({
        "omega_0_over_2pi_hz": 9.99e9,
        "g_m_over_2pi_hz": 0.2,
        "rabi_rad_per_s": _jitter(rng, 2.0e14, 0.02),
        "sphere_diameter_m": 250.0e-6,
        "theta_rad": 1.5 * math.pi,
    })
    config = {
        "parameters": params,
        "sweep": {
            "axes": [
                {"name": "g_a", "start": 0.0, "stop": _jitter(rng, 9.6e6, 0.02),
                 "points": CONTRAST_POINTS},
                {"name": "upsilon", "start": 0.0, "stop": _jitter(rng, 6.0e6, 0.02),
                 "points": CONTRAST_POINTS},
            ],
            "pairing": {
                "theta_forward_rad": _shift(rng, 0.5 * math.pi, 0.01),
                "theta_backward_rad": _shift(rng, 1.5 * math.pi, 0.01),
            },
        },
    }
    return Workload("contrast_driven", config, CONTRAST_POINTS**2)


WORKLOADS = {
    "map_direct": map_direct,
    "contrast_driven": contrast_driven,
}


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; seed 0 gives the unjittered reference input."""
    rng = None if seed == DEFAULT_SEED else random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng)
