"""The batched self-consistent detuning shift against a scalar oracle.

The oracle is the scalar algorithm the batched solver replaced: plain
fixed-point iteration, then downward bracketing and ``scipy.optimize.brentq``
with the same tolerances.  Its amplitude is the closed form of the drift's
cavity-magnon mean-field system, in which the squeezing drive enters as
-upsilon (kappa_a^2 + delta_a^2) e^{-i theta}.  It applies the same pole rule
as the batched solver: the pole at the bare detuning is a resonance, a later
trial on the pole counts as a positive residual, and the returned root must
be off it.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from magsqueeze import ParametricResonanceError, SystemParams, cli, model
from magsqueeze.analysis import _CHUNK
from magsqueeze.model import _brentq, derive_many

from conftest import TWO_PI, verdict

SRC = Path(__file__).resolve().parents[1] / "src"

# Agreement of the batched and the scalar effective detuning.
RTOL = 1e-11

# Operating point of the contrast_driven benchmark workload at seed 0:
# drive at 9.99 GHz, bare magnomechanical coupling 0.2 Hz, Rabi drive 2e14 rad/s.
DRIVEN = SystemParams(
    omega_a=TWO_PI * 10e9, omega_m=TWO_PI * 10e9, omega_b=TWO_PI * 10e6,
    kappa_a=TWO_PI * 3e6, kappa_m=TWO_PI * 0.6e6, gamma_b=TWO_PI * 100.0,
    g_a=TWO_PI * 4.8e6, upsilon=TWO_PI * 3.9e6, theta=1.5 * np.pi, temperature=0.010,
    omega_0=TWO_PI * 9.99e9, g_m=TWO_PI * 0.2, rabi=2.0e14, sphere_diameter=250e-6,
)
G_A_AXIS = TWO_PI * np.linspace(0.0, 9.6e6, 21)
UPSILON_AXIS = TWO_PI * np.linspace(0.0, 6.0e6, 21)
PHASES = (0.5 * np.pi, 1.5 * np.pi)


def _amplitude(p: SystemParams, delta_a: float, delta_bar: float) -> complex | None:
    """Scalar steady magnon amplitude, the closed-form solution of the drift's
    cavity-magnon block with the drive; None within the 1e-6 pole tolerance."""
    kappa_minus = (p.kappa_a - 1j * delta_a) * (p.kappa_m - 1j * delta_bar) + p.g_a**2
    kappa_plus = (p.kappa_a + 1j * delta_a) * (p.kappa_m + 1j * delta_bar) + p.g_a**2
    weight = delta_a**2 + p.kappa_a**2
    denominator = kappa_minus * kappa_plus - p.upsilon**2 * weight
    if abs(denominator) <= 1e-6 * (abs(kappa_minus * kappa_plus) + p.upsilon**2 * weight):
        return None
    numerator = kappa_minus * (1j * delta_a + p.kappa_a) - p.upsilon * weight * np.exp(-1j * p.theta)
    return complex(numerator / denominator * p.rabi)


def oracle(p: SystemParams, trials_may_hit_pole: bool = True) -> tuple[float, str]:
    """Effective detuning and the path that found it ("fixed_point" or "brentq").

    With ``trials_may_hit_pole`` False any trial on the pole raises, as the
    scalar solver did before the pole rule.
    """
    delta_a, delta_m = p.omega_a - p.omega_0, p.omega_m - p.omega_0

    def shifted(delta_bar: float) -> float | None:
        m = _amplitude(p, delta_a, delta_bar)
        if m is None and not trials_may_hit_pole:
            raise ParametricResonanceError("trial on the pole")
        return None if m is None else delta_m - p.g_m**2 * abs(m) ** 2 / p.omega_b

    delta_bar = delta_m
    for iteration in range(200):
        updated = shifted(delta_bar)
        if updated is None:
            if iteration == 0:
                raise ParametricResonanceError("pole at the bare detuning")
            break
        if abs(updated - delta_bar) <= 1e-9 * max(1.0, abs(updated)):
            return updated, "fixed_point"
        delta_bar = updated

    def residual(delta_bar: float) -> float:
        updated = shifted(delta_bar)
        return math.inf if updated is None else delta_bar - updated

    hi = delta_m
    step = max(abs(residual(hi)), p.kappa_m)
    lo = hi - step
    for _ in range(200):
        if residual(lo) < 0.0:
            break
        step *= 2.0
        lo = hi - step
    else:
        raise ParametricResonanceError("no fixed point below the bare detuning")
    root = brentq(residual, lo, hi, xtol=1e-12 * max(1.0, abs(delta_m)))
    updated = shifted(root)
    if updated is None:
        raise ParametricResonanceError("root on the pole")
    return updated, "brentq"


def assert_matches_oracle(points: list[SystemParams]) -> list[str]:
    """Check ``derive_many`` point by point in one call, as ``evaluate`` makes it;
    returns the oracle's path for each point."""
    derived = derive_many(points)
    paths = []
    for k, p in enumerate(points):
        try:
            want, path = oracle(p)
        except ParametricResonanceError:
            assert isinstance(verdict(derived.code[k]), ParametricResonanceError)
            paths.append("resonance")
            continue
        assert derived.code[k] == 0, (p, verdict(derived.code[k]))
        assert derived.delta_m_bar[k] == pytest.approx(want, rel=RTOL, abs=0.0)
        paths.append(path)
    return paths


def contrast_driven_points() -> list[SystemParams]:
    """The 882 phase points of the contrast_driven workload at seed 0, in sweep order."""
    return [
        replace(DRIVEN, g_a=float(g_a), upsilon=float(upsilon), theta=theta)
        for g_a in G_A_AXIS for upsilon in UPSILON_AXIS for theta in PHASES
    ]


def test_contrast_driven_axes_match_the_oracle():
    paths = assert_matches_oracle(contrast_driven_points())
    # Both paths are exercised: 136 of the 882 points need the bracket search.
    assert paths.count("brentq") == 136
    assert paths.count("fixed_point") == 746


driven_point = st.builds(
    lambda g_a, upsilon, theta, rabi, detuning, kappa_m: replace(
        DRIVEN, g_a=TWO_PI * g_a, upsilon=TWO_PI * upsilon, theta=theta, rabi=rabi,
        omega_0=TWO_PI * (10e9 - detuning), kappa_m=TWO_PI * kappa_m,
    ),
    st.floats(0.0, 10e6),
    st.floats(0.0, 6.5e6),
    st.floats(0.0, 6.28),
    st.floats(1e13, 4e14),
    st.floats(2e6, 20e6),
    st.floats(0.2e6, 1.5e6),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(driven_point, min_size=1, max_size=80))
def test_drawn_driven_points_match_the_oracle(points):
    assert_matches_oracle(points)


def test_one_batch_equals_the_chunked_batches():
    # Every step of the shift is elementwise, so how points are grouped
    # into calls changes no bit of any derived field.
    points = contrast_driven_points()
    whole = derive_many(points)
    chunks = [derive_many(points[start:start + _CHUNK]) for start in range(0, len(points), _CHUNK)]
    for field in whole._fields:
        chunked = np.concatenate([getattr(chunk, field) for chunk in chunks])
        assert chunked.shape == (len(points),)
        np.testing.assert_array_equal(getattr(whole, field), chunked)


def test_amplitude_system_is_built_once_per_derive(monkeypatch):
    # The detuning-free part of the mean-field system is built once, for every
    # point, and serves the fixed-point iteration and the bracket search alike.
    calls = []

    def counted(c, delta_bar):
        calls.append(np.size(delta_bar))
        return block(c, delta_bar)

    block = model._magnon_block
    monkeypatch.setattr(model, "_magnon_block", counted)
    derived = derive_many(model.gather(contrast_driven_points()))
    assert len(calls) == 1
    assert (derived.code == 0).all()


def test_single_point_derive_is_the_batch_of_one():
    points = [replace(DRIVEN, upsilon=float(u), theta=1.5 * np.pi) for u in UPSILON_AXIS[15:]]
    batch = derive_many(points)
    for k, p in enumerate(points):
        one = derive_many([p])
        assert one.delta_m_bar[0] == batch.delta_m_bar[k]
        assert one.m_s[0] == batch.m_s[k]


def test_pole_on_a_fixed_point_trial_no_longer_fails_the_point():
    # A driven point of the drawn domain (g_a 8.05 MHz, upsilon 5.16 MHz,
    # drive detuning 10.65 MHz, kappa_m 1.36 MHz): the scalar fixed-point
    # iteration passes within 1e-6 of the pole at its 42nd amplitude (a trial
    # at 6.20e7 rad/s); the bracket search then finds the root.
    p = replace(
        DRIVEN, g_a=50599381.52357393, upsilon=32400117.623820905,
        theta=1.3063629209329588, rabi=175308012766477.06,
        omega_0=62764957010.15164, kappa_m=8561661.95053774,
    )
    with pytest.raises(ParametricResonanceError):
        oracle(p, trials_may_hit_pole=False)
    d = derive_many([p])
    assert d.code[0] == 0
    delta_m_bar, q_s = d.delta_m_bar[0], -p.g_m * abs(complex(d.m_s[0])) ** 2 / p.omega_b
    assert delta_m_bar == pytest.approx(oracle(p)[0], rel=RTOL)
    assert delta_m_bar == pytest.approx(5.9514044095e7, rel=1e-9)
    assert delta_m_bar == pytest.approx(p.omega_m - p.omega_0 + p.g_m * q_s, rel=1e-9)


def test_brent_port_matches_brentq_bit_for_bit():
    # Polynomials and a rational function (pole at x = 2, outside the
    # bracket) in plain float arithmetic, identical in numpy and in Python.
    coefficients = np.array([2.0, 0.5, 7.0, 1e-3, 40.0])
    lo, hi = np.array([-1.0, -3.0, 0.0, -5.0, 2.5]), np.array([4.0, 3.0, 10.0, 5.0, 9.0])

    def f(x, c):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(c == 40.0, (x - 7.0) / (x - 2.0), x * x * x - c * x - 5.0)

    xtol = np.full(lo.size, 2e-12)
    roots = _brentq(lambda x: f(x, coefficients), lo, hi,
                    f(lo, coefficients), f(hi, coefficients), xtol)
    for k, c in enumerate(coefficients):
        want = brentq(lambda x: float(f(np.float64(x), c)), lo[k], hi[k], xtol=2e-12)
        assert roots[k] == want


def test_sweep_runs_without_scipy(tmp_path):
    # Upsilon from 5.4 to 6.0 MHz at g_a = 4.8 MHz: the backward phase needs
    # the bracket search there.
    upsilon_hz = np.linspace(5.4e6, 6.0e6, 3)
    paths = [oracle(replace(DRIVEN, upsilon=TWO_PI * u, theta=theta))[1]
             for u in upsilon_hz for theta in PHASES]
    assert "brentq" in paths

    parameters = {
        "omega_a_over_2pi_hz": 10.0e9, "omega_m_over_2pi_hz": 10.0e9,
        "omega_b_over_2pi_hz": 10.0e6, "omega_0_over_2pi_hz": 9.99e9,
        "kappa_a_over_2pi_hz": 3.0e6, "kappa_m_over_2pi_hz": 0.6e6,
        "gamma_b_over_2pi_hz": 100.0, "g_a_over_2pi_hz": 4.8e6,
        "g_m_over_2pi_hz": 0.2, "rabi_rad_per_s": 2.0e14, "sphere_diameter_m": 250e-6,
        "upsilon_over_2pi_hz": 3.9e6, "theta_rad": 1.5 * np.pi,
        "temperature_value": 10, "temperature_unit": "mK",
    }
    sweep = {
        "axes": [{"name": "upsilon", "start": 5.4e6, "stop": 6.0e6, "points": 3}],
        "pairing": {"theta_forward_rad": 0.5 * np.pi, "theta_backward_rad": 1.5 * np.pi},
    }
    config = tmp_path / "driven.yaml"
    config.write_text(yaml.safe_dump({"parameters": parameters, "sweep": sweep}), encoding="utf-8")
    out = tmp_path / "out"
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from magsqueeze import cli\n"
        f"sys.exit(cli.main(['sweep', '--config', {str(config)!r}, '--output', {str(out)!r}]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    table = (out / "sweep.csv").read_text(encoding="utf-8")
    assert "failed_points" not in table
    assert cli.main(["sweep", "--config", str(config), "--output", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "sweep.csv").read_text(encoding="utf-8") == table
