"""Release gate: one test per quantitative or structural target, fixed tolerances.

The quantitative targets encode the reference operating regime (resonant
red-detuned drive, kappa_m = kappa_a/5, G_m = g_a = 2pi*4.8 MHz, 10 mK
unless swept).  Each test prints one pass/fail verdict under ``pytest -v``
and carries the measured value in its assertion message.  Four targets
are currently not met by the model as built; they fail honestly rather
than being loosened (see README for the analysis).
"""

from __future__ import annotations

import re
import time
from pathlib import Path

import numpy as np
import pytest

from magsqueeze import (
    CovarianceMatrix,
    PhasePairing,
    build_diffusion,
    build_drift,
    cli,
    directional_measures,
    evolve_covariance,
    solve_lyapunov,
    stability,
    sweep,
    temperature_thresholds,
)
from magsqueeze.analysis import CONTRASTS, MEASURES
from magsqueeze.gaussian import _uncertainty_floor

from conftest import KAPPA_A, TWO_PI, focus_residuals, make_params

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

UPS_61 = np.linspace(0.0, 2.0 * KAPPA_A, 61)
THETA_61 = np.linspace(0.0, TWO_PI, 61)
UPS_101 = np.linspace(0.0, 2.0 * KAPPA_A, 101)
TEMPS_300 = np.linspace(0.001, 0.300, 300)
UPS_FIG6 = 0.6 * KAPPA_A

PAIR_QUARTER = PhasePairing(0.5 * np.pi, 1.5 * np.pi)
PAIR_AXIAL = PhasePairing(0.0, np.pi)


def grid_array(result, name: str) -> np.ndarray:
    """The measure or contrast column ``name``, NaN where null, grid-shaped."""
    shape = tuple(len(g) for _, g in result.axes)
    if name in MEASURES:
        return result.measures[:, MEASURES.index(name)].reshape(shape)
    return result.contrasts[:, CONTRASTS.index(name)].reshape(shape)


@pytest.fixture(scope="module")
def fig2():
    start = time.perf_counter()
    result = sweep(make_params(theta=0.0), [("upsilon", UPS_61), ("theta", THETA_61)])
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="module")
def fig3a():
    return sweep(make_params(), [("upsilon", UPS_101)], pairing=PAIR_QUARTER)


@pytest.fixture(scope="module")
def fig6_axial():
    return sweep(
        make_params(upsilon=UPS_FIG6), [("temperature", TEMPS_300)], pairing=PAIR_AXIAL
    )


@pytest.fixture(scope="module")
def fig6_quarter():
    return sweep(
        make_params(upsilon=UPS_FIG6), [("temperature", TEMPS_300)], pairing=PAIR_QUARTER
    )


@pytest.fixture(scope="module")
def grid_checks():
    """Independent re-solve of every grid point of every sweep in this gate.

    Collects the worst Lyapunov residual, the worst uncertainty-bound
    eigenvalue, and (on the amplitude-phase map) the worst unclamped
    residual tangle over all focus modes.
    """
    worst = {
        "residual": 0.0,
        "min_eig": np.inf,
        "monogamy": np.inf,
        "stable_points": 0,
        "total_points": 0,
    }

    def visit(params, with_monogamy: bool) -> None:
        worst["total_points"] += 1
        gamma = build_drift(params)
        if not stability(gamma).is_stable:
            return
        worst["stable_points"] += 1
        lam = build_diffusion(params)
        v = solve_lyapunov(gamma, lam)
        residual = float(
            np.linalg.norm(gamma @ v.data + v.data @ gamma.T + lam) / np.linalg.norm(lam)
        )
        worst["residual"] = max(worst["residual"], residual)
        worst["min_eig"] = min(worst["min_eig"], float(_uncertainty_floor(v.data)))
        if with_monogamy:
            worst["monogamy"] = min(
                worst["monogamy"],
                min(focus_residuals(v)),
            )

    for upsilon in UPS_61:
        for theta in THETA_61:
            visit(make_params(upsilon=upsilon, theta=theta), with_monogamy=True)
    for upsilon in UPS_101:
        for theta in (PAIR_QUARTER.theta_forward, PAIR_QUARTER.theta_backward):
            visit(make_params(upsilon=upsilon, theta=theta), with_monogamy=False)
    for pairing in (PAIR_AXIAL, PAIR_QUARTER):
        for temperature in TEMPS_300:
            for theta in (pairing.theta_forward, pairing.theta_backward):
                visit(
                    make_params(upsilon=UPS_FIG6, theta=theta, temperature=temperature),
                    with_monogamy=False,
                )
    return worst


def test_01_peak_magnon_phonon_entanglement(fig2):
    result, elapsed = fig2
    e_mb = grid_array(result, "E_mb")
    peak = float(np.nanmax(e_mb))
    assert 0.26 <= peak <= 0.40, f"peak E_mb = {peak:.4f}, target 0.33 +/- 0.07"
    assert elapsed < 60.0, f"61x61 sweep took {elapsed:.1f} s, budget 60 s"


def test_02_cavity_phonon_peak_location_and_mirror_null(fig2):
    """At 1.3 kappa_a the E_ab profile must peak near 3pi/2 and vanish at pi/2.

    The theta profile there is flat to a few percent across the bright lobe,
    so the peak position is asserted at value resolution (the lobe must sit
    in the sin(theta) < 0 half and the value at 3pi/2 must be within 0.005
    of the row maximum) rather than by raw argmax position.
    """
    result, _ = fig2
    e_ab = grid_array(result, "E_ab")
    peak = float(np.nanmax(e_ab))
    assert 0.02 <= peak <= 0.06, f"peak E_ab = {peak:.4f}, target 0.04 +/- 0.02"

    row = e_ab[39]  # upsilon = 1.3 kappa_a
    row_peak = float(np.nanmax(row))
    theta_at_peak = THETA_61[int(np.nanargmax(row))]
    deficit = row_peak - float(row[45])  # theta = 3 pi / 2
    mirror_value = float(row[15])  # theta = pi / 2
    assert np.pi < theta_at_peak < TWO_PI, (
        f"E_ab at 1.3 kappa_a peaks at theta = {theta_at_peak / np.pi:.3f} pi,"
        " outside the sin(theta) < 0 lobe"
    )
    assert deficit < 0.005, (
        f"E_ab at (1.3 kappa_a, 1.5 pi) trails the row maximum by {deficit:.5f}"
        f" (row maximum {row_peak:.5f} at theta = {theta_at_peak / np.pi:.3f} pi)"
    )
    assert mirror_value < 0.005, (
        f"E_ab at (1.3 kappa_a, pi/2) = {mirror_value:.5f}, expected near zero"
    )


def test_03_cavity_magnon_peak_amplitude_location(fig2):
    result, _ = fig2
    e_am = grid_array(result, "E_am")
    flat_argmax = int(np.nanargmax(e_am))
    ups_at_peak = UPS_61[flat_argmax // 61]
    ratio = ups_at_peak / KAPPA_A
    assert 1.1 <= ratio <= 1.5, (
        f"E_am is maximal at upsilon = {ratio:.3f} kappa_a"
        f" (E_am = {float(np.nanmax(e_am)):.4f}), target window [1.1, 1.5] kappa_a"
    )


def test_04_peak_tripartite_entanglement(fig2):
    result, _ = fig2
    r_min = grid_array(result, "R_min")
    peak = float(np.nanmax(r_min))
    assert 0.03 <= peak <= 0.07, f"peak R_min = {peak:.4f}, target 0.05 +/- 0.02"


def test_05_amplitude_contrast_profile(fig3a):
    c_am = grid_array(fig3a, "C_E_am")
    c_ab = grid_array(fig3a, "C_E_ab")
    c_mb = grid_array(fig3a, "C_E_mb")
    low = UPS_101 < 0.5 * KAPPA_A
    high = UPS_101 > KAPPA_A
    am_ideal = bool(np.any(c_am[low] >= 0.99))
    mb_ideal = bool(np.any(c_mb[high] >= 0.99))
    ab_peak = float(np.nanmax(c_ab))
    assert am_ideal, "no ideal C_am sub-interval below 0.5 kappa_a"
    assert mb_ideal, "no ideal C_mb sub-interval above kappa_a"
    assert 0.15 <= ab_peak <= 0.35, (
        f"peak C_ab = {ab_peak:.4f}, target 0.25 +/- 0.10"
        " (both phases are stable up to 1.88 kappa_a; from 1.14 kappa_a the forward"
        " phase has E_ab = 0 while the backward keeps about 0.04, which gives contrast 1)"
    )


def test_06_temperature_contrast_windows(fig6_axial, fig6_quarter):
    am_zones = temperature_thresholds(fig6_axial, "C_E_am")
    assert am_zones, "no ideal C_am temperature zone for the axial pairing"
    am_edge_mk = 1e3 * am_zones[0][1]
    assert 89.0 <= am_edge_mk <= 139.0, (
        f"ideal C_am zone ends at {am_edge_mk:.1f} mK, target 114 +/- 25 mK"
    )

    mb_zones = temperature_thresholds(fig6_quarter, "C_E_mb")
    assert mb_zones, "no ideal C_mb temperature zone for the quarter pairing"
    lo_mk, hi_mk = 1e3 * mb_zones[0][0], 1e3 * mb_zones[0][1]
    assert lo_mk <= 223.0 and hi_mk >= 216.0, (
        f"ideal C_mb zone [{lo_mk:.1f}, {hi_mk:.1f}] mK does not overlap 216..223 mK"
    )
    assert abs(lo_mk - 216.0) <= 30.0 and abs(hi_mk - 223.0) <= 30.0, (
        f"ideal C_mb zone [{lo_mk:.1f}, {hi_mk:.1f}] mK sits further than 30 mK"
        " from the 216..223 mK reference window"
    )


def test_07_linearization_validity_via_cli(capsys):
    code = cli.main(["validate", "--config", str(REPO_CONFIGS / "validate.yaml")])
    out = capsys.readouterr().out
    assert code == 0, f"validate exited {code}:\n{out}"

    amplitude = float(re.search(r"\|m_s\| = (\S+)", out).group(1))
    occupation, bound = (
        float(g)
        for g in re.search(r"magnon occupation = (\S+) \(bound (\S+),", out).groups()
    )
    ratio = float(re.search(r"Kerr/drive ratio = (\S+) ", out).group(1))
    assert 1.69e7 / 1.5 <= amplitude <= 1.69e7 * 1.5, f"|m_s| = {amplitude:.4g}"
    assert occupation < 0.01 * bound, f"occupation {occupation:.4g} vs bound {bound:.4g}"
    assert ratio < 0.5, f"Kerr/drive ratio = {ratio:.4g}"


def test_08_lyapunov_residuals_across_all_sweeps(grid_checks):
    assert grid_checks["residual"] < 1e-10, (
        f"worst relative Lyapunov residual = {grid_checks['residual']:.3e}"
        f" over {grid_checks['stable_points']} solved points"
    )


def test_09_physicality_across_all_sweeps(grid_checks):
    assert grid_checks["min_eig"] >= -1e-9, (
        f"worst uncertainty-bound eigenvalue = {grid_checks['min_eig']:.3e}"
        f" over {grid_checks['stable_points']} solved points"
    )


def test_10_no_contrast_without_squeezing():
    for pairing in (PAIR_QUARTER, PAIR_AXIAL):
        record = directional_measures(make_params(upsilon=0.0), pairing)
        for name in ("c_am", "c_ab", "c_mb", "c_r"):
            value = getattr(record, name)
            assert value < 1e-9, f"{name} = {value!r} at zero squeezing amplitude"


def test_11_monogamy_across_amplitude_phase_map(grid_checks):
    assert grid_checks["monogamy"] >= -1e-8, (
        f"worst raw residual tangle = {grid_checks['monogamy']:.3e}"
    )


def test_12_transient_integration_matches_algebraic_steady_state():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    draws = 0
    while draws < 50:
        f = rng.uniform(0.8, 1.2, size=4)
        kappa_a = KAPPA_A * f[0]
        params = make_params(
            kappa_a=kappa_a,
            kappa_m=0.2 * KAPPA_A * f[1],
            g_a=TWO_PI * 4.8e6 * f[2],
            G_m=TWO_PI * 4.8e6 * f[3],
            upsilon=rng.uniform(0.0, 1.5) * kappa_a,
            theta=rng.uniform(0.0, TWO_PI),
            gamma_b=TWO_PI * 10.0 ** rng.uniform(3.0, 4.0),
        )
        gamma = build_drift(params)
        report = stability(gamma)
        if not report.is_stable:
            continue
        draws += 1
        lam = build_diffusion(params)
        target = solve_lyapunov(gamma, lam)
        spectral = float(np.abs(report.eigenvalues).max())
        evolved = evolve_covariance(
            gamma,
            lam,
            CovarianceMatrix(0.5 * np.eye(6)),
            t_final=20.0 / abs(report.max_real_part),
            dt=0.03 / spectral,
        )
        gap = float(
            np.linalg.norm(evolved.data - target.data) / np.linalg.norm(target.data)
        )
        worst = max(worst, gap)
    assert worst < 1e-6, f"worst transient-vs-algebraic relative gap = {worst:.3e}"


def _split_signs(theta: float, upsilon: float) -> tuple[int, int, int, int]:
    """Signs of the squeezing-induced detuning/decay splits read off the drift."""
    gamma = build_drift(make_params(theta=theta, upsilon=upsilon))
    delta_bar = TWO_PI * 10e6
    kappa_m = KAPPA_A / 5.0
    dead_band = 1e-12 * upsilon

    def sign(value: float) -> int:
        if abs(value) <= dead_band:
            return 0
        return 1 if value > 0.0 else -1

    return (
        sign(gamma[2, 3] - delta_bar),   # +delta_theta
        sign(gamma[3, 2] + delta_bar),   # +delta_theta (second extraction)
        sign(-(gamma[2, 2] + kappa_m)),  # +kappa_theta
        sign(gamma[3, 3] + kappa_m),     # +kappa_theta (second extraction)
    )


def _quadrant_signs(k: int, n: int) -> tuple[int, int]:
    """Expected (sign delta_theta, sign kappa_theta) at theta = 2 pi k / n."""
    quarter, rem = divmod(4 * k, n)
    if rem == 0:
        return ((0, 1), (1, 0), (0, -1), (-1, 0))[quarter % 4]
    return ((1, 1), (1, -1), (-1, -1), (-1, 1))[quarter % 4]


def test_13_phase_sign_map_and_mirror_symmetry():
    upsilon = 1.3 * KAPPA_A
    n = 64
    for k in range(n):
        theta = TWO_PI * k / n
        d1, d2, k1, k2 = _split_signs(theta, upsilon)
        expected_d, expected_k = _quadrant_signs(k, n)
        assert (d1, k1) == (expected_d, expected_k), (
            f"split signs at theta = {theta / np.pi:.4f} pi: measured"
            f" ({d1}, {k1}), expected ({expected_d}, {expected_k})"
        )
        assert (d2, k2) == (d1, k1), "the two drift rows disagree on the splits"

    for k in range(1, n):
        theta = TWO_PI * k / n
        forward = build_drift(make_params(theta=theta, upsilon=upsilon))
        mirrored = build_drift(make_params(theta=TWO_PI - theta, upsilon=upsilon))
        expected = forward.copy()
        expected[2, 3] = -forward[3, 2]  # detuning split flips sign
        expected[3, 2] = -forward[2, 3]
        np.testing.assert_allclose(
            mirrored, expected, atol=1e-6,
            err_msg=f"mirror mismatch at theta = {theta / np.pi:.4f} pi",
        )


def test_14_tripartite_entanglement_decays_with_temperature():
    """R_min should be nonincreasing in temperature at every cardinal phase.

    The model disagrees below ~80 mK: thermal phonon occupation first feeds
    the residual tangle before decoherence wins, so this target fails for
    three of the four phases (see README).
    """
    rises: dict[float, float] = {}
    for theta in (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi):
        result = sweep(
            make_params(upsilon=UPS_FIG6, theta=theta),
            [("temperature", TEMPS_300)],
        )
        values = grid_array(result, "R_min")
        assert not np.any(np.isnan(values)), f"unstable points at theta = {theta}"
        rises[theta] = float(np.diff(values).max())
    report = ", ".join(
        f"{rise:+.3e} at theta = {theta / np.pi:.2f} pi" for theta, rise in rises.items()
    )
    assert max(rises.values()) <= 1e-6, f"largest R_min step per phase: {report}"


def _wigner_moments(path: Path) -> tuple[float, np.ndarray]:
    from magsqueeze.tableio import read_csv

    table = read_csv(path)
    n = int(round(len(table.columns["W"]) ** 0.5))
    x = np.asarray(table.columns["x"], dtype=float).reshape(n, n)
    y = np.asarray(table.columns["y"], dtype=float).reshape(n, n)
    w = np.asarray(table.columns["W"], dtype=float).reshape(n, n)
    axis = x[:, 0]
    assert np.allclose(y[0, :], axis), "grid is not square"

    def integrate(values: np.ndarray) -> float:
        return float(np.trapezoid(np.trapezoid(values, axis, axis=1), axis))

    norm = integrate(w)
    v_xx = integrate(x * x * w) / norm
    v_yy = integrate(y * y * w) / norm
    v_xy = integrate(x * y * w) / norm
    return norm, np.array([[v_xx, v_xy], [v_xy, v_yy]])


def test_15_wigner_ellipses(tmp_path):
    code = cli.main(
        ["wigner", "--config", str(REPO_CONFIGS / "wigner.yaml"), "--output", str(tmp_path)]
    )
    assert code == 0
    angles: dict[str, float] = {}
    for tag in ("0", "0p5", "1", "1p5"):
        norm, second = _wigner_moments(tmp_path / f"wigner_theta_{tag}pi.csv")
        assert norm == pytest.approx(1.0, abs=1e-3), f"normalization at {tag} pi: {norm!r}"
        eigenvalues = np.linalg.eigvalsh(second)
        ratio = float(eigenvalues[-1] / eigenvalues[0])
        assert ratio > 1.05, f"principal variance ratio at {tag} pi is {ratio:.3f}"
        angles[tag] = 0.5 * np.degrees(
            np.arctan2(2.0 * second[0, 1], second[0, 0] - second[1, 1])
        )
    gap = abs(angles["0p5"] - angles["1p5"]) % 180.0
    gap = min(gap, 180.0 - gap)
    assert gap > 5.0, f"principal axes at 0.5 pi and 1.5 pi differ by {gap:.2f} degrees"
