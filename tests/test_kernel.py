"""The batched operating-point kernel against the scalar reference path,
and per-point failure isolation in sweeps."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze import (
    MagsqueezeError,
    ModePair,
    NoSteadyStateError,
    NumericalError,
    ParametricResonanceError,
    PhasePairing,
    bipartite_entanglement,
    build_diffusion,
    build_drift,
    cli,
    directional_measures,
    evaluate,
    min_residual_contangle,
    solve_lyapunov,
    stability,
    steady_state,
    sweep,
    symplectic_form,
)
from magsqueeze.analysis import CONTRASTS, _CHUNK
from magsqueeze.errors import VERDICTS
from magsqueeze.tableio import read_csv, sweep_table

from conftest import KAPPA_A, TWO_PI, make_params, verdict

# Relative agreement with the scalar path; the absolute floor covers
# measures at zero and the cancellation in the residual tangle.
RTOL = 1e-12
ATOL = 1e-14


def scalar_reference(params) -> list[float] | None:
    """E_am, E_ab, E_mb, R_min through the scalar functions; None when unstable."""
    gamma = build_drift(params)
    if not stability(gamma).is_stable:
        return None
    v = solve_lyapunov(gamma, build_diffusion(params))
    return [
        bipartite_entanglement(v, ModePair.CAVITY_MAGNON),
        bipartite_entanglement(v, ModePair.CAVITY_PHONON),
        bipartite_entanglement(v, ModePair.MAGNON_PHONON),
        min_residual_contangle(v),
    ]


def assert_matches_scalar(points) -> int:
    """Check ``evaluate`` point by point; returns the number of stable points."""
    evaluation = evaluate(points)
    assert evaluation.measures.shape == (len(points), 4)
    stable = 0
    for k, params in enumerate(points):
        want = scalar_reference(params)
        error = verdict(evaluation.code[k], evaluation.value[k])
        if want is None:
            assert isinstance(error, NoSteadyStateError)
            assert np.all(np.isnan(evaluation.measures[k]))
            continue
        stable += 1
        assert error is None
        np.testing.assert_allclose(evaluation.measures[k], want, rtol=RTOL, atol=ATOL)
    return stable


point_strategy = st.builds(
    lambda ups, theta, g_a, temperature: make_params(
        upsilon=ups * KAPPA_A, theta=theta, g_a=g_a * KAPPA_A, temperature=temperature
    ),
    st.floats(0.0, 3.0),
    st.floats(0.0, 6.28),
    st.floats(0.0, 2.5),
    st.floats(0.0, 0.3),
)


class TestKernelMatchesScalarPath:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(point_strategy, min_size=1, max_size=6))
    def test_random_stacks(self, points):
        assert_matches_scalar(points)

    def test_single_point(self):
        assert assert_matches_scalar([make_params()]) == 1

    def test_stack_crossing_chunk_boundaries(self):
        # Not a multiple of the chunk size, with stable and unstable points
        # mixed inside every chunk.
        n = 2 * _CHUNK + 3
        points = [
            make_params(upsilon=u * KAPPA_A, theta=t)
            for u, t in zip(np.linspace(0.0, 2.8, n), np.linspace(0.0, 5.0 * TWO_PI, n))
        ]
        stable = assert_matches_scalar(points)
        assert 0 < stable < n


@pytest.mark.parametrize("theta", [0.3, 1.5 * np.pi])
def test_coherent_drift_has_hamiltonian_structure(theta):
    # Without the damping on the diagonal the drift is Omega H with a
    # symmetric H, so Omega^T (Gamma + diag(damping)) must be symmetric.
    params = make_params(theta=theta)
    damping = [params.kappa_a, params.kappa_a, params.kappa_m, params.kappa_m, 0.0, params.gamma_b]
    h = symplectic_form(3).T @ (build_drift(params) + np.diag(damping))
    np.testing.assert_allclose(h, h.T, rtol=0.0, atol=1e-12 * np.abs(h).max())


def stability_edge(params) -> float:
    """Largest upsilon (bisected to the last bit) with a stable drift."""
    lo, hi = 0.0, 5.0 * KAPPA_A
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if stability(build_drift(replace(params, upsilon=mid))).is_stable:
            lo = mid
        else:
            hi = mid
    return lo


def driven_params(**overrides):
    """Detuning set by the drive frequency and G_m formed from g_m and a drive."""
    fields = dict(
        delta_a=None, delta_m=None, G_m=None,
        omega_0=TWO_PI * (10e9 - 10e6), g_m=TWO_PI * 0.2, rabi=1e3,
    )
    fields.update(overrides)
    return make_params(**fields)


def resonant_upsilon(params) -> float:
    """Squeezing amplitude at which the steady-amplitude denominator vanishes.

    With a drive frequency, the drive is weak enough that the self-consistent
    detuning shift is negligible, so the first amplitude evaluation sits on
    the resonance.
    """
    delta_a, delta_m = params.delta_a, params.delta_m
    if params.omega_0 is not None:
        delta_a, delta_m = params.omega_a - params.omega_0, params.omega_m - params.omega_0
    k_minus = (params.kappa_a - 1j * delta_a) * (params.kappa_m - 1j * delta_m) + params.g_a**2
    return abs(k_minus) / np.hypot(delta_a, params.kappa_a)


class TestFailureIsolation:
    def test_residual_failure_near_the_edge_is_a_failed_row(self):
        params = make_params(theta=np.pi / 2)
        edge_point = replace(params, upsilon=(1.0 - 1e-9) * stability_edge(params))
        with pytest.raises(NumericalError):
            steady_state(edge_point)

        result = sweep(params, [("upsilon", [KAPPA_A, edge_point.upsilon])])
        assert result.stable.tolist() == [True, False]
        assert result.failed.tolist() == [False, True]
        assert np.isnan(result.measures[1]).all()

    def test_parametric_resonance_is_a_failed_row(self):
        params = driven_params()
        u_res = resonant_upsilon(params)
        with pytest.raises(ParametricResonanceError):
            steady_state(replace(params, upsilon=u_res))

        result = sweep(params, [("upsilon", [0.5 * u_res, u_res]), ("g_a", [params.g_a])])
        assert result.failed.tolist() == [False, True]
        assert result.stable[0]
        assert ("failed_points", "1") in sweep_table(result, result.axes).metadata

    def test_resonance_on_one_side_of_a_pairing_fails_the_row(self):
        pairing = PhasePairing(0.5 * np.pi, 1.5 * np.pi)
        params = driven_params()
        u_res = resonant_upsilon(params)
        with pytest.raises(ParametricResonanceError):
            directional_measures(replace(params, upsilon=u_res), pairing)

        result = sweep(params, [("upsilon", [0.5 * u_res, u_res])], pairing=pairing)
        c_mb = result.contrasts[:, CONTRASTS.index("C_E_mb")]
        assert result.failed.tolist() == [False, True]
        assert not np.isnan(c_mb[0]) and np.isnan(c_mb[1])
        assert not result.backward_stable[1]

    def test_mixed_grid_builds_no_exception_per_point(self, monkeypatch):
        # Stable, residual-failing (near the theta = pi/2 edge), resonant and
        # unstable points, with and without a pairing, are all reported by code.
        params = make_params(theta=np.pi / 2)
        upsilon = [KAPPA_A, (1.0 - 1e-9) * stability_edge(params)]
        params = replace(params, rabi=1e3)
        upsilon += [resonant_upsilon(params), 4.5 * KAPPA_A]
        grid = [("upsilon", upsilon), ("theta", [0.5 * np.pi, 0.3])]
        pairing = PhasePairing(0.5 * np.pi, 1.5 * np.pi)
        points = [replace(params, upsilon=u, theta=t) for u in upsilon for t in (0.5 * np.pi, 0.3)]
        kinds = {VERDICTS[code][0] for code in evaluate(points).code}
        assert kinds == {"ok", "residual", "resonance", "unstable"}

        built = []

        def counting(self, *args):
            built.append(type(self))
            Exception.__init__(self, *args)

        monkeypatch.setattr(MagsqueezeError, "__init__", counting)
        plain = sweep(params, grid)
        paired = sweep(params, grid[:1], pairing=pairing)
        assert built == []
        assert plain.failed.tolist() == [False, False, True, False, True, True, False, False]
        assert plain.stable.tolist() == [True, True, False, False, False, False, False, False]
        assert paired.failed.tolist() == [False, True, True, False]

    def test_metadata_line_only_when_points_fail(self, tmp_path, capsys):
        u_res_hz = float(resonant_upsilon(driven_params()) / TWO_PI)
        parameters = {
            "omega_a_over_2pi_hz": 10.0e9, "omega_m_over_2pi_hz": 10.0e9,
            "omega_b_over_2pi_hz": 10.0e6, "omega_0_over_2pi_hz": 10e9 - 10e6,
            "kappa_a_over_2pi_hz": 3.0e6, "kappa_m_over_2pi_hz": 0.6e6,
            "gamma_b_over_2pi_hz": 100.0, "g_a_over_2pi_hz": 4.8e6,
            "g_m_over_2pi_hz": 0.2, "rabi_rad_per_s": 1e3,
            "upsilon_over_2pi_hz": 1.0e6, "theta_rad": 0.0,
            "temperature_value": 10, "temperature_unit": "mK",
        }
        metadata = {}
        for name, stop in (("clean", 0.5 * u_res_hz), ("failing", u_res_hz)):
            config = tmp_path / f"{name}.yaml"
            axis = {"name": "upsilon", "start": 0.0, "stop": stop, "points": 3}
            config.write_text(
                yaml.safe_dump({"parameters": parameters, "sweep": {"axes": [axis]}}),
                encoding="utf-8",
            )
            out = tmp_path / name
            assert cli.main(["sweep", "--config", str(config), "--output", str(out)]) == 0
            metadata[name] = dict(read_csv(out / "sweep.csv").metadata)
        assert "failed_points" not in metadata["clean"]
        assert metadata["failing"]["failed_points"] == "1"
