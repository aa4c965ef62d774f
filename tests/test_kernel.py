"""The batched operating-point kernel against the scalar reference path,
and per-point failure isolation in sweeps."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from magsqueeze import (
    CovarianceMatrix,
    InvalidInputError,
    MagsqueezeError,
    ModePair,
    NoSteadyStateError,
    NumericalError,
    ParametricResonanceError,
    PhasePairing,
    SystemParams,
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
from magsqueeze.analysis import CONTRASTS, _CHUNK, Evaluation
from magsqueeze.config import load_config
from magsqueeze.errors import OK, RESIDUAL, UNSTABLE, VERDICTS, verdict_error
from magsqueeze.tableio import read_csv

from conftest import KAPPA_A, TWO_PI, make_params, verdict

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def scalar_reference(params) -> list[float] | MagsqueezeError | None:
    """E_am, E_ab, E_mb, R_min through the scalar functions; None when unstable, and the
    error the scalar path raises when a later check refuses the steady state."""
    gamma = build_drift(params)
    if not stability(gamma).is_stable:
        return None
    try:
        v = solve_lyapunov(gamma, build_diffusion(params))
        return [
            bipartite_entanglement(v, ModePair.CAVITY_MAGNON),
            bipartite_entanglement(v, ModePair.CAVITY_PHONON),
            bipartite_entanglement(v, ModePair.MAGNON_PHONON),
            min_residual_contangle(v),
        ]
    except MagsqueezeError as error:
        return error


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
        if isinstance(want, MagsqueezeError):
            assert type(error) is type(want) and str(error) == str(want)
            assert np.all(np.isnan(evaluation.measures[k]))
            continue
        stable += 1
        assert error is None
        np.testing.assert_array_equal(evaluation.measures[k], want)
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
    # Stable, but its steady state breaks the uncertainty bound by 1.2e-6: both paths refuse it.
    @example([make_params(upsilon=0.5625 * KAPPA_A, theta=4.375, g_a=0.75 * KAPPA_A,
                          temperature=0.0)])
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

    def test_scalar_measures_are_the_batch_row_on_fig2(self):
        # The scalar functions take the batch's six partitions and its residual rule, so they
        # agree to the last bit, R_min included, on every fourth upsilon row of fig2's map.
        config = load_config(REPO_CONFIGS / "fig2.yaml")
        (name_1, grid_1), (name_2, grid_2) = ((a.name, a.si_values) for a in config.sweep.axes)
        evaluation = evaluate([replace(config.params, **{name_1: float(x), name_2: float(y)})
                               for x in grid_1[::4] for y in grid_2])
        steady = np.flatnonzero(evaluation.code == OK)
        assert steady.size > 900
        for k in steady:
            v = CovarianceMatrix(evaluation.covariances[k])
            scalar = [bipartite_entanglement(v, pair) for pair in ModePair]
            scalar.append(min_residual_contangle(v))
            np.testing.assert_array_equal(scalar, evaluation.measures[k])


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


def log_uniform(low: float, high: float) -> st.SearchStrategy[float]:
    """Floats 10**e with the exponent e drawn from [low, high]."""
    return st.floats(low, high).map(lambda exponent: 10.0**exponent)


# Rates drawn log-uniformly over 1e3..1e12 rad/s; one field of a point in
# sixteen is scaled by 1e250 or 1e-250 towards the ends of the float range.
rate = log_uniform(3.0, 12.0)
SCALED_FIELDS = ("omega_a", "omega_b", "kappa_a", "kappa_m", "g_a", "upsilon", "temperature",
                 "delta_m", "omega_0", "G_m", "g_m", "rabi", "h_d", "sphere_diameter")


@st.composite
def drawn_point(draw) -> SystemParams | None:
    """An operating point of either detuning form and coupling, None if it does not construct."""
    fields = {name: draw(rate) for name in ("omega_a", "omega_m", "omega_b", "kappa_a",
                                            "kappa_m", "gamma_b", "g_a", "upsilon")}
    fields.update(theta=draw(st.floats(0.0, TWO_PI)),
                  temperature=draw(log_uniform(-3.0, 3.0)))
    if draw(st.booleans()):
        fields.update(delta_a=draw(st.sampled_from((-1, 1))) * draw(rate),
                      delta_m=draw(st.sampled_from((-1, 1))) * draw(rate))
    else:
        fields.update(omega_0=draw(rate))
    coupling = draw(st.sampled_from(("direct", "direct_driven", "rabi", "field")))
    if coupling.startswith("direct"):
        fields.update(G_m=draw(rate))
    else:
        fields.update(g_m=draw(log_uniform(-1.0, 4.0)))
    if coupling in ("direct_driven", "rabi"):
        fields.update(rabi=draw(log_uniform(3.0, 16.0)))
    if coupling == "field":
        fields.update(h_d=draw(log_uniform(-9.0, -3.0)), sphere_diameter=draw(log_uniform(-6.0, -2.0)))
    if draw(st.integers(0, 15)) == 0:
        name = draw(st.sampled_from(SCALED_FIELDS))
        if fields.get(name) is not None:
            fields[name] *= draw(st.sampled_from((1e250, 1e-250)))
    try:
        return SystemParams(**fields)
    except InvalidInputError:
        return None


def command_point(config: str, *overrides: str) -> SystemParams:
    """The operating point of ``magsqueeze <command> --config <config> --set <override> ...``."""
    return load_config(REPO_CONFIGS / config, overrides).params


# The nine rates of fig2.yaml; omega_a and omega_m enter only its zero-temperature occupations.
FIG2_RATES = ("omega_b", "delta_a", "delta_m", "kappa_a", "kappa_m", "gamma_b", "g_a", "G_m",
              "upsilon")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(drawn_point(), min_size=1, max_size=6))
@example([command_point("fig2.yaml", *(f"{name}_over_2pi_hz=1.6e-309" for name in FIG2_RATES),
                        "temperature_value=0"), command_point("fig2.yaml")])
@example([command_point("default.yaml", "g_a_over_2pi_hz=1e200")])
@example([command_point("default.yaml", "omega_b_over_2pi_hz=1e-300", "temperature_value=1e10")])
@example([command_point("wigner.yaml", "temperature_value=1e300")])
@example([command_point("default.yaml", "temperature_value=1e308")])
def test_every_finite_point_gets_a_verdict(drawn):
    # No exception and no numpy warning escapes; a point's outcome does not
    # depend on its batch, and the scalar path raises the verdict's class.
    points = [p for p in drawn if p is not None]
    assume(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = evaluate(points)
        assert set(batch.code.tolist()) <= set(range(len(VERDICTS)))
        for k, params in enumerate(points):
            alone = evaluate([params])
            for name in batch._fields:
                assert getattr(alone, name)[0].tobytes() == getattr(batch, name)[k].tobytes(), name
            try:
                steady_state(params)
            except MagsqueezeError as exc:
                assert type(exc) is type(verdict_error(alone.code[0]))
            else:
                assert alone.code[0] == OK


@pytest.mark.parametrize("k", [-1060, -1040, -1030, -1022, -600, 0, 600, 900])
def test_scaling_every_rate_by_a_power_of_two_keeps_the_verdicts(k):
    # At zero temperature the drift and the diffusion scale with the rates, and the steady
    # covariance matrix does not. Below 2^-1030 the subnormal rates have lost bits.
    rates = ("omega_a", "omega_m", *FIG2_RATES)
    points = [make_params(temperature=0.0, upsilon=u * KAPPA_A, theta=t, g_a=g * KAPPA_A)
              for u in np.linspace(0.0, 3.0, 10)
              for t in np.linspace(0.0, TWO_PI, 10, endpoint=False) for g in (0.5, 1.6, 2.2)]
    scaled = [replace(p, **{name: math.ldexp(getattr(p, name), k) for name in rates})
              for p in points]
    reference = evaluate(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluation = evaluate(scaled)
    assert set(reference.code.tolist()) == {OK, UNSTABLE}
    assert evaluation.code.tolist() == reference.code.tolist()
    if k >= -1030:
        assert evaluation.measures.tobytes() == reference.measures.tobytes()
    else:
        np.testing.assert_allclose(evaluation.measures, reference.measures, rtol=0.0, atol=1e-9)


def test_a_failed_lyapunov_factorization_is_a_residual_verdict(monkeypatch):
    # A singular system fails the whole batched solve: its stable points get the
    # residual verdict with a NaN value, and the sweep records them as failed.
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    upsilon = [0.5 * KAPPA_A, 1.3 * KAPPA_A, 4.5 * KAPPA_A]
    points = [make_params(upsilon=u) for u in upsilon]
    unstable = evaluate(points).code == UNSTABLE
    assert unstable.tolist() == [False, False, True]
    monkeypatch.setattr(np.linalg, "solve", singular)
    evaluation = evaluate(points)
    assert evaluation.code.tolist() == [RESIDUAL, RESIDUAL, UNSTABLE]
    assert np.isnan(evaluation.value[~unstable]).all()
    assert np.isnan(evaluation.measures).all()
    result = sweep(points[0], [("upsilon", upsilon)])
    assert result.failed.tolist() == [True, True, False]
    assert not result.stable.any()


def test_a_singular_system_fails_only_its_own_point(monkeypatch):
    # The batched solve fails as a whole when one system is singular. The chunk is then
    # solved one system at a time: only the marked point gets the residual verdict, and
    # every other point keeps the bits of an unpatched evaluate.
    points = [make_params(upsilon=u * KAPPA_A) for u in (0.5, 0.9, 1.3, 4.5, 1.1)]
    want = evaluate(points)
    assert want.code.tolist() == [OK, OK, OK, UNSTABLE, OK]
    real, systems = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: systems.append(a) or real(a, b))
    evaluate(points)
    marked = systems[0][1]  # the system of the second point

    def solve(a, b):
        if any(np.array_equal(system, marked) for system in a):
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    got = evaluate(points)
    assert got.code.tolist() == [OK, RESIDUAL, OK, UNSTABLE, OK]
    assert np.isnan(got.value[1]) and np.isnan(got.measures[1]).all()
    keep = [0, 2, 3, 4]
    for name in Evaluation._fields:
        assert getattr(got, name)[keep].tobytes() == getattr(want, name)[keep].tobytes(), name
