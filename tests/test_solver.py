"""Lyapunov solver and transient integrator, cross-checked against scipy."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze import (
    CovarianceMatrix,
    InvalidInputError,
    NoSteadyStateError,
    NumericalError,
    build_diffusion,
    build_drift,
    evolve_covariance,
    solve_lyapunov,
    stability,
)
from magsqueeze.errors import OK
from magsqueeze.gaussian import PHYSICALITY_TOL, _uncertainty_floor
from magsqueeze.solver import steady_stack

from conftest import TWO_PI, make_params, verdict


def random_stable_system(rng: np.random.Generator):
    kappa_a = TWO_PI * 3e6
    for _ in range(40):
        f = rng.uniform(0.8, 1.2, size=4)
        params = make_params(
            kappa_a=kappa_a * f[0],
            kappa_m=0.2 * kappa_a * f[1],
            g_a=TWO_PI * 4.8e6 * f[2],
            G_m=TWO_PI * 4.8e6 * f[3],
            upsilon=rng.uniform(0.0, 1.5) * kappa_a,
            theta=rng.uniform(0.0, TWO_PI),
            temperature=rng.uniform(0.0, 0.05),
        )
        gamma = build_drift(params)
        if stability(gamma).is_stable:
            return gamma, build_diffusion(params)
    raise AssertionError("no stable draw found")


class TestStability:
    def test_working_point_is_stable(self):
        report = stability(build_drift(make_params()))
        assert report.is_stable
        assert report.max_real_part < 0.0
        assert report.eigenvalues.shape == (6,)

    def test_overdriven_point_is_not(self):
        gamma = build_drift(make_params(upsilon=2.0 * TWO_PI * 3e6))
        assert not stability(gamma).is_stable

    def test_marginal_spectrum_is_not_stable(self):
        # A pure rotation has eigenvalues on the imaginary axis; the margin
        # must not round that into "stable".
        gamma = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert not stability(gamma).is_stable

    def test_tiny_negative_part_is_caught_by_margin(self):
        gamma = np.array([[-1e-20, 1.0], [-1.0, -1e-20]])
        assert not stability(gamma).is_stable

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            stability(np.zeros((2, 3)))
        with pytest.raises(InvalidInputError, match="non-empty square matrix"):
            stability(np.zeros((0, 0)))
        with pytest.raises(InvalidInputError, match="non-empty square matrix"):
            solve_lyapunov(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_rejects_nonfinite(self):
        gamma = np.eye(2)
        gamma[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            stability(gamma)


class TestSolveLyapunov:
    def test_scalar_mode_analytic(self):
        # Single damped quadrature pair: Gamma = -kappa I, Lambda = 2 kappa
        # (n + 1/2) I gives V = (n + 1/2) I.
        kappa, n_th = 3.7e5, 4.25
        gamma = -kappa * np.eye(2)
        lam = 2.0 * kappa * (n_th + 0.5) * np.eye(2)
        v = solve_lyapunov(gamma, lam)
        np.testing.assert_allclose(v.data, (n_th + 0.5) * np.eye(2), rtol=1e-12)

    def test_block_diagonal_decouples(self):
        g1 = -2.0e5 * np.eye(2)
        g2 = np.array([[-1.0e5, 3.0e5], [-3.0e5, -1.0e5]])
        l1 = 1.0e5 * np.eye(2)
        l2 = 4.0e5 * np.eye(2)
        joint = solve_lyapunov(
            scipy.linalg.block_diag(g1, g2), scipy.linalg.block_diag(l1, l2)
        )
        np.testing.assert_allclose(joint.data[:2, :2], solve_lyapunov(g1, l1).data, rtol=1e-12)
        np.testing.assert_allclose(joint.data[2:, 2:], solve_lyapunov(g2, l2).data, rtol=1e-12)
        np.testing.assert_allclose(joint.data[:2, 2:], 0.0, atol=1e-18)

    def test_matches_scipy_on_random_stable_systems(self):
        rng = np.random.default_rng(8131)
        for _ in range(25):
            gamma, lam = random_stable_system(rng)
            ours = solve_lyapunov(gamma, lam).data
            reference = scipy.linalg.solve_continuous_lyapunov(gamma, -lam)
            scale = np.linalg.norm(reference)
            assert np.linalg.norm(ours - reference) / scale < 1e-9

    def test_working_point_state_is_physical_and_symmetric(self):
        v = solve_lyapunov(build_drift(make_params()), build_diffusion(make_params()))
        assert np.array_equal(v.data, v.data.T)
        assert _uncertainty_floor(v.data[None])[0] >= -PHYSICALITY_TOL

    def test_refuses_unstable_drift(self):
        params = make_params(upsilon=2.0 * TWO_PI * 3e6)
        with pytest.raises(NoSteadyStateError):
            solve_lyapunov(build_drift(params), build_diffusion(params))

    def test_phase_periodicity(self):
        a = solve_lyapunov(build_drift(make_params(theta=0.4)), build_diffusion(make_params()))
        b = solve_lyapunov(
            build_drift(make_params(theta=0.4 + TWO_PI)), build_diffusion(make_params())
        )
        np.testing.assert_allclose(a.data, b.data, rtol=1e-12)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            solve_lyapunov(-np.eye(2), np.eye(4))


def kronecker_oracle(
    gamma: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray | None, Exception | None]:
    """Steady covariance from the d^2 unknowns of vec(V), with the verdicts of ``steady_stack``.

    Row-major vectorization: vec(G V + V G^T) = (G kron I + I kron G) vec(V).
    """
    if not (np.isfinite(gamma).all() and np.isfinite(lam).all()):
        return None, InvalidInputError("gamma and diffusion must have finite entries")
    eigenvalues = np.linalg.eigvals(gamma)
    top = eigenvalues.real.max()
    if not top < -1e-12 * np.abs(eigenvalues).max():
        message = f"drift matrix is not stable (max eigenvalue real part {top:.6e})"
        return None, NoSteadyStateError(message)
    d = gamma.shape[0]
    eye = np.eye(d)
    v = np.linalg.solve(np.kron(gamma, eye) + np.kron(eye, gamma), -lam.ravel()).reshape(d, d)
    return 0.5 * (v + v.T), None


def drawn_system(rng: np.random.Generator, d: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """A random drift and positive definite diffusion, scaled over many decades.

    The drift is stable unless ``kind`` is "unstable"; "nan_gamma" and
    "inf_diffusion" put one non-finite entry into the drift or diffusion.
    """
    a = rng.normal(size=(d, d))
    top = np.linalg.eigvals(a).real.max()
    margin = -rng.uniform(0.1, 1.0) if kind == "unstable" else rng.uniform(0.1, 2.0)
    gamma = (a - (top + margin) * np.eye(d)) * 10.0 ** rng.uniform(-3.0, 8.0)
    b = rng.normal(size=(d, d))
    lam = (b @ b.T + 0.1 * np.eye(d)) * 10.0 ** rng.uniform(-3.0, 8.0)
    i, j = rng.integers(d, size=2)
    if kind == "nan_gamma":
        gamma[i, j] = np.nan
    elif kind == "inf_diffusion":
        lam[i, j] = np.inf
    return gamma, lam


def assert_stack_matches_oracle(gammas: np.ndarray, lams: np.ndarray) -> None:
    _, covariances, codes, values = steady_stack(gammas, lams)
    for g, lam, v, code, value in zip(gammas, lams, covariances, codes, values):
        want, want_error = kronecker_oracle(g, lam)
        error = verdict(code, value)
        assert type(error) is type(want_error)
        assert str(error) == str(want_error)
        if want is None:
            continue
        np.testing.assert_allclose(v, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        residual = np.linalg.norm(g @ v + v @ g.T + lam) / np.linalg.norm(lam)
        assert residual <= 1e-10


class TestSteadyStack:
    """The symmetric-subspace solve against the d^2-unknown Kronecker solve."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 4, 6]), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_stable_stacks_match_kronecker_solve(self, d, n, seed):
        rng = np.random.default_rng(seed)
        gammas, lams = zip(*(drawn_system(rng, d, "stable") for _ in range(n)))
        assert_stack_matches_oracle(np.array(gammas), np.array(lams))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 4, 6]),
        st.lists(st.sampled_from(["stable", "unstable", "nan_gamma", "inf_diffusion"]),
                 min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    def test_mixed_stacks_give_the_oracle_verdicts(self, d, kinds, seed):
        rng = np.random.default_rng(seed)
        gammas, lams = zip(*(drawn_system(rng, d, kind) for kind in kinds))
        assert_stack_matches_oracle(np.array(gammas), np.array(lams))

    def test_working_point_matches_kronecker_solve(self):
        params = make_params()
        assert_stack_matches_oracle(build_drift(params)[None], build_diffusion(params)[None])

    @pytest.mark.filterwarnings("error")
    def test_zero_diffusion_has_the_zero_steady_state(self):
        # Both residual floors (1e-300 on the scale, 1.0 on |Lambda / scale|) keep this from
        # being 0/0, which would warn and then give the residual verdict.
        gamma, lam = build_drift(make_params()), np.zeros((6, 6))
        assert np.array_equal(solve_lyapunov(gamma, lam).data, lam)
        _, covariances, code, value = steady_stack(gamma[None], lam[None])
        assert np.array_equal(covariances[0], lam)
        assert code[0] == OK and value[0] == 0.0

    def test_value_of_a_stable_point_is_its_relative_residual(self):
        # |Lambda / max|Lambda||_F is 1.44 here: the floor of 1.0 under it is inert, but any
        # floor above 1.44 would shrink the quoted residual.
        params = make_params()
        gamma, lam = build_drift(params), build_diffusion(params)
        _, covariances, code, value = steady_stack(gamma[None], lam[None])
        v = covariances[0]
        want = np.linalg.norm(gamma @ v + v @ gamma.T + lam) / np.linalg.norm(lam)
        assert code[0] == OK and want > 0.0
        np.testing.assert_allclose(value[0], want, rtol=1e-12)


class TestEvolveCovariance:
    def test_zero_time_returns_initial_state(self):
        v0 = CovarianceMatrix(0.5 * np.eye(6))
        out = evolve_covariance(build_drift(make_params()), np.zeros((6, 6)), v0, 0.0, 1e-9)
        assert out is v0

    def test_undriven_decay_empties_the_state(self):
        # Lambda = 0 with a stable drift contracts any initial covariance
        # toward zero.
        gamma = build_drift(make_params(upsilon=0.0))
        v0 = CovarianceMatrix(np.eye(6))
        rate = abs(stability(gamma).max_real_part)
        spectral = float(np.abs(stability(gamma).eigenvalues).max())
        out = evolve_covariance(gamma, np.zeros((6, 6)), v0, 30.0 / rate, 0.03 / spectral)
        assert float(np.linalg.norm(out.data)) < 1e-9

    def test_converges_to_lyapunov_solution(self):
        params = make_params()
        gamma, lam = build_drift(params), build_diffusion(params)
        target = solve_lyapunov(gamma, lam)
        report = stability(gamma)
        spectral = float(np.abs(report.eigenvalues).max())
        out = evolve_covariance(
            gamma,
            lam,
            CovarianceMatrix(0.5 * np.eye(6)),
            20.0 / abs(report.max_real_part),
            0.03 / spectral,
        )
        gap = np.linalg.norm(out.data - target.data) / np.linalg.norm(target.data)
        assert gap < 1e-6

    def test_oversized_step_blows_up(self):
        params = make_params()
        gamma, lam = build_drift(params), build_diffusion(params)
        spectral = float(np.abs(stability(gamma).eigenvalues).max())
        with pytest.raises(NumericalError):
            evolve_covariance(
                gamma, lam, CovarianceMatrix(0.5 * np.eye(6)), 4000.0 / spectral, 40.0 / spectral
            )

    def test_rejects_bad_steps(self):
        gamma = build_drift(make_params())
        v0 = CovarianceMatrix(0.5 * np.eye(6))
        with pytest.raises(InvalidInputError):
            evolve_covariance(gamma, np.zeros((6, 6)), v0, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            evolve_covariance(gamma, np.zeros((6, 6)), v0, -1.0, 1e-9)
        for t_final, dt, match in [
            (1.0, np.nan, "dt must be positive"), (np.nan, 1e-9, "t_final must be non-negative"),
            (1.0, np.inf, "must be finite"), (np.inf, 1e-9, "must be finite"),
        ]:
            with pytest.raises(InvalidInputError, match=match):
                evolve_covariance(gamma, np.zeros((6, 6)), v0, t_final, dt)

    @pytest.mark.filterwarnings("error")
    def test_a_step_past_the_span_is_one_step_of_the_span(self):
        # No propagator is built for the unused step length, which would overflow.
        gamma, lam, v0 = -np.eye(2), np.eye(2), CovarianceMatrix(np.eye(2))
        one_step = evolve_covariance(gamma, lam, v0, 0.1, 0.1)
        assert np.array_equal(evolve_covariance(gamma, lam, v0, 0.1, 1e300).data, one_step.data)

    def test_rejects_nonfinite_input(self):
        gamma = build_drift(make_params())
        lam = np.zeros((6, 6))
        lam[0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            evolve_covariance(gamma, lam, CovarianceMatrix(0.5 * np.eye(6)), 1e-6, 1e-9)

    def test_rejects_shape_mismatch(self):
        gamma = build_drift(make_params())
        match = "gamma, diffusion and v0 must share one square shape"
        for lam, v0 in ((np.zeros((4, 4)), 0.5 * np.eye(6)), (np.zeros((6, 6)), 0.5 * np.eye(4))):
            with pytest.raises(InvalidInputError, match=match):
                evolve_covariance(gamma, lam, CovarianceMatrix(v0), 1e-6, 1e-9)
