"""Gaussian-state toolbox checks against closed-form two-mode results."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magsqueeze import (
    CovarianceMatrix,
    InvalidInputError,
    InvalidStateError,
    Partition,
    build_diffusion,
    build_drift,
    check_physicality,
    log_negativity,
    min_residual_contangle,
    partial_transpose,
    residual_contangle,
    solve_lyapunov,
    stability,
    symplectic_eigenvalues,
    symplectic_form,
    wigner_single_mode,
)

from conftest import TWO_PI, make_params


def two_mode_squeezed(r: float) -> CovarianceMatrix:
    ch = 0.5 * np.cosh(2.0 * r)
    sh = 0.5 * np.sinh(2.0 * r)
    v = np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )
    return CovarianceMatrix(v)


def closed_form_log_negativity(sub: np.ndarray) -> float:
    """Two-mode E_N from the 2x2 block determinants, no eigensolver."""
    det_a = np.linalg.det(sub[:2, :2])
    det_b = np.linalg.det(sub[2:, 2:])
    det_c = np.linalg.det(sub[:2, 2:])
    sigma = det_a + det_b - 2.0 * det_c
    disc = max(sigma * sigma - 4.0 * np.linalg.det(sub), 0.0)
    nu_sq = 0.5 * (sigma - np.sqrt(disc))
    nu = np.sqrt(max(nu_sq, 0.0))
    if nu <= 0.0:
        return np.inf
    return max(0.0, -np.log(2.0 * nu))


def random_stable_state(seed: int) -> CovarianceMatrix | None:
    """Steady covariance of a randomized stable parameter draw, or None."""
    rng = np.random.default_rng(seed)
    kappa_a = TWO_PI * 3e6
    for _ in range(25):
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
        if not stability(gamma).is_stable:
            continue
        return solve_lyapunov(gamma, build_diffusion(params))
    return None


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestSymplecticForm:
    def test_single_mode(self):
        np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_squares_to_minus_identity(self):
        omega = symplectic_form(3)
        np.testing.assert_array_equal(omega @ omega, -np.eye(6))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            symplectic_form(0)


class TestCovarianceMatrix:
    def test_rejects_asymmetric(self):
        v = np.eye(4)
        v[0, 1] = 1e-6
        with pytest.raises(InvalidInputError):
            CovarianceMatrix(v)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError, match=r"must be square, got shape \(2, 4\)"):
            CovarianceMatrix(np.ones((2, 4)))

    def test_rejects_odd_dimension(self):
        with pytest.raises(InvalidInputError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_nonfinite(self):
        v = np.eye(4)
        v[2, 2] = np.nan
        with pytest.raises(InvalidInputError):
            CovarianceMatrix(v)

    @pytest.mark.filterwarnings("error")
    def test_symmetry_check_near_the_float_range(self):
        # Squares of the entries overflow; the norms are taken on the matrix scaled
        # by a power of two, so the relative tolerance still holds.
        v = 1e300 * two_mode_squeezed(0.3).data
        assert CovarianceMatrix(v).data is not None
        v[0, 2] *= 1.0 + 1e-6
        with pytest.raises(InvalidInputError, match="not symmetric"):
            CovarianceMatrix(v)

    def test_mode_block_and_restriction(self):
        state = two_mode_squeezed(0.3)
        block = state.mode_block(0, 1)
        np.testing.assert_array_equal(block, state.data[0:2, 2:4])
        sub = state.restricted((1,))
        np.testing.assert_array_equal(sub.data, state.data[2:4, 2:4])

    def test_restriction_rejects_bad_mode(self):
        with pytest.raises(InvalidInputError):
            two_mode_squeezed(0.1).restricted((0, 2))

    def test_mode_block_rejects_bad_mode(self):
        with pytest.raises(InvalidInputError, match=r"mode indices \(0, 2\) out of range"):
            two_mode_squeezed(0.1).mode_block(0, 2)


class TestPartition:
    def test_rejects_overlap(self):
        with pytest.raises(InvalidInputError):
            Partition((0, 1), (1, 2))

    def test_rejects_empty_side(self):
        with pytest.raises(InvalidInputError):
            Partition((), (0,))

    def test_rejects_negative_mode(self):
        with pytest.raises(InvalidInputError, match="mode indices must be non-negative"):
            Partition((-1,), (0,))

    def test_order_insensitive_storage(self):
        p = Partition((2, 0), (1,))
        assert p.party_a == frozenset({0, 2})


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        nus = symplectic_eigenvalues(CovarianceMatrix(0.5 * np.eye(6)))
        np.testing.assert_allclose(nus, 0.5, rtol=1e-12)

    def test_pure_squeezed_pair(self):
        nus = symplectic_eigenvalues(two_mode_squeezed(0.7))
        np.testing.assert_allclose(nus, [0.5, 0.5], atol=1e-9)

    def test_thermal_scaling(self):
        n_th = 3.25
        v = CovarianceMatrix((n_th + 0.5) * np.eye(2))
        np.testing.assert_allclose(symplectic_eigenvalues(v), [n_th + 0.5], rtol=1e-12)

    def test_rejects_singular(self):
        with pytest.raises(InvalidInputError):
            symplectic_eigenvalues(CovarianceMatrix(np.zeros((2, 2))))

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_physical_states_respect_vacuum_floor(self, seed):
        state = random_stable_state(seed)
        assume(state is not None)
        assert symplectic_eigenvalues(state).min() >= 0.5 - 1e-9


class TestPartialTranspose:
    def test_flips_momentum_signs_of_chosen_party(self):
        state = two_mode_squeezed(0.4)
        flipped = partial_transpose(state, frozenset({1}))
        expected = state.data.copy()
        expected[3, :] *= -1.0
        expected[:, 3] *= -1.0
        np.testing.assert_array_equal(flipped.data, expected)

    def test_involution_is_exact(self):
        state = two_mode_squeezed(0.9)
        twice = partial_transpose(partial_transpose(state, frozenset({0})), frozenset({0}))
        np.testing.assert_array_equal(twice.data, state.data)

    def test_rejects_out_of_range_mode(self):
        with pytest.raises(InvalidInputError):
            partial_transpose(two_mode_squeezed(0.1), frozenset({2}))

    def test_rejects_empty_party(self):
        with pytest.raises(InvalidInputError, match="party must contain at least one mode"):
            partial_transpose(two_mode_squeezed(0.1), ())


class TestLogNegativity:
    def test_two_mode_squeezed_frozen_value(self):
        # r = 0.5: the PT symplectic minimum is exp(-2r)/2 and E_N = 2r.
        state = two_mode_squeezed(0.5)
        nu_min = symplectic_eigenvalues(partial_transpose(state, frozenset({0}))).min()
        assert nu_min == pytest.approx(0.18393972058572117, abs=1e-12)
        assert log_negativity(state, Partition((0,), (1,))) == pytest.approx(1.0, rel=1e-12)

    def test_product_state_carries_none(self):
        v = np.diag([0.7, 0.7, 1.3, 1.3])
        assert log_negativity(CovarianceMatrix(v), Partition((0,), (1,))) <= 1e-10

    def test_party_swap_invariance(self):
        state = random_stable_state(7)
        assert state is not None
        for pair in ((0,), (1,)), ((0, 2), (1,)):
            forward = log_negativity(state, Partition(*pair))
            swapped = log_negativity(state, Partition(pair[1], pair[0]))
            assert forward == pytest.approx(swapped, abs=1e-10)

    def test_rejects_unphysical_state(self):
        with pytest.raises(InvalidStateError):
            log_negativity(CovarianceMatrix(0.4 * np.eye(4)), Partition((0,), (1,)))

    def test_two_of_three_modes_reduces_first(self):
        # A 1|1 partition of a three-mode state traces out the third mode.
        state = random_stable_state(7)
        assert state is not None
        direct = log_negativity(state, Partition((0,), (2,)))
        reduced = log_negativity(state.restricted((0, 2)), Partition((0,), (1,)))
        assert direct == pytest.approx(reduced, abs=1e-12)

    def test_rejects_out_of_range_partition(self):
        state = random_stable_state(7)
        assert state is not None
        with pytest.raises(InvalidInputError):
            log_negativity(state, Partition((0,), (3,)))

    def test_rejects_two_by_two_partition(self):
        v = CovarianceMatrix(0.5 * np.eye(8))
        with pytest.raises(InvalidInputError):
            log_negativity(v, Partition((0, 1), (2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_matches_closed_form_on_reduced_pairs(self, seed):
        state = random_stable_state(seed)
        assume(state is not None)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            sub = state.restricted((i, j))
            expected = closed_form_log_negativity(sub.data)
            computed = log_negativity(sub, Partition((0,), (1,)))
            assert computed == pytest.approx(expected, abs=1e-9)


class TestContangle:
    def test_squeezed_pair_with_spectator_has_zero_residual(self):
        # Appending an uncorrelated vacuum mode must not create or destroy
        # three-way correlations.
        pair = two_mode_squeezed(0.5).data
        v = np.block(
            [
                [pair, np.zeros((4, 2))],
                [np.zeros((2, 4)), 0.5 * np.eye(2)],
            ]
        )
        state = CovarianceMatrix(v)
        assert residual_contangle(state, 0) == pytest.approx(0.0, abs=1e-9)
        assert min_residual_contangle(state) == pytest.approx(0.0, abs=1e-9)

    def test_focus_validation(self):
        state = random_stable_state(11)
        assert state is not None
        with pytest.raises(InvalidInputError):
            residual_contangle(state, 3)
        with pytest.raises(InvalidInputError):
            residual_contangle(two_mode_squeezed(0.1), 0)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_monogamy_on_steady_states(self, seed):
        state = random_stable_state(seed)
        assume(state is not None)
        for focus in range(3):
            assert residual_contangle(state, focus) >= -1e-8

    def test_min_residual_floor_at_zero(self):
        state = random_stable_state(11)
        assert state is not None
        assert min_residual_contangle(state) >= 0.0


class TestPhysicality:
    def test_vacuum_is_physical(self):
        report = check_physicality(CovarianceMatrix(0.5 * np.eye(4)))
        assert report.is_physical
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_sub_vacuum_is_not(self):
        report = check_physicality(CovarianceMatrix(0.4 * np.eye(4)))
        assert not report.is_physical
        assert report.min_eigenvalue == pytest.approx(-0.1, abs=1e-9)


class TestWigner:
    @staticmethod
    def grid(extent: float, n: int):
        axis = np.linspace(-extent, extent, n)
        xx, pp = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), pp.ravel()])
        return axis, pts

    def test_vacuum_peak_and_normalization(self):
        axis, pts = self.grid(5.0, 81)
        w = wigner_single_mode(0.5 * np.eye(2), pts).reshape(81, 81)
        assert w.max() == pytest.approx(1.0 / np.pi, rel=1e-12)
        total = np.trapezoid(np.trapezoid(w, axis, axis=1), axis)
        assert total == pytest.approx(1.0, abs=1e-3)
        assert w.min() >= 0.0

    def test_squeezed_block_widths(self):
        r = 0.6
        block = np.diag([0.5 * np.exp(-2 * r), 0.5 * np.exp(2 * r)])
        axis, pts = self.grid(8.0, 161)
        w = wigner_single_mode(block, pts).reshape(161, 161)
        marg_x = np.trapezoid(w, axis, axis=1)
        var_x = np.trapezoid(axis**2 * marg_x, axis)
        assert var_x == pytest.approx(block[0, 0], rel=1e-3)

    def test_rejects_singular_block(self):
        with pytest.raises(InvalidStateError):
            wigner_single_mode(np.zeros((2, 2)), np.zeros((1, 2)))

    def test_rejects_two_mode_block(self):
        with pytest.raises(InvalidInputError, match=r"2x2 covariance block, got shape \(4, 4\)"):
            wigner_single_mode(0.5 * np.eye(4), np.zeros((1, 2)))

    def test_rejects_bad_grid_shape(self):
        with pytest.raises(InvalidInputError):
            wigner_single_mode(0.5 * np.eye(2), np.zeros((4, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_block_near_the_float_range(self, scale):
        # det of the block overflows or underflows, and at 1e300 the squares of its
        # entries; taken on the block scaled by a power of two, W(u) keeps its
        # scaling W_{sV}(sqrt(s) u) = W_V(u) / s.
        block = np.array([[0.7, 0.2], [0.2, 0.5]])
        _, pts = self.grid(3.0, 7)
        w = wigner_single_mode(scale * block, np.sqrt(scale) * pts)
        np.testing.assert_allclose(w * scale, wigner_single_mode(block, pts), rtol=1e-12)
        if scale > 1.0:
            with pytest.raises(InvalidInputError, match="symmetric"):
                wigner_single_mode(scale * np.array([[0.7, 0.2], [0.3, 0.5]]), pts)

    def test_rejects_asymmetric_block(self):
        block = np.array([[0.5, 0.1], [0.2, 0.5]])
        with pytest.raises(InvalidInputError):
            wigner_single_mode(block, np.zeros((1, 2)))
        # Held to CovarianceMatrix's rule, whose Frobenius norm of V - V^T counts the
        # off-diagonal gap sqrt(2) times.
        block = np.array([[0.5, 0.1], [0.1 + 8.5e-13, 0.5]])
        with pytest.raises(InvalidInputError, match="not symmetric to within relative tolerance"):
            wigner_single_mode(block, np.zeros((1, 2)))
