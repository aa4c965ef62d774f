"""Model layer: parameter validation, derived quantities, drift and diffusion."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze import (
    InvalidInputError,
    ParametricResonanceError,
    SystemParams,
    build_diffusion,
    build_drift,
    evaluate,
    rabi_frequency,
    thermal_occupation,
    total_spins,
    validity_report,
)
from magsqueeze.errors import RESONANCE
from magsqueeze.model import derive_many

from conftest import BASE_PARAMS, KAPPA_A, TWO_PI, make_params

DIAMETER = 250e-6
N_SPINS = 3.4524794266012828e16
DRIVE = 1.48e15


def driven_params(**overrides: float) -> SystemParams:
    merged = dict(
        theta=np.pi / 2.0,
        upsilon=TWO_PI * 3.9e6,
        kappa_m=TWO_PI * 0.6e6,
        rabi=DRIVE,
        g_m=TWO_PI * 0.2,
        sphere_diameter=DIAMETER,
    )
    merged.update(overrides)
    return make_params(**merged)


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(TWO_PI * 10e9, 0.0) == 0.0

    def test_mechanical_mode_at_10mk(self):
        n = thermal_occupation(TWO_PI * 10e6, 0.010)
        assert n == pytest.approx(20.340618339036453, rel=1e-12)

    def test_magnon_mode_at_10mk(self):
        n = thermal_occupation(TWO_PI * 10e9, 0.010)
        assert n == pytest.approx(1.4359924589903149e-21, rel=1e-9)

    def test_underflow_returns_zero(self):
        assert thermal_occupation(TWO_PI * 10e9, 1e-6) == 0.0

    def test_subnormal_temperature_returns_zero(self):
        # k_B T underflows to zero; the ratio must not divide by it.
        assert thermal_occupation(TWO_PI * 10e6, 2.225073858507203e-309) == 0.0

    def test_classical_limit(self):
        import scipy.constants as sc

        omega, temp = TWO_PI * 1e6, 300.0
        expected = sc.k * temp / (sc.hbar * omega) - 0.5
        assert thermal_occupation(omega, temp) == pytest.approx(expected, rel=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            thermal_occupation(0.0, 0.01)
        with pytest.raises(InvalidInputError):
            thermal_occupation(TWO_PI * 1e6, -1.0)


class TestSpinCountAndDrive:
    def test_sphere_spin_count_frozen(self):
        assert total_spins(DIAMETER) == pytest.approx(N_SPINS, rel=1e-12)
        assert total_spins(DIAMETER) == pytest.approx(3.5e16, rel=0.02)

    def test_cubic_scaling(self):
        assert total_spins(2 * DIAMETER) == pytest.approx(8 * total_spins(DIAMETER), rel=1e-12)

    def test_rabi_frequency_frozen(self):
        assert rabi_frequency(2.87e-5, N_SPINS) == pytest.approx(524457568232321.2, rel=1e-12)

    def test_rabi_linear_in_field(self):
        one = rabi_frequency(1e-5, N_SPINS)
        assert rabi_frequency(3e-5, N_SPINS) == pytest.approx(3 * one, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            total_spins(-1e-6)
        with pytest.raises(InvalidInputError):
            rabi_frequency(-1.0, N_SPINS)
        with pytest.raises(InvalidInputError):
            rabi_frequency(1e-5, 0.0)


class TestSystemParams:
    def test_rejects_both_detuning_forms(self):
        with pytest.raises(InvalidInputError):
            make_params(omega_0=TWO_PI * 9.99e9)

    def test_rejects_missing_detunings(self):
        bad = dict(BASE_PARAMS)
        del bad["delta_a"], bad["delta_m"]
        with pytest.raises(InvalidInputError):
            SystemParams(**bad)

    def test_rejects_half_specified_detunings(self):
        bad = dict(BASE_PARAMS)
        del bad["delta_m"]
        with pytest.raises(InvalidInputError):
            SystemParams(**bad)

    def test_rejects_missing_coupling(self):
        bad = dict(BASE_PARAMS)
        del bad["G_m"]
        with pytest.raises(InvalidInputError):
            SystemParams(**bad)

    def test_rejects_bare_coupling_without_drive(self):
        bare = dict(BASE_PARAMS, g_m=TWO_PI * 0.2)
        del bare["G_m"]
        with pytest.raises(InvalidInputError, match="g_m without G_m needs a drive"):
            SystemParams(**bare)
        # A field amplitude is a drive only together with the sphere diameter.
        with pytest.raises(InvalidInputError, match="g_m without G_m needs a drive"):
            SystemParams(**bare, h_d=2.87e-5)
        assert SystemParams(**bare, h_d=2.87e-5, sphere_diameter=DIAMETER).has_drive
        assert SystemParams(**bare, rabi=DRIVE).has_drive
        assert not make_params().has_drive

    @pytest.mark.parametrize("diameter", [0.0, -1e-6])
    def test_rejects_a_sphere_without_spins(self, diameter):
        # total_spins needs a positive diameter; the point fails when it is built.
        with pytest.raises(InvalidInputError, match="^sphere_diameter must be positive$"):
            make_params(sphere_diameter=diameter)
        with pytest.raises(InvalidInputError, match="^sphere_diameter must be positive$"):
            make_params(h_d=2.87e-5, sphere_diameter=diameter)
        assert make_params(sphere_diameter=DIAMETER).sphere_diameter == DIAMETER

    def test_rejects_zero_dissipation(self):
        with pytest.raises(InvalidInputError):
            make_params(kappa_a=0.0)

    def test_rejects_negative_upsilon(self):
        with pytest.raises(InvalidInputError):
            make_params(upsilon=-1.0)

    def test_rejects_nonfinite_theta(self):
        with pytest.raises(InvalidInputError):
            make_params(theta=np.inf)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemParams)])
    def test_rejects_nonfinite_values(self, name, value):
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite$"):
            make_params(**{name: value})

    def test_theta_normalized_into_period(self):
        p = make_params(theta=-np.pi / 2.0)
        assert p.theta == pytest.approx(1.5 * np.pi, rel=1e-12)
        q = make_params(theta=TWO_PI + 0.3)
        assert q.theta == pytest.approx(0.3, abs=1e-12)


class TestDerive:
    def test_direct_detunings_pass_through(self):
        p = make_params()
        assert build_drift(p)[0, 1] == BASE_PARAMS["delta_a"]
        assert derive_many([p]).delta_m_bar[0] == BASE_PARAMS["delta_m"]

    def test_phase_split_identities(self):
        p = make_params(theta=0.73, upsilon=TWO_PI * 2.2e6)
        gamma, delta_m_bar = build_drift(p), derive_many([p]).delta_m_bar[0]
        delta_theta, kappa_theta = p.upsilon * np.sin(p.theta), p.upsilon * np.cos(p.theta)
        assert gamma[2, 3] == delta_m_bar + delta_theta
        assert gamma[3, 2] == -(delta_m_bar - delta_theta)
        assert gamma[2, 2] == -(p.kappa_m + kappa_theta)
        assert gamma[3, 3] == -(p.kappa_m - kappa_theta)

    def test_undriven_point_leaves_amplitudes_unset(self):
        p = make_params()
        assert np.isnan(derive_many([p]).m_s[0])
        assert -build_drift(p)[2, 4] == BASE_PARAMS["G_m"]

    def test_occupations(self):
        p = make_params()
        n_a, n_m, n_b = (
            thermal_occupation(omega, p.temperature) for omega in (p.omega_a, p.omega_m, p.omega_b)
        )
        assert n_b == pytest.approx(20.340618339036453, rel=1e-12)
        assert n_m == pytest.approx(1.4359924589903149e-21, rel=1e-9)
        assert n_a == n_m  # identical mode frequencies
        assert np.diag(build_diffusion(p)).tolist() == [
            p.kappa_a * (2.0 * n_a + 1.0), p.kappa_a * (2.0 * n_a + 1.0),
            p.kappa_m * (2.0 * n_m + 1.0), p.kappa_m * (2.0 * n_m + 1.0),
            0.0, p.gamma_b * (2.0 * n_b + 1.0),
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.floats(0.0, TWO_PI, allow_nan=False),
        upsilon=st.floats(0.0, 3.0 * KAPPA_A, allow_nan=False),
    )
    def test_split_sums_recover_bare_values(self, theta, upsilon):
        p = make_params(theta=theta, upsilon=upsilon)
        gamma = build_drift(p)
        # gamma[2, 3] and -gamma[3, 2] are the split detunings, -gamma[2, 2]
        # and -gamma[3, 3] the split decays.
        assert gamma[2, 3] - gamma[3, 2] == pytest.approx(
            2.0 * derive_many([p]).delta_m_bar[0], rel=1e-12
        )
        assert -(gamma[2, 2] + gamma[3, 3]) == pytest.approx(
            2.0 * BASE_PARAMS["kappa_m"], rel=1e-12
        )

    def test_mixed_drive_and_detuning_forms_batch_as_alone(self):
        # Each point resolves its own detunings and drive inside one batch.
        points = [
            driven_params(),  # direct detunings, rabi
            driven_params(rabi=None, h_d=2.87e-5),  # field-derived drive
            driven_params(delta_a=None, delta_m=None, omega_0=TWO_PI * (10e9 - 10e6),
                          G_m=None, rabi=1e15),  # shifted by the backaction
            make_params(),  # undriven, direct G_m
        ]
        derived, evaluation = derive_many(points), evaluate(points)
        assert not evaluation.code.any()
        assert np.isnan(derived.m_s[3]) and not np.isnan(derived.m_s[:3]).any()
        assert derived.delta_m_bar[2] != points[2].omega_m - points[2].omega_0
        for k, p in enumerate(points):
            for batch, alone in ((derived, derive_many([p])), (evaluation, evaluate([p]))):
                for field in batch._fields:
                    np.testing.assert_array_equal(
                        getattr(batch, field)[k], getattr(alone, field)[0]
                    )


class TestSteadyAmplitude:
    def test_frozen_working_point(self):
        m_s = derive_many([driven_params()]).m_s[0]
        assert m_s == pytest.approx(5993054.908254709 - 19357585.174224436j, rel=1e-12)
        assert abs(m_s) == pytest.approx(20264076.85809323, rel=1e-12)

    def test_decoupled_undriven_limit(self):
        # With no squeezing and no cavity coupling the magnon responds as a
        # bare damped mode: m_s = drive / (kappa_m + i delta_m).
        p = driven_params(upsilon=0.0, g_a=0.0)
        m_s = derive_many([p]).m_s[0]
        expected = DRIVE / (p.kappa_m + 1j * TWO_PI * 10e6)
        assert m_s == pytest.approx(expected, rel=1e-12)

    def test_parametric_resonance_detected(self):
        # g_a = 0 makes the critical squeezing analytic:
        # upsilon^2 = kappa_m^2 + delta_m^2.
        delta_m = TWO_PI * 10e6
        kappa_m = TWO_PI * 0.6e6
        critical = float(np.hypot(kappa_m, delta_m))
        p = driven_params(g_a=0.0, kappa_m=kappa_m, upsilon=critical)
        assert derive_many([p]).code[0] == RESONANCE
        with pytest.raises(ParametricResonanceError):
            build_drift(p)

    def test_phonon_shift_lowers_amplitude_backaction(self):
        p = driven_params()
        m_s = derive_many([p]).m_s[0]
        q_s = -p.g_m * abs(m_s) ** 2 / p.omega_b
        assert q_s == pytest.approx(-8212656.21821419, rel=1e-9)
        assert q_s == pytest.approx(
            -TWO_PI * 0.2 * abs(m_s) ** 2 / BASE_PARAMS["omega_b"], rel=1e-12
        )


class TestSelfConsistentDetuning:
    def test_direct_coupling_with_drive_frequency(self):
        # G_m given directly: the drive frequency fixes the detunings with
        # no backaction shift.
        p = make_params(delta_a=None, delta_m=None, omega_0=TWO_PI * (10e9 - 10e6))
        assert build_drift(p)[0, 1] == pytest.approx(TWO_PI * 10e6, rel=1e-12)
        assert derive_many([p]).delta_m_bar[0] == p.omega_m - p.omega_0

    def test_direct_coupling_is_not_shifted_by_g_m_and_a_drive(self):
        # configs/default.yaml with the drive frequency in place of the
        # detunings: the direct G_m fixes the drift, so g_m with a drive
        # changes neither the detuning nor the measures.
        p = make_params(delta_a=None, delta_m=None, omega_0=TWO_PI * 9.99e9,
                        g_m=TWO_PI * 0.2, rabi=DRIVE)
        assert derive_many([p]).delta_m_bar[0] == p.omega_m - p.omega_0
        measures = evaluate([p, dataclasses.replace(p, g_m=None)]).measures
        assert measures[0].tolist() == measures[1].tolist()
        assert measures[0, 0] == pytest.approx(0.0925227562922, rel=1e-11)

    def test_fixed_point_property(self):
        shifted = SystemParams(
            **{
                **BASE_PARAMS,
                "delta_a": None,
                "delta_m": None,
                "omega_0": TWO_PI * (10e9 - 10e6),
                "theta": np.pi / 2.0,
                "upsilon": TWO_PI * 3.9e6,
                "kappa_m": TWO_PI * 0.6e6,
                "G_m": None,
                "g_m": TWO_PI * 0.2,
                "rabi": DRIVE,
                "sphere_diameter": DIAMETER,
            }
        )
        d = derive_many([shifted])
        delta_m, delta_m_bar = shifted.omega_m - shifted.omega_0, d.delta_m_bar[0]
        q_s = -TWO_PI * 0.2 * abs(d.m_s[0]) ** 2 / BASE_PARAMS["omega_b"]
        assert delta_m_bar == pytest.approx(delta_m + TWO_PI * 0.2 * q_s, rel=1e-9)
        assert delta_m_bar < delta_m  # backaction softens the detuning


class TestEffectiveCoupling:
    # The drift matrix holds the effective coupling as -gamma[2, 4] = gamma[5, 3].
    def test_direct_value_passes_through(self):
        assert -build_drift(make_params())[2, 4] == BASE_PARAMS["G_m"]

    def test_built_from_steady_amplitude(self):
        p = driven_params(G_m=None)
        g = -build_drift(p)[2, 4]
        m_s = derive_many([p]).m_s[0]
        assert g == pytest.approx(np.sqrt(2.0) * TWO_PI * 0.2 * abs(m_s), rel=1e-12)
        assert g / TWO_PI == pytest.approx(5731546.464337245, rel=1e-9)

    def test_nominal_amplitude_reproduces_quoted_coupling(self):
        # sqrt(2) * g_m * |m_s| with |m_s| = 1.69e7 lands on the quoted
        # 4.8 MHz effective coupling to within a couple of percent.
        assert np.sqrt(2.0) * 0.2 * 1.69e7 == pytest.approx(4.8e6, rel=0.02)

    def test_requires_amplitude_when_bare(self):
        bare = dict(BASE_PARAMS)
        del bare["G_m"]
        with pytest.raises(InvalidInputError):
            build_drift(SystemParams(**bare, g_m=TWO_PI * 0.2))


class TestDrift:
    def test_unsqueezed_matrix_exactly(self):
        p = make_params(upsilon=0.0)
        kappa_a, kappa_m = BASE_PARAMS["kappa_a"], BASE_PARAMS["kappa_m"]
        delta = BASE_PARAMS["delta_a"]
        g_a, g_mb = BASE_PARAMS["g_a"], BASE_PARAMS["G_m"]
        omega_b, gamma_b = BASE_PARAMS["omega_b"], BASE_PARAMS["gamma_b"]
        expected = np.array(
            [
                [-kappa_a, delta, 0.0, g_a, 0.0, 0.0],
                [-delta, -kappa_a, -g_a, 0.0, 0.0, 0.0],
                [0.0, g_a, -kappa_m, delta, -g_mb, 0.0],
                [-g_a, 0.0, -delta, -kappa_m, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, omega_b],
                [0.0, 0.0, 0.0, g_mb, -omega_b, -gamma_b],
            ]
        )
        np.testing.assert_array_equal(build_drift(p), expected)

    @pytest.mark.parametrize(
        "theta,sin_t,cos_t",
        [(0.0, 0.0, 1.0), (np.pi / 2, 1.0, 0.0), (np.pi, 0.0, -1.0), (1.5 * np.pi, -1.0, 0.0)],
    )
    def test_cardinal_phases(self, theta, sin_t, cos_t):
        upsilon = TWO_PI * 2.0e6
        p = make_params(theta=theta, upsilon=upsilon)
        gamma = build_drift(p)
        kappa_m, delta = BASE_PARAMS["kappa_m"], BASE_PARAMS["delta_m"]
        tol = 1e-12 * max(abs(delta), kappa_m, upsilon)
        assert gamma[2, 2] == pytest.approx(-(kappa_m + upsilon * cos_t), abs=tol)
        assert gamma[3, 3] == pytest.approx(-(kappa_m - upsilon * cos_t), abs=tol)
        assert gamma[2, 3] == pytest.approx(delta + upsilon * sin_t, abs=tol)
        assert gamma[3, 2] == pytest.approx(-(delta - upsilon * sin_t), abs=tol)

    def test_squeezing_touches_only_the_magnon_block(self):
        base = build_drift(make_params(upsilon=0.0))
        squeezed = build_drift(make_params(theta=0.9, upsilon=TWO_PI * 1.5e6))
        diff = squeezed - base
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:4, 2:4] = True
        assert np.all(diff[~mask] == 0.0)

    def test_phase_mirror_swaps_split_entries(self):
        theta = 0.8
        fwd = build_drift(make_params(theta=theta))
        bwd = build_drift(make_params(theta=TWO_PI - theta))
        assert bwd[2, 2] == pytest.approx(fwd[2, 2], rel=1e-12)
        assert bwd[3, 3] == pytest.approx(fwd[3, 3], rel=1e-12)
        assert bwd[2, 3] == pytest.approx(-fwd[3, 2], rel=1e-12)
        assert bwd[3, 2] == pytest.approx(-fwd[2, 3], rel=1e-12)

    def test_smooth_in_phase(self):
        upsilon = BASE_PARAMS["upsilon"]
        theta, h = 0.8, 1e-6
        plus = build_drift(make_params(theta=theta + h))
        minus = build_drift(make_params(theta=theta - h))
        numeric = (plus - minus) / (2.0 * h)
        analytic = np.zeros((6, 6))
        analytic[2, 2] = upsilon * np.sin(theta)
        analytic[3, 3] = -upsilon * np.sin(theta)
        analytic[2, 3] = upsilon * np.cos(theta)
        analytic[3, 2] = upsilon * np.cos(theta)
        assert np.max(np.abs(numeric - analytic)) < 1e-6 * upsilon

    def test_bare_coupling_enters_as_modulus(self):
        p = driven_params(G_m=None)
        gamma = build_drift(p)
        expected = np.sqrt(2.0) * TWO_PI * 0.2 * 20264076.85809323
        assert gamma[2, 4] == pytest.approx(-expected, rel=1e-9)
        assert gamma[5, 3] == pytest.approx(expected, rel=1e-9)


class TestDiffusion:
    def test_structure_and_values(self):
        p = make_params()
        lam = build_diffusion(p)
        n_b = 20.340618339036453
        assert lam.shape == (6, 6)
        assert np.all(lam == np.diag(np.diag(lam)))
        assert lam[4, 4] == 0.0
        assert lam[5, 5] == pytest.approx(BASE_PARAMS["gamma_b"] * (2 * n_b + 1), rel=1e-12)
        assert lam[0, 0] == lam[1, 1]
        assert lam[0, 0] == pytest.approx(BASE_PARAMS["kappa_a"], rel=1e-9)  # n_a ~ 0

    def test_zero_temperature_floor(self):
        lam = build_diffusion(make_params(temperature=0.0))
        np.testing.assert_allclose(
            np.diag(lam),
            [
                BASE_PARAMS["kappa_a"], BASE_PARAMS["kappa_a"],
                BASE_PARAMS["kappa_m"], BASE_PARAMS["kappa_m"],
                0.0, BASE_PARAMS["gamma_b"],
            ],
            rtol=1e-15,
        )


class TestValidityReport:
    def test_working_point_passes(self):
        report = validity_report(driven_params(), TWO_PI * 6.4e-9)
        assert report.low_excitation_ok and report.kerr_ok and report.stable
        assert report.magnon_occupation == report.magnon_amplitude**2
        assert report.excitation_bound == pytest.approx(5.0 * N_SPINS, rel=1e-12)
        assert report.kerr_drive_ratio == pytest.approx(0.22608856580776215, rel=1e-9)

    def test_field_derived_drive(self):
        p = driven_params(rabi=None, h_d=2.87e-5)
        report = validity_report(p, TWO_PI * 6.4e-9)
        assert report.drive_amplitude == pytest.approx(524457568232321.2, rel=1e-12)
        assert report.low_excitation_ok

    def test_overdriven_field_fails(self):
        p = driven_params(rabi=None, h_d=2.87e-3)
        report = validity_report(p, TWO_PI * 6.4e-9)
        assert not report.low_excitation_ok
        assert not report.kerr_ok

    def test_temperature_does_not_enter(self):
        cold = validity_report(driven_params(), TWO_PI * 6.4e-9)
        warm = validity_report(driven_params(temperature=0.2), TWO_PI * 6.4e-9)
        assert cold == warm

    def test_unstable_point_reported(self):
        report = validity_report(
            driven_params(upsilon=2.0 * KAPPA_A, theta=1.5 * np.pi), TWO_PI * 6.4e-9
        )
        assert not report.stable

    def test_rejects_negative_kerr(self):
        with pytest.raises(InvalidInputError):
            validity_report(driven_params(), -1.0)

    def test_requires_drive(self):
        with pytest.raises(InvalidInputError):
            validity_report(make_params(sphere_diameter=DIAMETER), TWO_PI * 6.4e-9)

    def test_requires_sphere(self):
        with pytest.raises(InvalidInputError):
            validity_report(driven_params(sphere_diameter=None), TWO_PI * 6.4e-9)

    @pytest.mark.parametrize(
        ("kerr", "sphere"), [(-1.0, DIAMETER), (TWO_PI * 6.4e-9, None)],
        ids=["negative_kerr", "no_sphere"],
    )
    def test_inputs_checked_before_the_point_is_solved(self, kerr, sphere):
        # At parametric resonance (g_a = 0, upsilon^2 = kappa_m^2 + delta_m^2)
        # solving the point raises; a bad input must be reported first.
        critical = float(np.hypot(TWO_PI * 0.6e6, TWO_PI * 10e6))
        p = driven_params(g_a=0.0, upsilon=critical, rabi=1e14, sphere_diameter=sphere)
        with pytest.raises(InvalidInputError):
            validity_report(p, kerr)
