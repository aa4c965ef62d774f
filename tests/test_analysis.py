"""Entanglement measures, directional contrasts and the sweep engine."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze import (
    ConfigError,
    InvalidInputError,
    ModePair,
    NoMeasuresError,
    PhasePairing,
    SweepResult,
    SystemParams,
    bipartite_entanglement,
    build_drift,
    directional_measures,
    evaluate,
    min_residual_contangle,
    steady_state,
    sweep,
    temperature_thresholds,
)
from magsqueeze.analysis import CONTRASTS, MEASURES, _contrast
from magsqueeze.gaussian import CovarianceMatrix

from conftest import KAPPA_A, TWO_PI, make_params

WORKING_POINT = dict(
    e_am=0.09252275629220927,
    e_ab=0.04060438886875909,
    e_mb=0.3161324279493292,
    r_min=0.008450664041460804,
)


def measure(result: SweepResult, k: int, name: str) -> float:
    """The measure ``name`` of point ``k`` of a sweep, NaN where null."""
    return float(result.measures[k, MEASURES.index(name)])


def contrast(forward: float, backward: float) -> float:
    """``_contrast`` of one measure at two steady phases."""
    return float(_contrast(np.ones(2, dtype=bool), np.array([[forward], [backward]]))[0])


class TestContrastRatio:
    def test_equal_inputs(self):
        assert contrast(0.5, 0.5) == 0.0

    def test_one_sided(self):
        assert contrast(0.33, 0.0) == 1.0
        assert contrast(0.0, 0.17) == 1.0

    def test_half(self):
        assert contrast(0.33, 0.11) == pytest.approx(0.5, rel=1e-12)

    def test_zero_over_zero(self):
        assert contrast(0.0, 0.0) == 0.0
        assert contrast(1e-13, 0.0) == 0.0  # below the floor

    def test_floor_is_1e_minus_12(self):
        assert contrast(1.2e-12, 0.0) == 1.0
        assert contrast(0.9e-12, 0.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        f=st.floats(0.0, 10.0, allow_nan=False),
        b=st.floats(0.0, 10.0, allow_nan=False),
    )
    def test_symmetric_and_bounded(self, f, b):
        c = contrast(f, b)
        assert 0.0 <= c <= 1.0
        assert c == contrast(b, f)


class TestModePair:
    def test_indices(self):
        assert ModePair.CAVITY_MAGNON.value == (0, 1)
        assert ModePair.CAVITY_PHONON.value == (0, 2)
        assert ModePair.MAGNON_PHONON.value == (1, 2)


class TestPhasePairing:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            PhasePairing(-0.1, 1.0)
        with pytest.raises(InvalidInputError):
            PhasePairing(0.0, TWO_PI)

    def test_rejects_equal_phases(self):
        with pytest.raises(InvalidInputError):
            PhasePairing(1.0, 1.0)


class TestSteadyMeasures:
    def test_working_point_frozen_values(self):
        v = steady_state(make_params())
        assert bipartite_entanglement(v, ModePair.CAVITY_MAGNON) == pytest.approx(
            WORKING_POINT["e_am"], rel=1e-9
        )
        assert bipartite_entanglement(v, ModePair.CAVITY_PHONON) == pytest.approx(
            WORKING_POINT["e_ab"], rel=1e-9
        )
        assert bipartite_entanglement(v, ModePair.MAGNON_PHONON) == pytest.approx(
            WORKING_POINT["e_mb"], rel=1e-9
        )
        assert min_residual_contangle(v) == pytest.approx(WORKING_POINT["r_min"], rel=1e-9)

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(InvalidInputError):
            bipartite_entanglement(CovarianceMatrix(0.5 * np.eye(4)), ModePair.CAVITY_MAGNON)

    def test_uncoupled_system_is_separable(self):
        v = steady_state(make_params(g_a=0.0, G_m=0.0, upsilon=0.0))
        for pair in ModePair:
            assert bipartite_entanglement(v, pair) == 0.0
        assert min_residual_contangle(v) == 0.0


class TestPhaseStructure:
    def test_opposed_half_phases_differ_only_in_detuning_split(self):
        upsilon = 1.3 * KAPPA_A
        diff = build_drift(make_params(theta=np.pi / 2, upsilon=upsilon)) - build_drift(
            make_params(theta=1.5 * np.pi, upsilon=upsilon)
        )
        expected = np.zeros((6, 6))
        expected[2, 3] = 2.0 * upsilon
        expected[3, 2] = 2.0 * upsilon
        np.testing.assert_allclose(diff, expected, atol=1e-6)

    def test_opposed_axial_phases_differ_only_in_decay_split(self):
        upsilon = 1.3 * KAPPA_A
        diff = build_drift(make_params(theta=0.0, upsilon=upsilon)) - build_drift(
            make_params(theta=np.pi, upsilon=upsilon)
        )
        expected = np.zeros((6, 6))
        expected[2, 2] = -2.0 * upsilon
        expected[3, 3] = 2.0 * upsilon
        np.testing.assert_allclose(diff, expected, atol=1e-6)


class TestDirectionalMeasures:
    def test_working_point_contrasts_frozen(self):
        record = directional_measures(make_params(), PhasePairing(np.pi / 2, 1.5 * np.pi))
        assert record.c_am == pytest.approx(0.1161469374775367, rel=1e-9)
        assert record.c_ab == pytest.approx(1.0, abs=1e-12)
        assert record.c_mb == pytest.approx(0.30819819083321837, rel=1e-9)
        assert record.c_r == pytest.approx(0.5825583726775877, rel=1e-9)
        assert record.forward.theta == np.pi / 2
        assert record.backward.e_mb == pytest.approx(WORKING_POINT["e_mb"], rel=1e-9)

    def test_contrasts_recompute_from_raw_points(self):
        record = directional_measures(make_params(), PhasePairing(np.pi / 2, 1.5 * np.pi))
        f, b = record.forward.e_mb, record.backward.e_mb
        assert record.c_mb == abs(f - b) / (f + b)

    def test_no_squeezing_means_no_nonreciprocity(self):
        record = directional_measures(make_params(upsilon=0.0), PhasePairing(np.pi / 2, 1.5 * np.pi))
        assert record.c_am == 0.0
        assert record.c_ab == 0.0
        assert record.c_mb == 0.0
        assert record.c_r == 0.0
        # Without squeezing the phase is inert: both directions solve the
        # same dynamics, bit for bit.
        assert record.forward.e_mb == record.backward.e_mb

    def test_one_unstable_side_zero_fills(self):
        record = directional_measures(
            make_params(upsilon=2.0 * KAPPA_A), PhasePairing(np.pi / 2, 1.5 * np.pi)
        )
        assert record.forward.stable and not record.backward.stable
        assert record.backward.e_mb is None
        assert record.c_mb == 1.0  # forward entanglement against a zero

    def test_both_sides_unstable_raises(self):
        with pytest.raises(NoMeasuresError):
            directional_measures(
                make_params(upsilon=2.0 * KAPPA_A), PhasePairing(1.4 * np.pi, 1.6 * np.pi)
            )


class TestSweep:
    def test_grid_shape_and_row_major_order(self):
        ups = [0.0, 0.5 * KAPPA_A, KAPPA_A]
        thetas = [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi]
        result = sweep(make_params(), [("upsilon", ups), ("theta", thetas)])
        assert result.stable.shape == (12,) and result.measures.shape == (12, 4)
        assert result.axes[0][0] == "upsilon" and result.axes[1][0] == "theta"
        assert result.axes[0][1].tolist() == ups and result.axes[1][1].tolist() == thetas
        # Row k is the point (ups[k // 4], thetas[k % 4]).
        points = [make_params(upsilon=u, theta=t) for u in ups for t in thetas]
        np.testing.assert_allclose(result.measures, evaluate(points).measures, rtol=1e-12)

    def test_single_point_matches_direct_evaluation(self):
        result = sweep(make_params(), [("upsilon", [1.3 * KAPPA_A])])
        assert result.stable[0]
        assert measure(result, 0, "E_mb") == pytest.approx(WORKING_POINT["e_mb"], rel=1e-12)
        assert measure(result, 0, "R_min") == pytest.approx(WORKING_POINT["r_min"], rel=1e-12)

    def test_deterministic(self):
        axes = [("upsilon", np.linspace(0.0, 1.5 * KAPPA_A, 5)), ("g_a", [TWO_PI * 4e6, TWO_PI * 5e6])]
        serial = sweep(make_params(), axes)
        again = sweep(make_params(), axes)
        for field in ("stable", "failed", "measures"):
            np.testing.assert_array_equal(getattr(serial, field), getattr(again, field))

    def test_unstable_points_become_null_records(self):
        result = sweep(make_params(theta=1.5 * np.pi), [("upsilon", [KAPPA_A, 2.0 * KAPPA_A])])
        assert result.stable.tolist() == [True, False]
        assert not np.isnan(measure(result, 0, "E_mb"))
        assert np.isnan(result.measures[1]).all()

    def test_pairing_fills_contrast_columns(self):
        result = sweep(
            make_params(),
            [("upsilon", [0.5 * KAPPA_A, 1.3 * KAPPA_A])],
            pairing=PhasePairing(np.pi / 2, 1.5 * np.pi),
        )
        c_am, c_mb, c_r = (result.contrasts[:, CONTRASTS.index(name)]
                           for name in ("C_E_am", "C_E_mb", "C_R"))
        assert not np.isnan(c_am).any() and not np.isnan(c_r).any()
        assert result.backward_stable.tolist() == [True, True]
        direct = directional_measures(
            make_params(upsilon=1.3 * KAPPA_A), PhasePairing(np.pi / 2, 1.5 * np.pi)
        )
        assert c_mb[1] == pytest.approx(direct.c_mb, rel=1e-12)
        assert measure(result, 1, "E_mb") == pytest.approx(direct.forward.e_mb, rel=1e-12)

    def test_driven_rows_equal_directional_measures(self):
        # G_m from a drive with the self-consistent shift.  The last row's
        # backward phase is unstable, so its contrasts are zero-filled.
        base = make_params(delta_a=None, delta_m=None, G_m=None, omega_0=TWO_PI * 9.99e9,
                           g_m=TWO_PI * 0.2, rabi=2.0e14)
        pairing = PhasePairing(np.pi / 2, 1.5 * np.pi)
        upsilons = [0.5 * KAPPA_A, 1.3 * KAPPA_A, 2.0 * KAPPA_A]
        result = sweep(base, [("upsilon", upsilons)], pairing=pairing)
        assert result.backward_stable.tolist() == [True, True, False]
        for k, upsilon in enumerate(upsilons):
            record = directional_measures(replace(base, upsilon=upsilon), pairing)
            forward = [np.nan if m is None else m for m in record.forward[2:]]
            np.testing.assert_array_equal(result.stable[k], record.forward.stable)
            np.testing.assert_array_equal(result.measures[k], forward)
            np.testing.assert_array_equal(result.contrasts[k], record[:4])

    def test_pairing_with_both_sides_unstable_yields_null_record(self):
        result = sweep(
            make_params(),
            [("upsilon", [2.0 * KAPPA_A])],
            pairing=PhasePairing(1.4 * np.pi, 1.6 * np.pi),
        )
        assert not result.stable[0] and not result.backward_stable[0] and not result.failed[0]
        assert np.isnan(result.contrasts[0, CONTRASTS.index("C_E_mb")])
        assert np.isnan(measure(result, 0, "E_mb"))

    def test_rejects_bad_axes(self):
        p = make_params()
        with pytest.raises(ConfigError):
            sweep(p, [])
        with pytest.raises(ConfigError):
            sweep(p, [("upsilon", [1.0]), ("g_a", [1.0]), ("theta", [1.0])])
        with pytest.raises(ConfigError):
            sweep(p, [("upsilon", [1.0]), ("upsilon", [2.0])])
        with pytest.raises(ConfigError):
            sweep(p, [("kappa_a", [1.0])])
        with pytest.raises(ConfigError):
            sweep(p, [("upsilon", [])])
        with pytest.raises(ConfigError, match="axis 'upsilon' values must be numbers"):
            sweep(p, [("upsilon", ["a"])])
        with pytest.raises(ConfigError):
            sweep(p, [("upsilon", [np.nan])])
        with pytest.raises(ConfigError, match="upsilon must be finite"):
            sweep(p, [("upsilon", [1.0, np.nan, 2.0])])
        with pytest.raises(ConfigError):
            sweep(p, [("upsilon", [-1.0])])
        # Every value is validated, not only the first one.
        with pytest.raises(ConfigError, match="upsilon"):
            sweep(p, [("upsilon", [1.0, -1.0])])

    def test_result_rejects_a_point_count_off_its_axes(self):
        grid = np.linspace(0.0, 1.0, 3)
        with pytest.raises(InvalidInputError, match=r"point count 4 != product of axis lengths 3"):
            SweepResult(
                axes=(("upsilon", grid),),
                stable=np.ones(4, dtype=bool),
                failed=np.zeros(4, dtype=bool),
                measures=np.zeros((4, 4)),
            )

    def test_rejects_theta_axis_with_pairing(self):
        with pytest.raises(ConfigError):
            sweep(
                make_params(),
                [("theta", [0.0, np.pi])],
                pairing=PhasePairing(np.pi / 2, 1.5 * np.pi),
            )

    def test_columns_need_no_per_point_objects(self, monkeypatch):
        count = 0
        original = SystemParams.__init__

        def init(self, *args, **kwargs):
            nonlocal count
            count += 1
            original(self, *args, **kwargs)

        base = make_params()
        monkeypatch.setattr(SystemParams, "__init__", init)
        axes = [("upsilon", np.linspace(0.0, 2.0 * KAPPA_A, 31)),
                ("theta", np.linspace(0.0, TWO_PI, 31))]
        result = sweep(base, axes)
        # One SystemParams per axis extreme, for the axis validation.
        assert count == 4
        assert result.stable.shape == (31 * 31,) and result.measures.shape == (31 * 31, 4)


def synthetic_temperature_result(values: list[float | None]) -> SweepResult:
    grid = np.linspace(0.001, 0.001 * len(values), len(values))
    contrast = np.array([np.nan if v is None else v for v in values])
    stable = ~np.isnan(contrast)
    return SweepResult(
        axes=(("temperature", grid),),
        stable=stable,
        failed=np.zeros(len(values), dtype=bool),
        measures=np.full((len(values), 4), np.nan),
        backward_stable=stable,
        contrasts=np.repeat(contrast[:, None], 4, axis=1),
    )


class TestTemperatureThresholds:
    def test_interval_extraction(self):
        result = synthetic_temperature_result([0.5, 0.995, 1.0, 0.9, 0.999, 0.999])
        intervals = temperature_thresholds(result, "C_E_mb")
        assert intervals == [
            (pytest.approx(0.002), pytest.approx(0.003)),
            (pytest.approx(0.005), pytest.approx(0.006)),
        ]

    def test_open_tail_interval(self):
        result = synthetic_temperature_result([1.0, 1.0, 0.2, 1.0])
        intervals = temperature_thresholds(result, "C_R")
        assert len(intervals) == 2
        assert intervals[1] == (pytest.approx(0.004), pytest.approx(0.004))

    def test_null_points_break_intervals(self):
        result = synthetic_temperature_result([1.0, None, 1.0])
        intervals = temperature_thresholds(result, "C_E_am")
        assert len(intervals) == 2

    def test_no_ideal_region(self):
        result = synthetic_temperature_result([0.1, 0.5, 0.0])
        assert temperature_thresholds(result, "C_E_ab") == []

    def test_rejects_unknown_measure(self):
        result = synthetic_temperature_result([1.0])
        with pytest.raises(ConfigError):
            temperature_thresholds(result, "E_mb")

    def test_rejects_missing_pairing(self):
        plain = sweep(make_params(), [("temperature", [0.01])])
        with pytest.raises(ConfigError):
            temperature_thresholds(plain, "C_E_mb")

    def test_rejects_wrong_axis(self):
        result = sweep(
            make_params(),
            [("upsilon", [KAPPA_A])],
            pairing=PhasePairing(np.pi / 2, 1.5 * np.pi),
        )
        with pytest.raises(ConfigError):
            temperature_thresholds(result, "C_E_mb")
