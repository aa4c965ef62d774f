"""Entanglement measures, directional contrasts and the sweep engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze import (
    ConfigError,
    DerivedQuantities,
    InvalidInputError,
    ModePair,
    NoMeasuresError,
    PhasePairing,
    SweepResult,
    SystemParams,
    bipartite_entanglement,
    build_drift,
    contrast_ratio,
    directional_measures,
    min_residual_contangle,
    steady_state,
    sweep,
    temperature_thresholds,
)
from magsqueeze import analysis, model
from magsqueeze.gaussian import CovarianceMatrix
from magsqueeze.model import derive_many

from conftest import KAPPA_A, TWO_PI, make_params

WORKING_POINT = dict(
    e_am=0.09252275629220927,
    e_ab=0.04060438886875909,
    e_mb=0.3161324279493292,
    r_min=0.008450664041460804,
)


class TestContrastRatio:
    def test_equal_inputs(self):
        assert contrast_ratio(0.5, 0.5) == 0.0

    def test_one_sided(self):
        assert contrast_ratio(0.33, 0.0) == 1.0
        assert contrast_ratio(0.0, 0.17) == 1.0

    def test_half(self):
        assert contrast_ratio(0.33, 0.11) == pytest.approx(0.5, rel=1e-12)

    def test_zero_over_zero(self):
        assert contrast_ratio(0.0, 0.0) == 0.0
        assert contrast_ratio(1e-13, 0.0) == 0.0  # below the floor

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            contrast_ratio(-0.1, 0.2)

    @settings(max_examples=200, deadline=None)
    @given(
        f=st.floats(0.0, 10.0, allow_nan=False),
        b=st.floats(0.0, 10.0, allow_nan=False),
    )
    def test_symmetric_and_bounded(self, f, b):
        c = contrast_ratio(f, b)
        assert 0.0 <= c <= 1.0
        assert c == contrast_ratio(b, f)


class TestModePair:
    def test_label_round_trip(self):
        for pair in ModePair:
            assert ModePair.from_label(pair.label) is pair

    def test_indices(self):
        assert ModePair.CAVITY_MAGNON.indices == (0, 1)
        assert ModePair.CAVITY_PHONON.indices == (0, 2)
        assert ModePair.MAGNON_PHONON.indices == (1, 2)

    def test_unknown_label(self):
        with pytest.raises(InvalidInputError):
            ModePair.from_label("m-a")


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
        assert record.c_mb == contrast_ratio(record.forward.e_mb, record.backward.e_mb)

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
        assert len(result.records) == 12
        expected = [(u, t) for u in ups for t in thetas]
        assert [r.axis_values for r in result.records] == expected
        assert result.axes[0][0] == "upsilon" and result.axes[1][0] == "theta"

    def test_single_point_matches_direct_evaluation(self):
        result = sweep(make_params(), [("upsilon", [1.3 * KAPPA_A])])
        record = result.records[0]
        assert record.stable
        assert record.e_mb == pytest.approx(WORKING_POINT["e_mb"], rel=1e-12)
        assert record.r_min == pytest.approx(WORKING_POINT["r_min"], rel=1e-12)

    def test_deterministic(self):
        axes = [("upsilon", np.linspace(0.0, 1.5 * KAPPA_A, 5)), ("g_a", [TWO_PI * 4e6, TWO_PI * 5e6])]
        serial = sweep(make_params(), axes)
        again = sweep(make_params(), axes)
        assert serial.records == again.records

    def test_unstable_points_become_null_records(self):
        result = sweep(make_params(theta=1.5 * np.pi), [("upsilon", [KAPPA_A, 2.0 * KAPPA_A])])
        good, bad = result.records
        assert good.stable and good.e_mb is not None
        assert not bad.stable
        assert bad.e_am is None and bad.e_ab is None and bad.e_mb is None and bad.r_min is None

    def test_measure_selection(self):
        result = sweep(make_params(), [("upsilon", [KAPPA_A])], measures=["E_mb"])
        record = result.records[0]
        assert record.e_mb is not None
        assert record.e_am is None and record.e_ab is None and record.r_min is None

    def test_pairing_fills_contrast_columns(self):
        result = sweep(
            make_params(),
            [("upsilon", [0.5 * KAPPA_A, 1.3 * KAPPA_A])],
            pairing=PhasePairing(np.pi / 2, 1.5 * np.pi),
        )
        for record in result.records:
            assert record.c_am is not None and record.c_r is not None
            assert record.backward_stable is True
        direct = directional_measures(
            make_params(upsilon=1.3 * KAPPA_A), PhasePairing(np.pi / 2, 1.5 * np.pi)
        )
        assert result.records[1].c_mb == pytest.approx(direct.c_mb, rel=1e-12)
        assert result.records[1].e_mb == pytest.approx(direct.forward.e_mb, rel=1e-12)

    def test_pairing_with_both_sides_unstable_yields_null_record(self):
        result = sweep(
            make_params(),
            [("upsilon", [2.0 * KAPPA_A])],
            pairing=PhasePairing(1.4 * np.pi, 1.6 * np.pi),
        )
        record = result.records[0]
        assert not record.stable and record.backward_stable is False
        assert record.c_mb is None and record.e_mb is None

    def test_validity_attachment(self):
        driven = make_params(rabi=1.48e15, g_m=TWO_PI * 0.2, sphere_diameter=250e-6)
        result = sweep(driven, [("upsilon", [KAPPA_A])], kerr_coefficient=TWO_PI * 6.4e-9)
        assert result.records[0].validity is not None
        assert result.records[0].validity.stable

    def test_validity_reuses_the_sweep_derive(self, monkeypatch):
        calls = []

        def counted(points):
            calls.append(len(points))
            return derive_many(points)

        monkeypatch.setattr(analysis, "derive_many", counted)
        monkeypatch.setattr(model, "derive_many", counted)
        driven = make_params(rabi=1.48e15, g_m=TWO_PI * 0.2, sphere_diameter=250e-6)
        upsilons = list(np.linspace(0.1, 1.0, 10) * KAPPA_A)
        result = sweep(driven, [("upsilon", upsilons)], kerr_coefficient=TWO_PI * 6.4e-9)
        assert all(r.validity is not None for r in result.records)
        assert calls == [10]

    def test_validity_with_a_pairing_is_at_the_forward_phase(self, monkeypatch):
        calls = []

        def counted(points):
            calls.append(len(points))
            return derive_many(points)

        monkeypatch.setattr(analysis, "derive_many", counted)
        monkeypatch.setattr(model, "derive_many", counted)
        # Base theta 3pi/2 is the backward phase, which loses stability at
        # the top of the axis while the forward phase pi/2 stays stable.
        driven = make_params(rabi=1.48e15, g_m=TWO_PI * 0.2, sphere_diameter=250e-6)
        upsilons = list(np.linspace(0.2, 2.0, 10) * KAPPA_A)
        result = sweep(
            driven, [("upsilon", upsilons)], pairing=PhasePairing(np.pi / 2, 1.5 * np.pi),
            kerr_coefficient=TWO_PI * 6.4e-9,
        )
        assert calls == [20]
        records = result.records
        assert records[-1].stable and records[-1].backward_stable is False
        for record in records:
            assert record.validity is not None
            assert record.validity.stable == record.stable

    def test_validity_skipped_without_drive(self):
        result = sweep(make_params(), [("upsilon", [KAPPA_A])], kerr_coefficient=TWO_PI * 6.4e-9)
        assert result.records[0].validity is None

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
        with pytest.raises(ConfigError):
            sweep(p, [("upsilon", [np.nan])])
        with pytest.raises(ConfigError, match="upsilon must be finite"):
            sweep(p, [("upsilon", [1.0, np.nan, 2.0])])
        with pytest.raises(ConfigError):
            sweep(p, [("upsilon", [-1.0])])
        # Every value is validated, not only the first one.
        with pytest.raises(ConfigError, match="upsilon"):
            sweep(p, [("upsilon", [1.0, -1.0])])

    def test_rejects_theta_axis_with_pairing(self):
        with pytest.raises(ConfigError):
            sweep(
                make_params(),
                [("theta", [0.0, np.pi])],
                pairing=PhasePairing(np.pi / 2, 1.5 * np.pi),
            )

    def test_rejects_unknown_measure(self):
        with pytest.raises(ConfigError):
            sweep(make_params(), [("upsilon", [1.0])], measures=["E_xy"])

    def test_columns_need_no_per_point_objects(self, monkeypatch):
        counts = {"SystemParams": 0, "DerivedQuantities": 0}

        def counting(cls):
            original = cls.__init__

            def init(self, *args, **kwargs):
                counts[cls.__name__] += 1
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)

        base = make_params()
        counting(SystemParams)
        counting(DerivedQuantities)
        axes = [("upsilon", np.linspace(0.0, 2.0 * KAPPA_A, 31)),
                ("theta", np.linspace(0.0, TWO_PI, 31))]
        result = sweep(base, axes)
        # One SystemParams per axis extreme, for the axis validation.
        assert counts == {"SystemParams": 4, "DerivedQuantities": 0}
        assert result.stable.shape == (31 * 31,) and result.measures.shape == (31 * 31, 4)


def synthetic_temperature_result(values: list[float | None]) -> SweepResult:
    grid = np.linspace(0.001, 0.001 * len(values), len(values))
    contrast = np.array([np.nan if v is None else v for v in values])
    stable = ~np.isnan(contrast)
    return SweepResult(
        axes=(("temperature", grid),),
        pairing=PhasePairing(0.0, np.pi),
        base=make_params(),
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
