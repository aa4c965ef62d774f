"""Entanglement extraction, directional contrast ratios and parameter sweeps.

A direction here is a choice of squeezing phase: comparing a phase pairing
(theta_forward, theta_backward) probes how strongly the steady-state
entanglement depends on the drive phase.  The contrast ratio
``|f - b| / (f + b)`` is 1 when entanglement survives in only one
direction and 0 when both directions are equivalent.

The sweep engine evaluates measures over 1-D or 2-D parameter grids in
deterministic row-major order, in batches of operating points that share
one eigensolve, one Lyapunov solve and one measure evaluation; unstable
and failed grid points are recorded with null measures instead of
aborting the run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    InvalidInputError,
    MagsqueezeError,
    NoMeasuresError,
    NoSteadyStateError,
    ParametricResonanceError,
)
from .gaussian import CovarianceMatrix, Partition, log_negativity, three_mode_measures
from .model import (
    TWO_PI,
    DerivedQuantities,
    SystemParams,
    ValidityReport,
    build_diffusion,
    build_drift,
    derive_many,
    validity_report,
)
from .solver import steady_stack

__all__ = [
    "MODE_INDEX",
    "ModePair",
    "PhasePairing",
    "DirectionalPoint",
    "ContrastRecord",
    "SweepRecord",
    "SweepResult",
    "SWEEP_AXES",
    "bipartite_entanglement",
    "contrast_ratio",
    "directional_measures",
    "Evaluation",
    "evaluate",
    "steady_state",
    "sweep",
    "temperature_thresholds",
]

MODE_INDEX: dict[str, int] = {"cavity": 0, "magnon": 1, "phonon": 2}

SWEEP_AXES: frozenset[str] = frozenset(
    {"upsilon", "theta", "g_a", "temperature", "G_m", "delta_a", "delta_m"}
)

# Contrast at or above this value counts as ideal nonreciprocity.
IDEAL_CONTRAST: float = 0.99

_CONTRAST_FLOOR: float = 1e-12

# Operating points solved per batch; bounds the size of the (n, 36, 36)
# Lyapunov systems held at once.
_CHUNK: int = 64


class ModePair(enum.Enum):
    """Bipartition labels of the three-mode state (cavity=0, magnon=1, phonon=2)."""

    CAVITY_MAGNON = ("a-m", (0, 1))
    CAVITY_PHONON = ("a-b", (0, 2))
    MAGNON_PHONON = ("m-b", (1, 2))

    @property
    def label(self) -> str:
        return self.value[0]

    @property
    def indices(self) -> tuple[int, int]:
        return self.value[1]

    @classmethod
    def from_label(cls, label: str) -> "ModePair":
        for pair in cls:
            if pair.label == label:
                return pair
        raise InvalidInputError(
            f"unknown mode pair {label!r}; expected one of {[p.label for p in cls]}"
        )


@dataclass(frozen=True)
class PhasePairing:
    """Two distinct squeezing phases compared as forward/backward directions."""

    theta_forward: float
    theta_backward: float

    def __post_init__(self) -> None:
        for name in ("theta_forward", "theta_backward"):
            value = getattr(self, name)
            if not 0.0 <= value < TWO_PI:
                raise InvalidInputError(f"{name} must lie in [0, 2pi), got {value}")
        if self.theta_forward == self.theta_backward:
            raise InvalidInputError("pairing phases must be distinct")


@dataclass(frozen=True)
class DirectionalPoint:
    """Steady-state measures at one phase setting; all None when unstable."""

    theta: float
    stable: bool
    e_am: float | None
    e_ab: float | None
    e_mb: float | None
    r_min: float | None


@dataclass(frozen=True)
class ContrastRecord:
    """Contrast ratios for a phase pairing plus the raw directional measures.

    A direction with no steady state carries no steady entanglement: its
    measures enter the contrasts as zero while staying None in the raw
    ``forward``/``backward`` points.
    """

    c_am: float
    c_ab: float
    c_mb: float
    c_r: float
    forward: DirectionalPoint
    backward: DirectionalPoint


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep; contrast fields are None without a pairing.

    ``failed`` marks a null record whose point raised (see ``sweep``)
    instead of being solved as stable or unstable.
    """

    axis_values: tuple[float, ...]
    stable: bool
    e_am: float | None
    e_ab: float | None
    e_mb: float | None
    r_min: float | None
    c_am: float | None = None
    c_ab: float | None = None
    c_mb: float | None = None
    c_r: float | None = None
    backward_stable: bool | None = None
    validity: ValidityReport | None = None
    failed: bool = False


@dataclass(frozen=True)
class SweepResult:
    """Grid axes plus per-point records in row-major order over the axes."""

    axes: tuple[tuple[str, np.ndarray], ...]
    records: tuple[SweepRecord, ...]
    pairing: PhasePairing | None
    base: SystemParams

    def __post_init__(self) -> None:
        expected = int(np.prod([len(grid) for _, grid in self.axes]))
        if len(self.records) != expected:
            raise InvalidInputError(
                f"record count {len(self.records)} != product of axis lengths {expected}"
            )


@dataclass(frozen=True)
class Evaluation:
    """Per-point outcomes of ``evaluate`` for ``n`` operating points.

    ``max_real_part`` is the largest real part of each drift spectrum and
    ``covariances`` the (n, 6, 6) Lyapunov solutions, both NaN where they
    could not be formed.  ``errors[k]`` is None for a stable point,
    ``NoSteadyStateError`` for an unstable one and otherwise the exception
    the scalar path raises for it.  ``measures`` holds E_am, E_ab, E_mb and
    R_min per row, NaN unless the point is stable.  ``derived`` is
    ``derive_many(points)``.
    """

    max_real_part: np.ndarray
    covariances: np.ndarray
    measures: np.ndarray
    errors: list[MagsqueezeError | None]
    derived: list[DerivedQuantities | ParametricResonanceError]


def evaluate(points: Sequence[SystemParams], with_measures: bool = True) -> Evaluation:
    """Steady states and, unless ``with_measures`` is False, measures of operating points.

    One ``derive_many`` call covers all points and feeds drift and
    diffusion; stability, the Lyapunov solve and the measures run batched
    over up to ``_CHUNK`` points.
    """
    n = len(points)
    max_real = np.full(n, np.nan)
    covariances = np.full((n, 6, 6), np.nan)
    measures = np.full((n, 4), np.nan)
    errors: list[MagsqueezeError | None] = [None] * n
    all_derived = derive_many(points)
    for start in range(0, n, _CHUNK):
        solved, gammas, diffusions = [], [], []
        for k, derived in enumerate(all_derived[start:start + _CHUNK], start):
            if isinstance(derived, ParametricResonanceError):
                errors[k] = derived
                continue
            solved.append(k)
            gammas.append(build_drift(points[k], derived))
            diffusions.append(build_diffusion(points[k], derived))
        if not solved:
            continue
        stack = steady_stack(np.array(gammas), np.array(diffusions))
        max_real[solved] = stack.max_real_part
        covariances[solved] = stack.covariances
        for k, error in zip(solved, stack.errors):
            errors[k] = error
        steady = [k for k in solved if errors[k] is None]
        if with_measures and steady:
            measures[steady], measure_errors = three_mode_measures(covariances[steady])
            for k, error in zip(steady, measure_errors):
                errors[k] = error
    return Evaluation(max_real, covariances, measures, errors, all_derived)


def _failed(error: MagsqueezeError | None) -> bool:
    """An error other than plain instability: the point has no verdict."""
    return error is not None and not isinstance(error, NoSteadyStateError)


def steady_state(params: SystemParams) -> CovarianceMatrix:
    """Steady covariance matrix at one operating point (drift must be stable)."""
    evaluation = evaluate([params], with_measures=False)
    if evaluation.errors[0] is not None:
        raise evaluation.errors[0]
    return CovarianceMatrix(evaluation.covariances[0])


def bipartite_entanglement(v: CovarianceMatrix, pair: ModePair) -> float:
    """Logarithmic negativity between the two modes of ``pair`` in a 3-mode state."""
    if v.n_modes != 3:
        raise InvalidInputError(f"expected a 3-mode state, got {v.n_modes} modes")
    i, j = pair.indices
    return log_negativity(v, Partition({i}, {j}))


def contrast_ratio(forward: float, backward: float) -> float:
    """Bidirectional contrast |f - b| / (f + b), with 0/0 defined as 0."""
    if forward < 0.0 or backward < 0.0:
        raise InvalidInputError(
            f"contrast inputs must be non-negative, got ({forward}, {backward})"
        )
    total = forward + backward
    if total < _CONTRAST_FLOOR:
        return 0.0
    return abs(forward - backward) / total


def _point(evaluation: Evaluation, k: int, theta: float) -> DirectionalPoint:
    if evaluation.errors[k] is not None:
        return DirectionalPoint(theta, False, None, None, None, None)
    e_am, e_ab, e_mb, r_min = (float(x) for x in evaluation.measures[k])
    return DirectionalPoint(theta, True, e_am, e_ab, e_mb, r_min)


def _zero_filled(point: DirectionalPoint) -> tuple[float, float, float, float]:
    if not point.stable:
        return 0.0, 0.0, 0.0, 0.0
    assert point.e_am is not None and point.e_ab is not None
    assert point.e_mb is not None and point.r_min is not None
    return point.e_am, point.e_ab, point.e_mb, point.r_min


def _contrasts(forward: DirectionalPoint, backward: DirectionalPoint) -> ContrastRecord:
    f_am, f_ab, f_mb, f_r = _zero_filled(forward)
    b_am, b_ab, b_mb, b_r = _zero_filled(backward)
    return ContrastRecord(
        c_am=contrast_ratio(f_am, b_am),
        c_ab=contrast_ratio(f_ab, b_ab),
        c_mb=contrast_ratio(f_mb, b_mb),
        c_r=contrast_ratio(f_r, b_r),
        forward=forward,
        backward=backward,
    )


def _phase_pair(params: SystemParams, pairing: PhasePairing) -> list[SystemParams]:
    return [
        replace(params, theta=pairing.theta_forward),
        replace(params, theta=pairing.theta_backward),
    ]


def directional_measures(params: SystemParams, pairing: PhasePairing) -> ContrastRecord:
    """Solve both phases of a pairing and form the four contrast ratios.

    Raises ``NoMeasuresError`` when neither phase admits a steady state.
    """
    evaluation = evaluate(_phase_pair(params, pairing))
    for error in evaluation.errors:
        if _failed(error):
            raise error
    forward = _point(evaluation, 0, pairing.theta_forward)
    backward = _point(evaluation, 1, pairing.theta_backward)
    if not forward.stable and not backward.stable:
        raise NoMeasuresError(
            "neither phase setting of the pairing admits a steady state"
        )
    return _contrasts(forward, backward)


def _validate_axes(
    params_base: SystemParams,
    axes: Sequence[tuple[str, Sequence[float]]],
    pairing: PhasePairing | None,
) -> tuple[tuple[str, np.ndarray], ...]:
    if not 1 <= len(axes) <= 2:
        raise ConfigError(f"sweeps support 1 or 2 axes, got {len(axes)}")
    names = [name for name, _ in axes]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate axis names: {names}")
    cleaned: list[tuple[str, np.ndarray]] = []
    for name, values in axes:
        if name not in SWEEP_AXES:
            raise ConfigError(
                f"unknown axis {name!r}; valid axes: {sorted(SWEEP_AXES)}"
            )
        if pairing is not None and name == "theta":
            raise ConfigError("a theta axis cannot be combined with a phase pairing")
        grid = np.asarray(list(values), dtype=np.float64)
        if grid.ndim != 1 or grid.size < 1:
            raise ConfigError(f"axis {name!r} must be a non-empty 1-D grid")
        if not np.all(np.isfinite(grid)):
            raise ConfigError(f"axis {name!r} contains non-finite values")
        try:
            for value in grid:
                replace(params_base, **{name: float(value)})
        except InvalidInputError as exc:
            raise ConfigError(f"axis {name!r} is incompatible with the base parameters: {exc}") from exc
        cleaned.append((name, grid))
    return tuple(cleaned)


def _null_record(
    axis_values: tuple[float, ...], backward_stable: bool | None, failed: bool = False
) -> SweepRecord:
    return SweepRecord(
        axis_values, False, None, None, None, None,
        backward_stable=backward_stable, failed=failed,
    )


def sweep(
    params_base: SystemParams,
    axes: Sequence[tuple[str, Sequence[float]]],
    pairing: PhasePairing | None = None,
    measures: Sequence[str] | None = None,
    threads: int = 1,
    kerr_coefficient: float | None = None,
) -> SweepResult:
    """Evaluate steady-state measures over a 1-D or 2-D parameter grid.

    Axis names come from ``SWEEP_AXES`` and axis values are in the same
    units as the corresponding ``SystemParams`` fields.  With a pairing,
    every point is solved at both phases and contrast columns are filled;
    the point's own measures are those of the forward phase.  ``measures``
    selects a subset of {"E_am", "E_ab", "E_mb", "R_min"} (None keeps
    all); unselected measures are reported as None.  When
    ``kerr_coefficient`` is given and the parameters carry drive and
    geometry information, a per-point validity report is attached.

    A point that is unstable, or that fails (parametric resonance in the
    steady amplitude, a Lyapunov residual above 1e-10, an unphysical
    state), becomes a null record; failed ones are flagged ``failed``.
    Record ordering is row-major over the axes.  ``threads`` is accepted
    for compatibility and must be >= 1; evaluation is batched and serial.
    """
    grid_axes = _validate_axes(params_base, axes, pairing)
    selected = frozenset(measures) if measures is not None else frozenset(
        {"E_am", "E_ab", "E_mb", "R_min"}
    )
    unknown = selected - {"E_am", "E_ab", "E_mb", "R_min"}
    if unknown:
        raise ConfigError(f"unknown measure selection: {sorted(unknown)}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")

    mesh = [tuple()]  # row-major cartesian product of axis values
    for _, grid in grid_axes:
        mesh = [prefix + (float(v),) for prefix in mesh for v in grid]
    names = [name for name, _ in grid_axes]
    grid_params = [replace(params_base, **dict(zip(names, values))) for values in mesh]
    if pairing is None:
        evaluation = evaluate(grid_params)
    else:
        evaluation = evaluate([p for params in grid_params for p in _phase_pair(params, pairing)])

    def mask(point: DirectionalPoint) -> dict[str, float | None]:
        return {
            "e_am": point.e_am if "E_am" in selected else None,
            "e_ab": point.e_ab if "E_ab" in selected else None,
            "e_mb": point.e_mb if "E_mb" in selected else None,
            "r_min": point.r_min if "R_min" in selected else None,
        }

    def validity(params: SystemParams, first: int) -> ValidityReport | None:
        if kerr_coefficient is None:
            return None
        # With a pairing the grid point's own phase was not evaluated.
        derived = evaluation.derived[first] if pairing is None else None
        try:
            return validity_report(params, kerr_coefficient, derived)
        except (InvalidInputError, ParametricResonanceError):
            return None

    stride = 1 if pairing is None else 2
    records: list[SweepRecord] = []
    for index, (axis_values, params) in enumerate(zip(mesh, grid_params)):
        first = stride * index
        if any(_failed(e) for e in evaluation.errors[first:first + stride]):
            records.append(_null_record(axis_values, None, failed=True))
            continue
        theta = params.theta if pairing is None else pairing.theta_forward
        forward = _point(evaluation, first, theta)
        contrasts: dict[str, float | bool] = {}
        if pairing is not None:
            backward = _point(evaluation, first + 1, pairing.theta_backward)
            if not forward.stable and not backward.stable:
                records.append(_null_record(axis_values, backward_stable=False))
                continue
            c = _contrasts(forward, backward)
            contrasts = dict(c_am=c.c_am, c_ab=c.c_ab, c_mb=c.c_mb, c_r=c.c_r,
                             backward_stable=backward.stable)
        elif not forward.stable:
            records.append(_null_record(axis_values, None))
            continue
        records.append(SweepRecord(
            axis_values=axis_values, stable=forward.stable, validity=validity(params, first),
            **mask(forward), **contrasts,
        ))
    return SweepResult(axes=grid_axes, records=tuple(records), pairing=pairing, base=params_base)


_CONTRAST_COLUMNS: dict[str, str] = {
    "C_E_am": "c_am",
    "C_E_ab": "c_ab",
    "C_E_mb": "c_mb",
    "C_R": "c_r",
}


def temperature_thresholds(result: SweepResult, measure: str) -> list[tuple[float, float]]:
    """Maximal temperature intervals where a contrast stays at ideal level (>= 0.99).

    Requires a 1-D temperature sweep carrying pairing contrasts.  Interval
    bounds are grid values in kelvin.
    """
    if measure not in _CONTRAST_COLUMNS:
        raise ConfigError(
            f"unknown contrast measure {measure!r}; expected one of {sorted(_CONTRAST_COLUMNS)}"
        )
    if result.pairing is None:
        raise ConfigError("threshold extraction needs a sweep with a phase pairing")
    if len(result.axes) != 1 or result.axes[0][0] != "temperature":
        raise ConfigError("threshold extraction needs a single temperature axis")

    attr = _CONTRAST_COLUMNS[measure]
    temperatures = result.axes[0][1]
    intervals: list[tuple[float, float]] = []
    start: float | None = None
    last: float | None = None
    for record, temperature in zip(result.records, temperatures):
        value = getattr(record, attr)
        if value is not None and value >= IDEAL_CONTRAST:
            if start is None:
                start = float(temperature)
            last = float(temperature)
        elif start is not None:
            intervals.append((start, float(last)))
            start = None
    if start is not None:
        intervals.append((start, float(last)))
    return intervals
