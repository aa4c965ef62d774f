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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    OK,
    UNSTABLE,
    ConfigError,
    InvalidInputError,
    NoMeasuresError,
    raise_first,
)
from .gaussian import CovarianceMatrix, Partition, log_negativity, three_mode_measures
from .model import (
    TWO_PI,
    Columns,
    SystemParams,
    derive_many,
    diffusion_stack,
    drift_stack,
    gather,
)
from .solver import steady_stack

__all__ = [
    "MEASURES",
    "CONTRASTS",
    "ModePair",
    "PhasePairing",
    "DirectionalPoint",
    "ContrastRecord",
    "SweepResult",
    "SWEEP_AXES",
    "bipartite_entanglement",
    "directional_measures",
    "Evaluation",
    "evaluate",
    "steady_state",
    "sweep",
    "temperature_thresholds",
]

# Steady-state measures of a point, and the contrast of each between the
# two phases of a pairing, in column order.
MEASURES: tuple[str, ...] = ("E_am", "E_ab", "E_mb", "R_min")
CONTRASTS: tuple[str, ...] = ("C_E_am", "C_E_ab", "C_E_mb", "C_R")

SWEEP_AXES: frozenset[str] = frozenset(
    {"upsilon", "theta", "g_a", "temperature", "G_m", "delta_a", "delta_m"}
)

# Contrast at or above this value counts as ideal nonreciprocity.
IDEAL_CONTRAST: float = 0.99

_CONTRAST_FLOOR: float = 1e-12

# Operating points solved per batch; bounds the size of the (n, 21, 21)
# Lyapunov systems and the partial-transpose stacks held at once.  It is a
# memory bound, not a speed knob: one `sweep` launch of the map_direct
# benchmark input (961 points, x86_64, numpy 2.4 with OpenBLAS) peaked at
# VmHWM 34.3, 34.8, 35.5 and 40.9 MiB with chunks of 64, 128, 256 and 1024.
_CHUNK: int = 64


class ModePair(enum.Enum):
    """Bipartition labels of the three-mode state (cavity=0, magnon=1, phonon=2)."""

    CAVITY_MAGNON = (0, 1)
    CAVITY_PHONON = (0, 2)
    MAGNON_PHONON = (1, 2)


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


class DirectionalPoint(NamedTuple):
    """Steady-state measures at one phase setting; all None when unstable."""

    theta: float
    stable: bool
    e_am: float | None
    e_ab: float | None
    e_mb: float | None
    r_min: float | None


class ContrastRecord(NamedTuple):
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
class SweepResult:
    """Grid axes plus one array entry per grid point, row-major over the axes.

    ``stable`` is the verdict of the point's own (with a pairing, the forward)
    phase, False on ``failed`` points (see ``sweep``).  ``measures`` holds
    ``MEASURES`` and ``contrasts`` ``CONTRASTS`` per point, NaN where a value
    is missing.  ``backward_stable`` and ``contrasts`` are None without a
    pairing.
    """

    axes: tuple[tuple[str, np.ndarray], ...]
    stable: np.ndarray
    failed: np.ndarray
    measures: np.ndarray
    backward_stable: np.ndarray | None = None
    contrasts: np.ndarray | None = None

    def __post_init__(self) -> None:
        expected = int(np.prod([len(grid) for _, grid in self.axes]))
        if len(self.stable) != expected:
            raise InvalidInputError(
                f"point count {len(self.stable)} != product of axis lengths {expected}"
            )


class Evaluation(NamedTuple):
    """Per-point outcomes of ``evaluate`` for ``n`` operating points.

    ``max_real_part`` is the largest real part of each drift spectrum and
    ``covariances`` the (n, 6, 6) Lyapunov solutions, both NaN where they
    could not be formed.  ``code`` (0 for a stable point) and ``value`` are
    the verdict of the first stage that fails each point, so
    ``errors.verdict_error(code[k], value[k])`` is the exception the scalar
    path raises for it; ``value`` is NaN for a stable point.  ``measures``
    holds E_am, E_ab, E_mb and R_min per row, NaN unless the point is stable.
    ``m_s`` is the steady magnon amplitude of ``derive_many``, NaN without a drive.
    """

    max_real_part: np.ndarray
    covariances: np.ndarray
    measures: np.ndarray
    code: np.ndarray
    value: np.ndarray
    m_s: np.ndarray


def evaluate(points: Sequence[SystemParams] | Columns) -> Evaluation:
    """Steady states and measures of operating points, ``SystemParams`` or
    their ``model.gather`` columns.

    One ``derive_many`` call covers all points and feeds the drift and
    diffusion stacks; stability, the Lyapunov solve and the measures run
    batched over up to ``_CHUNK`` points.
    """
    columns = points if isinstance(points, dict) else gather(points)
    n = columns["theta"].size
    max_real = np.full(n, np.nan)
    covariances = np.full((n, 6, 6), np.nan)
    measures = np.full((n, 4), np.nan)
    derived = derive_many(columns)
    gammas, diffusions = drift_stack(columns, derived), diffusion_stack(columns)
    code, value = derived.code.copy(), np.full(n, np.nan)
    for start in range(0, n, _CHUNK):
        solved = start + np.flatnonzero(code[start:start + _CHUNK] == OK)
        max_real[solved], covariances[solved], code[solved], value[solved] = steady_stack(
            gammas[solved], diffusions[solved]
        )
        steady = solved[code[solved] == OK]
        measures[steady], code[steady], value[steady] = three_mode_measures(covariances[steady])
    return Evaluation(max_real, covariances, measures, code, value, derived.m_s)


def steady_state(params: SystemParams) -> CovarianceMatrix:
    """Steady covariance matrix at one operating point.

    Raises the exception of the point's verdict, the same one ``sweep`` and the
    ``steady`` command give it: the drift must be stable, the Lyapunov solve
    accurate, and the state physical and well-conditioned.
    """
    evaluation = evaluate([params])
    raise_first(evaluation.code, evaluation.value)
    return CovarianceMatrix(evaluation.covariances[0])


def bipartite_entanglement(v: CovarianceMatrix, pair: ModePair) -> float:
    """Logarithmic negativity between the two modes of ``pair`` in a 3-mode state."""
    if v.n_modes != 3:
        raise InvalidInputError(f"expected a 3-mode state, got {v.n_modes} modes")
    i, j = pair.value
    return log_negativity(v, Partition({i}, {j}))


@np.errstate(divide="ignore", invalid="ignore")  # the ratio not taken may divide by zero
def _contrast(steady: np.ndarray, measures: np.ndarray) -> np.ndarray:
    """Bidirectional contrast |f - b| / (f + b) of the two phases along axis -2 of
    ``measures``, 0 where f + b is below the floor.  A phase that is not ``steady``
    carries no steady entanglement, so its measures enter as 0."""
    forward, backward = np.moveaxis(np.where(steady[..., None], measures, 0.0), -2, 0)
    total = forward + backward
    return np.where(total < _CONTRAST_FLOOR, 0.0, np.abs(forward - backward) / total)


def directional_measures(params: SystemParams, pairing: PhasePairing) -> ContrastRecord:
    """Solve both phases of a pairing in one batch and form the four contrast ratios.

    Raises the verdict of a phase that fails, and ``NoMeasuresError`` when
    neither phase admits a steady state.
    """
    thetas = (pairing.theta_forward, pairing.theta_backward)
    evaluation = evaluate([replace(params, theta=theta) for theta in thetas])
    raise_first(evaluation.code, evaluation.value, passing=(OK, UNSTABLE))
    steady = evaluation.code == OK
    if not steady.any():
        raise NoMeasuresError("neither phase setting of the pairing admits a steady state")
    forward, backward = (
        DirectionalPoint(theta, stable, *(None if v != v else v for v in measures.tolist()))
        for theta, stable, measures in zip(thetas, steady.tolist(), evaluation.measures)
    )
    return ContrastRecord(*_contrast(steady, evaluation.measures).tolist(), forward, backward)


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
        # Every SystemParams check is a sign, finiteness or None-pattern check,
        # so the extreme values (NaN if any value is) stand for the whole axis.
        try:
            for value in {grid.min(), grid.max()}:
                replace(params_base, **{name: float(value)})
        except InvalidInputError as exc:
            raise ConfigError(f"axis {name!r} is incompatible with the base parameters: {exc}") from exc
        cleaned.append((name, grid))
    return tuple(cleaned)


def sweep(
    params_base: SystemParams,
    axes: Sequence[tuple[str, Sequence[float]]],
    pairing: PhasePairing | None = None,
) -> SweepResult:
    """Evaluate steady-state measures over a 1-D or 2-D parameter grid.

    Axis names come from ``SWEEP_AXES`` and axis values are in the same
    units as the corresponding ``SystemParams`` fields.  With a pairing,
    every point is solved at both phases and contrast columns are filled;
    the point's own measures are those of the forward phase.

    A point that is unstable, or that fails (parametric resonance in the
    steady amplitude, a Lyapunov residual above 1e-10, an unphysical
    state), gets null measures; failed ones are flagged ``failed``.
    Points are ordered row-major over the axes.
    """
    grid_axes = _validate_axes(params_base, axes, pairing)

    mesh = np.meshgrid(*(grid for _, grid in grid_axes), indexing="ij")
    swept = {name: axis.ravel() for (name, _), axis in zip(grid_axes, mesh)}
    if "theta" in swept:
        swept["theta"] = np.mod(swept["theta"], TWO_PI)  # as SystemParams normalizes it
    n = mesh[0].size
    phases = 1 if pairing is None else 2
    if pairing is not None:
        swept = {name: np.repeat(column, 2) for name, column in swept.items()}
        swept["theta"] = np.tile([pairing.theta_forward, pairing.theta_backward], n)
    columns = {name: np.broadcast_to(column, (n * phases,))
               for name, column in gather([params_base]).items()}
    evaluation = evaluate({**columns, **swept})
    code = evaluation.code.reshape(n, phases)
    measures = evaluation.measures.reshape(n, phases, 4)
    # A point fails where any of its phases has a verdict other than ok or unstable.
    failed = np.isin(code, (OK, UNSTABLE), invert=True).any(axis=1)
    steady = (code == OK) & ~failed[:, None]
    forward = np.where(steady[:, :1], measures[:, 0], np.nan)
    if pairing is None:
        return SweepResult(axes=grid_axes, stable=steady[:, 0], failed=failed, measures=forward)
    # A point with no steady state at either phase, or that failed, has no contrasts.
    contrasts = np.where(steady.any(axis=1, keepdims=True), _contrast(steady, measures), np.nan)
    return SweepResult(grid_axes, steady[:, 0], failed, forward, steady[:, 1], contrasts)


def temperature_thresholds(result: SweepResult, measure: str) -> list[tuple[float, float]]:
    """Maximal temperature intervals where a contrast stays at ideal level (>= 0.99).

    Requires a 1-D temperature sweep carrying pairing contrasts.  Interval
    bounds are grid values in kelvin.
    """
    if measure not in CONTRASTS:
        raise ConfigError(
            f"unknown contrast measure {measure!r}; expected one of {sorted(CONTRASTS)}"
        )
    if result.contrasts is None:
        raise ConfigError("threshold extraction needs a sweep with a phase pairing")
    if len(result.axes) != 1 or result.axes[0][0] != "temperature":
        raise ConfigError("threshold extraction needs a single temperature axis")

    temperatures = result.axes[0][1]
    ideal = result.contrasts[:, CONTRASTS.index(measure)] >= IDEAL_CONTRAST  # False on NaN
    # Interval ends are where the padded indicator changes: starts, then stops.
    edges = np.flatnonzero(np.diff(np.concatenate([[0], ideal.astype(np.int8), [0]])))
    return [
        (float(temperatures[lo]), float(temperatures[hi - 1]))
        for lo, hi in zip(edges[::2], edges[1::2])
    ]
