"""Physical model of a driven cavity magnomechanical system with a squeezed magnon mode.

Translates laboratory parameters (frequencies, decay rates, couplings, the
two-magnon drive amplitude and phase, temperature) into the objects the
solver consumes: the 6x6 drift matrix of the linearized quadrature dynamics,
the diagonal diffusion matrix of the input noise, steady-state amplitudes of
the magnon and phonon modes, and validity reports for the linearization.

Quadrature ordering is ``(x_a, p_a, x_m, p_m, q, p)`` for cavity, magnon and
mechanical mode.  All frequencies and rates are angular (rad/s).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    NO_FIXED_POINT,
    RESONANCE,
    InvalidInputError,
    ParametricResonanceError,
    verdict_error,
)

__all__ = [
    "SystemParams",
    "ParamColumns",
    "DerivedColumns",
    "ValidityReport",
    "thermal_occupation",
    "total_spins",
    "rabi_frequency",
    "steady_magnon_amplitude_exact",
    "steady_magnon_amplitude_approx",
    "build_drift",
    "build_diffusion",
    "effective_coupling",
    "derive_many",
    "validity_report",
]

TWO_PI: float = 2.0 * math.pi

# Exact SI values: Boltzmann constant (J/K) and reduced Planck constant (J s).
_K_B: float = 1.380649e-23
_HBAR: float = 6.62607015e-34 / TWO_PI

# Maximum iterations for the self-consistent magnon detuning shift.
_SHIFT_MAX_ITER: int = 200
_SHIFT_RTOL: float = 1e-9

# Relative floor below which the drive denominator counts as singular.
_DENOMINATOR_RTOL: float = 1e-6


@dataclass(frozen=True)
class SystemParams:
    """Laboratory parameters of the three-mode system.

    Angular frequencies and rates in rad/s, temperature in kelvin.  The
    magnon detuning can be given either directly (``delta_a``/``delta_m``)
    or through the drive frequency ``omega_0``; exactly one of the two
    forms must be used.  The magnomechanical coupling is either the
    effective ``G_m`` directly or the bare ``g_m`` (combined with a drive
    amplitude so the steady magnon amplitude can be formed).  ``theta`` is
    normalized into [0, 2pi) at construction.  Every set value must be finite.
    """

    omega_a: float
    omega_m: float
    omega_b: float
    kappa_a: float
    kappa_m: float
    gamma_b: float
    g_a: float
    upsilon: float
    theta: float
    temperature: float
    delta_a: float | None = None
    delta_m: float | None = None
    omega_0: float | None = None
    G_m: float | None = None
    g_m: float | None = None
    rabi: float | None = None
    h_d: float | None = None
    sphere_diameter: float | None = None
    spin_density: float = 4.22e27
    spin_s: float = 2.5
    gyromagnetic_ratio: float = TWO_PI * 28e9

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite")
        for name in ("omega_a", "omega_m", "omega_b",
                     "spin_density", "spin_s", "gyromagnetic_ratio"):
            if not getattr(self, name) > 0.0:
                raise InvalidInputError(f"{name} must be positive")
        for name in ("kappa_a", "kappa_m", "gamma_b"):
            if not getattr(self, name) > 0.0:
                raise InvalidInputError(f"{name} must be positive (dissipation required)")
        for name in ("g_a", "upsilon", "temperature",
                     "G_m", "g_m", "rabi", "h_d", "sphere_diameter"):
            value = getattr(self, name)
            if value is not None and value < 0.0:
                raise InvalidInputError(f"{name} must be non-negative")
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

        have_deltas = self.delta_a is not None or self.delta_m is not None
        if have_deltas and (self.delta_a is None or self.delta_m is None):
            raise InvalidInputError("delta_a and delta_m must be given together")
        if have_deltas == (self.omega_0 is not None):
            raise InvalidInputError(
                "specify detunings either as (delta_a, delta_m) or as omega_0, not both or neither"
            )
        if self.G_m is None and self.g_m is None:
            raise InvalidInputError("a magnomechanical coupling (G_m or g_m) is required")


@dataclass(frozen=True)
class ValidityReport:
    """Linearization validity checks at one operating point."""

    magnon_amplitude: float
    magnon_occupation: float
    excitation_bound: float
    kerr_coefficient: float
    kerr_drive_ratio: float
    drive_amplitude: float
    low_excitation_ok: bool
    kerr_ok: bool
    stable: bool


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein mean occupation of a mode at angular frequency ``omega``.

    Returns 0 exactly at zero temperature.  Underflows to 0 for
    ``hbar*omega/(k_B T) > 700`` instead of raising.
    """
    if omega <= 0.0:
        raise InvalidInputError(f"omega must be positive, got {omega}")
    if temperature < 0.0:
        raise InvalidInputError(f"temperature must be non-negative, got {temperature}")
    kt = _K_B * temperature
    if kt == 0.0:  # zero temperature, or one so small that k_B T underflows
        return 0.0
    x = _HBAR * omega / kt
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def total_spins(sphere_diameter: float, spin_density: float = 4.22e27) -> float:
    """Total spin count of a sphere: density times (pi/6) d^3."""
    if sphere_diameter <= 0.0:
        raise InvalidInputError(f"sphere_diameter must be positive, got {sphere_diameter}")
    if spin_density <= 0.0:
        raise InvalidInputError(f"spin_density must be positive, got {spin_density}")
    return spin_density * (math.pi / 6.0) * sphere_diameter**3


def rabi_frequency(h_d: float, n_spins: float, gyromagnetic_ratio: float = TWO_PI * 28e9) -> float:
    """Collective drive amplitude (sqrt(5)/4) * gamma * sqrt(N_0) * H_d in rad/s."""
    if h_d < 0.0:
        raise InvalidInputError(f"h_d must be non-negative, got {h_d}")
    if n_spins <= 0.0 or gyromagnetic_ratio <= 0.0:
        raise InvalidInputError("n_spins and gyromagnetic_ratio must be positive")
    return (math.sqrt(5.0) / 4.0) * gyromagnetic_ratio * math.sqrt(n_spins) * h_d


def _resolved(params: SystemParams) -> dict[str, float | None]:
    """The bare detunings and the drive amplitude (None without a drive) of ``params``."""
    resolved = {"delta_a": params.delta_a, "delta_m": params.delta_m, "omega_rabi": params.rabi}
    if params.omega_0 is not None:
        resolved["delta_a"] = params.omega_a - params.omega_0
        resolved["delta_m"] = params.omega_m - params.omega_0
    if params.rabi is None and params.h_d is not None and params.sphere_diameter is not None:
        n0 = total_spins(params.sphere_diameter, params.spin_density)
        resolved["omega_rabi"] = rabi_frequency(params.h_d, n0, params.gyromagnetic_ratio)
    return resolved


_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(SystemParams))


@dataclass(frozen=True)
class ParamColumns:
    """Operating points as columns.

    ``values`` maps every ``SystemParams`` field, with ``delta_a`` and
    ``delta_m`` the bare detunings, and ``omega_rabi`` (the drive amplitude)
    to a float64 array with one entry per point or to a value shared by all
    ``size`` points; NaN stands for None.
    """

    size: int
    values: dict[str, float | NDArray[np.float64]]

    @classmethod
    def gather(cls, points: Sequence[SystemParams]) -> ParamColumns:
        """The columns of ``points``, one entry per point."""
        # vars() lists the fields in order; the resolved values update or follow them.
        rows = [list({**vars(p), **_resolved(p)}.values()) for p in points]
        table = np.array(rows, dtype=float).reshape(len(rows), len(_FIELDS) + 1)
        return cls(len(rows), dict(zip((*_FIELDS, "omega_rabi"), table.T)))

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, name: str) -> NDArray[np.float64]:
        return np.broadcast_to(self.values[name], (self.size,))


def _square(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """``x**2`` through Python's float power, which rounds some inputs differently from x * x."""
    return np.array([v**2 for v in x.tolist()])


def _steady_amplitude(
    c: dict[str, NDArray], idx: NDArray[np.intp], delta_m_bar: NDArray[np.float64]
) -> tuple[NDArray[np.complex128], NDArray[np.bool_]]:
    """Steady magnon amplitudes of the points ``idx`` of the columns ``c`` (see
    ``derive_many``), and where each denominator is within the pole tolerance.

    Works in real arithmetic in the operation order of Python's complex type:
    numpy's complex multiply and absolute value round differently, and the
    fixed-point iteration of the shift can amplify one rounding difference
    into a different branch of the response.
    """
    kappa_a, delta_a, kappa_m = c["kappa_a"][idx], c["delta_a"][idx], c["kappa_m"][idx]
    # kappa_minus = r - i s and kappa_plus = r + i s, so their product is real.
    r = kappa_a * kappa_m - delta_a * delta_m_bar + c["g_a2"][idx]
    s = kappa_a * delta_m_bar + delta_a * kappa_m
    product = r * r + s * s
    denominator = product - c["drive_weight"][idx]
    pole = np.abs(denominator) <= _DENOMINATOR_RTOL * (product + c["drive_weight"][idx])
    numerator = (r * kappa_a + s * delta_a) + 1j * (r * delta_a - s * kappa_a)
    numerator = numerator + c["squeeze_drive"][idx]
    return numerator / (denominator + 0j) * c["rabi"][idx], pole


@np.errstate(divide="ignore", invalid="ignore")  # the step not taken may divide by zero
def _brentq(
    f: Callable[[NDArray], NDArray], xpre: NDArray, xcur: NDArray, fpre: NDArray,
    fcur: NDArray, xtol: NDArray, rtol: float = 4.0 * np.finfo(float).eps, maxiter: int = 100,
) -> NDArray[np.float64]:
    """Brent's method on independent brackets, step for step as the C routine
    ``brentq.c`` (Brent 1973, ch. 4) with its relative tolerance floor 4 eps.

    ``f(x)`` evaluates the function of each bracket at its entry of ``x``;
    ``fpre`` and ``fcur`` are their nonzero values of opposite sign at the
    ends.  Brackets not converged after ``maxiter`` steps get NaN; converged
    ones keep stepping with the rest, but their first root is the one kept.
    """
    root = np.full(xcur.size, np.nan)
    xblk = fblk = spre = scur = np.zeros(xcur.size)
    for _ in range(maxiter):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur)
        fpre, fcur = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur)
        xblk, fblk = np.where(swap, xpre, xblk), np.where(swap, fpre, fblk)
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = np.isnan(root) & ((fcur == 0) | (np.abs(sbis) < delta))
        root[done] = xcur[done]
        if not np.isnan(root).any():
            break
        dpre = (fpre - fcur) / (xpre - xcur)
        dblk = (fblk - fcur) / (xblk - xcur)
        interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
        extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
        short &= 2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = f(xcur)
    return root


def _self_consistent_shift(
    c: dict[str, NDArray], idx: NDArray, delta_bar: NDArray, m_s: NDArray, code: NDArray
) -> None:
    """Solve Delta_m_bar = Delta_m - g_m^2 |m_s(Delta_m_bar)|^2 / omega_b at the points ``idx``.

    Writes the solutions into ``delta_bar`` (bare detunings on entry) and
    ``m_s``, and the verdict codes of the points without one into ``code``.
    """

    def shifted(x: NDArray, sel: NDArray) -> tuple[NDArray, NDArray, NDArray]:
        m, pole = _steady_amplitude(c, sel, x)
        backaction = c["g_m2"][sel] * _square(np.hypot(m.real, m.imag)) / c["omega_b"][sel]
        return c["delta_m"][sel] - backaction, m, pole

    def residual(x: NDArray, sel: NDArray) -> NDArray:
        # The denominator is real, so |m_s|^2 -> +inf on both sides of the
        # pole: a trial there counts as a positive residual.
        updated, _, pole = shifted(x, sel)
        return np.where(pole, np.inf, x - updated)

    # Delta_m_bar = Delta_m + g_m * q_s depends on m_s, which depends back
    # on Delta_m_bar; iterate to a fixed point. The pole at the bare
    # detuning is a resonance; a later iterate on the pole is only a trial,
    # and that point goes on to the bracket search below.
    on_pole = []
    for _ in range(_SHIFT_MAX_ITER):
        updated, m_s[idx], pole = shifted(delta_bar[idx], idx)
        on_pole.append(idx[pole])
        done = np.abs(updated - delta_bar[idx]) <= _SHIFT_RTOL * np.maximum(1.0, np.abs(updated))
        delta_bar[idx] = updated
        idx = idx[~(pole | done)]
        if idx.size == 0:
            break
    code[on_pole[0]] = RESONANCE
    idx = np.concatenate([idx, *on_pole[1:]])

    # Plain iteration cycles once the backaction shift exceeds the magnon
    # linewidth. The residual is positive at the bare detuning and negative
    # far below it, so bracket downward and return Brent's root in that
    # bracket, one of possibly several coexisting branches.
    hi = c["delta_m"][idx]
    f_hi = residual(hi, idx)
    step = np.maximum(np.abs(f_hi), c["kappa_m"][idx])
    lo = hi - step
    f_lo = residual(lo, idx)
    for _ in range(_SHIFT_MAX_ITER - 1):
        if np.all(f_lo < 0.0):
            break
        step = np.where(f_lo < 0.0, step, 2.0 * step)
        lo = hi - step
        f_lo = residual(lo, idx)
    found = f_lo < 0.0
    code[idx[~found]] = NO_FIXED_POINT
    idx, lo, hi, f_lo, f_hi = idx[found], lo[found], hi[found], f_lo[found], f_hi[found]
    xtol = 1e-12 * np.maximum(1.0, np.abs(hi))
    root = _brentq(lambda x: residual(x, idx), lo, hi, f_lo, f_hi, xtol)
    code[idx[np.isnan(root)]] = NO_FIXED_POINT
    idx, root = idx[~np.isnan(root)], root[~np.isnan(root)]
    delta_bar[idx], m_s[idx], pole = shifted(root, idx)
    code[idx[pole]] = RESONANCE


@dataclass(frozen=True)
class DerivedColumns:
    """Per-point results of ``derive_many``.

    ``delta_m_bar`` is the effective magnon detuning and ``m_s`` the steady
    magnon amplitude, NaN without a drive.  ``code`` is 0 where a point
    derived, otherwise its verdict code: resonance or no_fixed_point.
    """

    delta_m_bar: NDArray[np.float64]
    m_s: NDArray[np.complex128]
    code: NDArray[np.int8]


def derive_many(points: Sequence[SystemParams] | ParamColumns) -> DerivedColumns:
    """Effective magnon detunings and steady amplitudes of many operating
    points, with one batched self-consistent shift.

    A point at parametric resonance, or whose shift has no fixed point, gets
    the verdict code of the ``ParametricResonanceError`` ``_one`` raises for it.
    """
    columns = points if isinstance(points, ParamColumns) else ParamColumns.gather(points)
    c = {name: columns[name] for name in ("kappa_a", "delta_a", "kappa_m", "delta_m", "omega_b")}
    c["rabi"] = columns["omega_rabi"]
    # The parts of the amplitude and of the shift that do not depend on Delta_m_bar.
    upsilon, weight = columns["upsilon"], _square(c["delta_a"]) + _square(c["kappa_a"])
    c.update(
        g_a2=_square(columns["g_a"]), g_m2=_square(columns["g_m"]),
        drive_weight=_square(upsilon) * weight,
        squeeze_drive=upsilon * weight * np.exp(1j * columns["theta"]),
    )
    driven = ~np.isnan(c["rabi"])
    shift = driven & ~np.isnan(columns["omega_0"]) & ~np.isnan(columns["g_m"])
    delta_bar = c["delta_m"].copy()
    m_s = np.full(len(columns), np.nan, dtype=complex)
    code = np.zeros(len(columns), dtype=np.int8)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Direct detunings, or a direct G_m, leave the detuning unshifted.
        direct = np.flatnonzero(driven & ~shift)
        m_s[direct], pole = _steady_amplitude(c, direct, delta_bar[direct])
        code[direct[pole]] = RESONANCE
        _self_consistent_shift(c, np.flatnonzero(shift), delta_bar, m_s, code)
    return DerivedColumns(delta_bar, m_s, code)


def _one(params: SystemParams) -> tuple[ParamColumns, DerivedColumns]:
    """The columns and derivation of one point; raises its ``ParametricResonanceError``."""
    columns = ParamColumns.gather([params])
    derived = derive_many(columns)
    if derived.code[0]:
        raise verdict_error(derived.code[0])
    return columns, derived


def _driven(params: SystemParams) -> tuple[ParamColumns, DerivedColumns]:
    """``_one(params)``; raises ``InvalidInputError`` for a point without a drive amplitude."""
    columns, derived = _one(params)
    if np.isnan(columns["omega_rabi"][0]):
        raise InvalidInputError(
            "steady amplitude requires a drive: set rabi, or h_d with sphere_diameter"
        )
    return columns, derived


def steady_magnon_amplitude_exact(params: SystemParams) -> complex:
    """Steady magnon amplitude from the full three-mode response.

    Requires a drive amplitude (``rabi`` directly, or ``h_d`` with
    ``sphere_diameter``).  Raises ``ParametricResonanceError`` when the
    response denominator is within 1e-6 (relative) of zero.
    """
    return complex(_driven(params)[1].m_s[0])


def steady_magnon_amplitude_approx(params: SystemParams) -> complex:
    """Large-detuning approximation of the steady magnon amplitude.

    Valid for detunings well above the linewidths; emits a warning when
    either detuning is below ten linewidths.
    """
    columns, derived = _driven(params)
    delta_a, delta_m_bar = float(columns["delta_a"][0]), float(derived.delta_m_bar[0])
    if delta_a == 0.0:
        raise InvalidInputError("the approximate amplitude requires a nonzero cavity detuning")
    wide = max(params.kappa_a, params.kappa_m)
    if min(abs(delta_a), abs(delta_m_bar)) < 10.0 * wide:
        warnings.warn(
            "detunings are within 10 linewidths; the approximate amplitude may be inaccurate",
            stacklevel=2,
        )
    eta = params.g_a**2 / delta_a - delta_m_bar
    denominator = eta**2 - params.upsilon**2
    if abs(denominator) <= _DENOMINATOR_RTOL * (eta**2 + params.upsilon**2):
        raise ParametricResonanceError(
            "approximate amplitude denominator vanishes: squeezing amplitude at parametric resonance"
        )
    numerator = params.upsilon * np.exp(1j * params.theta) + 1j * eta
    return complex(numerator / denominator * float(columns["omega_rabi"][0]))


def effective_coupling(params: SystemParams) -> complex:
    """Effective magnomechanical coupling.

    With a direct ``G_m`` it is returned unchanged (as a real complex
    number); otherwise it is ``i sqrt(2) g_m m_s``.
    """
    columns, derived = _one(params)
    if params.G_m is not None:
        return complex(params.G_m)
    if np.isnan(columns["omega_rabi"][0]):
        raise InvalidInputError(
            "effective coupling needs G_m, or g_m with a drive to form the steady amplitude"
        )
    return 1j * math.sqrt(2.0) * params.g_m * complex(derived.m_s[0])


def drift_stack(columns: ParamColumns, derived: DerivedColumns) -> NDArray[np.float64]:
    """Drift matrices of the linearized quadrature dynamics, one (6, 6) per point.

    Row/column order ``(x_a, p_a, x_m, p_m, q, p)``.  The squeezing drive
    enters the magnon block only: the phase splits the effective magnon
    decay into ``kappa_m +/- upsilon*cos(theta)`` and the detuning into
    ``delta_m_bar +/- upsilon*sin(theta)``.  ``derived`` is
    ``derive_many(columns)``; the matrix of a point it failed is not
    meaningful.
    """
    c = columns
    if np.any(np.isnan(c["G_m"]) & np.isnan(c["omega_rabi"])):
        raise InvalidInputError(
            "drift matrix needs G_m, or g_m with a drive to form the steady amplitude"
        )
    # Real drift entry: the phase of i sqrt(2) g_m m_s is absorbed into the
    # mechanical quadrature reference, leaving the modulus, formed in the
    # operation order of Python's complex type (see _steady_amplitude).
    scale, m_s = math.sqrt(2.0) * c["g_m"], derived.m_s
    g = np.where(np.isnan(c["G_m"]), np.hypot(scale * m_s.imag, scale * m_s.real), c["G_m"])
    split_delta = c["upsilon"] * np.sin(c["theta"])
    split_kappa = c["upsilon"] * np.cos(c["theta"])
    kappa_m, delta_bar = c["kappa_m"], derived.delta_m_bar
    gamma = np.zeros((len(c), 6, 6))
    gamma[:, 0, 0] = gamma[:, 1, 1] = -c["kappa_a"]
    gamma[:, 0, 1], gamma[:, 1, 0] = c["delta_a"], -c["delta_a"]
    gamma[:, 0, 3] = gamma[:, 2, 1] = c["g_a"]
    gamma[:, 1, 2] = gamma[:, 3, 0] = -c["g_a"]
    gamma[:, 2, 2], gamma[:, 3, 3] = -(kappa_m + split_kappa), -(kappa_m - split_kappa)
    gamma[:, 2, 3], gamma[:, 3, 2] = delta_bar + split_delta, -(delta_bar - split_delta)
    gamma[:, 2, 4], gamma[:, 5, 3] = -g, g
    gamma[:, 4, 5], gamma[:, 5, 4] = c["omega_b"], -c["omega_b"]
    gamma[:, 5, 5] = -c["gamma_b"]
    return gamma


def diffusion_stack(columns: ParamColumns) -> NDArray[np.float64]:
    """Diagonal input-noise matrices, one
    diag[kappa_a(2n_a+1) x2, kappa_m(2n_m+1) x2, 0, gamma_b(2n_b+1)] per point."""
    c = columns
    lam = np.zeros((len(c), 6, 6))
    for rate, omega, diagonal in (
        ("kappa_a", "omega_a", [0, 1]), ("kappa_m", "omega_m", [2, 3]), ("gamma_b", "omega_b", [5])
    ):
        # One thermal_occupation per distinct (omega, temperature).
        pairs = list(zip(c[omega].tolist(), c["temperature"].tolist()))
        table = {pair: thermal_occupation(*pair) for pair in set(pairs)}
        noise = c[rate] * (2.0 * np.array([table[pair] for pair in pairs]) + 1.0)
        lam[:, diagonal, diagonal] = noise[:, None]
    return lam


def build_drift(params: SystemParams) -> NDArray[np.float64]:
    """Drift matrix of one operating point (see ``drift_stack``)."""
    return drift_stack(*_one(params))[0]


def build_diffusion(params: SystemParams) -> NDArray[np.float64]:
    """Input-noise matrix of one operating point (see ``diffusion_stack``)."""
    return diffusion_stack(ParamColumns.gather([params]))[0]


def validity_report(params: SystemParams, kerr_coefficient: float) -> ValidityReport:
    """Check the linearization against excitation-number and Kerr bounds.

    Requires the steady amplitude (a drive specification) and the sphere
    diameter for the spin-count bound.  ``stable`` reflects the drift
    matrix spectrum at this operating point.
    """
    from .solver import stability  # local import keeps module layering acyclic

    columns, derived = _one(params)
    omega_rabi = float(columns["omega_rabi"][0])
    if kerr_coefficient < 0.0:
        raise InvalidInputError("kerr_coefficient must be non-negative")
    if math.isnan(omega_rabi):
        raise InvalidInputError(
            "validity checks need the steady amplitude: set rabi, or h_d with sphere_diameter"
        )
    if params.sphere_diameter is None:
        raise InvalidInputError("validity checks need sphere_diameter for the spin-count bound")

    amplitude = abs(complex(derived.m_s[0]))
    occupation = amplitude**2
    bound = 2.0 * total_spins(params.sphere_diameter, params.spin_density) * params.spin_s
    kerr_shift = kerr_coefficient * amplitude**3
    if omega_rabi > 0.0:
        ratio = kerr_shift / omega_rabi
    else:
        ratio = 0.0 if kerr_shift == 0.0 else math.inf
    stable = stability(drift_stack(columns, derived)[0]).is_stable
    return ValidityReport(
        amplitude, occupation, bound, kerr_coefficient, ratio, omega_rabi,
        low_excitation_ok=occupation < 0.01 * bound, kerr_ok=ratio < 0.5, stable=stable,
    )
