"""Physical model of a driven cavity magnomechanical system with a squeezed magnon mode.

Translates laboratory parameters (frequencies, decay rates, couplings, the
two-magnon drive amplitude and phase, temperature) into the objects the
solver consumes: the 6x6 drift matrix of the linearized quadrature dynamics,
the diagonal diffusion matrix of the input noise, the steady magnon amplitude
of the drift's own mean-field equations, and validity reports for the
linearization.

Quadrature ordering is ``(x_a, p_a, x_m, p_m, q, p)`` for cavity, magnon and
mechanical mode.  All frequencies and rates are angular (rad/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    NO_FIXED_POINT,
    NON_FINITE,
    RESONANCE,
    UNSTABLE,
    InvalidInputError,
    raise_first,
    verdict_error,
)

__all__ = [
    "SystemParams",
    "gather",
    "DerivedColumns",
    "ValidityReport",
    "thermal_occupation",
    "total_spins",
    "rabi_frequency",
    "build_drift",
    "build_diffusion",
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

# Relative floor below which the mean-field system of the amplitude counts as singular.
_DENOMINATOR_RTOL: float = 1e-6

# YIG: spin density (m^-3), spin number of Fe3+ and gyromagnetic ratio (rad/s/T).
SPIN_DENSITY: float = 4.22e27
SPIN_S: float = 2.5
GYROMAGNETIC_RATIO: float = TWO_PI * 28e9

_DRIVE_RULE = "set rabi, or h_d with sphere_diameter"


@dataclass(frozen=True)
class SystemParams:
    """Laboratory parameters of the three-mode system.

    Angular frequencies and rates in rad/s, temperature in kelvin.  The
    magnon detuning can be given either directly (``delta_a``/``delta_m``)
    or through the drive frequency ``omega_0``; exactly one of the two
    forms must be used.  The magnomechanical coupling is either the
    effective ``G_m`` directly or, where ``G_m`` is absent, formed from the
    bare ``g_m`` and the steady magnon amplitude of a drive (see
    ``has_drive``).  ``theta`` is normalized into [0, 2pi) at construction.
    Every set value must be finite.
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

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite")
        for name in ("omega_a", "omega_m", "omega_b"):
            if not getattr(self, name) > 0.0:
                raise InvalidInputError(f"{name} must be positive")
        for name in ("kappa_a", "kappa_m", "gamma_b"):
            if not getattr(self, name) > 0.0:
                raise InvalidInputError(f"{name} must be positive (dissipation required)")
        for name in ("g_a", "upsilon", "temperature", "G_m", "g_m", "rabi", "h_d"):
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
        if self.G_m is None and not self.has_drive:
            raise InvalidInputError(f"g_m without G_m needs a drive: {_DRIVE_RULE}")
        # The diameter sets the spin count of the drive and of the validity bound.
        if self.sphere_diameter is not None and not self.sphere_diameter > 0.0:
            raise InvalidInputError("sphere_diameter must be positive")
        if self.sphere_diameter is not None and math.isinf(total_spins(self.sphere_diameter)):
            raise InvalidInputError("sphere_diameter must give a finite spin count")
        if self.sphere_diameter is not None and total_spins(self.sphere_diameter) == 0.0:
            raise InvalidInputError("sphere_diameter must give a nonzero spin count")

    @property
    def has_drive(self) -> bool:
        """Whether a drive amplitude is set: ``rabi``, or ``h_d`` with ``sphere_diameter``."""
        return self.rabi is not None or (self.h_d is not None and self.sphere_diameter is not None)


class ValidityReport(NamedTuple):
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
    ``hbar*omega/(k_B T) > 700`` and overflows to inf where that ratio
    underflows to 0, instead of raising.
    """
    if not omega > 0.0:
        raise InvalidInputError(f"omega must be positive, got {omega}")
    if not temperature >= 0.0:
        raise InvalidInputError(f"temperature must be non-negative, got {temperature}")
    kt = _K_B * temperature
    if kt == 0.0:  # zero temperature, or one so small that k_B T underflows
        return 0.0
    x = _HBAR * omega / kt
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x) if x else math.inf


@np.errstate(over="ignore")
def _power(x: float, k: int) -> float:
    """``x**k`` as Python rounds it, but inf where Python's ``**`` raises ``OverflowError``."""
    return float(np.float64(x) ** k)


def total_spins(sphere_diameter: float) -> float:
    """Total spin count of a YIG sphere: ``SPIN_DENSITY`` times (pi/6) d^3, inf on overflow."""
    if not sphere_diameter > 0.0:
        raise InvalidInputError(f"sphere_diameter must be positive, got {sphere_diameter}")
    return SPIN_DENSITY * (math.pi / 6.0) * _power(sphere_diameter, 3)


def rabi_frequency(h_d: float, n_spins: float) -> float:
    """Collective drive amplitude (sqrt(5)/4) * gamma * sqrt(N_0) * H_d in rad/s."""
    if not h_d >= 0.0:
        raise InvalidInputError(f"h_d must be non-negative, got {h_d}")
    if not n_spins > 0.0:
        raise InvalidInputError("n_spins must be positive")
    return (math.sqrt(5.0) / 4.0) * GYROMAGNETIC_RATIO * math.sqrt(n_spins) * h_d


def _resolved(params: SystemParams) -> dict[str, float]:
    """The bare detunings of ``params`` and, with ``h_d`` and no ``rabi``, its drive amplitude."""
    resolved = {}
    if params.omega_0 is not None:
        resolved["delta_a"] = params.omega_a - params.omega_0
        resolved["delta_m"] = params.omega_m - params.omega_0
    if params.rabi is None and params.has_drive:
        resolved["rabi"] = rabi_frequency(params.h_d, total_spins(params.sphere_diameter))
    return resolved


_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(SystemParams))


# Operating points as columns: one float64 array per SystemParams field, all
# the same length, NaN for None.  delta_a and delta_m hold the bare detunings
# and rabi the resolved drive amplitude.
Columns = dict[str, NDArray[np.float64]]


def gather(points: Sequence[SystemParams]) -> Columns:
    """The columns of ``points``, one entry per point."""
    # vars() lists the fields in order; the resolved values replace theirs.
    rows = [list({**vars(p), **_resolved(p)}.values()) for p in points]
    table = np.array(rows, dtype=float).reshape(len(rows), len(_FIELDS))
    return dict(zip(_FIELDS, table.T))


def _magnon_block(c: Columns, delta_bar: NDArray) -> list[list[NDArray]]:
    """The drift's magnon block, rows and columns ``(x_m, p_m)``, per point of ``c``.

    The only place the squeezing drive enters the model: its phase splits the
    magnon decay into ``kappa_m +/- upsilon*cos(theta)`` and the detuning
    ``delta_bar`` into ``delta_bar +/- upsilon*sin(theta)``.
    """
    split_kappa = c["upsilon"] * np.cos(c["theta"])
    split_delta = c["upsilon"] * np.sin(c["theta"])
    return [[-(c["kappa_m"] + split_kappa), delta_bar + split_delta],
            [-(delta_bar - split_delta), -(c["kappa_m"] - split_kappa)]]


def _amplitude_system(c: Columns) -> NDArray[np.float64]:
    """Rows m00, m11, upsilon*sin(theta), load*delta_a and rabi: the detuning-free parts of
    the mean-field system of every point of ``c``.  The mean-field equations are the drift's
    cavity-magnon block G with the drive f = (0, 0, sqrt(2) rabi, 0): G x = -f.  Eliminating
    the cavity leaves M (x_m, p_m) = -(sqrt(2) rabi, 0), with J = [[0, 1], [-1, 0]], the magnon
    block D, M = D - load (kappa_a I + delta_a J) and load = g_a^2 / (kappa_a^2 + delta_a^2)."""
    # -0.0 + x is x exactly, so the block at detuning -0.0 holds upsilon*sin(theta).
    (m00, split_delta), (_, m11) = _magnon_block(c, -0.0)
    load = c["g_a"] ** 2 / (c["kappa_a"] ** 2 + c["delta_a"] ** 2)
    return np.array([m00 - load * c["kappa_a"], m11 - load * c["kappa_a"],
                     split_delta, load * c["delta_a"], c["rabi"]])


def _amplitude(system: NDArray, delta_m_bar: NDArray) -> tuple[NDArray, NDArray[np.bool_]]:
    """Steady amplitudes m_s = (x_m + i p_m) / sqrt(2) of an ``_amplitude_system`` at the
    detunings ``delta_m_bar``, and where a finite |det M| <= 1e-6 |M|_F^2 / 2 (the pole)."""
    m00, m11, split_delta, load_delta, rabi = system
    m01, m10 = delta_m_bar + split_delta - load_delta, -(delta_m_bar - split_delta) + load_delta
    det = m00 * m11 - m01 * m10
    pole = np.abs(det) <= _DENOMINATOR_RTOL * (m00**2 + m01**2 + m10**2 + m11**2) / 2
    return rabi * (-m11 + 1j * m10) / det, pole & np.isfinite(det)  # an overflowing det is no pole


@np.errstate(divide="ignore", invalid="ignore")  # the step not taken may divide by zero
def _brentq(
    f: Callable[[NDArray], NDArray], xpre: NDArray, xcur: NDArray, fpre: NDArray,
    fcur: NDArray, xtol: NDArray,
) -> NDArray[np.float64]:
    """Brent's method on independent brackets, step for step as the C routine
    ``brentq.c`` (Brent 1973, ch. 4) with its relative tolerance floor 4 eps.

    ``f(x)`` evaluates the function of each bracket at its entry of ``x``;
    ``fpre`` and ``fcur`` are their nonzero values of opposite sign at the
    ends.  Brackets not converged after 100 steps get NaN; converged
    ones keep stepping with the rest, but their first root is the one kept.
    """
    root = np.full(xcur.size, np.nan)
    xblk = fblk = spre = scur = np.zeros(xcur.size)
    for _ in range(100):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur)
        fpre, fcur = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur)
        xblk, fblk = np.where(swap, xpre, xblk), np.where(swap, fpre, fblk)
        delta = (xtol + 4.0 * np.finfo(float).eps * np.abs(xcur)) / 2
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


class DerivedColumns(NamedTuple):
    """Per-point results of ``derive_many``.

    ``delta_m_bar`` is the effective magnon detuning and ``m_s`` the steady
    magnon amplitude, NaN without a drive.  ``code`` is 0 where a point
    derived, otherwise its verdict code: resonance, no_fixed_point, or
    non_finite where the amplitude's mean-field system overflows.
    """

    delta_m_bar: NDArray[np.float64]
    m_s: NDArray[np.complex128]
    code: NDArray[np.int8]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def derive_many(points: Sequence[SystemParams] | Columns) -> DerivedColumns:
    """Effective magnon detunings and steady amplitudes of many operating points (``SystemParams``
    or their ``gather`` columns), by one batched solve of the self-consistent shift
    Delta_m_bar = Delta_m - g_m^2 |m_s(Delta_m_bar)|^2 / omega_b.

    A point at parametric resonance, or whose shift has no fixed point, gets the verdict code of
    the ``ParametricResonanceError`` ``build_drift`` raises for it.  Direct detunings, or a direct
    G_m, take no backaction: such a point converges at its first iterate, the bare amplitude.
    """
    c = points if isinstance(points, dict) else gather(points)
    driven = ~np.isnan(c["rabi"])
    delta_bar = c["delta_m"].copy()
    m_s = np.full(delta_bar.size, np.nan, dtype=complex)
    code = np.zeros(delta_bar.size, dtype=np.int8)
    # A point whose amplitude system overflows gets the non_finite verdict.
    system = _amplitude_system(c)
    finite = np.isfinite(system).all(axis=0)
    code[driven & ~finite] = NON_FINITE
    idx = np.flatnonzero(driven & finite)
    shift = np.isnan(c["G_m"]) & ~np.isnan(c["omega_0"])

    def shifted(x: NDArray, sel: NDArray) -> tuple[NDArray, NDArray, NDArray]:
        m, pole = _amplitude(system[:, sel], x)
        backaction = c["g_m"][sel] ** 2 * np.abs(m) ** 2 / c["omega_b"][sel]
        return c["delta_m"][sel] - np.where(shift[sel], backaction, 0.0), m, pole

    def residual(x: NDArray, sel: NDArray) -> NDArray:
        # det M is real, so |m_s|^2 -> +inf on both sides of the pole: a
        # trial there counts as a positive residual.
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
    for _ in range(_SHIFT_MAX_ITER):
        lo = hi - step
        f_lo = residual(lo, idx)
        if np.all(f_lo < 0.0):
            break
        step = np.where(f_lo < 0.0, step, 2.0 * step)
    found = f_lo < 0.0
    code[idx[~found]] = NO_FIXED_POINT
    idx, lo, hi, f_lo, f_hi = (a[found] for a in (idx, lo, hi, f_lo, f_hi))
    xtol = 1e-12 * np.maximum(1.0, np.abs(hi))
    root = _brentq(lambda x: residual(x, idx), lo, hi, f_lo, f_hi, xtol)
    found = ~np.isnan(root)
    code[idx[~found]] = NO_FIXED_POINT
    idx, root = idx[found], root[found]
    delta_bar[idx], m_s[idx], pole = shifted(root, idx)
    code[idx[pole]] = RESONANCE
    return DerivedColumns(delta_bar, m_s, code)


@np.errstate(over="ignore")  # an overflowing coupling gets the non_finite verdict downstream
def drift_stack(c: Columns, derived: DerivedColumns) -> NDArray[np.float64]:
    """Drift matrices of the linearized quadrature dynamics, one (6, 6) per point.

    Row/column order ``(x_a, p_a, x_m, p_m, q, p)``; the squeezing drive enters ``_magnon_block``
    only.  ``derived`` is ``derive_many(c)``; the matrix of a point it failed is not meaningful.
    """
    # Real drift entry at m_s = -i|m_s|, the direct-G_m convention of Li, Zhu & Agarwal (PRL 121,
    # 203601). A driven point's arg(m_s) is dropped: with squeezing, no frame rotation absorbs it.
    g = np.where(np.isnan(c["G_m"]), math.sqrt(2.0) * c["g_m"] * np.abs(derived.m_s), c["G_m"])
    gamma = np.zeros((derived.code.size, 6, 6))
    gamma[:, 0, 0] = gamma[:, 1, 1] = -c["kappa_a"]
    gamma[:, 0, 1], gamma[:, 1, 0] = c["delta_a"], -c["delta_a"]
    gamma[:, 0, 3] = gamma[:, 2, 1] = c["g_a"]
    gamma[:, 1, 2] = gamma[:, 3, 0] = -c["g_a"]
    gamma[:, 2:4, 2:4] = np.moveaxis(_magnon_block(c, derived.delta_m_bar), -1, 0)
    gamma[:, 2, 4], gamma[:, 5, 3] = -g, g
    gamma[:, 4, 5], gamma[:, 5, 4] = c["omega_b"], -c["omega_b"]
    gamma[:, 5, 5] = -c["gamma_b"]
    return gamma


@np.errstate(over="ignore")  # an overflowing entry gets the non_finite verdict downstream
def diffusion_stack(c: Columns) -> NDArray[np.float64]:
    """Diagonal input-noise matrices, one
    diag[kappa_a(2n_a+1) x2, kappa_m(2n_m+1) x2, 0, gamma_b(2n_b+1)] per point."""
    lam = np.zeros((c["temperature"].size, 6, 6))
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
    """Drift matrix of one operating point (see ``drift_stack``); raises its resonance verdict."""
    columns = gather([params])
    derived = derive_many(columns)
    raise_first(derived.code)
    return drift_stack(columns, derived)[0]


def build_diffusion(params: SystemParams) -> NDArray[np.float64]:
    """Input-noise matrix of one operating point (see ``diffusion_stack``)."""
    return diffusion_stack(gather([params]))[0]


def validity_report(
    params: SystemParams, kerr_coefficient: float, m_s: complex, code: int
) -> ValidityReport:
    """Check the linearization of a point against excitation-number and Kerr bounds.

    ``m_s`` and ``code`` are its entries of ``analysis.evaluate``; a drive and
    the sphere diameter are checked before a verdict raises.  The verdicts
    before unstable in pipeline order (resonance, no_fixed_point, non_finite)
    leave nothing to report on and raise; unstable reports ``stable`` False.
    """
    if not kerr_coefficient >= 0.0:
        raise InvalidInputError("kerr_coefficient must be non-negative")
    if not params.has_drive:
        raise InvalidInputError(f"validity checks need a drive: {_DRIVE_RULE}")
    if params.sphere_diameter is None:
        raise InvalidInputError("validity checks need sphere_diameter for the spin-count bound")
    if code in (RESONANCE, NO_FIXED_POINT, NON_FINITE):
        raise verdict_error(code)
    rabi = _resolved(params).get("rabi", params.rabi)

    # A NaN amplitude had an overflowing numerator: it reads inf, as do overflowing powers.
    amplitude = abs(complex(m_s))
    amplitude = math.inf if math.isnan(amplitude) else amplitude
    occupation = _power(amplitude, 2)
    bound = 2.0 * total_spins(params.sphere_diameter) * SPIN_S
    # No Kerr term, or a zero drive (m_s = 0), gives a zero Kerr shift, even where |m_s|^3 is inf.
    kerr_shift = kerr_coefficient * _power(amplitude, 3) if kerr_coefficient else 0.0
    ratio = kerr_shift / rabi if rabi else 0.0
    return ValidityReport(
        amplitude, occupation, bound, kerr_coefficient, ratio, rabi,
        low_excitation_ok=occupation < 0.01 * bound, kerr_ok=ratio < 0.5, stable=code != UNSTABLE,
    )
