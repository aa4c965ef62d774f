"""Exception types shared across the package, and the per-point verdicts of batched stages.

The CLI maps these onto distinct process exit codes, so library code
should raise the most specific type that applies.
"""

from __future__ import annotations

import math


class MagsqueezeError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(MagsqueezeError, ValueError):
    """An argument violates a documented precondition."""


class InvalidStateError(MagsqueezeError, ValueError):
    """A state object is malformed or unphysical for the requested operation."""


class ConfigError(MagsqueezeError, ValueError):
    """A run configuration is missing keys, has unknown keys, or bad values."""


class NoSteadyStateError(MagsqueezeError, RuntimeError):
    """The drift matrix is not strictly stable, so no steady state exists."""


class ParametricResonanceError(MagsqueezeError, RuntimeError):
    """The steady amplitude diverges (drive denominator at or past resonance)."""


class NoMeasuresError(MagsqueezeError, RuntimeError):
    """Neither phase setting of a directional comparison admits a steady state."""


class NumericalError(MagsqueezeError, RuntimeError):
    """A numerical routine produced a result outside its accuracy contract."""


# Relative Frobenius residual accepted from a Lyapunov solve (see ``solver``).
RESIDUAL_BOUND: float = 1e-10

# Largest condition number of a covariance matrix whose measures are taken
# (see ``gaussian``): up to it, a product state's spurious negativity stays
# below 1e-9 (6.2e-10 at most over 10^4 squeezed-beside-vacua draws; the
# first draw above 1e-9 has condition number 1.4e7).
CONDITION_BOUND: float = 1e7

# A batched stage reports per point an int8 code into this table, the first
# check it fails in pipeline order (0 if none), and the float the message quotes.
VERDICTS: tuple[tuple[str, type[MagsqueezeError] | None, str], ...] = (
    ("ok", None, ""),
    ("resonance", ParametricResonanceError,
     "steady amplitude denominator vanishes: the two-magnon drive is at parametric resonance"),
    ("no_fixed_point", ParametricResonanceError,
     "self-consistent magnon detuning has no fixed point below the bare detuning"),
    ("non_finite", InvalidInputError, "gamma and diffusion must have finite entries"),
    ("unstable", NoSteadyStateError,
     "drift matrix is not stable (max eigenvalue real part {:.6e})"),
    ("residual", NumericalError,
     f"Lyapunov residual {{:.3e}} exceeds bound {RESIDUAL_BOUND:.0e}"),
    ("unphysical", InvalidStateError,
     "covariance matrix violates the uncertainty bound"
     " (min eigenvalue of V + (i/2) Omega is {:.3e})"),
    ("not_definite", InvalidInputError, "symplectic spectrum requires a positive definite matrix"),
    ("ill_conditioned", NumericalError,
     f"covariance matrix condition number {{:.3e}} exceeds bound {CONDITION_BOUND:.0e}"),
    ("non_positive_spectrum", InvalidStateError,
     "partial transpose produced a non-positive spectrum"),
)
(OK, RESONANCE, NO_FIXED_POINT, NON_FINITE, UNSTABLE, RESIDUAL, UNPHYSICAL, NOT_DEFINITE,
 ILL_CONDITIONED, NON_POSITIVE_SPECTRUM) = range(len(VERDICTS))


def verdict_error(code: int, value: float = math.nan) -> MagsqueezeError:
    """The exception of a nonzero verdict ``code`` whose stage reported ``value``."""
    _, cls, template = VERDICTS[code]
    return cls(template.format(value))
