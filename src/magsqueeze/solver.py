"""Stability analysis and steady-state Lyapunov solver for linear quadrature dynamics.

The steady covariance matrix V of a stable linear diffusion
``dV/dt = Gamma V + V Gamma^T + Lambda`` solves
``Gamma V + V Gamma^T = -Lambda``, a dense linear system in the d(d+1)/2
entries of the symmetric V (the vech form of Magnus & Neudecker), solved
with one refinement step and checked against a strict residual bound.  A
fourth-order transient integrator on the full Kronecker-vectorized flow is
provided as an independent cross-check of the algebraic route.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import (
    NON_FINITE,
    OK,
    RESIDUAL,
    RESIDUAL_BOUND,
    UNSTABLE,
    InvalidInputError,
    NumericalError,
    raise_first,
)
from .gaussian import CovarianceMatrix, _unit_scaled

__all__ = [
    "StabilityReport",
    "stability",
    "solve_lyapunov",
    "steady_stack",
    "evolve_covariance",
]

# is_stable requires max Re(eig) below -STABILITY_MARGIN times the spectral radius.
STABILITY_MARGIN: float = 1e-12

_BLOWUP_FACTOR: float = 1e12


class StabilityReport(NamedTuple):
    """Spectrum-based stability verdict for a drift matrix."""

    eigenvalues: NDArray[np.complex128]
    max_real_part: float
    is_stable: bool


def _checked_square(matrix: NDArray[np.float64], name: str) -> NDArray[np.float64]:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _stable(eigenvalues: NDArray[np.complex128]) -> NDArray[np.bool_]:
    """Stability verdict of each spectrum along the last axis (see ``stability``)."""
    scale = np.abs(eigenvalues).max(axis=-1)
    return eigenvalues.real.max(axis=-1) < -STABILITY_MARGIN * scale


def stability(gamma: NDArray[np.float64]) -> StabilityReport:
    """Classify a drift matrix by its eigenvalue spectrum.

    Stable means every eigenvalue real part sits below a margin of
    -1e-12 times the spectral radius, so marginal cases rounded onto the
    imaginary axis are not misreported as stable.
    """
    eigenvalues = np.linalg.eigvals(_checked_square(gamma, "gamma"))
    return StabilityReport(
        eigenvalues=eigenvalues,
        max_real_part=float(eigenvalues.real.max()),
        is_stable=bool(_stable(eigenvalues)),
    )


@functools.lru_cache(maxsize=None)
def _vech_operator(d: int) -> tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.float64]]:
    """Lower-triangle positions, unknown of each entry and vech operator O of a symmetric d x d V.

    ``(gamma.ravel() @ O).reshape(m, m) @ vech(V) == vech(Gamma V + V Gamma^T)``, m = d(d+1)/2."""
    rows, cols = np.tril_indices(d)
    m, k, eq = rows.size, np.arange(d), np.arange(rows.size)[:, None]
    index = np.empty((d, d), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(m)
    operator = np.zeros((d, d, m, m))
    # (Gamma V)_pq = sum_k Gamma_pk V_kq and (V Gamma^T)_pq = sum_k Gamma_qk V_pk.
    np.add.at(operator, (rows[:, None], k, eq, index[k, cols[:, None]]), 1.0)
    np.add.at(operator, (cols[:, None], k, eq, index[rows[:, None], k]), 1.0)
    return rows * d + cols, index, operator.reshape(d * d, m * m)


def steady_stack(
    gammas: NDArray[np.float64], diffusions: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.int8], NDArray[np.float64]]:
    """Stability verdicts and steady covariance matrices of (n, d, d) stacks.

    One batched eigensolve classifies every drift with the margin of
    ``stability``; the stable points' (n, 21, 21) systems on the lower
    triangle of V come from one matmul and are solved batched with one
    refinement step.  Returns per point the max real part of the spectrum
    (NaN for non-finite input), the covariance matrix (NaN unless stable), and
    the verdict of ``solve_lyapunov`` (non_finite, unstable or residual) as a
    code with the float it quotes: the max real part or the residual.
    """
    n, d, _ = gammas.shape
    finite = np.isfinite(gammas).all(axis=(1, 2)) & np.isfinite(diffusions).all(axis=(1, 2))
    eigenvalues = np.full((n, d), np.nan, dtype=np.complex128)
    eigenvalues[finite] = np.linalg.eigvals(gammas[finite])
    max_real = eigenvalues.real.max(axis=1)
    stable = _stable(eigenvalues)

    covariances, residuals = np.full((n, d, d), np.nan), np.full(n, np.nan)
    # Exact division by a power of two near max|Gamma|: tiny rates solve like scaled ones.
    g, power = _unit_scaled(gammas[stable])
    lam = diffusions[stable] / power[:, None, None]
    lower, index, operator = _vech_operator(d)
    system = (g.reshape(-1, d * d) @ operator).reshape(-1, lower.size, lower.size)
    rhs = -lam.reshape(-1, d * d)[:, lower, None]
    try:
        x = np.linalg.solve(system, rhs)
        # Refinement recovers the last bits (a vacuum diagonal comes out as exactly 1/2).
        x += np.linalg.solve(system, rhs - system @ x)
    except np.linalg.LinAlgError:  # a singular system: NaN gets the residual verdict
        x = np.full(rhs.shape, np.nan)
    v = x[:, index, 0]
    covariances[stable] = v
    # Both norms scale by max|Lambda|, as squares of entries near the float range overflow.
    scale = np.maximum(np.abs(lam).max(axis=(1, 2), keepdims=True), 1e-300)
    residual = np.linalg.norm((g @ v + v @ g.transpose(0, 2, 1) + lam) / scale, axis=(1, 2))
    residuals[stable] = residual / np.maximum(np.linalg.norm(lam / scale, axis=(1, 2)), 1.0)
    code = np.select([~finite, ~stable, ~(residuals <= RESIDUAL_BOUND)],
                     [NON_FINITE, UNSTABLE, RESIDUAL], OK).astype(np.int8)
    return max_real, covariances, code, np.where(stable, residuals, max_real)


def solve_lyapunov(
    gamma: NDArray[np.float64], diffusion: NDArray[np.float64]
) -> CovarianceMatrix:
    """Steady covariance matrix solving Gamma V + V Gamma^T = -Lambda.

    Refuses unstable drift matrices (``NoSteadyStateError``).  The result
    is symmetric, and the relative residual
    ``|Gamma V + V Gamma^T + Lambda| / |Lambda|`` (Frobenius) must come out
    below 1e-10, otherwise ``NumericalError`` quotes the measured value.
    """
    arr_g = _checked_square(gamma, "gamma")
    arr_l = _checked_square(diffusion, "diffusion")
    if arr_l.shape != arr_g.shape:
        raise InvalidInputError(
            f"shape mismatch: gamma {arr_g.shape} vs diffusion {arr_l.shape}"
        )
    _, covariances, code, value = steady_stack(arr_g[None], arr_l[None])
    raise_first(code, value)
    return CovarianceMatrix(covariances[0])


def evolve_covariance(
    gamma: NDArray[np.float64],
    diffusion: NDArray[np.float64],
    v0: CovarianceMatrix,
    t_final: float,
    dt: float,
) -> CovarianceMatrix:
    """Integrate dV/dt = Gamma V + V Gamma^T + Lambda with a fourth-order explicit scheme.

    The final step is shortened to land exactly on ``t_final``.  Norm
    blow-up (non-finite entries or growth past 1e12 times the initial
    scale) raises ``NumericalError``; that is the signature of a step size
    too large for the fastest drift timescale.
    """
    arr_g = _checked_square(gamma, "gamma")
    arr_l = _checked_square(diffusion, "diffusion")
    if arr_l.shape != arr_g.shape or v0.data.shape != arr_g.shape:
        raise InvalidInputError("gamma, diffusion and v0 must share one square shape")
    if dt <= 0.0:
        raise InvalidInputError(f"dt must be positive, got {dt}")
    if t_final < 0.0:
        raise InvalidInputError(f"t_final must be non-negative, got {t_final}")
    if t_final == 0.0:
        return v0

    # One step of the classical fourth-order scheme on the vectorized flow
    # dv/dt = L v + vec(Lambda), L = Gamma kron I + I kron Gamma, is the
    # affine map v -> P v + q with P = sum_{k<=4} (hL)^k / k! and
    # q = h phi(hL) vec(Lambda), phi(z) = (P(z) - 1) / z.
    d = arr_g.shape[0]
    eye, eye_sq = np.eye(d), np.eye(d * d)
    generator = np.kron(arr_g, eye) + np.kron(eye, arr_g)

    def step_map(h: float) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        hl, phi = h * generator, eye_sq
        for k in (4.0, 3.0, 2.0):
            phi = eye_sq + hl @ phi / k
        return eye_sq + hl @ phi, h * phi @ arr_l.ravel()

    v = v0.data.ravel()
    bound = _BLOWUP_FACTOR * max(1.0, float(np.linalg.norm(v)), float(np.linalg.norm(arr_l)))
    transpose = np.arange(d * d).reshape(d, d).T.ravel()
    full_step = step_map(dt)
    n_steps = int(np.ceil(t_final / dt))
    for step in range(n_steps):
        h = min(dt, t_final - step * dt)
        propagator, inhomogeneity = full_step if h == dt else step_map(h)
        v = propagator @ v + inhomogeneity
        v = 0.5 * (v + v[transpose])
        # A non-finite entry makes the norm inf or NaN, which fails the test too.
        if not float(np.linalg.norm(v)) <= bound:
            raise NumericalError(
                f"covariance norm blew up at step {step + 1}; reduce dt below the fastest timescale"
            )
    return CovarianceMatrix(v.reshape(d, d))
