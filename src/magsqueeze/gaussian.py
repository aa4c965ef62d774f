"""Gaussian-state toolbox for continuous-variable entanglement measures.

All routines use the quadrature ordering ``(x_1, p_1, x_2, p_2, ...)`` and
the convention in which the vacuum covariance matrix is ``I/2`` (so the
uncertainty bound reads ``V + (i/2) Omega >= 0``).

The measures provided are the logarithmic negativity of a bipartition of 2
or 3 modes, and the residual tangle (from its square, the continuous-variable
tangle) that quantifies genuinely tripartite entanglement through the
monogamy decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from .errors import (
    CONDITION_BOUND,
    ILL_CONDITIONED,
    NOT_DEFINITE,
    OK,
    UNPHYSICAL,
    InvalidInputError,
    InvalidStateError,
    raise_first,
)

__all__ = [
    "CovarianceMatrix",
    "Partition",
    "symplectic_form",
    "log_negativity",
    "min_residual_contangle",
    "three_mode_measures",
    "wigner_single_mode",
]

# Uncertainty-relation slack accepted by the exact state checks (_exact_verdicts).
PHYSICALITY_TOL: float = 1e-9

_SYMMETRY_RTOL: float = 1e-12


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Validated covariance matrix of an n-mode Gaussian state.

    Parameters
    ----------
    data:
        Real square array of shape ``(2n, 2n)`` in interleaved quadrature
        ordering. Its entries must be finite, and it must be symmetric to within
        a relative tolerance of 1e-12; violating either raises ``InvalidInputError``.
        Physicality (the uncertainty bound) is *not* enforced here; the
        measures check it.
    """

    data: NDArray[np.float64]

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInputError(
                f"covariance matrix must be square, got shape {arr.shape}"
            )
        if arr.shape[0] % 2 != 0 or arr.shape[0] == 0:
            raise InvalidInputError(
                f"covariance matrix dimension must be a positive even number, got {arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("covariance matrix contains non-finite entries")
        unit, scale = _unit_scaled(arr)
        if np.linalg.norm(unit - unit.T) > _SYMMETRY_RTOL * max(1.0 / scale, np.linalg.norm(unit)):
            raise InvalidInputError(
                "covariance matrix is not symmetric to within relative tolerance 1e-12"
            )
        object.__setattr__(self, "data", arr)

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2


def _unit_scaled(arr: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Each matrix of ``arr`` over the power of two ``scale`` <= its max|entry|, and ``scale``;
    exact, and no square of an entry of a quotient overflows."""
    scale = np.ldexp(1.0, np.frexp(np.abs(arr).max(axis=(-2, -1)))[1] - 1)
    return arr / scale[..., None, None], scale


@dataclass(frozen=True)
class Partition:
    """Bipartition of a set of modes into two disjoint, non-empty parties."""

    party_a: frozenset[int] = field()
    party_b: frozenset[int] = field()

    def __init__(self, party_a: Iterable[int], party_b: Iterable[int]) -> None:
        a = frozenset(int(m) for m in party_a)
        b = frozenset(int(m) for m in party_b)
        if not a or not b:
            raise InvalidInputError("both parties of a partition must be non-empty")
        if a & b:
            raise InvalidInputError(f"parties overlap on modes {sorted(a & b)}")
        if any(m < 0 for m in a | b):
            raise InvalidInputError("mode indices must be non-negative")
        object.__setattr__(self, "party_a", a)
        object.__setattr__(self, "party_b", b)

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(sorted(self.party_a | self.party_b))


def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Symplectic form Omega for ``n_modes`` modes in interleaved ordering.

    Block diagonal with ``[[0, 1], [-1, 0]]`` per mode, shape ``(2n, 2n)``.
    """
    if n_modes < 1:
        raise InvalidInputError(f"n_modes must be >= 1, got {n_modes}")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _symplectic_spectra(arr: NDArray[np.float64]) -> NDArray[np.float64]:
    """Ascending symplectic spectra of a positive definite (..., 2n, 2n) stack, via Cholesky."""
    n = arr.shape[-1] // 2
    factor = np.linalg.cholesky(arr)
    hermitian = 1j * (np.swapaxes(factor, -1, -2) @ symplectic_form(n) @ factor)
    return np.linalg.eigvalsh(hermitian)[..., n:]


def _transposition(partition: Partition) -> tuple[list[int], NDArray[np.float64]]:
    """Kept quadratures and signs: P V P = V[kept, kept] * signs negates party A's momenta."""
    modes = partition.modes
    quadratures = [2 * m + k for m in modes for k in (0, 1)]
    signs = np.array([-1.0 if k and m in partition.party_a else 1.0 for m in modes for k in (0, 1)])
    return quadratures, np.outer(signs, signs)


# The bipartitions of the three-mode measures in column order, party A transposed: the 1|1 pairs
# 0|1, 0|2 and 1|2, then each mode against the other two; and the batch's gather tables.
_PARTITIONS = tuple([Partition({i}, {j}) for i, j in ((0, 1), (0, 2), (1, 2))]
                    + [Partition({f}, {0, 1, 2} - {f}) for f in range(3)])
_PAIR_QUADRATURES, _PAIR_SIGNS = map(np.array, zip(*map(_transposition, _PARTITIONS[:3])))
_FOCUS_SIGNS = np.array([_transposition(p)[1] for p in _PARTITIONS[3:]])


def log_negativity(v: CovarianceMatrix, partition: Partition) -> float:
    """Logarithmic negativity across a bipartition of 2 or 3 modes.

    Only the partition's modes are kept, party A is partially
    transposed, and the measure is ``max(0, -ln(2 nu))`` with ``nu`` the
    smallest symplectic eigenvalue of the transposed matrix.

    Raises
    ------
    InvalidStateError
        If ``v`` is unphysical.
    InvalidInputError
        If ``v`` is not positive definite, or the partition does not cover
        exactly 2 or 3 modes.
    NumericalError
        If ``v`` has a condition number above 1e7, where rounding alone
        gives a product state a negativity above 1e-9.

    A state that passes these checks has a positive smallest symplectic
    eigenvalue (proof in ``three_mode_measures``), so the logarithm is finite.
    """
    modes = partition.modes
    if modes[-1] >= v.n_modes:
        raise InvalidInputError(f"partition modes {modes} out of range")
    if len(modes) not in (2, 3):
        raise InvalidInputError("partition must cover 2 or 3 modes in total")
    raise_first(*_exact_verdicts(v.data[None]))
    quadratures, signs = _transposition(partition)
    transposed = v.data[np.ix_(quadratures, quadratures)] * signs
    # V passed the exact checks, so the partial transpose factors (see three_mode_measures).
    return max(0.0, -float(np.log(2.0 * _symplectic_spectra(transposed)[0])))


def _residual_tangle(negativities: NDArray[np.float64]) -> NDArray[np.float64]:
    """Minimum residual tangle, floored at 0, of (..., 6) negativities in ``_PARTITIONS`` order."""
    tangles = negativities**2
    residuals = [tangles[..., 3 + focus] - (tangles[..., j] + tangles[..., k])
                 for focus, (j, k) in enumerate(((0, 1), (0, 2), (1, 2)))]
    return np.maximum(0.0, np.minimum.reduce(residuals))


def min_residual_contangle(v: CovarianceMatrix) -> float:
    """Minimum residual tangle of a three-mode state over the three focus modes, floored at 0.

    The residual tangle of focus ``i`` is ``C(i|jk) - C(i|j) - C(i|k)``, where ``C`` is the
    squared logarithmic negativity.  Monogamy requires it to be non-negative, though rounding
    can leave it slightly below zero.  The minimum, positive only if every focus decomposition
    leaves a surplus, witnesses genuinely tripartite entanglement; it is that of
    ``three_mode_measures`` to the last bit, from the same six negativities and rule.
    """
    if v.n_modes != 3:
        raise InvalidInputError(f"residual tangle requires exactly 3 modes, got {v.n_modes}")
    return float(_residual_tangle(np.array([log_negativity(v, p) for p in _PARTITIONS])))


def wigner_single_mode(
    v_sub: NDArray[np.float64], grid: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Wigner function of a zero-mean single-mode Gaussian state.

    Parameters
    ----------
    v_sub:
        2x2 covariance matrix of the mode, positive definite and valid as a ``CovarianceMatrix``.
    grid:
        Array of shape ``(N, 2)`` of phase-space points ``(x, p)``.

    Returns
    -------
    Array of ``N`` Wigner values
    ``W(u) = exp(-u^T V^{-1} u / 2) / (2 pi sqrt(det V))``.
    """
    m = CovarianceMatrix(v_sub).data
    if m.shape != (2, 2):
        raise InvalidInputError(f"expected a 2x2 covariance block, got shape {m.shape}")
    unit, scale = _unit_scaled(m)
    det = float(np.linalg.det(unit))  # det(m) / scale^2
    if det <= 0.0 or m[0, 0] <= 0.0:
        raise InvalidStateError(
            f"covariance block is singular or indefinite (det={det * scale * scale:.3e})"
        )
    pts = np.asarray(grid, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError(f"grid must have shape (N, 2), got {pts.shape}")
    inv = np.linalg.inv(m)
    quad = np.einsum("ni,ij,nj->n", pts, inv, pts)
    return np.exp(-0.5 * quad) / (2.0 * np.pi * (np.sqrt(det) * scale))


def _uncertainty_floor(arr: NDArray[np.float64]) -> NDArray[np.float64]:
    """Smallest eigenvalue of ``V + (i/2) Omega`` for each matrix of a (..., 2n, 2n) stack."""
    omega = symplectic_form(arr.shape[-1] // 2)
    return np.linalg.eigvalsh(arr.astype(np.complex128) + 0.5j * omega)[..., 0]


# Largest tr V that the certificate of three_mode_measures clears.  A floor of V + (i/2) Omega
# of at least -d gives V >= -d I, so lambda_max <= tr V + 5 d; and at u - i t Omega u for every
# real t, with u a unit eigenvector of lambda_min, (lambda_min + d)(lambda_max + d) >= 1/4.
# With d < 1e-9 and tr V <= B, V is definite with cond(V) <= 4 B^2 (1 + 1e-5), a quarter of
# CONDITION_BOUND: a margin of 4 over the quotient the exact checks form.
_TRACE_BOUND: float = float(np.sqrt(CONDITION_BOUND)) / 4.0

# The constant part of the real form [[V + tau I, -Omega/2], [Omega/2, V + tau I]] of
# V + (i/2) Omega + tau I (each eigenvalue twice), tau = PHYSICALITY_TOL / 2.  Real, not
# complex: only dpotrf runs, which the partial transposes load anyway.
_REAL_FORM = 0.5 * PHYSICALITY_TOL * np.eye(12) + np.kron(
    [[0.0, -1.0], [1.0, 0.0]], 0.5 * symplectic_form(3)
)


def _certified(stack: NDArray[np.float64]) -> NDArray[np.bool_]:
    """States of an (n, 6, 6) stack whose exact checks one Cholesky factorization proves to pass.

    If the real form factors, the uncertainty floor is at least -tau minus the backward error
    (Higham, Accuracy and Stability, Thm 10.3: below 3e-12 up to the trace bound), so above
    -PHYSICALITY_TOL.  States over the trace bound are not tried, and if one factorization
    fails, no state is certified.
    """
    cleared = np.trace(stack, axis1=1, axis2=2) <= _TRACE_BOUND
    v = stack[cleared]
    real_form = np.tile(_REAL_FORM, (v.shape[0], 1, 1))
    real_form[:, :6, :6] += v
    real_form[:, 6:, 6:] += v
    try:
        np.linalg.cholesky(real_form)
    except np.linalg.LinAlgError:
        cleared[:] = False
    return cleared


def _exact_verdicts(stack: NDArray[np.float64]) -> tuple[NDArray[np.int8], NDArray[np.float64]]:
    """Verdict codes of (n, 2m, 2m) states from their uncertainty floors and spectra, and the
    float each message quotes (the condition number where ill-conditioned, else the floor).

    The state checks of ``log_negativity`` and of the states ``_certified`` cannot clear."""
    floor = _uncertainty_floor(stack)
    spectrum = np.linalg.eigvalsh(stack)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = spectrum[:, -1] / spectrum[:, 0]
    code = np.select(
        [~(floor >= -PHYSICALITY_TOL), ~(spectrum[:, 0] > 0.0), ~(condition <= CONDITION_BOUND)],
        [UNPHYSICAL, NOT_DEFINITE, ILL_CONDITIONED], OK,
    ).astype(np.int8)
    return code, np.where(code == ILL_CONDITIONED, condition, floor)


def three_mode_measures(
    stack: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.int8], NDArray[np.float64]]:
    """``E(0|1)``, ``E(0|2)``, ``E(1|2)`` and the minimum residual tangle of (n, 6, 6) states.

    Batched equivalent of ``log_negativity`` on the three mode pairs plus
    ``min_residual_contangle``, from six negativities per state instead of
    twelve.  One Cholesky certificate (``_certified``) clears physicality,
    definiteness and conditioning; only the states it cannot clear take the
    scalar path's exact checks (``_exact_verdicts``).  The states that pass are
    factored as (n, 3, 4, 4) and (n, 3, 6, 6) partial transposes.  Returns an
    (n, 4) array, NaN in the row of a failing state, and per state the verdict
    code (``errors.VERDICTS``: unphysical, not_definite or ill_conditioned,
    the first that fails) and the float its message quotes (the condition
    number where ill-conditioned, NaN where ok, else the uncertainty floor).
    A state that passes all three has a positive symplectic spectrum, so
    every negativity of its row is finite.
    """
    code, value = np.zeros(stack.shape[0], dtype=np.int8), np.full(stack.shape[0], np.nan)
    exact = ~_certified(stack)
    if exact.any():
        code[exact], value[exact] = _exact_verdicts(stack[exact])
    # A state gets here only with cond(V) <= CONDITION_BOUND (_certified proves a quarter of it,
    # _exact_verdicts checks it).  Each partial transpose T is an orthogonal similarity of V or
    # of a principal submatrix, so lambda(T) lies in [lambda_min(V), lambda_max(V)] and all six
    # factor (Higham, Accuracy and Stability, Thm 10.7).  nu_min(T) is the smallest singular
    # value of T^1/2 Omega T^1/2, Omega orthogonal, so nu_min(T) >= lambda_min(T); eigvalsh errs
    # by O(n eps lambda_max), so every computed nu is positive, by a factor above 1e7.
    factored = code == OK
    v, nu = stack[factored], np.full((stack.shape[0], 6), np.nan)
    pairs = v[:, _PAIR_QUADRATURES[:, :, None], _PAIR_QUADRATURES[:, None, :]] * _PAIR_SIGNS
    nu[factored] = np.concatenate(
        [_symplectic_spectra(t)[..., 0] for t in (pairs, v[:, None] * _FOCUS_SIGNS)], axis=1
    )
    negativities = np.maximum(0.0, -np.log(2.0 * nu))
    out = np.column_stack([negativities[:, :3], _residual_tangle(negativities)])
    # Canonical NaN bits: np.log signs a failing row's NaN by batch size (0xfff8... in a batch,
    # 0x7ff8... alone), and each row must have the same bytes in a batch of any size.
    out[code != OK] = np.nan
    value[code == OK] = np.nan
    return out, code, value
