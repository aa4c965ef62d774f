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
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    CONDITION_BOUND,
    ILL_CONDITIONED,
    NON_POSITIVE_SPECTRUM,
    NOT_DEFINITE,
    OK,
    UNPHYSICAL,
    InvalidInputError,
    InvalidStateError,
    raise_first,
    verdict_error,
)

__all__ = [
    "CovarianceMatrix",
    "Partition",
    "symplectic_form",
    "partial_transpose",
    "log_negativity",
    "residual_contangle",
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
        Physicality (the uncertainty bound) is *not* enforced here because
        partial transposition legitimately produces unphysical matrices.
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

    def restricted(self, modes: Sequence[int]) -> "CovarianceMatrix":
        """Reduced covariance matrix of the given modes, in the given order."""
        idx: list[int] = []
        for m in modes:
            if not 0 <= m < self.n_modes:
                raise InvalidInputError(f"mode index {m} out of range")
            idx.extend((2 * m, 2 * m + 1))
        return CovarianceMatrix(self.data[np.ix_(idx, idx)])


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
    """Ascending symplectic spectra of a positive definite (..., 2n, 2n) stack, via Cholesky.

    Raises numpy's ``LinAlgError`` if a factorization fails (possible near 1/eps
    conditioning, far above ``CONDITION_BOUND``).
    """
    n = arr.shape[-1] // 2
    factor = np.linalg.cholesky(arr)
    hermitian = 1j * (np.swapaxes(factor, -1, -2) @ symplectic_form(n) @ factor)
    return np.linalg.eigvalsh(hermitian)[..., n:]


def partial_transpose(v: CovarianceMatrix, party: Iterable[int]) -> CovarianceMatrix:
    """Covariance matrix after partial transposition of the given modes.

    Transposition flips the sign of the momentum quadrature of every mode
    in ``party``: ``V -> P V P`` with ``P = diag(..., 1, -1, ...)``.  The
    result may violate the uncertainty bound; that violation is exactly
    what signals entanglement.
    """
    modes = sorted({int(m) for m in party})
    if not modes:
        raise InvalidInputError("party must contain at least one mode")
    if modes[0] < 0 or modes[-1] >= v.n_modes:
        raise InvalidInputError(f"party modes {modes} out of range for {v.n_modes} modes")
    signs = np.ones(2 * v.n_modes)
    for m in modes:
        signs[2 * m + 1] = -1.0
    return CovarianceMatrix(v.data * np.outer(signs, signs))


def log_negativity(v: CovarianceMatrix, partition: Partition) -> float:
    """Logarithmic negativity across a bipartition of 2 or 3 modes.

    The state is restricted to the partition's modes, party A is partially
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
    """
    modes = partition.modes
    if modes[-1] >= v.n_modes:
        raise InvalidInputError(f"partition modes {modes} out of range")
    if len(modes) not in (2, 3):
        raise InvalidInputError("partition must cover 2 or 3 modes in total")
    raise_first(*_exact_verdicts(v.data[None]))

    sub = v.restricted(modes)
    local_a = [modes.index(m) for m in partition.party_a]
    # V passed the exact checks, so the partial transpose factors (see three_mode_measures).
    nu_min = float(_symplectic_spectra(partial_transpose(sub, local_a).data)[0])
    if nu_min <= 0.0:
        raise verdict_error(NON_POSITIVE_SPECTRUM)
    return max(0.0, -float(np.log(2.0 * nu_min)))


def residual_contangle(v: CovarianceMatrix, focus_mode: int) -> float:
    """Residual tangle of a three-mode state with respect to ``focus_mode``.

    Computes ``C(i|jk) - C(i|j) - C(i|k)`` where ``C`` is the squared
    logarithmic negativity and ``i`` is the focus mode.  Monogamy requires
    the result to be non-negative; it is returned unclamped, so rounding can
    leave it slightly below zero.
    """
    if v.n_modes != 3:
        raise InvalidInputError(f"residual tangle requires exactly 3 modes, got {v.n_modes}")
    if focus_mode not in (0, 1, 2):
        raise InvalidInputError(f"focus_mode must be 0, 1 or 2, got {focus_mode}")
    others = [m for m in range(3) if m != focus_mode]
    total = log_negativity(v, Partition({focus_mode}, set(others))) ** 2
    split = sum(log_negativity(v, Partition({focus_mode}, {m})) ** 2 for m in others)
    return total - split


def min_residual_contangle(v: CovarianceMatrix) -> float:
    """Minimum of the residual tangle over the three focus choices, floored at 0.

    This is the conservative witness of genuinely tripartite entanglement:
    it is positive only if every focus decomposition leaves a surplus.
    """
    smallest = min(residual_contangle(v, focus) for focus in range(3))
    return max(0.0, smallest)


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


# The partial transposes behind the three-mode measures: the 1|1 pairs 0|1,
# 0|2 and 1|2 (kept quadratures; the first mode is transposed), then each
# mode f against the other two.  Transposing mode f negates p_f (index 2f + 1).
_PAIR_QUADRATURES = np.array([[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]])
_PAIR_SIGNS = np.outer([1.0, -1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 1.0])
_FOCUS_SIGNS = np.array([np.outer(s, s) for s in 1.0 - 2.0 * np.eye(6)[1::2]])

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
    code (``errors.VERDICTS``: unphysical, not_definite, ill_conditioned or
    non_positive_spectrum, the first that fails) and the float its message
    quotes (the condition number where ill-conditioned, NaN where ok, else the
    uncertainty floor).
    """
    code, value = np.zeros(stack.shape[0], dtype=np.int8), np.full(stack.shape[0], np.nan)
    exact = ~_certified(stack)
    if exact.any():
        code[exact], value[exact] = _exact_verdicts(stack[exact])
    # Each partial transpose is an orthogonal similarity of V or of a principal submatrix, so
    # all six are positive definite iff V is, and no worse conditioned than V; below the
    # bound their Cholesky factorizations succeed (Higham, Accuracy and Stability, Thm 10.7).
    factored = code == OK
    v, nu = stack[factored], np.full((stack.shape[0], 6), np.nan)
    pairs = v[:, _PAIR_QUADRATURES[:, :, None], _PAIR_QUADRATURES[:, None, :]] * _PAIR_SIGNS
    nu[factored] = np.concatenate(
        [_symplectic_spectra(t)[..., 0] for t in (pairs, v[:, None] * _FOCUS_SIGNS)], axis=1
    )
    code[factored & ~(nu > 0.0).all(axis=1)] = NON_POSITIVE_SPECTRUM
    with np.errstate(invalid="ignore", divide="ignore"):
        negativities = np.maximum(0.0, -np.log(2.0 * nu))
        tangles = negativities**2
        residuals = [
            tangles[:, 3 + focus] - (tangles[:, j] + tangles[:, k])
            for focus, (j, k) in enumerate(((0, 1), (0, 2), (1, 2)))
        ]
    out = np.column_stack([negativities[:, :3], np.maximum(0.0, np.minimum.reduce(residuals))])
    out[code != OK] = np.nan
    value[code == OK] = np.nan
    return out, code, value
