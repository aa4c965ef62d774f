"""The real symplectic eigensolve and the stacked three-mode measures.

Symplectic spectra of partial transposes are checked against 40-digit
eigenvalues of ``Omega W``, and the per-state verdict codes of
``three_mode_measures`` against the exceptions of the scalar functions.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze import (
    CovarianceMatrix,
    InvalidInputError,
    InvalidStateError,
    MagsqueezeError,
    NumericalError,
    Partition,
    evaluate,
    log_negativity,
    min_residual_contangle,
    steady_state,
    symplectic_form,
)
from magsqueeze import gaussian
from magsqueeze.config import load_config
from magsqueeze.errors import CONDITION_BOUND, ILL_CONDITIONED, OK
from magsqueeze.gaussian import _symplectic_spectra, three_mode_measures

from conftest import KAPPA_A, TWO_PI, make_params, verdict

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Relative agreement of each symplectic eigenvalue with the 40-digit value.
RTOL = 1e-13

# The 1|1 pairs, then each mode against the other two, as three_mode_measures orders them.
PARTITIONS = [Partition({0}, {1}), Partition({0}, {2}), Partition({1}, {2})] + [
    Partition({f}, {0, 1, 2} - {f}) for f in range(3)
]

# The kept quadratures of each of PARTITIONS and their signs: transposing mode m negates p_m.
TRANSPOSES = [
    ([0, 1, 2, 3], [1, -1, 1, 1]),
    ([0, 1, 4, 5], [1, -1, 1, 1]),
    ([2, 3, 4, 5], [1, -1, 1, 1]),
    ([0, 1, 2, 3, 4, 5], [1, -1, 1, 1, 1, 1]),
    ([0, 1, 2, 3, 4, 5], [1, 1, 1, -1, 1, 1]),
    ([0, 1, 2, 3, 4, 5], [1, 1, 1, 1, 1, -1]),
]


def transposes(v: CovarianceMatrix) -> list[np.ndarray]:
    """The six partial transposes behind the three-mode measures of ``v``."""
    return [v.data[np.ix_(q, q)] * np.outer(signs, signs) for q, signs in TRANSPOSES]


def exact_spectrum(w: np.ndarray) -> list[float]:
    """Ascending symplectic spectrum of ``w`` from 40-digit eigenvalues of Omega W."""
    n = w.shape[0] // 2
    # Omega W only permutes and negates entries of W, so it is exact in floats.
    with mpmath.workdps(40):
        eigenvalues = mpmath.eig(
            mpmath.matrix((symplectic_form(n) @ w).tolist()), left=False, right=False
        )
        moduli = sorted(abs(e) for e in eigenvalues)
        return [float((moduli[2 * k] + moduli[2 * k + 1]) / 2) for k in range(n)]


def assert_spectra_match_exact(states: list[CovarianceMatrix]) -> None:
    per_state = [transposes(v) for v in states]
    # The (n, 3, 4, 4) and (n, 3, 6, 6) stacks three_mode_measures solves.
    batched = [
        _symplectic_spectra(np.array([t[:3] for t in per_state])),
        _symplectic_spectra(np.array([t[3:] for t in per_state])),
    ]
    negativities = np.empty((len(states), 3))
    for k, ts in enumerate(per_state):
        for column, w in enumerate(ts):
            want = exact_spectrum(w)
            scalar = _symplectic_spectra(w)
            np.testing.assert_allclose(scalar, want, rtol=RTOL, atol=0.0)
            np.testing.assert_allclose(batched[column // 3][k, column % 3], want, rtol=RTOL, atol=0.0)
            if column < 3:
                negativities[k, column] = max(0.0, -np.log(2.0 * want[0]))
    measures, code, _ = three_mode_measures(np.array([v.data for v in states]))
    assert (code == OK).all()
    # A relative error of RTOL in nu is an absolute error of RTOL in -ln(2 nu).
    np.testing.assert_allclose(measures[:, :3], negativities, rtol=0.0, atol=RTOL)


def config_states(name: str, picks: dict[str, list[int]]) -> list[CovarianceMatrix]:
    """Steady states at the picked axis indices of a bundled config (both phases of a pairing)."""
    config = load_config(CONFIGS / name)
    assert config.sweep is not None
    axes = [(axis.name, axis.si_values[picks[axis.name]]) for axis in config.sweep.axes]
    points = [config.params]
    for axis_name, values in axes:
        points = [replace(p, **{axis_name: float(x)}) for p in points for x in values]
    pairing = config.sweep.pairing
    if pairing is not None:
        points = [replace(p, theta=theta) for p in points
                  for theta in (pairing.theta_forward, pairing.theta_backward)]
    evaluation = evaluate(points)
    return [CovarianceMatrix(c) for c in evaluation.covariances[evaluation.code == OK]]


def test_fig2_states_match_exact_spectra():
    states = config_states("fig2.yaml", {"upsilon": [0, 10, 20, 30], "theta": [0, 15, 30, 45]})
    assert len(states) >= 8
    assert_spectra_match_exact(states)


def test_fig6a_states_match_exact_spectra():
    states = config_states("fig6a.yaml", {"temperature": [0, 99, 199, 299]})
    assert len(states) == 8
    assert_spectra_match_exact(states)


def conditioning(v: CovarianceMatrix) -> float:
    """Largest ||W|| / nu_min over the six partial transposes W of ``v``."""
    return max(
        float(np.linalg.norm(w) / _symplectic_spectra(w)[0])
        for w in transposes(v)
    )


def test_ill_conditioned_states_match_exact_spectra():
    # The bundled states above have ||W|| / nu_min below 5, fig6a's hottest
    # point included.  A 30 K bath, weak couplings and squeezing close to the
    # stability edge at theta = pi/2 give above 1e3, where a spectrum read off
    # a Cholesky factor loses the most digits.
    points = [
        make_params(temperature=30.0, upsilon=upsilon * KAPPA_A, theta=np.pi / 2,
                    g_a=0.2 * TWO_PI * 4.8e6, G_m=0.02 * TWO_PI * 4.8e6)
        for upsilon in (3.15, 3.25, 3.3)
    ]
    evaluation = evaluate(points)
    assert (evaluation.code == OK).all()
    states = [CovarianceMatrix(c) for c in evaluation.covariances]
    assert min(conditioning(v) for v in states) > 1e3
    assert_spectra_match_exact(states)


def test_scalar_spectrum_is_the_batch_of_one():
    states = config_states("fig2.yaml", {"upsilon": [10, 30], "theta": [0, 20]})
    for w in (t for v in states for t in transposes(v)):
        assert np.array_equal(_symplectic_spectra(w), _symplectic_spectra(w[None])[0])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    st.floats(0.0, 1.3), st.floats(0.0, 6.28), st.floats(0.2, 2.0), st.floats(0.0, 0.3)
)
def test_drawn_physical_states_match_exact_spectra(upsilon, theta, g_a, temperature):
    params = make_params(
        upsilon=upsilon * KAPPA_A, theta=theta, g_a=g_a * KAPPA_A, temperature=temperature
    )
    evaluation = evaluate([params])
    if evaluation.code[0] == OK:
        assert_spectra_match_exact([steady_state(params)])


def scalar_error(v: np.ndarray) -> MagsqueezeError | None:
    """First exception of the scalar measures, taken in the order E_am, E_ab, E_mb, R_min."""
    state = CovarianceMatrix(v)
    try:
        for i, j in ((0, 1), (0, 2), (1, 2)):
            log_negativity(state, Partition({i}, {j}))
        min_residual_contangle(state)
    except MagsqueezeError as exc:
        return exc
    return None


def assert_verdicts_match_scalar(stack: np.ndarray) -> list[MagsqueezeError | None]:
    measures, code, value = three_mode_measures(stack)
    errors = list(map(verdict, code, value))
    for v, row, error in zip(stack, measures, errors):
        want = scalar_error(v)
        assert type(error) is type(want)
        assert str(error) == str(want)
        assert np.isnan(row).all() == (want is not None)
    return errors


def indefinite_state(mode: int = 0) -> np.ndarray:
    """Physical within the 1e-9 slack, but the block of ``mode`` has a zero eigenvalue."""
    v = 0.5 * np.eye(6)
    v[2 * mode, 2 * mode], v[2 * mode + 1, 2 * mode + 1] = 0.0, 3e8
    return v


def test_crafted_verdicts_match_the_scalar_path():
    good = steady_state(make_params()).data
    stack = np.array([good, 0.4 * np.eye(6), indefinite_state(), 0.5 * np.eye(6), good])
    errors = assert_verdicts_match_scalar(stack)
    assert errors[0] is None and errors[3] is None and errors[4] is None
    assert isinstance(errors[1], InvalidStateError) and "uncertainty bound" in str(errors[1])
    assert isinstance(errors[2], InvalidInputError) and "positive definite" in str(errors[2])


@pytest.mark.parametrize("mode", range(3))
def test_each_pair_rejects_an_indefinite_state(mode):
    # The whole state is checked, not the pair's block: a pair without the
    # zero eigenvalue rejects the state as the batch does.
    state = CovarianceMatrix(indefinite_state(mode))
    for partition in PARTITIONS[:3]:
        with pytest.raises(InvalidInputError, match="positive definite"):
            log_negativity(state, partition)
    assert_verdicts_match_scalar(state.data[None])


def squeezed_beside_vacua(
    rng: np.random.Generator, low: float = 6.0, high: float = 9.0
) -> np.ndarray:
    """Mode 0 squeezed by s = 10^U(low, high) along a random angle; modes 1 and 2 in vacuum.

    A product state, so every measure is 0; its condition number is s^2.
    """
    s = 10.0 ** rng.uniform(low, high)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    rotation = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    v = 0.5 * np.eye(6)
    v[:2, :2] = rotation @ np.diag([s / 2.0, 1.0 / (2.0 * s)]) @ rotation.T
    return 0.5 * (v + v.T)


def fails_cholesky(v: np.ndarray) -> bool:
    try:
        for w in transposes(CovarianceMatrix(v)):
            np.linalg.cholesky(w)
    except np.linalg.LinAlgError:
        return True
    return False


def test_failed_factorization_of_a_definite_state_is_a_verdict():
    # Near 1/eps conditioning, eigvalsh can find a state physical and positive
    # definite while Cholesky fails on one of its partial transposes.  Such a
    # state, and every other one above the condition bound, is ill-conditioned.
    rng = np.random.default_rng(0)
    stack = np.array([squeezed_beside_vacua(rng) for _ in range(400)])
    # Then condition numbers from 1e4 to 1e10, on both sides of the bound.
    stack = np.concatenate([stack, [squeezed_beside_vacua(rng, 2.0, 5.0) for _ in range(400)]])
    spectrum = np.linalg.eigvalsh(stack)
    physical = gaussian._uncertainty_floor(stack) >= -gaussian.PHYSICALITY_TOL
    definite = spectrum[:, 0] > 0.0
    reached = [k for k in np.flatnonzero(physical & definite) if fails_cholesky(stack[k])]
    assert len(reached) >= 10
    with np.errstate(divide="ignore"):
        condition = spectrum[:, -1] / spectrum[:, 0]
    above = np.flatnonzero(physical & definite & (condition > CONDITION_BOUND))
    assert set(reached) <= set(above)
    errors = assert_verdicts_match_scalar(stack)
    measures, code, _ = three_mode_measures(stack)
    assert (code[above] == ILL_CONDITIONED).all()
    for k in above:
        assert isinstance(errors[k], NumericalError)
        assert str(errors[k]).startswith("covariance matrix condition number")
    # The states that pass get the values the stacked factorization gives them,
    # and a product state shows no entanglement beyond rounding.
    passing = np.flatnonzero(code == OK)
    assert passing.size >= 100
    alone, alone_code, _ = three_mode_measures(stack[passing])
    assert (alone_code == OK).all()
    assert np.array_equal(measures[passing], alone)
    assert measures[passing].max() <= 1e-9


# The certificate of three_mode_measures: a real Cholesky factorization that clears
# physicality, definiteness and conditioning without the exact eigensolves.
TRACE_BOUND = gaussian._TRACE_BOUND


def below_floor(depth: float) -> np.ndarray:
    """(1/2 - depth) I: the uncertainty floor is -depth."""
    return (0.5 - depth) * np.eye(6)


def thermal(trace: float) -> np.ndarray:
    return trace / 6.0 * np.eye(6)


def entangled(trace: float) -> np.ndarray:
    """A pure two-mode squeezed state of modes 0 and 1 beside a vacuum mode 2, floor 0."""
    c = (trace - 1.0) / 2.0
    s = np.sqrt(c * c - 1.0)
    v = 0.5 * np.eye(6)
    v[:4, :4] = 0.5 * np.block([[c * np.eye(2), s * np.diag([1.0, -1.0])],
                                [s * np.diag([1.0, -1.0]), c * np.eye(2)]])
    return v


def squeezed(condition: float) -> np.ndarray:
    """Mode 0 squeezed beside two vacua, with cond(V) = ``condition``."""
    log_s = 0.5 * np.log10(condition)
    return squeezed_beside_vacua(np.random.default_rng(3), log_s, log_s)


def stacked_measures(stack: np.ndarray) -> np.ndarray:
    """The four measures from the stacked spectra of the six partial transposes of each state."""
    per_state = [transposes(CovarianceMatrix(v)) for v in stack]
    nu = np.concatenate([
        _symplectic_spectra(np.array([t[:3] for t in per_state]))[..., 0],
        _symplectic_spectra(np.array([t[3:] for t in per_state]))[..., 0],
    ], axis=1)
    negativities = np.maximum(0.0, -np.log(2.0 * nu))
    tangles = negativities**2
    residuals = [
        tangles[:, 3 + focus] - (tangles[:, j] + tangles[:, k])
        for focus, (j, k) in enumerate(((0, 1), (0, 2), (1, 2)))
    ]
    return np.column_stack([negativities[:, :3], np.maximum(0.0, np.minimum.reduce(residuals))])


def exact_route_calls(monkeypatch) -> list[str]:
    """Record each call of the uncertainty floor and of a real eigensolve (that of V)."""
    calls: list[str] = []
    floor, eigvalsh = gaussian._uncertainty_floor, np.linalg.eigvalsh

    def counted_floor(arr):
        calls.append("floor")
        return floor(arr)

    def counted_eigvalsh(arr, *args, **kwargs):
        if not np.iscomplexobj(arr):
            calls.append("eigvalsh")
        return eigvalsh(arr, *args, **kwargs)

    monkeypatch.setattr(gaussian, "_uncertainty_floor", counted_floor)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return calls


def test_certificate_edges_match_the_scalar_path():
    stack = np.array([
        0.5 * np.eye(6),  # floor exactly 0
        *(below_floor(depth) for depth in (0.5e-9, 0.9e-9, 1.1e-9, 2e-9)),
        thermal(0.99 * TRACE_BOUND), thermal(1.01 * TRACE_BOUND),
        entangled(0.99 * TRACE_BOUND), entangled(1.01 * TRACE_BOUND),
        squeezed(0.9 * CONDITION_BOUND), squeezed(1.1 * CONDITION_BOUND),
    ])
    assert_verdicts_match_scalar(stack)
    measures, code, value = three_mode_measures(stack)
    ok = code == OK
    assert ok.tolist() == [True, True, True, False, False] + [True] * 5 + [False]
    assert code[-1] == ILL_CONDITIONED
    assert np.isnan(value[ok]).all() and not np.isnan(value[~ok]).any()
    assert np.array_equal(measures[ok], stacked_measures(stack[ok]))
    assert measures[7, 0] > 6.0  # the entangled state is not a product state


def test_a_cleared_chunk_runs_no_verdict_eigensolve(monkeypatch):
    states = config_states("fig2.yaml", {"upsilon": [0, 10, 20, 30], "theta": [0, 15, 30, 45]})
    cleared = np.array([0.5 * np.eye(6), thermal(0.99 * TRACE_BOUND),
                        entangled(0.99 * TRACE_BOUND), *(v.data for v in states)])
    calls = exact_route_calls(monkeypatch)
    measures, code, value = three_mode_measures(cleared)
    assert (code == OK).all() and np.isnan(value).all()
    assert calls == []
    assert np.array_equal(measures, stacked_measures(cleared))
    # One state over the trace bound takes the exact route, and it alone.
    three_mode_measures(np.concatenate([cleared, [thermal(1.01 * TRACE_BOUND)]]))
    assert calls == ["floor", "eigvalsh"]


def test_one_failing_state_sends_its_chunk_to_the_exact_route(monkeypatch):
    states = config_states("fig2.yaml", {"upsilon": [0, 10, 20, 30], "theta": [0, 15, 30, 45]})
    passing = np.array([v.data for v in states])
    stack = np.insert(passing, 3, below_floor(2e-9), axis=0)
    errors = assert_verdicts_match_scalar(stack)
    assert isinstance(errors[3], InvalidStateError)
    calls = exact_route_calls(monkeypatch)
    measures, code, value = three_mode_measures(stack)
    assert calls == ["floor", "eigvalsh"]
    assert (np.delete(code, 3) == OK).all() and np.isnan(np.delete(value, 3)).all()
    assert value[3] == gaussian._uncertainty_floor(stack[3:4])[0]
    alone = three_mode_measures(passing)[0]
    assert np.array_equal(np.delete(measures, 3, axis=0), alone)
    assert np.array_equal(alone, stacked_measures(passing))


def random_symplectic(rng: np.random.Generator, scale: float) -> np.ndarray:
    """Cayley transform (I - K)^-1 (I + K) of the Hamiltonian matrix K = Omega H, ||H|| = scale."""
    h = rng.standard_normal((6, 6))
    h = h + h.T
    k = symplectic_form(3) @ (scale / np.linalg.norm(h, 2) * h)
    return np.linalg.solve(np.eye(6) - k, np.eye(6) + k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.95),
       st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3))
def test_physical_states_bound_the_spectrum_of_v(seed, scale, occupations):
    # With u a unit eigenvector of lambda_min, the uncertainty relation at
    # u - i t Omega u for every real t gives lambda_min * lambda_max >= 1/4,
    # the bound that lets the certificate skip the eigensolve of V.  Rounding
    # moves lambda_min by a few eps * lambda_max.
    s = random_symplectic(np.random.default_rng(seed), scale)
    v = s @ np.diag(np.repeat(0.5 + np.array(occupations), 2)) @ s.T
    v = 0.5 * (v + v.T)
    spectrum = np.linalg.eigvalsh(v)
    assert spectrum[0] * spectrum[-1] >= 0.25 - 1e-14 * spectrum[-1] ** 2
    # So every such state under the trace bound is cleared, and the exact checks agree.
    cleared = gaussian._certified(v[None])[0]
    assert cleared == (np.trace(v) <= TRACE_BOUND)
    if cleared:
        assert gaussian._exact_verdicts(v[None])[0][0] == OK
