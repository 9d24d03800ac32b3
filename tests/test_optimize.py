import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import reference_least_squares, synthetic_voigt_spectrum

from zplkit import optimize
from zplkit.errors import IllConditionedError, ZplkitError
from zplkit.fitting import (_initial_guess, build_series_problem,
                            build_voigt_problem)
from zplkit.optimize import least_squares
from zplkit.physics import MODEL_KINDS, make_model


def _linear_problem(rng, m=50, n=3):
    design = rng.normal(size=(m, n))
    truth = rng.normal(size=n)
    y = design @ truth

    def residual(p):
        return design @ p - y

    def jacobian(p):
        return design

    return residual, jacobian, truth


def test_recovers_linear_solution_exactly():
    rng = np.random.default_rng(1)
    residual, jacobian, truth = _linear_problem(rng)
    result = least_squares(residual, jacobian, np.zeros(3))
    assert result.converged
    assert np.allclose(result.params, truth, atol=1e-10)
    assert result.rss < 1e-18


def _exponential_problem():
    t = np.linspace(0, 5, 80)
    y = 3.0 * np.exp(-1.7 * t) + 0.25

    def residual(p):
        return p[0] * np.exp(-p[1] * t) + p[2] - y

    def jacobian(p):
        return np.stack([np.exp(-p[1] * t),
                         -p[0] * t * np.exp(-p[1] * t),
                         np.ones_like(t)], axis=1)

    return residual, jacobian


def test_nonlinear_exponential_fit():
    residual, jacobian = _exponential_problem()
    result = least_squares(residual, jacobian, [1.0, 1.0, 0.0])
    assert result.converged
    assert np.allclose(result.params, [3.0, 1.7, 0.25], rtol=1e-8)


def test_one_residual_evaluation_per_iteration():
    # one trial point per iteration plus the start point, nothing else
    residual, jacobian = _exponential_problem()
    calls = []

    def counted(p):
        calls.append(1)
        return residual(p)

    result = least_squares(counted, jacobian, [1.0, 1.0, 0.0])
    assert result.converged
    assert result.n_iterations > 3
    assert len(calls) <= result.n_iterations + 1


def test_curved_valley_converges():
    # Rosenbrock in least-squares form: the archetype of a narrow curved
    # valley, where damped steps must follow the bend
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    def jacobian(p):
        return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])

    result = least_squares(residual, jacobian, [-1.2, 1.0])
    assert result.converged
    assert np.allclose(result.params, [1.0, 1.0], atol=1e-8)


def test_covariance_matches_linear_regression():
    rng = np.random.default_rng(7)
    design = rng.normal(size=(200, 2))
    y = design @ np.array([2.0, -1.0]) + 0.1 * rng.normal(size=200)

    def residual(p):
        return design @ p - y

    result = least_squares(residual, lambda p: design, [0.0, 0.0])
    dof = 200 - 2
    expected = result.rss / dof * np.linalg.inv(design.T @ design)
    assert np.allclose(result.covariance, expected, rtol=1e-8)


def test_rejects_nan_start():
    def residual(p):
        return np.array([np.nan])

    with pytest.raises(IllConditionedError):
        least_squares(residual, lambda p: np.array([[1.0]]), [0.0])


def test_singular_normal_equations_raise_at_maximal_damping(monkeypatch):
    # every solve fails: each failed trial raises the damping, no trial
    # point is evaluated, and the solver gives up as ill-conditioned
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    calls = []

    def residual(p):
        calls.append(p.copy())
        return np.array([p[0] - 1.0])

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(IllConditionedError, match="singular"):
        least_squares(residual, lambda p: np.array([[1.0]]), [0.0])
    assert len(calls) == 1  # the start point only


def test_no_descent_ends_at_maximal_damping():
    # a kink at the start: the one-sided derivative points downhill, but
    # every step raises the residual, so the damping grows until it gives up
    def residual(p):
        return np.array([1e6 + abs(p[0])])

    result = least_squares(residual, lambda p: np.array([[1.0]]), [0.0])
    assert result.reason == "lambda_max"
    assert result.converged
    assert result.params[0] == 0.0
    assert result.n_accepted == 0
    assert result.n_rejected == result.n_iterations > 0


def test_infeasible_trial_steps_are_rejected_not_fatal():
    # residual undefined for p < 0; optimum at p = 0.5
    def residual(p):
        if p[0] < 0:
            return np.array([np.inf])
        return np.array([p[0] - 0.5])

    result = least_squares(residual, lambda p: np.array([[1.0]]), [3.0])
    assert result.converged
    assert result.params[0] == pytest.approx(0.5, abs=1e-10)


def test_iteration_cap_reported(monkeypatch):
    def residual(p):
        return np.array([np.exp(p[0]) - 123.0, p[1] - 2.0])

    def jacobian(p):
        return np.array([[np.exp(p[0]), 0.0], [0.0, 1.0]])

    monkeypatch.setattr(optimize, "_MAX_ITERATIONS", 2)
    result = least_squares(residual, jacobian, [20.0, 5.0])
    assert not result.converged
    assert result.n_iterations == 2
    assert result.reason == "cap"


def test_lower_bound_holds_an_outside_optimum():
    # the unconstrained optimum has p[1] < 0; under p[1] >= 0 the solution
    # sits exactly on the bound, with the other parameter refitted alone
    rng = np.random.default_rng(3)
    design = rng.normal(size=(40, 2))
    y = design @ np.array([1.5, -2.0])

    def residual(p):
        return design @ p - y

    result = least_squares(residual, lambda p: design, [0.0, 1.0],
                           lower=[-np.inf, 0.0])
    assert result.converged
    assert result.reason in ("rss_rtol", "step_tol", "lambda_max")
    assert result.params[1] == 0.0
    assert result.at_bound == (1,)
    column = design[:, 0]
    assert result.params[0] == pytest.approx(column @ y / (column @ column),
                                              rel=1e-10)
    assert 0 < result.n_accepted <= result.n_iterations
    assert result.n_accepted + result.n_rejected <= result.n_iterations
    # free-subspace covariance; the bound parameter was not estimated
    assert result.covariance[1, 1] == np.inf
    assert result.covariance[0, 0] == pytest.approx(
        result.rss / (40 - 2) / (column @ column), rel=1e-10)


def test_zero_gradient_direction_is_harmless():
    # second parameter has no effect: solve should still work, step = 0 there
    def residual(p):
        return np.array([p[0] - 1.0, 2.0 * (p[0] - 1.0)])

    def jacobian(p):
        return np.array([[1.0, 0.0], [2.0, 0.0]])

    result = least_squares(residual, jacobian, [5.0, 3.3])
    assert result.converged
    assert result.params[0] == pytest.approx(1.0, abs=1e-10)
    assert result.params[1] == 3.3


def _solve_both(build, p0, lower):
    """least_squares and the reference engine on fresh closures from
    `build()`, under the CLI's float traps; each a result or the type and
    text of what it raised."""
    outcomes = []
    for engine in (least_squares, reference_least_squares):
        residual, jacobian = build()
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                outcomes.append(engine(residual, jacobian, p0, lower=lower))
        except (ArithmeticError, ZplkitError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _assert_same_solve(new, reference):
    if isinstance(reference, tuple):
        assert new == reference
        return
    assert new.params.tobytes() == reference.params.tobytes()
    assert new.rss.hex() == reference.rss.hex()
    for name in ("n_iterations", "reason", "n_accepted", "n_rejected",
                 "at_bound", "dof"):
        assert getattr(new, name) == getattr(reference, name), name
    assert new.normal_matrix.tobytes() == reference.normal_matrix.tobytes()


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(MODEL_KINDS)),
       quantity=st.sampled_from(["total", "lorentzian"]),
       fit_floor=st.booleans(),
       temps=st.lists(st.floats(4.0, 400.0), min_size=3, max_size=12,
                      unique=True),
       width=st.floats(0.01, 10.0), floor=st.floats(0.0, 2.0),
       noise=st.lists(st.floats(-0.05, 0.05), min_size=12, max_size=12),
       start=st.floats(1e-3, 1e3), floor_start=st.floats(0.0, 3.0))
def test_series_solves_equal_the_reference_engine_bit_for_bit(
        kind, quantity, fit_floor, temps, width, floor, noise, start,
        floor_start):
    # one free parameter (the amplitude) or two (and the floor); a bare
    # Lorentzian quantity with a free floor has a zero Jacobian column
    unit = make_model(kind, 1.0)
    basis = [unit.lorentzian_fwhm(t) for t in temps]
    amplitude = width / max(max(basis), 1e-300)
    model = make_model(kind, amplitude, gaussian_floor=floor)
    clean = [model.total_fwhm(t) if quantity == "total"
             else model.lorentzian_fwhm(t) for t in temps]
    y = [v * (1.0 + e) for v, e in zip(clean, noise)]
    p0 = [start * amplitude] + ([floor_start] if fit_floor else [])

    def build():
        return build_series_problem(temps, y, kind, quantity=quantity,
                                    gaussian_floor=floor,
                                    fit_floor=fit_floor)[:2]

    _assert_same_solve(*_solve_both(build, p0, [0.0] * len(p0)))


_VOIGT_LOWER = {"voigt": [-math.inf, 0.0, 0.0, -math.inf, -math.inf],
                "gaussian": [-math.inf, 0.0, -math.inf, -math.inf],
                "lorentzian": [-math.inf, 0.0, -math.inf, -math.inf]}


@settings(max_examples=60, deadline=None)
@given(fg=st.floats(0.2, 3.0), fl=st.floats(0.0, 3.0),
       n_points=st.integers(21, 120), snr=st.sampled_from([0.0, 10.0, 40.0]),
       seed=st.integers(0, 2 ** 16),
       mode=st.sampled_from(["voigt", "gaussian", "lorentzian"]),
       weighted=st.booleans())
@example(fg=1.0, fl=0.0, n_points=61, snr=0.0, seed=0, mode="voigt",
         weighted=True)  # a pure Gaussian: f_L ends on its bound
def test_voigt_solves_equal_the_reference_engine_bit_for_bit(
        fg, fl, n_points, snr, seed, mode, weighted):
    spectrum, _ = synthetic_voigt_spectrum(1800.0, fg, fl, baseline=20.0,
                                           n_points=n_points, peak_snr=snr,
                                           seed=seed)
    init = _initial_guess(spectrum)  # fit_voigt's start
    total = init.gaussian_fwhm + init.lorentzian_fwhm
    start = {"voigt": [init.gaussian_fwhm ** 2, init.lorentzian_fwhm],
             "gaussian": [total ** 2], "lorentzian": [total]}[mode]
    p0 = [init.center, *start, init.amplitude, init.baseline]

    def build():
        return build_voigt_problem(spectrum, mode, weighted)[:2]

    new, reference = _solve_both(build, p0, _VOIGT_LOWER[mode])
    _assert_same_solve(new, reference)
    if (fl, snr, mode) == (0.0, 0.0, "voigt"):
        assert new.at_bound == (2,)
