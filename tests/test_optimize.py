import numpy as np
import pytest

from zplkit import optimize
from zplkit.errors import IllConditionedError
from zplkit.optimize import least_squares


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
