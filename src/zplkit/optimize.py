"""Damped least-squares (Levenberg-Marquardt) minimizer.

Small and self-contained on purpose: the callers supply analytic Jacobians,
which keeps convergence behavior reproducible and lets tests check the
Jacobians against central finite differences.  Damping follows the standard
gain-ratio update (Madsen/Nielsen/Tingleff) with Marquardt diagonal scaling;
each iteration is one linear solve and one residual evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, IllConditionedError

__all__ = ["LeastSquaresResult", "least_squares"]

_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e15
_RSS_RTOL = 1e-10  # converged: relative RSS drop of an accepted step
_STEP_TOL = 1e-12  # converged: norm of a proposed step
_MAX_ITERATIONS = 500  # not converged: reason "cap"


@dataclass(frozen=True)
class LeastSquaresResult:
    """Solution and diagnostics of one solve.

    `reason` names the test that stopped the iteration: "rss_rtol",
    "step_tol", "lambda_max" (no descent left at maximal damping) or "cap"
    (iteration cap hit, not converged).  `at_bound` holds the indices of
    the parameters that end exactly on their lower bound; their variances
    are infinite.  `normal_matrix` is J^T J at the solution and `dof` the
    residual count minus the parameter count.
    """

    params: np.ndarray
    rss: float
    n_iterations: int
    reason: str
    n_accepted: int
    n_rejected: int
    at_bound: tuple
    normal_matrix: np.ndarray
    dof: int

    @property
    def converged(self):
        return self.reason != "cap"

    @cached_property
    def covariance(self):
        """(J^T J)^-1 scaled by rss/dof over the parameters off their
        bounds, an infinite variance for each one on its bound; formed the
        first time it is read, since most callers never do."""
        s2 = self.rss / self.dof if self.dof > 0 else 0.0
        at_bound = list(self.at_bound)
        free = np.ones(self.params.size, dtype=bool)
        free[at_bound] = False
        off = np.flatnonzero(free)[:, None]
        covariance = np.zeros((self.params.size, self.params.size))
        covariance[off, off.T] = s2 * np.linalg.pinv(
            self.normal_matrix[off, off.T])
        covariance[at_bound, at_bound] = np.inf
        return covariance


def least_squares(residual, jacobian, p0, lower=None):
    """Minimize sum(residual(p)**2) starting from p0, subject to p >= lower.

    Parameters
    ----------
    residual : callable p -> (m,) array.  May return non-finite values for
        an infeasible p; such trial steps are rejected.
    jacobian : callable p -> (m, n) array of d(residual)/d(params); only
        evaluated at accepted points, each right after the residual there.
    p0 : initial parameter vector, projected onto the bounds.
    lower : optional lower bounds, -inf for an unbounded parameter.

    Bounds are handled by projection (Kanzow, Yamashita & Fukushima 2004):
    each trial point is clipped onto the bounds (a value within _STEP_TOL
    of its bound counts as on it), and a parameter sitting on its bound
    whose gradient points outward is frozen for that step.  A bound of
    -inf makes both no-ops.

    Convergence: relative RSS change below _RSS_RTOL, or proposed step norm
    below _STEP_TOL, or no descent direction left at maximal damping, within
    _MAX_ITERATIONS iterations.  One iteration is one trial step, accepted
    or not.  The covariance is (J^T J)^-1 scaled by rss/(m - n) at the
    solution, taken over the parameters off their bounds; a parameter on
    its bound gets an infinite variance.
    """
    p = np.array(p0, dtype=float)
    lower = (np.full(p.size, -np.inf) if lower is None
             else np.asarray(lower, dtype=float))
    if lower.shape != p.shape:
        raise DomainError("lower bounds and p0 differ in length")

    # a point within _STEP_TOL of a bound is put on it: an optimum on the
    # bound is otherwise only reached to within a rounding error, on either
    # side of it
    snap = lower + _STEP_TOL

    def project(point):
        return np.where(point < snap, lower, point)

    p = project(p)
    r = np.asarray(residual(p), dtype=float)
    rss = float(r @ r)
    if not math.isfinite(rss):
        raise IllConditionedError("residual is not finite at the start point")

    def linearize(point, res):
        jac = np.asarray(jacobian(point), dtype=float)
        # count_nonzero is one C call; .all() and .any() go through Python
        if np.count_nonzero(np.isfinite(jac)) < jac.size:
            raise IllConditionedError("Jacobian contains non-finite entries")
        grad = jac.T @ res
        hess = jac.T @ jac
        diag = hess.diagonal()
        # unit damping where J^T J's diagonal (>= 0) is 0 keeps it regular
        return grad, hess, diag + (diag == 0.0)

    grad, hess, scale = linearize(p, r)
    lam = _LAMBDA_INIT
    growth = 2.0
    reason = "cap"
    n_accepted = n_rejected = 0
    iteration = 0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        damped = hess + 0.0  # hess + lam * diag(scale) adds 0.0 off it
        damped.ravel()[::p.size + 1] += lam * scale
        rhs = -grad
        frozen = (p <= lower) & (grad > 0)
        if np.count_nonzero(frozen):
            # identity rows and columns with a zero right-hand side keep
            # the step at zero there
            damped[frozen] = 0.0
            damped[:, frozen] = 0.0
            damped[frozen, frozen] = 1.0
            rhs[frozen] = 0.0
        try:
            step = np.linalg.solve(damped, rhs)
        except np.linalg.LinAlgError:
            step = np.full(p.size, np.nan)
        singular = np.count_nonzero(np.isfinite(step)) < step.size
        if not singular:
            if math.sqrt(step.dot(step)) < _STEP_TOL:  # np.linalg.norm
                reason = "step_tol"
                break
            p_try = project(p + step)
            h = p_try - p  # the projected step, for the predicted decrease
            r_try = np.asarray(residual(p_try), dtype=float)
            rss_try = float(r_try @ r_try)
            if math.isfinite(rss_try) and rss_try <= rss:
                n_accepted += 1
                drop = rss - rss_try
                # decrease the linear model predicts for the projected step
                predicted = -float(h @ (2.0 * grad + hess @ h))
                gain = drop / predicted if predicted > 0 else 1.0
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                lam = max(lam, 1e-15)
                growth = 2.0
                p, r, rss = p_try, r_try, rss_try
                grad, hess, scale = linearize(p, r)
                if drop <= _RSS_RTOL * max(rss, 1e-300):
                    reason = "rss_rtol"
                    break
                continue
        # a failed trial: no finite step, or one that does not lower the RSS
        n_rejected += 1
        lam *= growth
        growth *= 2.0
        if lam > _LAMBDA_MAX:
            if singular:
                raise IllConditionedError(
                    "normal equations stay singular at maximal damping")
            # no descent direction even under maximal damping:
            # stationary to floating-point precision
            reason = "lambda_max"
            break

    return LeastSquaresResult(
        params=p, rss=rss, n_iterations=iteration, reason=reason,
        n_accepted=n_accepted, n_rejected=n_rejected,
        at_bound=tuple((p <= lower).nonzero()[0].tolist()),
        normal_matrix=hess, dof=r.size - p.size)
