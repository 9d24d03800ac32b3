import math

import numpy as np
import pytest

from zplkit.errors import DomainError, QuadratureError
from zplkit.numerics import adaptive_gauss_kronrod, faddeeva, faddeeva_derivatives


def test_faddeeva_known_points():
    # w(0) = 1; on the real axis Re w(x) = exp(-x^2)
    assert faddeeva(0.0 + 0j) == pytest.approx(1.0, abs=1e-14)
    x = np.linspace(-5.0, 5.0, 101)
    assert np.max(np.abs(faddeeva(x + 0j).real - np.exp(-x * x))) < 1e-13
    # on the imaginary axis w(iy) = erfcx(y) = exp(y^2) erfc(y)
    for y in (0.3, 1.0, 2.5):
        expected = math.exp(y * y) * math.erfc(y)
        assert complex(faddeeva(1j * y)).real == pytest.approx(expected, rel=1e-12)
        assert abs(complex(faddeeva(1j * y)).imag) < 1e-13


def test_faddeeva_asymptotic_large_z():
    # w(z) -> i/(sqrt(pi) z) for |z| -> inf
    for z in (1e6 + 1e6j, 1e9 + 1.0j, 3.0 + 1e9j):
        expected = 1j / (math.sqrt(math.pi) * z)
        got = complex(faddeeva(z))
        assert abs(got - expected) / abs(expected) < 1e-6


def _mpmath_oracle_grid():
    re = np.logspace(-3.0, 3.0, 25)
    re = np.concatenate([-re[::-1], [0.0], re])
    return np.array([x + 1j * y for y in (0.0, 1e-6, 1e-2, 1.0, 30.0)
                     for x in re])


def test_faddeeva_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    z = _mpmath_oracle_grid()
    with mpmath.workdps(40):
        exact = np.array([complex(mpmath.exp(-mpmath.mpc(v) ** 2)
                                  * mpmath.erfc(-1j * mpmath.mpc(v)))
                          for v in z])
    rel = np.abs(faddeeva(z) - exact) / np.abs(exact)
    assert np.max(rel) <= 1e-12


def test_faddeeva_derivatives_match_mpmath():
    # the recurrences w' = -2zw + 2i/sqrt(pi), w'' = -2w - 2zw' cancel at
    # large |z|; the oracle reaches |z| = 1e4, where they lose 8 digits
    mpmath = pytest.importorskip("mpmath")
    z = np.concatenate([_mpmath_oracle_grid(), 1e4 + 1j * np.array([0.0, 1.0]),
                        np.array([3e3j, 19.0 + 1.0j, 25.0 + 1.0j])])
    exact_1, exact_2 = [], []
    with mpmath.workdps(60):
        for v in z:
            v = mpmath.mpc(v)
            w = mpmath.exp(-v * v) * mpmath.erfc(-1j * v)
            w1 = -2 * v * w + 2j / mpmath.sqrt(mpmath.pi)
            exact_1.append(complex(w1))
            exact_2.append(complex(-2 * w - 2 * v * w1))
    wp, wpp = faddeeva_derivatives(z)
    assert np.max(np.abs(wp - exact_1) / np.abs(exact_1)) <= 1e-11
    assert np.max(np.abs(wpp - exact_2) / np.abs(exact_2)) <= 1e-8


def test_faddeeva_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        faddeeva(1.0 - 0.5j)


def test_faddeeva_derivative_matches_finite_difference():
    rng = np.random.default_rng(0)
    z = rng.uniform(-3, 3, 50) + 1j * rng.uniform(0.01, 3, 50)
    h = 1e-6
    fd = (faddeeva(z + h) - faddeeva(z - h)) / (2 * h)
    assert np.max(np.abs(faddeeva_derivatives(z)[0] - fd)) < 1e-8


def test_quadrature_polynomial_and_gaussian():
    value, err = adaptive_gauss_kronrod(lambda x: x * x, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-14)
    value, err = adaptive_gauss_kronrod(lambda x: np.exp(-x * x), -10.0, 10.0,
                                        initial_intervals=4)
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert abs(value - math.sqrt(math.pi)) <= max(err, 1e-13)


def test_quadrature_error_bound_is_conservative():
    value, err = adaptive_gauss_kronrod(lambda x: 1.0 / (1.0 + x * x),
                                        0.0, 1000.0, initial_intervals=8)
    assert abs(value - math.atan(1000.0)) <= err


def test_quadrature_empty_and_invalid_ranges():
    assert adaptive_gauss_kronrod(np.sin, 2.0, 2.0) == (0.0, 0.0)
    with pytest.raises(DomainError):
        adaptive_gauss_kronrod(np.sin, 1.0, 0.0)


def test_quadrature_reports_non_convergence():
    # integrable singularity: bisection gains accuracy too slowly for the
    # interval budget, and that must be reported rather than swallowed
    def spike(x):
        return 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-300)

    with pytest.raises(QuadratureError):
        adaptive_gauss_kronrod(spike, 0.0, 1.0, rel_tol=1e-12,
                               max_intervals=12)
