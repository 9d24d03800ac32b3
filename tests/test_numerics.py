import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import per_panel_gauss_kronrod
from zplkit.errors import DomainError, QuadratureError
from zplkit.numerics import (_initial_edges, adaptive_gauss_kronrod, faddeeva,
                             faddeeva_derivatives)
from zplkit.physics import _TAIL_CUTOFF, _reduced_integrand


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


def _spike(x):
    return 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-300)


def test_quadrature_reports_non_convergence():
    # integrable singularity: bisection gains accuracy too slowly for the
    # interval budget, and that must be reported rather than swallowed
    with pytest.raises(QuadratureError):
        adaptive_gauss_kronrod(_spike, 0.0, 1.0, rel_tol=1e-12,
                               max_intervals=12)


# (integrand, a, b, keyword arguments) of the tests above
_QUADRATURE_CASES = [
    (lambda x: x * x, 0.0, 1.0, {}),
    (lambda x: np.exp(-x * x), -10.0, 10.0, {"initial_intervals": 4}),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1000.0, {"initial_intervals": 8}),
    (_spike, 0.0, 1.0, {"rel_tol": 1e-12}),
    (_spike, 0.0, 1.0, {"rel_tol": 1e-12, "max_intervals": 12}),
]


def _batched(func, a, b, **kwargs):
    try:
        return adaptive_gauss_kronrod(func, a, b, **kwargs)
    except QuadratureError:
        return None


def test_batched_quadrature_equals_per_panel_oracle_bit_for_bit():
    # the band integral's own calls, on both sides of the tail cutoff and
    # past x = 35, where the 8 initial panels first need a bisection
    for x in np.logspace(-8.0, 3.0, 1000):
        args = (_reduced_integrand, 0.0, min(x, _TAIL_CUTOFF))
        kwargs = {"rel_tol": 1e-10, "abs_tol": 1e-30, "initial_intervals": 8}
        assert _batched(*args, **kwargs) == per_panel_gauss_kronrod(
            *args, **kwargs)[:2], x
    for func, a, b, kwargs in _QUADRATURE_CASES:
        reference = per_panel_gauss_kronrod(func, a, b, **kwargs)
        assert _batched(func, a, b, **kwargs) == (
            reference and reference[:2])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(a=_FINITE, b=_FINITE, n=st.sampled_from([1, 4, 8]))
@example(a=0.0, b=5e-324, n=8)  # the step underflows to 0
@example(a=1.0, b=1.0 + 2.0 ** -52, n=4)
def test_initial_edges_are_linspace_bit_for_bit(a, b, n):
    a, b = min(a, b), max(a, b)
    with np.errstate(all="ignore"):  # a span past the float range is inf
        edges = _initial_edges(a, b, n)
        reference = np.linspace(a, b, n + 1)
    assert edges.tobytes() == reference.tobytes()


def test_quadrature_calls_integrand_once_per_pass():
    # one call on all initial panels, then one per bisection on both halves
    for func, a, b, kwargs in _QUADRATURE_CASES[:4]:
        sizes = []

        def counted(x):
            assert isinstance(x, np.ndarray) and x.ndim == 1
            sizes.append(x.size)
            return func(x)

        adaptive_gauss_kronrod(counted, a, b, **kwargs)
        n = kwargs.get("initial_intervals", 1)
        panels = per_panel_gauss_kronrod(func, a, b, **kwargs)[2]
        assert sizes == [15 * n] + [30] * ((panels - n) // 2)
