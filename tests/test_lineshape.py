import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (NonUnimodalError, lorentzian_profile, measure_fwhm,
                     voigt_direct_convolution)
from zplkit.errors import DomainError
from zplkit.lineshape import (GAUSSIAN_FWHM_FACTOR, VoigtParams,
                              gaussian_profile, grid_fwhm, invert_voigt_fwhm,
                              sigma_from_fwhm, voigt_fwhm, voigt_fwhm_partials,
                              voigt_profile, voigt_value_and_derivatives)


def test_gaussian_basics():
    assert gaussian_profile(0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    # half maximum sits at fwhm/2 = sqrt(2 ln 2) sigma
    half_x = math.sqrt(2 * math.log(2))
    assert gaussian_profile(half_x, 1.0) == pytest.approx(
        0.5 * gaussian_profile(0.0, 1.0), rel=1e-12)
    x = np.linspace(-12, 12, 200001)
    area = np.trapezoid(gaussian_profile(x, 1.0), x)
    assert area == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        gaussian_profile(0.0, 0.0)


def test_lorentzian_basics():
    assert lorentzian_profile(0.0, 1.0) == pytest.approx(1.0 / math.pi)
    assert lorentzian_profile(1.0, 1.0) == pytest.approx(0.5 / math.pi)
    x = np.linspace(-1000, 1000, 2_000_001)
    area = np.trapezoid(lorentzian_profile(x, 1.0), x)
    assert area == pytest.approx(1.0, abs=1e-3)  # heavy tails
    with pytest.raises(DomainError):
        lorentzian_profile(0.0, -1.0)


def test_voigt_degenerate_limits_are_exact():
    x = np.linspace(-8, 8, 1601)
    assert np.array_equal(voigt_profile(x, 1.3, 0.0), gaussian_profile(x, 1.3))
    assert np.array_equal(voigt_profile(x, 0.0, 0.7), lorentzian_profile(x, 0.7))
    with pytest.raises(DomainError):
        voigt_profile(x, 0.0, 0.0)


def test_voigt_reference_values():
    # independently computed with a separate Faddeeva implementation
    assert voigt_profile(0.0, 1.0, 1.0) == pytest.approx(
        0.20870928052036772, rel=1e-10)
    assert voigt_profile(2.5, 1.0, 1.0) == pytest.approx(
        0.06268641077529938, rel=1e-10)
    assert voigt_profile(0.0, sigma_from_fwhm(0.72), 3.41) == pytest.approx(
        0.09261294358006604, rel=1e-10)


def test_convolution_oracle_agreement_and_symmetry():
    x = np.linspace(-30.0, 30.0, 2001)
    direct = voigt_direct_convolution(x, 1.0, 1.0)
    fast = voigt_profile(x, 1.0, 1.0)
    assert np.max(np.abs(fast - direct)) / fast.max() < 1e-6
    assert np.max(np.abs(direct - direct[::-1])) < 1e-12


def test_convolution_oracle_fwhm_consistency():
    # widths corresponding to component FWHMs 0.72 and 6.82
    sigma, gamma = sigma_from_fwhm(0.72), 3.41
    x = np.linspace(-40.0, 40.0, 4001)
    direct = voigt_direct_convolution(x, sigma, gamma)
    measured = grid_fwhm(x, direct)
    assert measured == pytest.approx(voigt_fwhm(0.72, 6.82), rel=1e-3)


def test_convolution_oracle_rejects_coarse_grid():
    with pytest.raises(DomainError):
        voigt_direct_convolution(np.linspace(-50, 50, 21), 1.0, 1.0)
    with pytest.raises(DomainError):
        voigt_direct_convolution(np.array([0.0, 1.0, 0.5]), 1.0, 1.0)


def test_voigt_fwhm_anchors():
    assert voigt_fwhm(0.72, 0.0) == 0.72
    combined = voigt_fwhm(0.0, 6.82)
    assert combined == 0.5346 * 6.82 + math.sqrt(0.2166 * 6.82 ** 2)
    # pure-Lorentzian closure of the combination is 3e-5 relative
    assert abs(combined - 6.82) < 3e-5 * 6.82
    assert combined == pytest.approx(6.820020808698443, abs=1e-12)
    assert voigt_fwhm(0.72, 6.82) == pytest.approx(6.900658749903899, abs=1e-12)
    with pytest.raises(DomainError):
        voigt_fwhm(-0.1, 1.0)
    with pytest.raises(DomainError):  # a NaN does not hide a negative width
        voigt_fwhm(np.array([0.5, -0.1]), np.array([math.nan, math.nan]))


_WIDTH = st.floats(min_value=0.0, max_value=1e150)  # subnormals included
_EDGES = [(0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324), (1e-310, 2.5e-320),
          (1e-150, 1e150), (1e150, 1e-150), (1e150, 1e150)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_WIDTH, _WIDTH), min_size=1, max_size=8))
@example(_EDGES)
@example([(0.72, 0.1 * k + 0.1 / 3.0) for k in range(8)])
@example([(2.759, 4.536)])  # squares glibc's pow(x, 2) misrounds
def test_voigt_fwhm_on_arrays_is_the_scalar_call_per_element(pairs):
    f_g, f_l = (np.array(column) for column in zip(*pairs))
    expected = [voigt_fwhm(g, l) for g, l in pairs]
    assert voigt_fwhm(f_g, f_l).tolist() == expected
    # a scalar floor under an array of Lorentzian parts, as a series fit has
    floor = pairs[0][0]
    assert voigt_fwhm(floor, f_l).tolist() == [voigt_fwhm(floor, l)
                                              for l in f_l.tolist()]
    with pytest.raises(DomainError):
        voigt_fwhm(f_g, -f_l - 1.0)


def test_voigt_fwhm_partials_match_central_differences():
    rng = np.random.default_rng(8)
    f_g = 10.0 ** rng.uniform(-2, 2, 200)
    f_l = 10.0 ** rng.uniform(-2, 2, 200)
    f_g[:3], f_l[3:6] = 0.0, 0.0  # on one axis, away from the origin
    d_fg, d_fl = voigt_fwhm_partials(f_g, f_l)
    h_g, h_l = 1e-5 * f_g, 1e-5 * f_l
    g, l = f_g > 0, f_l > 0  # a zero width has no two-sided difference
    num_fg = ((voigt_fwhm(f_g + h_g, f_l) - voigt_fwhm(f_g - h_g, f_l))[g]
              / (2.0 * h_g[g]))
    num_fl = ((voigt_fwhm(f_g, f_l + h_l) - voigt_fwhm(f_g, f_l - h_l))[l]
              / (2.0 * h_l[l]))
    assert np.allclose(d_fg[g], num_fg, rtol=1e-6, atol=1e-6)
    assert np.allclose(d_fl[l], num_fl, rtol=1e-6, atol=1e-6)
    assert d_fg[:3].tolist() == [0.0] * 3  # the total is even in f_G
    assert d_fl[3:6].tolist() == [0.5346] * 3
    # at the origin: the limits along each axis, as series Jacobians take them
    assert voigt_fwhm_partials(0.0, 0.0) == (1.0, 0.5346 + math.sqrt(0.2166))
    d_fg, d_fl = voigt_fwhm_partials(np.array([0.0, 0.3]), np.zeros(2))
    assert d_fg.tolist() == [1.0, 1.0]
    assert d_fl.tolist() == [0.5346 + math.sqrt(0.2166), 0.5346]


def test_invert_voigt_fwhm():
    assert invert_voigt_fwhm(0.72, 0.72) == 0.0
    assert invert_voigt_fwhm(6.900658749903899, 0.72) == pytest.approx(
        6.82, rel=1e-12)
    with pytest.raises(DomainError):
        invert_voigt_fwhm(0.5, 0.72)


def test_fwhm_round_trip_property():
    rng = np.random.default_rng(3)
    for _ in range(300):
        f_g = 10.0 ** rng.uniform(-2, 2)
        f_l = 10.0 ** rng.uniform(-2, 2)
        total = voigt_fwhm(f_g, f_l)
        back = voigt_fwhm(f_g, invert_voigt_fwhm(total, f_g))
        assert abs(back - total) <= 1e-12 * total


def test_measure_fwhm_pure_profiles():
    sigma = sigma_from_fwhm(1.0)
    got = measure_fwhm(lambda x: float(gaussian_profile(x, sigma)),
                       width_hint=1.0)
    assert got == pytest.approx(1.0, abs=1e-9)
    got = measure_fwhm(lambda x: float(lorentzian_profile(x, 0.5)),
                       width_hint=1.0)
    assert got == pytest.approx(1.0, abs=1e-9)


def test_measure_fwhm_voigt_vs_formula():
    sigma, gamma = sigma_from_fwhm(1.0), 0.5
    measured = measure_fwhm(lambda x: float(voigt_profile(x, sigma, gamma)),
                            width_hint=2.0)
    assert abs(voigt_fwhm(1.0, 1.0) - measured) / measured < 1e-3


def test_measure_fwhm_rejects_bimodal():
    # twin peaks whose valley stays above half maximum
    def two_bumps(x):
        return math.exp(-(x - 1.0) ** 2) + math.exp(-(x + 1.0) ** 2)

    with pytest.raises(NonUnimodalError):
        measure_fwhm(two_bumps, center=1.0, width_hint=1.0)


def test_voigt_params_validation_and_evaluate():
    params = VoigtParams(center=10.0, gaussian_fwhm=1.0, lorentzian_fwhm=0.5,
                         amplitude=100.0, baseline=2.0)
    assert params.sigma == pytest.approx(1.0 / GAUSSIAN_FWHM_FACTOR)
    assert params.gamma == 0.25
    peak = params.evaluate(10.0)
    off = params.evaluate(30.0)
    assert peak > off > 2.0  # baseline floor
    with pytest.raises(DomainError):
        VoigtParams(0.0, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        VoigtParams(0.0, 1.0, 1.0, -1.0)


def test_profile_positivity_and_area():
    x = np.linspace(-60, 60, 120001)
    for sigma, gamma in ((0.5, 0.1), (1.0, 1.0), (0.1, 0.8)):
        v = voigt_profile(x, sigma, gamma)
        assert np.all(v >= 0)
        assert np.trapezoid(v, x) == pytest.approx(1.0, abs=2e-2 * gamma)


def test_voigt_partials_match_mpmath_down_to_the_lorentzian_limit():
    # the variance partial dV/d(sigma^2) = V_xx / 2 must stay accurate as
    # sigma -> 0, where |z| is large and the Faddeeva recurrences cancel;
    # every branch (Faddeeva, Lorentzian, Gaussian) is checked
    mpmath = pytest.importorskip("mpmath")

    @mpmath.workdps(40)
    def exact(x, s2, gamma):
        def v(xx, ss, gg):
            if ss == 0:
                return gg / mpmath.pi / (xx * xx + gg * gg)
            z = (xx + 1j * gg) / mpmath.sqrt(2 * ss)
            return (mpmath.exp(-z * z) * mpmath.erfc(-1j * z)).real / (
                mpmath.sqrt(2 * mpmath.pi * ss))
        x, s2, gamma = mpmath.mpf(x), mpmath.mpf(s2), mpmath.mpf(gamma)
        return (v(x, s2, gamma),
                mpmath.diff(lambda t: v(t, s2, gamma), x),
                mpmath.diff(lambda t: v(t, s2, gamma), x, 2) / 2,
                mpmath.diff(lambda t: v(x, s2, t), gamma))

    x = np.array([-30.0, -4.0, -0.5, 0.0, 1.3, 12.0])
    for sigma, gamma, columns in ((1e-4, 3.4, ("x", "variance", "gamma")),
                                  (1e-2, 3.4, ("x", "variance", "gamma")),
                                  (1.0, 0.7, ("x", "variance", "gamma")),
                                  (0.0, 3.4, ("x", "variance", "gamma")),
                                  (1.0, 0.0, ("x", "variance"))):
        value, partials, _ = voigt_value_and_derivatives(x, sigma, gamma,
                                                         columns)
        for k, xk in enumerate(x):
            reference = exact(xk, sigma * sigma, gamma)
            for got, ref in zip([value, *partials], reference):
                assert got[k] == pytest.approx(float(ref), rel=1e-9,
                                               abs=1e-300)


def test_test_oracles_are_not_package_api():
    # the oracles live in tests/oracles.py; the package exports what it runs
    import zplkit
    from zplkit import errors, lineshape, physics
    for module in (zplkit, errors, lineshape, physics):
        for name in ("voigt_direct_convolution", "measure_fwhm",
                     "lorentzian_profile", "cubic_asymptote",
                     "NonUnimodalError"):
            assert not hasattr(module, name), (module.__name__, name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
