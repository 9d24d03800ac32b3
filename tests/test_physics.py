import json
import math

import numpy as np
import pytest

from oracles import cubic_asymptote, simpson_reduced_debye
from zplkit import physics
from zplkit.cli import _model_block
from zplkit.errors import DomainError
from zplkit.fitting import ModelComparison, build_series_problem
from zplkit.io_formats import generate_synthetic_series
from zplkit.physics import (BOLTZMANN_MEV_PER_K, HBAR_MEV_PS, MODEL_KINDS,
                            AcousticDebye, CubicLaw, OpticalMode,
                            bose_einstein, debye_integral, make_model,
                            reduced_debye_integral)

# golden value pinned with an arbitrary-precision oracle (40 digits)
BOSE_18MEV_300K = 0.9937813313789182
# golden reduced integral at x_D = 1, Simpson oracle at 1e6 panels
REDUCED_AT_1 = 0.9730325613551701


def test_constants_stored_exactly():
    assert BOLTZMANN_MEV_PER_K == 8.617333262e-2
    assert HBAR_MEV_PS == 6.582119569e-1


def test_bose_einstein_values():
    assert bose_einstein(18.0, 0.0) == 0.0
    assert bose_einstein(18.0, 300.0) == pytest.approx(BOSE_18MEV_300K,
                                                       rel=5e-15)
    with pytest.raises(DomainError):
        bose_einstein(0.0, 300.0)
    with pytest.raises(DomainError):
        bose_einstein(18.0, -1.0)


def test_bose_einstein_high_energy_asymptote():
    for x in (30.0, 50.0, 200.0, 710.0):
        t = 100.0
        energy = x * BOLTZMANN_MEV_PER_K * t
        n = bose_einstein(energy, t)
        assert n == pytest.approx(math.exp(-x), rel=1e-12)


def test_subnormal_temperature_overflows_nothing():
    # E/kT and theta_D/T overflow for a subnormal T: n is 0 and the band
    # integral takes its tail branch, without a numpy overflow warning
    tiny = np.float64(1e-310)
    assert bose_einstein(18.0, tiny) == 0.0
    assert bose_einstein(746.5 * BOLTZMANN_MEV_PER_K * 100.0, 100.0) == 0.0
    assert debye_integral(tiny, np.float64(600.0)) == 0.0
    assert debye_integral(1e-300, 600.0) == 0.0


def test_reduced_debye_matches_simpson_oracle():
    for x_max, panels in ((1.0, 400_000), (5.0, 400_000), (12.0, 400_000)):
        oracle = simpson_reduced_debye(x_max, panels)
        value, err = reduced_debye_integral(x_max)
        assert value == pytest.approx(oracle, rel=1e-9)
    value, _ = reduced_debye_integral(1.0)
    assert value == pytest.approx(REDUCED_AT_1, rel=1e-10)


def _mpmath_reduced_debye(mpmath, x):
    # by parts, -x^2/(e^x - 1) + 2 J(x), with the first-order Debye integral
    # J(x) = pi^2/6 + x ln(1 - e^-x) - Li2(e^-x)
    x = mpmath.mpf(x)
    u = mpmath.exp(-x)
    j = mpmath.pi ** 2 / 6 + x * mpmath.log(1 - u) - mpmath.polylog(2, u)
    return -x * x / mpmath.expm1(x) + 2 * j


def test_reduced_debye_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # from x -> 0 to past x = 35, where the 8 initial panels need a
    # bisection, and on both sides of the tail cutoff
    with mpmath.workdps(40):
        for x in (1e-8, 0.3, 1.0, 5.0, 20.0, 50.0, 59.5,
                  physics._TAIL_CUTOFF, 60.5, 100.0, 1e3):
            exact = _mpmath_reduced_debye(mpmath, x)
            value, err = reduced_debye_integral(x)
            assert abs(value - exact) <= 1e-13 * exact, x
            assert abs(value - exact) <= err, x


def _masked_integrand(x):
    # the band integrand computed on the x > 0 elements only, the way it
    # was before it went mask-free: the bit-for-bit reference
    out = np.ones_like(x)
    positive = x > 0
    e = np.expm1(x[positive])
    ratio = x[positive] / e
    out[positive] = ratio * ratio * (e + 1.0)
    return out


def test_band_integrand_keeps_its_bits_and_its_limit_at_zero():
    rng = np.random.default_rng(5)
    cutoff = physics._TAIL_CUTOFF
    x = np.concatenate([[0.0, 5e-324, 1e-300, cutoff],
                        rng.uniform(0.0, cutoff, 10_000),
                        np.exp(rng.uniform(-700.0, math.log(cutoff), 10_000))])
    # the CLI's floating-point traps: no 0/0 at x = 0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        values = physics._reduced_integrand(x)
    assert values[0] == 1.0
    assert values.tobytes() == _masked_integrand(x).tobytes()


def test_band_integral_cache_is_bounded():
    cached = physics._reduced_debye_cached
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None
    for x in np.linspace(1.0, 2.0, maxsize + 10):
        reduced_debye_integral(x, rel_tol=1e-3)
    assert cached.cache_info().currsize == maxsize


def test_debye_integral_golden_and_zero():
    assert debye_integral(0.0, 600.0) == 0.0
    rate_cubed = (BOLTZMANN_MEV_PER_K * 600.0 / HBAR_MEV_PS) ** 3
    assert debye_integral(600.0, 600.0) == pytest.approx(
        rate_cubed * REDUCED_AT_1, rel=1e-9)
    with pytest.raises(DomainError):
        debye_integral(-1.0, 600.0)
    with pytest.raises(DomainError):
        debye_integral(10.0, 0.0)


def test_cubic_asymptote_scaling():
    assert cubic_asymptote(0.0) == 0.0
    for t in (1.0, 37.5, 300.0):
        assert cubic_asymptote(2 * t) == 8 * cubic_asymptote(t)
    with pytest.raises(DomainError):
        cubic_asymptote(-5.0)


def test_debye_approaches_cubic_at_low_temperature():
    for t in (1.0, 3.0, 6.0):  # T <= theta/100
        ratio = debye_integral(t, 600.0) / cubic_asymptote(t)
        assert abs(ratio - 1.0) < 5e-3
    # within 1% up to theta/20
    assert abs(debye_integral(30.0, 600.0) / cubic_asymptote(30.0) - 1) < 0.01


def test_debye_bounded_and_monotonic():
    temps = [1.0, 5.0, 20.0, 60.0, 120.0, 270.0, 450.0, 600.0]
    values = [debye_integral(t, 600.0) for t in temps]
    for t, v in zip(temps, values):
        assert v < cubic_asymptote(t)
    assert all(b > a for a, b in zip(values, values[1:]))
    # ratio to the cubic decreases strictly once the band edge is resolved
    # (below ~theta/60 the truncation difference is under machine epsilon)
    ratio_temps = [20.0, 60.0, 120.0, 270.0, 450.0, 600.0]
    ratios = [debye_integral(t, 600.0) / cubic_asymptote(t)
              for t in ratio_temps]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_quadrature_tolerance_robustness():
    loose, err_loose = reduced_debye_integral(5.0, rel_tol=1e-10)
    tight, _ = reduced_debye_integral(5.0, rel_tol=5e-11)
    assert abs(loose - tight) <= err_loose


def test_model_evaluators_pure_and_zero_at_zero():
    models = (AcousticDebye(6.82, 600.0, gaussian_floor=0.72),
              CubicLaw(3.5e-7, gaussian_floor=0.72),
              OpticalMode(30.0, 18.0, gaussian_floor=0.72))
    for model in models:
        assert model.lorentzian_fwhm(0.0) == 0.0
        first = model.lorentzian_fwhm(150.0)
        assert model.lorentzian_fwhm(150.0) == first  # bit-identical repeat


def test_acoustic_amplitude_anchor():
    model = AcousticDebye(6.82, 600.0)
    assert model.lorentzian_fwhm(270.0) == 6.82
    # low-temperature Lorentzian component is buried under a 0.72 floor
    floored = AcousticDebye(6.82, 600.0, gaussian_floor=0.72)
    assert floored.total_fwhm(10.0) == pytest.approx(0.72, abs=1e-3)
    assert floored.lorentzian_fwhm(10.0) < 1e-3


def test_total_fwhm_composition():
    model = CubicLaw(1e-6, gaussian_floor=0.72)
    assert model.total_fwhm(0.0) == 0.72  # pure floor
    bare = CubicLaw(1e-6, gaussian_floor=0.0)
    t = 200.0
    f_l = bare.lorentzian_fwhm(t)
    assert bare.total_fwhm(t) == pytest.approx(f_l, rel=3.1e-6)


def test_optical_mode_occupation_form():
    model = OpticalMode(30.0, 18.0)
    n = bose_einstein(18.0, 200.0)
    assert model.lorentzian_fwhm(200.0) == pytest.approx(30.0 * n * (n + 1))


def test_model_validation():
    with pytest.raises(DomainError):
        AcousticDebye(-1.0, 600.0)
    with pytest.raises(DomainError):
        AcousticDebye(1.0, 0.0)
    with pytest.raises(DomainError):
        OpticalMode(1.0, 0.0)
    with pytest.raises(DomainError):
        CubicLaw(1.0, gaussian_floor=-0.1)
    with pytest.raises(DomainError):
        make_model("nope", 1.0)
    nan = float("nan")
    with pytest.raises(DomainError):
        AcousticDebye(nan, 600.0)
    with pytest.raises(DomainError):
        AcousticDebye(1.0, nan)
    with pytest.raises(DomainError):
        OpticalMode(1.0, nan)
    with pytest.raises(DomainError):
        CubicLaw(nan)
    with pytest.raises(DomainError):
        CubicLaw(1.0, gaussian_floor=nan)
    inf = float("inf")
    with pytest.raises(DomainError):
        AcousticDebye(1.0, inf)
    with pytest.raises(DomainError):
        OpticalMode(1.0, inf)
    with pytest.raises(DomainError):
        make_model("acoustic_debye", 1.0, debye_temperature=inf)


def test_make_model_kinds(tmp_path):
    assert isinstance(make_model("acoustic_debye", 1.0), AcousticDebye)
    assert isinstance(make_model("cubic_law", 1.0), CubicLaw)
    assert isinstance(make_model("optical_mode", 1.0), OpticalMode)
    temps = [0.0, 1.5, 10.0, 77.0, 150.0, 270.0, 412.7]
    shape_keys = {"acoustic_debye": {"debye_temperature_K"},
                  "cubic_law": set(), "optical_mode": {"phonon_energy_meV"}}
    for kind in MODEL_KINDS:
        unit = make_model(kind, 1.0)
        assert unit.kind == kind
        # the series fit's basis is the unit-amplitude model, bit for bit
        *_, basis = build_series_problem(temps, temps, kind)
        assert basis.tolist() == [unit.lorentzian_fwhm(t) for t in temps]
        row = ModelComparison(model=make_model(kind, 2.0, gaussian_floor=0.5),
                              rss=1.0, n_free=1, n_iterations=1, aic=0.0,
                              delta_aic=0.0)
        block = _model_block(row)
        assert block["kind"] == row.kind == kind
        assert set(block["params"]) == (
            {"amplitude", "gaussian_floor_meV"} | shape_keys[kind])
    # a model without shape parameters still writes both manifest defaults
    manifest, _ = generate_synthetic_series(tmp_path, CubicLaw(3.5e-7),
                                            temperatures=(10.0, 30.0),
                                            n_points=64)
    with open(manifest, encoding="utf-8") as fh:
        metadata = json.load(fh)["metadata"]
    assert metadata == {"theta_D_K": 600.0, "phonon_energy_meV": 18.0}
