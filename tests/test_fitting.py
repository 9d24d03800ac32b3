import math
from dataclasses import astuple

import numpy as np
import pytest

from oracles import synthetic_voigt_spectrum
from zplkit import fitting
from zplkit.errors import (DomainError, InsufficientDataError, NoPeakError)
from zplkit.fitting import (Spectrum, analyze_series, classify_lineshape,
                            compare_models, extract_components, fit_series,
                            fit_voigt, lorentzian_parts)
from zplkit.io_formats import (generate_synthetic_series, load_manifest,
                               load_series)
from zplkit.physics import AcousticDebye, CubicLaw

SERIES_GRID = tuple(float(t) for t in range(10, 271, 20))


def _acoustic_total_points(amplitude=6.82, floor=0.72, temps=SERIES_GRID,
                           theta=600.0):
    model = AcousticDebye(amplitude, theta, gaussian_floor=floor)
    return [(t, model.total_fwhm(t)) for t in temps]


# ---------------------------------------------------------------------------
# Spectrum type
# ---------------------------------------------------------------------------

def test_spectrum_validation():
    e = np.linspace(0, 10, 50)
    i = np.ones(50)
    Spectrum(e, i)  # fine
    with pytest.raises(DomainError):
        Spectrum(e[:30], i)  # length mismatch
    with pytest.raises(DomainError):
        Spectrum(e[:10], i[:10])  # too short
    with pytest.raises(DomainError):
        Spectrum(e[::-1], i)  # descending
    with pytest.raises(DomainError):
        Spectrum(e, -i)  # negative counts
    with pytest.raises(DomainError):
        Spectrum(e, np.full(50, np.nan))
    with pytest.raises(DomainError):
        Spectrum(e, i, temperature=-3.0)


def test_spectrum_arrays_are_read_only():
    spec = Spectrum(np.linspace(0, 10, 50), np.ones(50))
    with pytest.raises(ValueError):
        spec.energy[0] = -1.0


# ---------------------------------------------------------------------------
# per-spectrum fits
# ---------------------------------------------------------------------------

def test_fit_recovers_noiseless_gaussian():
    spec, amplitude = synthetic_voigt_spectrum(1820.2, 0.72, 0.0,
                                               temperature=10.0)
    fit = fit_voigt(spec)
    assert abs(fit.params.center - 1820.2) < 1e-6
    assert abs(fit.params.gaussian_fwhm - 0.72) < 1e-6
    assert fit.params.lorentzian_fwhm < 1e-6
    assert fit.params.amplitude == pytest.approx(amplitude, rel=1e-6)
    # the pure shape ends exactly on the f_L >= 0 bound, fast
    assert fit.params.lorentzian_fwhm == 0.0
    assert fit.uncertainties.lorentzian_fwhm == math.inf
    assert fit.n_iterations <= 15


def test_fit_recovers_noiseless_lorentzian():
    spec, amplitude = synthetic_voigt_spectrum(1813.5, 0.0, 6.82,
                                               temperature=270.0)
    fit = fit_voigt(spec)
    assert abs(fit.params.center - 1813.5) < 1e-6
    assert abs(fit.params.lorentzian_fwhm - 6.82) < 1e-6 * 6.82
    assert fit.params.gaussian_fwhm < 1e-2
    assert fit.params.amplitude == pytest.approx(amplitude, rel=1e-6)
    assert fit.params.gaussian_fwhm == 0.0
    assert fit.uncertainties.gaussian_fwhm == math.inf


def test_fit_recovers_noiseless_mixed_voigt():
    spec, amplitude = synthetic_voigt_spectrum(1817.0, 0.72, 6.82,
                                               baseline=4.0)
    fit = fit_voigt(spec)
    assert fit.params.gaussian_fwhm == pytest.approx(0.72, rel=1e-6)
    assert fit.params.lorentzian_fwhm == pytest.approx(6.82, rel=1e-6)
    assert fit.params.baseline == pytest.approx(4.0, rel=1e-4)
    assert fit.params.amplitude == pytest.approx(amplitude, rel=1e-6)


def test_fit_flat_spectrum_raises_no_peak():
    spec = Spectrum(np.linspace(0, 10, 100), np.full(100, 7.0))
    with pytest.raises(NoPeakError):
        fit_voigt(spec)


def test_fit_with_explicit_init():
    spec, _ = synthetic_voigt_spectrum(1817.0, 0.9, 1.1)
    from zplkit.lineshape import VoigtParams
    init = VoigtParams(1816.8, 0.5, 1.5, 500.0, 0.0)
    fit = fit_voigt(spec, init=init)
    assert fit.params.gaussian_fwhm == pytest.approx(0.9, rel=1e-6)
    assert fit.params.lorentzian_fwhm == pytest.approx(1.1, rel=1e-6)


def test_fit_translation_invariance():
    spec, _ = synthetic_voigt_spectrum(1820.2, 0.72, 0.3)
    shifted = Spectrum(spec.energy + 8.0, spec.intensity,
                       temperature=spec.temperature)
    fit = fit_voigt(spec)
    fit_shift = fit_voigt(shifted)
    assert abs(fit_shift.params.center - fit.params.center - 8.0) < 1e-10
    assert abs(fit_shift.params.gaussian_fwhm - fit.params.gaussian_fwhm) < 1e-10
    assert abs(fit_shift.params.lorentzian_fwhm
               - fit.params.lorentzian_fwhm) < 1e-10


def test_noise_scaling_of_parameter_dispersion():
    # dispersion should shrink like 1/sqrt(peak counts) within a factor 2
    def dispersion(peak_counts, n_rep=100):
        widths = []
        for rep in range(n_rep):
            snr = math.sqrt(peak_counts)
            spec, _ = synthetic_voigt_spectrum(
                1817.0, 1.0, 1.0, peak_counts=peak_counts, n_points=401,
                half_span=10.0, peak_snr=snr, seed=1000 + rep)
            widths.append(fit_voigt(spec).total_fwhm)
        return np.std(widths)

    ratio = dispersion(400.0) / dispersion(6400.0)
    assert 2.0 <= ratio <= 8.0  # ideal 4


def test_classify_spectral_shapes():
    cold, _ = synthetic_voigt_spectrum(1820.2, 0.72, 0.05, peak_snr=30.0,
                                       seed=11)
    hot, _ = synthetic_voigt_spectrum(1813.5, 0.72, 6.82, peak_snr=30.0,
                                      seed=12)
    assert classify_lineshape(cold).label == "gaussian"
    assert classify_lineshape(hot).label == "lorentzian"


def test_classify_ambiguous_gate():
    # noiseless mixture tuned (measured crossover) so the restricted fits
    # have near-equal residuals: the 1.2 ratio gate must return ambiguous
    spec, _ = synthetic_voigt_spectrum(1800.0, 1.0, 0.45, n_points=801)
    result = classify_lineshape(spec)
    assert result.label == "ambiguous"
    assert result.rss_ratio <= 1.2


def test_classify_equal_component_voigt_prefers_lorentzian():
    # an equal-component Voigt has Lorentzian wings that a free amplitude
    # cannot fake with a Gaussian: this input is NOT ambiguous
    spec, _ = synthetic_voigt_spectrum(1800.0, 1.0, 1.0, n_points=801)
    result = classify_lineshape(spec)
    assert result.label == "lorentzian"
    assert result.rss_ratio > 1.2


def test_classify_starts_both_fits_from_one_guess(monkeypatch):
    spec, _ = synthetic_voigt_spectrum(1800.0, 1.0, 0.45, n_points=201,
                                       peak_snr=30.0, seed=2)
    guess = fitting._initial_guess
    calls = []

    def counted(spectrum):
        calls.append(spectrum)
        return guess(spectrum)

    monkeypatch.setattr(fitting, "_initial_guess", counted)
    result = classify_lineshape(spec)
    assert len(calls) == 1
    # the shared start changes no bit of either restricted fit
    assert astuple(result.fit_gaussian) == astuple(
        fit_voigt(spec, mode="gaussian"))
    assert astuple(result.fit_lorentzian) == astuple(
        fit_voigt(spec, mode="lorentzian"))
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# component extraction
# ---------------------------------------------------------------------------

def _fit_paper_series(peak_snr, seed, floor=0.72):
    model = AcousticDebye(6.82, 600.0)
    fits = []
    for index, t in enumerate(SERIES_GRID):
        spec, _ = synthetic_voigt_spectrum(
            1820.2 - 6.7 * (t - 10) / 260.0, floor, model.lorentzian_fwhm(t),
            temperature=t, peak_snr=peak_snr, seed=seed * 100 + index)
        fits.append(fit_voigt(spec))
    return fits


def test_extract_components_recovers_constant_floor():
    fits = _fit_paper_series(peak_snr=30.0, seed=4)
    floor = extract_components(fits)
    assert isinstance(floor, float)
    assert abs(floor - 0.72) / 0.72 < 0.05
    pairs = lorentzian_parts([(f.temperature, f.total_fwhm) for f in fits],
                             floor)
    assert len(pairs) == len(SERIES_GRID)
    assert all(f_l >= 0 for _, f_l in pairs)


def test_extract_components_zero_lorentzian_series():
    fits = []
    for index, t in enumerate((10.0, 50.0, 90.0, 130.0)):
        spec, _ = synthetic_voigt_spectrum(1820.0, 0.72, 0.0, temperature=t,
                                           peak_snr=30.0, seed=index)
        fits.append(fit_voigt(spec))
    floor = extract_components(fits)
    pairs = lorentzian_parts([(f.temperature, f.total_fwhm) for f in fits],
                             floor)
    assert all(f_l < 0.05 for _, f_l in pairs)  # below the noise floor


def test_extract_components_ignores_a_pinned_floor(tmp_path):
    # seed 5's 270 K spectrum fits with f_G on its bound: that fit says
    # nothing about the floor and must carry no weight in it
    path, _ = generate_synthetic_series(
        tmp_path, AcousticDebye(6.82, 600.0, gaussian_floor=0.72), seed=5)
    fits = [fit_voigt(s) for s in load_series(load_manifest(path))]
    hot = fits[-1]
    assert hot.temperature == 270.0
    assert hot.params.gaussian_fwhm == 0.0
    assert hot.uncertainties.gaussian_fwhm == math.inf
    floor = extract_components(fits)
    floor_without = extract_components(fits[:-1])
    assert floor == pytest.approx(floor_without, rel=1e-12)
    assert abs(floor - 0.72) / 0.72 < 0.05


def test_extract_components_free_mode_and_errors():
    fits = _fit_paper_series(peak_snr=0.0, seed=0)
    floor = extract_components(fits)
    assert floor == pytest.approx(0.72, rel=1e-5)
    with pytest.raises(InsufficientDataError):
        extract_components(fits[:1])
    # each fit carries its spectrum's temperature, and two at one
    # temperature cannot both stand for it
    assert [f.temperature for f in fits] == list(SERIES_GRID)
    with pytest.raises(DomainError, match="distinct"):
        extract_components(fits[:3] + fits[2:3])


# ---------------------------------------------------------------------------
# series model fits and comparison
# ---------------------------------------------------------------------------

def test_fit_series_noiseless_round_trip():
    points = _acoustic_total_points()
    fit = fit_series(points, "acoustic_debye", quantity="total",
                     gaussian_floor=0.72)
    assert fit.model.amplitude == pytest.approx(6.82, rel=1e-6)
    fit_free = fit_series(points, "acoustic_debye", quantity="total",
                          fit_floor=True)
    assert fit_free.model.amplitude == pytest.approx(6.82, rel=1e-5)
    assert fit_free.model.gaussian_floor == pytest.approx(0.72, rel=1e-5)


def test_fit_series_bare_component_quantity():
    model = AcousticDebye(6.82, 600.0)
    points = [(t, model.lorentzian_fwhm(t)) for t in SERIES_GRID]
    fit = fit_series(points, "acoustic_debye", quantity="lorentzian")
    assert fit.model.amplitude == pytest.approx(6.82, rel=1e-8)
    with pytest.raises(DomainError):
        fit_series(points, "acoustic_debye", quantity="lorentzian",
                   fit_floor=True)


def test_fit_series_amplitude_and_floor_stop_on_their_bounds():
    # a linewidth that falls with temperature: under amplitude >= 0 the
    # best fit is amplitude 0, exactly, and a floor equal to the mean width
    temps = np.array(SERIES_GRID)
    y = 5.0 - temps / 100.0
    fit = fit_series(list(zip(temps, y)), "cubic_law", quantity="total",
                     fit_floor=True)
    assert fit.model.amplitude == 0.0
    assert fit.model.gaussian_floor == pytest.approx(y.mean(), rel=1e-9)
    assert fit.rss == pytest.approx(((y - y.mean()) ** 2).sum(), rel=1e-9)
    # widths below the fixed floor: no Lorentzian part at all
    below = fit_series([(t, 0.5) for t in temps], "acoustic_debye",
                       quantity="total", gaussian_floor=0.72)
    assert below.model.amplitude == 0.0


def test_fit_series_insufficient_data():
    points = _acoustic_total_points()[:2]
    with pytest.raises(InsufficientDataError):
        fit_series(points, "acoustic_debye", quantity="total", fit_floor=True)
    with pytest.raises(InsufficientDataError):
        fit_series(points[:1], "cubic_law")


def test_compare_models_ranks_generator_first():
    points = _acoustic_total_points()
    rows = compare_models(points, quantity="total", gaussian_floor=0.72)
    assert rows[0].kind == "acoustic_debye"
    kinds = [r.kind for r in rows]
    assert kinds.index("acoustic_debye") < kinds.index("cubic_law")
    assert rows[0].delta_aic == 0.0
    assert all(r.delta_aic >= 0 for r in rows)


def test_compare_models_single_candidate():
    points = _acoustic_total_points()
    rows = compare_models(points, kinds=("cubic_law",), quantity="total",
                          gaussian_floor=0.72)
    assert len(rows) == 1
    assert rows[0].delta_aic == 0.0
    with pytest.raises(InsufficientDataError):
        compare_models(points, kinds=())


def test_compare_models_exact_zero_rss_ties():
    # amplitude 4.0 survives the sqrt/square round trip bit-exactly, so a
    # cubic-law fit of its own predictions can reach rss == 0 and the AIC
    # degenerates to -inf; ties then break by parameter count and order
    points = [(t, 4.0 * t ** 3) for t in (10.0, 50.0, 90.0, 130.0)]
    rows = compare_models(points, kinds=("cubic_law",), quantity="lorentzian")
    assert rows[0].rss == 0.0
    assert rows[0].aic == -math.inf
    assert rows[0].delta_aic == 0.0


# fit_voigt uncertainties as they were when every solve formed its
# covariance eagerly: (center, f_G, f_L, amplitude, baseline)
_EAGER_UNCERTAINTIES = {
    "voigt": (0.01782305463937586, 0.5588988174796531, 0.06866270882035873,
              41.066913956709875, 0.1355679648623392),
    "gaussian": (0.05508586741463782, 0.11592024604691929, math.inf,
                 90.65134910387032, 0.28226961168558157),
}


def test_series_fits_skip_the_covariance_voigt_fits_keep_it(monkeypatch):
    spec, _ = synthetic_voigt_spectrum(1817.0, 0.72, 6.82, peak_snr=30.0,
                                       seed=3)
    for mode, expected in _EAGER_UNCERTAINTIES.items():
        fit = fit_voigt(spec, mode=mode)
        assert astuple(fit.uncertainties) == pytest.approx(expected, rel=1e-12)

    def refuse(*args, **kwargs):
        raise AssertionError("a series fit formed a covariance")

    monkeypatch.setattr(np.linalg, "pinv", refuse)
    rows = compare_models(_acoustic_total_points(), quantity="total",
                          gaussian_floor=0.72)
    assert rows[0].kind == "acoustic_debye"
    with pytest.raises(AssertionError, match="formed a covariance"):
        fit_voigt(spec)


def test_compare_models_scaling_leaves_ranking_unchanged():
    points = _acoustic_total_points(temps=tuple(np.arange(10.0, 271.0, 20.0)))
    noisy = [(t, y * (1.0 + 0.01 * math.sin(7.0 * t))) for t, y in points]
    base = compare_models(noisy, quantity="total", gaussian_floor=0.72)
    scaled = compare_models([(t, 3.7 * y) for t, y in noisy],
                            quantity="total", gaussian_floor=3.7 * 0.72)
    assert [r.kind for r in base] == [r.kind for r in scaled]


def test_cubic_generated_data_mirror():
    # data generated from the cubic law: indistinguishable from the finite
    # band model on the low range, clearly separated on the full range
    cubic = CubicLaw(6.82 / 270.0 ** 3, gaussian_floor=0.72)
    rng = np.random.default_rng(9)
    full = [(t, cubic.total_fwhm(t) * (1 + 0.01 * rng.normal()))
            for t in SERIES_GRID]
    low = [p for p in full if p[0] <= 90.0]
    rows_low = compare_models(low, kinds=("acoustic_debye", "cubic_law"),
                              quantity="total", gaussian_floor=0.72)
    assert max(r.delta_aic for r in rows_low) < 2.0
    rows_full = compare_models(full, kinds=("acoustic_debye", "cubic_law"),
                               quantity="total", gaussian_floor=0.72)
    assert rows_full[0].kind == "cubic_law"
    assert rows_full[-1].delta_aic > 10.0


def test_analyze_series_end_to_end_noiseless():
    model = AcousticDebye(6.82, 600.0)
    series = []
    for index, t in enumerate(SERIES_GRID):
        spec, _ = synthetic_voigt_spectrum(1820.0, 0.72,
                                           model.lorentzian_fwhm(t),
                                           temperature=t)
        series.append(spec)
    result = analyze_series(series)
    assert result.best_model == "acoustic_debye"
    assert result.gaussian_floor == pytest.approx(0.72, rel=1e-5)
    acoustic = [c for c in result.comparisons if c.kind == "acoustic_debye"][0]
    assert acoustic.model.amplitude == pytest.approx(6.82, rel=1e-4)


def _paper_spectra():
    model = AcousticDebye(6.82, 600.0)
    return [synthetic_voigt_spectrum(
        1820.0, 0.72, model.lorentzian_fwhm(t), temperature=t,
        peak_snr=30.0, seed=400 + index)[0]
        for index, t in enumerate(SERIES_GRID)]


def test_analyze_series_bare_components_are_the_shared_floor_split():
    # the ranking of the Lorentzian parts is compare_models on the fits'
    # totals split under the shared floor, which every model carries
    result = analyze_series(_paper_spectra(), quantity="lorentzian")
    floor = result.gaussian_floor
    totals = [(f.temperature, f.total_fwhm) for f in result.per_temperature]
    rows = compare_models(lorentzian_parts(totals, floor),
                          quantity="lorentzian", gaussian_floor=floor)
    assert list(result.comparisons) == rows
    assert all(row.model.gaussian_floor == floor for row in rows)
    assert rows[0].kind == "acoustic_debye"


def test_analyze_series_is_independent_of_spectrum_order():
    # a series is its spectra: each is fitted and ranked at the temperature
    # it carries, whatever order it arrives in
    spectra = _paper_spectra()
    shuffled = [spectra[i] for i in
                np.random.default_rng(3).permutation(len(spectra))]
    assert [s.temperature for s in shuffled] != list(SERIES_GRID)
    result = analyze_series(shuffled)
    assert result == analyze_series(spectra)
    assert [f.temperature for f in result.per_temperature] == list(SERIES_GRID)
    for fit, spectrum in zip(result.per_temperature, spectra):
        assert fit.temperature == spectrum.temperature
        assert fit == fit_voigt(spectrum)
    assert result.best_model == "acoustic_debye"


def test_analyze_series_checks_quantity_before_fitting(monkeypatch):
    calls = []

    def counting_fit_voigt(*args, **kwargs):
        calls.append(args)
        return fit_voigt(*args, **kwargs)

    monkeypatch.setattr(fitting, "fit_voigt", counting_fit_voigt)
    with pytest.raises(DomainError, match="unknown quantity"):
        analyze_series(_paper_spectra(), quantity="gaussian")
    assert calls == []
