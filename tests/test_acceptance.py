"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Expected values tagged as goldens below were frozen from the first
verified run of the independent oracles (arbitrary-precision evaluation,
fixed-step Simpson quadrature, brute-force convolution).
"""

import math
import time

import numpy as np

from oracles import (central_difference_jacobian, cubic_asymptote,
                     measure_fwhm, simpson_reduced_debye,
                     synthetic_voigt_spectrum, voigt_direct_convolution)
import zplkit.cli
from zplkit.fitting import (Spectrum, analyze_series, build_series_problem,
                            build_voigt_problem, classify_lineshape,
                            fit_voigt)
from zplkit.io_formats import (generate_synthetic_series, load_manifest,
                               load_series)
from zplkit.lineshape import (GAUSSIAN_FWHM_FACTOR, grid_fwhm,
                              sigma_from_fwhm, voigt_fwhm, voigt_profile)
from zplkit.physics import HBAR_MEV_PS, AcousticDebye, debye_integral
from zplkit.simulate import (SimulationConfig, analytic_coherence,
                             mc_coherence, spectrum_from_coherence)


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_criterion_1_voigt_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for sigma in (0.1, 1.0, 10.0):
        for gamma in (0.1, 1.0, 10.0):
            total = voigt_fwhm(GAUSSIAN_FWHM_FACTOR * sigma, 2.0 * gamma)
            grid = np.linspace(-6.0 * total, 6.0 * total, 61)
            reference = voigt_direct_convolution(grid, sigma, gamma)
            fast = voigt_profile(grid, sigma, gamma)
            worst = max(worst, float(np.max(np.abs(fast - reference))
                                     / fast.max()))
    elapsed = time.monotonic() - start
    _report(1, "fast Voigt matches brute-force convolution to 1e-6",
            worst < 1e-6 and elapsed < 10.0,
            f"worst peak-relative {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_fwhm_combination_accuracy():
    worst = 0.0
    for ratio in np.logspace(-2, 2, 20):
        f_g, f_l = 1.0, float(ratio)
        sigma, gamma = sigma_from_fwhm(f_g), f_l / 2.0
        measured = measure_fwhm(
            lambda x: float(voigt_profile(x, sigma, gamma)),
            width_hint=max(f_g, f_l))
        worst = max(worst, abs(voigt_fwhm(f_g, f_l) - measured) / measured)
    anchors = (voigt_fwhm(0.72, 0.0) == 0.72
               and voigt_fwhm(0.0, 6.82)
               == 0.5346 * 6.82 + math.sqrt(0.2166 * 6.82 ** 2)
               and abs(voigt_fwhm(0.0, 6.82) - 6.82) < 3e-5 * 6.82)
    _report(2, "FWHM combination within 0.1% of measured width",
            worst < 1e-3 and anchors, f"worst {worst:.2e}")


def test_criterion_3_debye_asymptote_and_infinite_band_constant():
    within = all(
        abs(debye_integral(t, 600.0) / cubic_asymptote(t) - 1.0) < 0.01
        for t in (5.0, 10.0, 20.0, 30.0))
    below = all(debye_integral(t, 600.0) < cubic_asymptote(t)
                for t in (1.0, 10.0, 50.0, 120.0, 270.0, 600.0, 2000.0))
    # the infinite-band constant is pi^2/3, NOT pi^2/6: the factor-2
    # variant sometimes quoted fails by construction and is absorbed into
    # the fitted amplitude anyway
    oracle = simpson_reduced_debye(60.0, 10 ** 6)
    matches_third = abs(oracle - math.pi ** 2 / 3.0) < 1e-8
    rejects_sixth = abs(oracle - math.pi ** 2 / 6.0) > 1.0
    _report(3, "finite-band integral: low-T cubic asymptote and pi^2/3 "
               "infinite-band constant",
            within and below and matches_third and rejects_sixth,
            f"Simpson J(inf)={oracle:.12f}")


def test_criterion_4_cubic_vs_finite_band_separation():
    # both models calibrated to the same value at 50 K
    ref = debye_integral(50.0, 600.0) / cubic_asymptote(50.0)

    def deviation(t):
        return (debye_integral(t, 600.0) / cubic_asymptote(t)) / ref - 1.0

    # monotonicity is checked from 30 K on: below that the band-edge
    # truncation difference sits under the quadrature noise floor
    temps = np.arange(30.0, 271.0, 5.0)
    devs = np.array([deviation(t) for t in temps])
    low = all(abs(deviation(t)) < 0.05 for t in np.arange(10.0, 106.0, 5.0))
    # goldens frozen from the first verified run (also matches an
    # independent 40-digit evaluation): the spread reaches 7.6% by 120 K
    # and 40.5% by 270 K
    at_120 = deviation(120.0)
    at_270 = deviation(270.0)
    golden_120 = abs(at_120 - (-0.075910)) < 5e-4
    golden_270 = abs(at_270 - (-0.404960)) < 5e-4
    monotone = bool(np.all(np.diff(devs) < 0))
    _report(4, "calibrated finite-band curve: <5% below ~105 K, -7.6% at "
               "120 K, -40% at 270 K, monotone",
            low and golden_120 and golden_270 and abs(at_270) > 0.25
            and monotone,
            f"dev(120K)={at_120:+.4f}, dev(270K)={at_270:+.4f}")


def test_criterion_5_synthetic_series_end_to_end(tmp_path):
    model = AcousticDebye(amplitude=6.82, debye_temperature=600.0)
    manifest_path, _ = generate_synthetic_series(
        tmp_path / "series", model, gaussian_floor=0.72, peak_snr=30.0,
        seed=20260808)
    series = load_series(load_manifest(manifest_path))
    result = analyze_series(series)
    acoustic = next(c for c in result.comparisons
                    if c.kind == "acoustic_debye")
    kinds = [c.kind for c in result.comparisons]
    floor_ok = abs(result.gaussian_floor - 0.72) / 0.72 < 0.05
    amp_ok = abs(acoustic.model.amplitude - 6.82) / 6.82 < 0.05
    ranked = kinds.index("acoustic_debye") < kinds.index("cubic_law")
    cold = classify_lineshape(series[0][1]).label
    hot = classify_lineshape(series[-1][1]).label
    _report(5, "pipeline on the 10-270 K grid recovers floor and amplitude "
               "within 5%, ranks the finite-band model first, and "
               "classifies the end-point shapes",
            floor_ok and amp_ok and ranked and cold == "gaussian"
            and hot == "lorentzian",
            f"floor={result.gaussian_floor:.4f}, "
            f"amplitude={acoustic.model.amplitude:.4f}, "
            f"10K={cold}, 270K={hot}")


def test_criterion_6_coherence_transform_closure():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        sigma, gamma = (10.0 ** rng.uniform(-0.5, 0.5),
                        10.0 ** rng.uniform(-0.5, 0.5))
        dt = 0.1 / max(sigma, gamma)
        t = np.arange(0.0, 20.0 / (sigma + gamma) + dt, dt)
        spec = spectrum_from_coherence(
            analytic_coherence(sigma, gamma, t), 1800.0)
        measured = grid_fwhm(spec.energy, spec.intensity)
        expected = voigt_fwhm(GAUSSIAN_FWHM_FACTOR * sigma * HBAR_MEV_PS,
                              2.0 * gamma * HBAR_MEV_PS)
        worst = max(worst, abs(measured - expected) / expected)
    # degenerate limits
    t = np.arange(0.0, 40.0001, 0.2)
    spec = spectrum_from_coherence(analytic_coherence(0.0, 0.5, t), 1800.0)
    lorentz_err = abs(grid_fwhm(spec.energy, spec.intensity)
                      - 2 * 0.5 * HBAR_MEV_PS) / (2 * 0.5 * HBAR_MEV_PS)
    t = np.arange(0.0, 30.0001, 0.1)
    spec = spectrum_from_coherence(analytic_coherence(0.7, 0.0, t), 1800.0)
    gauss_expected = GAUSSIAN_FWHM_FACTOR * 0.7 * HBAR_MEV_PS
    gauss_err = abs(grid_fwhm(spec.energy, spec.intensity)
                    - gauss_expected) / gauss_expected
    _report(6, "transform of the coherence reproduces the combined FWHM "
               "within 1% (plus both degenerate limits)",
            worst < 0.01 and lorentz_err < 0.01 and gauss_err < 0.01,
            f"worst mixed {worst:.2e}, lorentzian {lorentz_err:.2e}, "
            f"gaussian {gauss_err:.2e}")


def test_criterion_7_monte_carlo_validity():
    start = time.monotonic()
    config = SimulationConfig(sigma=1.0, gamma=0.0, correlation_rate=0.01,
                              t_max=20.0, dt=0.1, n_trajectories=10000,
                              seed=42)
    trace = mc_coherence(config)
    reference = analytic_coherence(1.0, 0.0, trace.t)
    mask = (trace.t > 0) & (trace.t <= 5.0)
    within = bool(np.all(np.abs(trace.g[mask] - reference.g[mask])
                         <= 3.0 * trace.stderr[mask]))
    repeat = mc_coherence(config)
    identical = (repeat.g.tobytes() == trace.g.tobytes()
                 and repeat.stderr.tobytes() == trace.stderr.tobytes())
    quarter = mc_coherence(SimulationConfig(
        sigma=1.0, gamma=0.0, correlation_rate=0.01, t_max=20.0, dt=0.1,
        n_trajectories=2500, seed=42))
    ratio = float(np.mean(quarter.stderr[1:] / trace.stderr[1:]))
    halves = abs(ratio - 2.0) / 2.0 < 0.10
    elapsed = time.monotonic() - start
    _report(7, "slow-modulation Monte Carlo matches the static limit within "
               "3 standard errors; deterministic; stderr halves at 4x "
               "trajectories",
            within and identical and halves and elapsed < 120.0,
            f"stderr ratio {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_8_fit_engine_integrity():
    # analytic Jacobians vs central finite differences, column-relative
    spec, _ = synthetic_voigt_spectrum(1817.3, 0.9, 2.1, baseline=3.0)
    worst = 0.0
    for mode, point in (("voigt", [1817.1, 1.05, 1.4, 4000.0, 1.0]),
                        ("gaussian", [1817.1, 1.05, 4000.0, 1.0]),
                        ("lorentzian", [1817.1, 1.4, 4000.0, 1.0])):
        residual, jacobian, _ = build_voigt_problem(spec, mode=mode)
        p = np.array(point)
        steps = 6e-6 * np.maximum(np.abs(p) * np.array(
            [1e-4 if k == 0 else 1.0 for k in range(p.size)]), 1.0)
        numeric = central_difference_jacobian(residual, p, steps)
        analytic = jacobian(p)
        for j in range(p.size):
            scale = np.max(np.abs(numeric[:, j]))
            worst = max(worst, float(
                np.max(np.abs(analytic[:, j] - numeric[:, j])) / scale))
    temps = np.arange(10.0, 271.0, 20.0)
    y = np.array([voigt_fwhm(0.72, AcousticDebye(6.82).lorentzian_fwhm(t))
                  for t in temps])
    residual, jacobian, _, _ = build_series_problem(
        temps, y, "acoustic_debye", quantity="total", gaussian_floor=0.6,
        fit_floor=True)
    p = np.array([math.sqrt(5.0), math.sqrt(0.6)])
    numeric = central_difference_jacobian(residual, p, [6e-6, 6e-6])
    analytic = jacobian(p)
    for j in range(p.size):
        scale = np.max(np.abs(numeric[:, j]))
        worst = max(worst, float(
            np.max(np.abs(analytic[:, j] - numeric[:, j])) / scale))

    # noiseless round trips
    spec_g, _ = synthetic_voigt_spectrum(1820.2, 0.72, 0.0)
    fit_g = fit_voigt(spec_g)
    spec_v, _ = synthetic_voigt_spectrum(1817.0, 0.72, 6.82)
    fit_v = fit_voigt(spec_v)
    roundtrip = (abs(fit_g.params.gaussian_fwhm - 0.72) < 1e-6
                 and fit_g.params.lorentzian_fwhm < 1e-6
                 and abs(fit_v.params.gaussian_fwhm - 0.72) < 1e-6 * 0.72
                 and abs(fit_v.params.lorentzian_fwhm - 6.82) < 1e-6 * 6.82)

    # translation invariance
    shifted = Spectrum(spec_v.energy + 8.0, spec_v.intensity)
    fit_s = fit_voigt(shifted)
    translation = (abs(fit_s.params.center - fit_v.params.center - 8.0) < 1e-10
                   and abs(fit_s.params.gaussian_fwhm
                           - fit_v.params.gaussian_fwhm) < 1e-10
                   and abs(fit_s.params.lorentzian_fwhm
                           - fit_v.params.lorentzian_fwhm) < 1e-10)
    _report(8, "Jacobians match central differences to 1e-6; noiseless "
               "round trips to 1e-6; grid translation invariant to 1e-10",
            worst < 1e-6 and roundtrip and translation,
            f"worst Jacobian column error {worst:.2e}")


def test_criterion_9_format_stability(tmp_path):
    model = AcousticDebye(amplitude=6.82, debye_temperature=600.0)
    path_a, _ = generate_synthetic_series(tmp_path / "a", model, seed=99)
    path_b, _ = generate_synthetic_series(tmp_path / "b", model, seed=99)
    manifest_a, manifest_b = load_manifest(path_a), load_manifest(path_b)
    same_series = all(
        open(manifest_a.resolve(ea), "rb").read()
        == open(manifest_b.resolve(eb), "rb").read()
        for ea, eb in zip(manifest_a.entries, manifest_b.entries))

    # load -> save is byte-stable on canonical files
    from zplkit.io_formats import load_spectrum, save_spectrum
    sample = manifest_a.resolve(manifest_a.entries[0])
    original = open(sample, "rb").read()
    save_spectrum(load_spectrum(sample), tmp_path / "resaved.csv")
    stable = open(tmp_path / "resaved.csv", "rb").read() == original

    # identical seeds give byte-identical result records end to end
    rec1, rec2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert zplkit.cli.main(["series", str(path_a), "--output", str(rec1),
                            "--quiet"]) == 0
    assert zplkit.cli.main(["series", str(path_a), "--output", str(rec2),
                            "--quiet"]) == 0
    records_match = rec1.read_bytes() == rec2.read_bytes()
    _report(9, "byte-stable formats: seeded datasets, load/save round "
               "trips, and result records",
            same_series and stable and records_match)
