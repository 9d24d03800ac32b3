"""Independent oracles and shared helpers for the test suite.

Everything here is deliberately implemented from first principles (fixed-step
Simpson quadrature, central finite differences, direct profile synthesis) so
it never shares code paths with the package internals it checks.
"""

import numpy as np

from zplkit.fitting import Spectrum
from zplkit.lineshape import VoigtParams, voigt_profile
from zplkit.numerics import _GK_NODES, _GK_WEIGHTS_G, _GK_WEIGHTS_K


def simpson_reduced_debye(x_max, panels=10 ** 6):
    """Fixed-step Simpson value of the reduced band integral on [0, x_max]."""
    x = np.linspace(0.0, x_max, 2 * panels + 1)
    f = np.empty_like(x)
    f[0] = 1.0  # x^2 e^x/(e^x-1)^2 -> 1 as x -> 0
    e = np.expm1(x[1:])
    f[1:] = x[1:] ** 2 * np.exp(x[1:]) / (e * e)
    h = x_max / (2 * panels)
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1::2].sum() + 2.0 * f[2:-1:2].sum())


def central_difference_jacobian(residual, p, steps):
    """Column-by-column central finite differences of a residual vector."""
    p = np.asarray(p, dtype=float)
    r0 = np.asarray(residual(p), dtype=float)
    out = np.empty((r0.size, p.size))
    for j in range(p.size):
        h = steps[j]
        plus, minus = p.copy(), p.copy()
        plus[j] += h
        minus[j] -= h
        out[:, j] = (np.asarray(residual(plus)) - np.asarray(residual(minus))) / (2.0 * h)
    return out


def synthetic_voigt_spectrum(center, gaussian_fwhm, lorentzian_fwhm,
                             peak_counts=900.0, baseline=0.0, half_span=None,
                             n_points=1001, temperature=0.0, peak_snr=0.0,
                             seed=0):
    """Noiseless or Poisson-noisy Voigt spectrum for round-trip tests."""
    params = VoigtParams(center, gaussian_fwhm, lorentzian_fwhm, 1.0, baseline)
    total = params.total_fwhm
    if half_span is None:
        half_span = max(8.0 * total, 3.0)
    energy = np.linspace(center - half_span, center + half_span, n_points)
    peak_density = voigt_profile(0.0, params.sigma, params.gamma)
    amplitude = (peak_counts - baseline) / peak_density
    intensity = baseline + amplitude * voigt_profile(energy - center,
                                                     params.sigma, params.gamma)
    if peak_snr > 0:
        rng = np.random.default_rng(seed)
        scale = peak_snr ** 2 / peak_counts
        intensity = rng.poisson(intensity * scale) / scale
    return Spectrum(energy=energy, intensity=intensity,
                    temperature=temperature), amplitude


def per_panel_gauss_kronrod(func, a, b, rel_tol=1e-10, abs_tol=1e-30,
                            initial_intervals=1, max_intervals=2048):
    """Adaptive Gauss-Kronrod 7/15 with one integrand call per panel and one
    bisection at a time: the loop the batched `adaptive_gauss_kronrod` must
    reproduce bit for bit.  Returns (value, error_bound, integrand calls),
    or None where the batched version raises.  Only the node and weight
    tables are shared with the package."""
    nodes, w_k, w_g = _GK_NODES, _GK_WEIGHTS_K, _GK_WEIGHTS_G
    calls = 0

    def panel(lo, hi):
        nonlocal calls
        calls += 1
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        y = func(mid + half * nodes)
        i_k = half * float(w_k @ y)
        i_g = half * float(w_g @ y)
        return lo, hi, i_k, abs(i_k - i_g)

    edges = np.linspace(a, b, initial_intervals + 1)
    intervals = [panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    while True:
        total = sum(iv[2] for iv in intervals)
        total_err = sum(iv[3] for iv in intervals)
        if not np.isfinite(total):
            return None
        if total_err <= max(rel_tol * abs(total), abs_tol):
            return total, total_err, calls
        if len(intervals) >= max_intervals:
            return None
        worst = max(range(len(intervals)), key=lambda i: intervals[i][3])
        lo, hi, _, _ = intervals[worst]
        mid = 0.5 * (lo + hi)
        intervals[worst] = panel(lo, mid)
        intervals.append(panel(mid, hi))
