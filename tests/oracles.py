"""Independent oracles and shared helpers for the test suite.

Everything here is deliberately implemented from first principles (fixed-step
Simpson quadrature, central finite differences, brute-force convolution,
bisection on half-maximum crossings, direct profile synthesis) so it never
shares code paths with the package internals it checks.
"""

import math

import numpy as np

from zplkit.errors import DomainError
from zplkit.fitting import Spectrum
from zplkit.lineshape import (GAUSSIAN_FWHM_FACTOR, VoigtParams,
                              gaussian_profile, voigt_fwhm, voigt_profile)
from zplkit.numerics import _GK_NODES, _GK_WEIGHTS_G, _GK_WEIGHTS_K
from zplkit.physics import BOLTZMANN_MEV_PER_K, HBAR_MEV_PS


class NonUnimodalError(Exception):
    """A profile expected to be single-peaked is not."""


def lorentzian_profile(x, gamma):
    """Unit-area Lorentzian density (gamma is the HWHM), gamma > 0."""
    if not gamma > 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    x = np.asarray(x, dtype=float)
    return (gamma / np.pi) / (x * x + gamma * gamma)


def voigt_direct_convolution(x_grid, sigma, gamma):
    """Voigt density by brute-force quadrature of the defining convolution.

    Fixed-step trapezoid over the Gaussian variable (step <= min(sigma,
    gamma)/50, support +-40*max(sigma, gamma)), renormalized to unit area.
    Slow by design: this is the independent cross-check for voigt_profile.
    """
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DomainError("x_grid must be a 1-d grid with >= 2 points")
    if np.any(np.diff(x) <= 0):
        raise DomainError("x_grid must be strictly increasing")
    if not (sigma > 0 and gamma > 0):
        raise DomainError("convolution requires sigma > 0 and gamma > 0")
    fwhm = voigt_fwhm(GAUSSIAN_FWHM_FACTOR * sigma, 2.0 * gamma)
    if np.max(np.diff(x)) > fwhm / 4.0:
        raise DomainError("x_grid is too coarse to resolve the line width")
    step = min(sigma, gamma) / 50.0
    half_support = 40.0 * max(sigma, gamma)
    n = int(np.ceil(2.0 * half_support / step)) + 1
    t = np.linspace(-half_support, half_support, n)
    weights = np.full(n, t[1] - t[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    gauss_w = gaussian_profile(t, sigma) * weights
    norm = gauss_w.sum()
    out = np.empty_like(x)
    chunk = max(1, int(4e6 / n))
    for start in range(0, x.size, chunk):
        xs = x[start:start + chunk]
        out[start:start + chunk] = lorentzian_profile(
            xs[:, None] - t[None, :], gamma) @ gauss_w
    return out / norm


def measure_fwhm(profile, center=0.0, width_hint=1.0, tol=1e-10):
    """FWHM of a unimodal callable by bisection on the half-max crossings.

    The peak is first refined by ternary search near `center`; each
    half-maximum crossing is then located to within `tol`.
    """
    if not width_hint > 0:
        raise DomainError("width_hint must be > 0")
    scan = np.linspace(center - 2.0 * width_hint, center + 2.0 * width_hint, 129)
    values = np.array([profile(s) for s in scan])
    k = int(np.argmax(values))
    lo = scan[max(k - 1, 0)]
    hi = scan[min(k + 1, scan.size - 1)]
    for _ in range(200):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if profile(a) < profile(b):
            lo = a
        else:
            hi = b
        if hi - lo < tol * 1e-3:
            break
    x_peak = 0.5 * (lo + hi)
    peak = profile(x_peak)
    if not peak > 0:
        raise DomainError("profile peak is not positive")
    half = 0.5 * peak

    def crossing(direction):
        # fixed-resolution outward march so a secondary peak between the
        # maximum and the crossing cannot be stepped over unseen
        step = width_hint / 8.0
        x_in, f_in = x_peak, peak
        for k in range(1, 4001):
            x_out = x_peak + direction * k * step
            f_out = profile(x_out)
            if f_out > f_in + 1e-9 * peak:
                raise NonUnimodalError("profile rises away from its peak")
            if f_out < half:
                break
            x_in, f_in = x_out, f_out
        else:
            raise NonUnimodalError("no half-maximum crossing found")
        while abs(x_out - x_in) > tol:
            mid = 0.5 * (x_in + x_out)
            if profile(mid) >= half:
                x_in = mid
            else:
                x_out = mid
        return 0.5 * (x_in + x_out)

    return crossing(+1.0) - crossing(-1.0)


def cubic_asymptote(temperature):
    """Infinite-band limit of debye_integral: (kT/hbar)^3 * pi^2/3."""
    if temperature < 0:
        raise DomainError(f"temperature must be >= 0, got {temperature}")
    rate = BOLTZMANN_MEV_PER_K * temperature / HBAR_MEV_PS
    return rate ** 3 * (math.pi ** 2 / 3.0)


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


def gauss_markov_discrete_law(sigma, gamma, correlation_rate, dt, n_steps):
    """Exact mean and per-trajectory standard deviation of Re g on the
    simulator's time grid.  The trapezoid phase phi_{k+1} = phi_k + f_k +
    f_{k+1} of a stationary AR(1) field f (variance s^2, s = dt*sigma/2,
    lag-1 correlation rho = exp(-correlation_rate*dt)) is exactly Gaussian,
    with variance V from the recurrence V_{k+1} = V_k + 2 s^2 (1 + rho)
    (1 + c_k), c_{k+1} = rho c_k + rho + 1, V_0 = c_0 = 0 (s^2 c_k is
    cov(phi_k, f_k)).  So E cos phi = exp(-V/2) and var cos phi =
    (1 - exp(-V))^2 / 2; the mean and the standard deviation returned each
    carry the homogeneous decay exp(-gamma t)."""
    s2 = (0.5 * dt * sigma) ** 2
    rho = np.exp(-correlation_rate * dt)
    variance = np.zeros(n_steps + 1)
    c = 0.0
    for k in range(n_steps):
        variance[k + 1] = variance[k] + 2.0 * s2 * (1.0 + rho) * (1.0 + c)
        c = rho * c + rho + 1.0
    damp = np.exp(-gamma * dt * np.arange(n_steps + 1))
    return (np.exp(-0.5 * variance) * damp,
            -np.expm1(-variance) / np.sqrt(2.0) * damp)
