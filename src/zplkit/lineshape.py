"""Gaussian, Lorentzian, and Voigt profiles plus FWHM algebra.

All profiles are unit-area densities (1/meV); a fitted amplitude multiplies
the density, so peak height is amplitude * profile(0).  Area rather than peak
normalization is used because area is what broadening conserves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonUnimodalError
from .numerics import faddeeva, faddeeva_derivatives

__all__ = [
    "GAUSSIAN_FWHM_FACTOR", "VoigtParams",
    "gaussian_profile", "lorentzian_profile", "voigt_profile",
    "voigt_value_and_derivatives", "voigt_direct_convolution",
    "voigt_fwhm", "voigt_fwhm_partials", "invert_voigt_fwhm", "measure_fwhm",
    "grid_fwhm", "sigma_from_fwhm", "gamma_from_fwhm",
]

GAUSSIAN_FWHM_FACTOR = 2.0 * np.sqrt(2.0 * np.log(2.0))  # fwhm = factor * sigma

# Voigt FWHM combination constants (Olivero-Longbothum form, <0.03% error)
_FWHM_CL = 0.5346
_FWHM_CQ = 0.2166

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def sigma_from_fwhm(gaussian_fwhm):
    return gaussian_fwhm / GAUSSIAN_FWHM_FACTOR


def gamma_from_fwhm(lorentzian_fwhm):
    return lorentzian_fwhm / 2.0


def gaussian_profile(x, sigma):
    """Unit-area Gaussian density, sigma > 0."""
    if not sigma > 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * _SQRT_2PI)


def lorentzian_profile(x, gamma):
    """Unit-area Lorentzian density (gamma is the HWHM), gamma > 0."""
    if not gamma > 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    x = np.asarray(x, dtype=float)
    return (gamma / np.pi) / (x * x + gamma * gamma)


def voigt_profile(x, sigma, gamma):
    """Unit-area Voigt density via Re[w(z)], z = (x + i*gamma)/(sigma*sqrt(2)).

    Degenerates exactly to the Gaussian for gamma == 0 and to the Lorentzian
    for sigma == 0.
    """
    return voigt_value_and_derivatives(x, sigma, gamma, columns=())[0]


def voigt_value_and_derivatives(x, sigma, gamma,
                                columns=("x", "variance", "gamma"), w=None):
    """Voigt density, its partials along `columns`, and the Faddeeva values.

    `columns` names the partials wanted: "x", "variance" (d/d(sigma^2)) and
    "gamma"; only those are computed and they come back as a tuple in that
    order.  The variance partial is V_xx / 2 (heat equation), which stays
    finite and cancellation-free as sigma -> 0, where dV/dsigma vanishes.
    The third return value is w(z) (None on a closed-form branch): passing
    it back as `w` at the same (x, sigma, gamma) skips the Faddeeva
    evaluation.  sigma == 0 is the Lorentzian closed form; gamma == 0
    without a "gamma" column is the Gaussian closed form.
    """
    x = np.asarray(x, dtype=float)
    if sigma < 0 or gamma < 0:
        raise DomainError("widths must be non-negative")
    if sigma == 0 and gamma == 0:
        raise DomainError("sigma and gamma cannot both be zero")
    if sigma == 0:
        w = None
        denom = x * x + gamma * gamma
        value = (gamma / np.pi) / denom
        partials = {
            "x": lambda: -2.0 * x * gamma / (np.pi * denom * denom),
            "variance": lambda: ((gamma / np.pi) * (3.0 * x * x - gamma * gamma)
                                 / denom ** 3),
            "gamma": lambda: (x * x - gamma * gamma) / (np.pi * denom * denom),
        }
    elif gamma == 0 and "gamma" not in columns:
        w = None
        value = gaussian_profile(x, sigma)
        partials = {
            "x": lambda: -(x / sigma ** 2) * value,
            "variance": lambda: 0.5 * (x * x / sigma ** 4
                                       - 1.0 / sigma ** 2) * value,
        }
    else:
        z = (x + 1j * gamma) / (sigma * np.sqrt(2.0))
        if w is None:
            w = faddeeva(z)
        value = w.real / (sigma * _SQRT_2PI)
        if columns:
            wp, wpp = faddeeva_derivatives(z, w)
            scale = 1.0 / (sigma * np.sqrt(2.0) * sigma * _SQRT_2PI)
        partials = {
            "x": lambda: wp.real * scale,
            "variance": lambda: wpp.real / (4.0 * sigma ** 3 * _SQRT_2PI),
            "gamma": lambda: -wp.imag * scale,
        }
    return value, tuple(partials[name]() for name in columns), w


def voigt_fwhm(gaussian_fwhm, lorentzian_fwhm):
    """Total Voigt FWHM from its Gaussian and Lorentzian component FWHMs,
    floats or arrays; an array gives each element's scalar result."""
    # fmin passes over a NaN, so a negative width beside one still fails
    if (np.fmin(gaussian_fwhm, lorentzian_fwhm) < 0).any():
        raise DomainError("FWHM inputs must be non-negative")
    return _FWHM_CL * lorentzian_fwhm + _hypot(gaussian_fwhm, lorentzian_fwhm)


def _hypot(f_g, f_l):
    # squares as products, so a float and an array element give one result:
    # a float's `** 2` calls libm pow, which misrounds about 1 in 1,000
    return np.sqrt(_FWHM_CQ * (f_l * f_l) + f_g * f_g)


def voigt_fwhm_partials(gaussian_fwhm, lorentzian_fwhm):
    """(d total/d gaussian_fwhm, d total/d lorentzian_fwhm) of voigt_fwhm,
    with the one-sided limits along each axis where both widths are 0."""
    root = _hypot(gaussian_fwhm, lorentzian_fwhm)
    safe = np.where(root > 0, root, 1.0)
    d_fg = np.where(root > 0, gaussian_fwhm / safe, 1.0)
    d_fl = np.where(root > 0, _FWHM_CL + _FWHM_CQ * lorentzian_fwhm / safe,
                    _FWHM_CL + math.sqrt(_FWHM_CQ))
    return d_fg, d_fl


def invert_voigt_fwhm(total_fwhm, gaussian_fwhm):
    """Lorentzian component FWHM given the total and the Gaussian component.

    Closed-form non-negative root of the FWHM combination, written in a
    cancellation-free form so the round trip through voigt_fwhm holds to
    ~1e-15 relative.
    """
    if gaussian_fwhm < 0:
        raise DomainError("gaussian_fwhm must be non-negative")
    if total_fwhm < gaussian_fwhm:
        raise DomainError(
            f"no solution: total FWHM {total_fwhm} below Gaussian component "
            f"{gaussian_fwhm}")
    root = np.sqrt(_FWHM_CQ * total_fwhm ** 2 +
                   (_FWHM_CL ** 2 - _FWHM_CQ) * gaussian_fwhm ** 2)
    return (total_fwhm ** 2 - gaussian_fwhm ** 2) / (_FWHM_CL * total_fwhm + root)


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


def grid_fwhm(x, y):
    """FWHM of sampled peak data by linear interpolation at half maximum."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = int(np.argmax(y))
    half = 0.5 * y[k]
    left = np.nonzero(y[:k] < half)[0]
    right = np.nonzero(y[k:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise DomainError("peak not resolved: no half-maximum crossing on grid")
    i = left[-1]
    x_lo = x[i] + (half - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i])
    j = k + right[0]
    x_hi = x[j - 1] + (half - y[j - 1]) * (x[j] - x[j - 1]) / (y[j] - y[j - 1])
    return x_hi - x_lo


@dataclass(frozen=True)
class VoigtParams:
    """One Voigt line: center, component FWHMs, area amplitude, flat baseline."""

    center: float
    gaussian_fwhm: float
    lorentzian_fwhm: float
    amplitude: float
    baseline: float = 0.0

    def __post_init__(self):
        if self.gaussian_fwhm < 0 or self.lorentzian_fwhm < 0:
            raise DomainError("component FWHMs must be non-negative")
        if self.amplitude < 0:
            raise DomainError("amplitude must be non-negative")

    @property
    def sigma(self):
        return sigma_from_fwhm(self.gaussian_fwhm)

    @property
    def gamma(self):
        return gamma_from_fwhm(self.lorentzian_fwhm)

    @property
    def total_fwhm(self):
        return voigt_fwhm(self.gaussian_fwhm, self.lorentzian_fwhm)

    def evaluate(self, energy):
        """Model intensity on an energy grid (meV)."""
        energy = np.asarray(energy, dtype=float)
        profile = voigt_profile(energy - self.center, self.sigma, self.gamma)
        return self.baseline + self.amplitude * profile
