"""Gaussian and Voigt profiles plus FWHM algebra; the Voigt profile with
sigma = 0 is the Lorentzian.

All profiles are unit-area densities (1/meV); a fitted amplitude multiplies
the density, so peak height is amplitude * profile(0).  Area rather than peak
normalization is used because area is what broadening conserves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import faddeeva, faddeeva_derivatives

__all__ = [
    "GAUSSIAN_FWHM_FACTOR", "VoigtParams", "gaussian_profile",
    "voigt_profile", "voigt_value_and_derivatives", "voigt_fwhm",
    "voigt_fwhm_partials", "invert_voigt_fwhm", "grid_fwhm",
    "sigma_from_fwhm", "gamma_from_fwhm",
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
    if np.count_nonzero(np.fmin(gaussian_fwhm, lorentzian_fwhm) < 0):
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
