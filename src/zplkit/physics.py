"""Phonon statistics and linewidth-vs-temperature dephasing models.

Units are fixed package-wide: energies in meV, temperatures in K, times in
ps.  Rates such as the output of `debye_integral` therefore carry (1/ps)^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .lineshape import voigt_fwhm
from .numerics import adaptive_gauss_kronrod

__all__ = [
    "BOLTZMANN_MEV_PER_K", "HBAR_MEV_PS", "REFERENCE_TEMPERATURE_K",
    "bose_einstein", "reduced_debye_integral", "debye_integral",
    "AcousticDebye", "CubicLaw", "OpticalMode",
    "DephasingModel", "MODEL_KINDS", "SHAPE_DEFAULTS", "check_shape",
    "make_model",
]

BOLTZMANN_MEV_PER_K = 8.617333262e-2   # CODATA 2018
HBAR_MEV_PS = 6.582119569e-1           # CODATA 2018

# The acoustic model amplitude is defined as the Lorentzian FWHM at this
# temperature, which makes fitted amplitudes directly readable in meV.
REFERENCE_TEMPERATURE_K = 270.0

# x^2 e^x/(e^x-1)^2 < 4e-23 beyond this; the remainder is bounded
# analytically instead of integrated.
_TAIL_CUTOFF = 60.0


def bose_einstein(energy, temperature):
    """Thermal occupation 1/(exp(E/kT) - 1); exactly 0 at T = 0."""
    if not energy > 0:
        raise DomainError(f"energy must be > 0, got {energy}")
    if temperature < 0:
        raise DomainError(f"temperature must be >= 0, got {temperature}")
    kt = BOLTZMANN_MEV_PER_K * temperature
    if energy > 746.0 * kt:  # exp(-E/kT) is 0.0; E/kT itself may overflow
        return 0.0
    x = energy / kt
    if x > 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def _reduced_integrand(x):
    # x^2 e^x/(e^x - 1)^2 on [0, _TAIL_CUTOFF].  The (x/expm1(x))^2 form
    # avoids underflow of x^2 for tiny arguments.  x = 0 is read as the
    # smallest subnormal, where expm1(x) = x: its limit of 1 exactly, with
    # no 0/0.
    x = np.maximum(x, 5e-324)
    e = np.expm1(x)
    ratio = x / e
    return ratio * ratio * (e + 1.0)


# Far above the ~280 limits a `series --curves-dir` run needs, so no key is
# evicted within one command, yet bounded for a long-lived process.
@lru_cache(maxsize=4096)
def _reduced_debye_cached(x_max, rel_tol):
    x_cut = min(x_max, _TAIL_CUTOFF)
    value, err = adaptive_gauss_kronrod(
        _reduced_integrand, 0.0, x_cut, rel_tol=rel_tol, abs_tol=1e-30,
        initial_intervals=8)
    if x_max > x_cut:
        # integrand <= x^2 e^-x / (1 - e^-60)^2 there; integrate the bound
        c = _TAIL_CUTOFF
        tail = math.exp(-c) * (c * c + 2.0 * c + 2.0) / (1.0 - math.exp(-c)) ** 2
        err += tail
    return value, err


def reduced_debye_integral(x_max, rel_tol=1e-10):
    """Dimensionless integral of x^2 e^x/(e^x-1)^2 from 0 to x_max.

    Returns (value, error_bound).  Tends to pi^2/3 as x_max -> infinity.
    """
    if not x_max > 0:
        raise DomainError(f"upper limit must be > 0, got {x_max}")
    return _reduced_debye_cached(float(x_max), float(rel_tol))


def debye_integral(temperature, debye_temperature):
    """Acoustic dephasing integral over the phonon band, in (1/ps)^3.

    Equals (kT/hbar)^3 times the reduced integral up to x_D = theta_D / T;
    zero at T = 0.
    """
    if temperature < 0:
        raise DomainError(f"temperature must be >= 0, got {temperature}")
    if not debye_temperature > 0:
        raise DomainError(
            f"Debye temperature must be > 0, got {debye_temperature}")
    if temperature == 0:
        return 0.0
    # theta_D / T overflows for a subnormal T; inf takes the same tail branch
    x_d = (math.inf if temperature < 1e-300 * debye_temperature
           else debye_temperature / temperature)
    value, _ = reduced_debye_integral(x_d)
    rate = BOLTZMANN_MEV_PER_K * temperature / HBAR_MEV_PS
    return rate ** 3 * value


class DephasingModel:
    """Lorentzian FWHM = amplitude * basis(T), over a constant Gaussian floor.
    Each kind declares its `kind`, a scalar unit-amplitude `basis(T)`, and
    its `shape` parameters mapped to their result-record keys."""

    shape = {}

    def __post_init__(self):
        # `not x >= 0` rather than `x < 0`, so that NaN fails too
        if not (self.amplitude >= 0 and self.gaussian_floor >= 0):
            raise DomainError("amplitude and gaussian_floor must be >= 0")
        for name in self.shape:
            check_shape(name, getattr(self, name))

    def lorentzian_fwhm(self, temperature):
        value = self.amplitude * self.basis(temperature)
        if not math.isfinite(value):  # float products overflow silently
            raise OverflowError(f"Lorentzian FWHM {value} at {temperature:g} K")
        return value

    def total_fwhm(self, temperature):
        return voigt_fwhm(self.gaussian_floor, self.lorentzian_fwhm(temperature))

    def shape_values(self):
        """The shape parameters as {attribute name: value}."""
        return {name: getattr(self, name) for name in self.shape}


@dataclass(frozen=True)
class AcousticDebye(DephasingModel):
    """Acoustic-band dephasing with a finite Debye cutoff.

    `amplitude` is the Lorentzian FWHM (meV) the model produces at the
    270 K reference temperature.
    """

    amplitude: float
    debye_temperature: float = 600.0
    gaussian_floor: float = 0.0

    kind = "acoustic_debye"
    shape = {"debye_temperature": "debye_temperature_K"}

    def basis(self, temperature):
        # looked up at call time, so a wrapper on the module attribute sees it
        ref = debye_integral(REFERENCE_TEMPERATURE_K, self.debye_temperature)
        return debye_integral(temperature, self.debye_temperature) / ref


@dataclass(frozen=True)
class CubicLaw(DephasingModel):
    """Low-temperature limit: Lorentzian FWHM = amplitude * T^3 (meV/K^3)."""

    amplitude: float
    gaussian_floor: float = 0.0

    kind = "cubic_law"

    def basis(self, temperature):
        if temperature < 0:
            raise DomainError(f"temperature must be >= 0, got {temperature}")
        return temperature ** 3


@dataclass(frozen=True)
class OpticalMode(DephasingModel):
    """Single optical-phonon dephasing: FWHM = amplitude * n(E0)[n(E0)+1]."""

    amplitude: float
    phonon_energy: float = 18.0
    gaussian_floor: float = 0.0

    kind = "optical_mode"
    shape = {"phonon_energy": "phonon_energy_meV"}

    def basis(self, temperature):
        n = bose_einstein(self.phonon_energy, temperature)
        return n * (n + 1.0)


MODEL_KINDS = {cls.kind: cls for cls in (AcousticDebye, CubicLaw, OpticalMode)}

SHAPE_DEFAULTS = {f.name: f.default for cls in MODEL_KINDS.values()
                  for f in fields(cls) if f.name in cls.shape}


def check_shape(name, value):
    """Raise DomainError unless shape parameter `name` is > 0 and finite."""
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be > 0 and finite")


def make_model(kind, amplitude, *, gaussian_floor=0.0, **shape) -> DephasingModel:
    """Construct a dephasing model by kind name.  Shape parameters the kind
    does not take are ignored; one given as None takes its default."""
    if not set(shape) <= set(SHAPE_DEFAULTS):
        raise TypeError(f"unknown shape parameter among {sorted(shape)}")
    cls = MODEL_KINDS.get(kind)
    if cls is None:
        raise DomainError(f"unknown model kind {kind!r}")
    return cls(amplitude, gaussian_floor=gaussian_floor,
               **{name: shape[name] for name in cls.shape
                  if shape.get(name) is not None})
