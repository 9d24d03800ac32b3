"""Voigt fits of emission spectra, lineshape classification, and
temperature-series dephasing-model fits with AIC model comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import physics
from .errors import (DomainError, InsufficientDataError, NoPeakError,
                     NotConvergedError)
from .lineshape import (GAUSSIAN_FWHM_FACTOR, VoigtParams, gamma_from_fwhm,
                        grid_fwhm, invert_voigt_fwhm, sigma_from_fwhm,
                        voigt_fwhm, voigt_fwhm_partials, voigt_profile,
                        voigt_value_and_derivatives)
from .optimize import least_squares

__all__ = [
    "Spectrum", "VoigtFit", "LineshapeClassification", "SeriesModelFit",
    "ModelComparison", "SeriesFitResult",
    "fit_voigt", "classify_lineshape", "extract_components",
    "lorentzian_parts", "fit_series", "compare_models", "analyze_series",
    "build_voigt_problem", "build_series_problem",
]

@dataclass(frozen=True)
class Spectrum:
    """One emission spectrum: ascending energy grid, counts, temperature tag."""

    energy: np.ndarray
    intensity: np.ndarray
    temperature: float = 0.0
    emitter_id: str = ""
    source_sha256: str = ""  # of the file read; empty when built in code

    def __post_init__(self):
        energy = np.asarray(self.energy, dtype=float).copy()
        intensity = np.asarray(self.intensity, dtype=float).copy()
        if energy.ndim != 1 or intensity.ndim != 1:
            raise DomainError("energy and intensity must be 1-d arrays")
        if energy.size != intensity.size:
            raise DomainError("energy and intensity lengths differ")
        if energy.size < 20:
            raise DomainError(f"need >= 20 points, got {energy.size}")
        if not np.all(np.isfinite(energy)) or not np.all(np.isfinite(intensity)):
            raise DomainError("energy and intensity must be finite")
        if np.any(np.diff(energy) <= 0):
            raise DomainError("energy grid must be strictly increasing")
        if np.any(intensity < 0):
            raise DomainError("intensities must be non-negative")
        if not (np.isfinite(self.temperature) and self.temperature >= 0):
            raise DomainError("temperature must be finite and >= 0")
        energy.setflags(write=False)
        intensity.setflags(write=False)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "intensity", intensity)

    @property
    def n_points(self):
        return self.energy.size


@dataclass(frozen=True)
class VoigtFit:
    """Converged Voigt fit: parameters, 1-sigma uncertainties, residual info."""

    params: VoigtParams
    uncertainties: VoigtParams
    rss: float
    n_points: int
    converged: bool
    n_iterations: int
    mode: str = "voigt"

    @property
    def total_fwhm(self):
        return voigt_fwhm(self.params.gaussian_fwhm, self.params.lorentzian_fwhm)


@dataclass(frozen=True)
class LineshapeClassification:
    label: str  # "gaussian" | "lorentzian" | "ambiguous"
    rss_ratio: float
    fit_gaussian: VoigtFit
    fit_lorentzian: VoigtFit


@dataclass(frozen=True)
class SeriesModelFit:
    model: physics.DephasingModel
    rss: float
    n_free: int
    n_iterations: int

    @property
    def kind(self):
        return self.model.kind


@dataclass(frozen=True)
class ModelComparison(SeriesModelFit):
    aic: float
    delta_aic: float


@dataclass(frozen=True)
class SeriesFitResult:
    per_temperature: tuple
    comparisons: tuple
    gaussian_floor: float

    @property
    def best_model(self):
        return self.comparisons[0].kind


# ---------------------------------------------------------------------------
# per-spectrum Voigt fitting
# ---------------------------------------------------------------------------

# Free width parameters per fit mode, with the kernel partial each one
# needs and its chain factor.  The Gaussian width enters as f_G^2: the
# profile is even in sigma, so at f_G = 0 every f_G-derivative vanishes
# and a fit that reached that bound could never leave it, while d/d(f_G^2)
# is finite there.  A width not listed is pinned at zero.
_MODE_WIDTHS = {
    "voigt": ("gaussian", "lorentzian"),
    "gaussian": ("gaussian",),
    "lorentzian": ("lorentzian",),
}
_WIDTH_PARTIAL = {"gaussian": ("variance", 1.0 / GAUSSIAN_FWHM_FACTOR ** 2),
                  "lorentzian": ("gamma", 0.5)}


def build_voigt_problem(spectrum, mode="voigt", weighted=True):
    """Residual and Jacobian closures for the damped least-squares engine.

    Parameters are (center, widths..., amplitude, baseline); the widths
    are the mode's free components, as gaussian_fwhm**2 and
    lorentzian_fwhm, both bounded below by zero.  Exposed so tests can
    verify the analytic Jacobian against central finite differences.
    Residuals are sqrt(w) * (model - intensity) with Poisson weights
    w = 1/max(I, 1) unless `weighted` is False.  The Faddeeva values of
    the latest residual evaluation are kept until the next evaluation, so
    the Jacobian at the point just accepted reuses them.
    """
    if mode not in _MODE_WIDTHS:
        raise DomainError(f"unknown fit mode {mode!r}")
    widths = _MODE_WIDTHS[mode]
    columns = ("x",) + tuple(_WIDTH_PARTIAL[name][0] for name in widths)
    energy = spectrum.energy
    intensity = spectrum.intensity
    sqrt_w = (1.0 / np.sqrt(np.maximum(intensity, 1.0)) if weighted
              else np.ones_like(intensity))
    latest = {}

    def unpack(p):
        """(center, gaussian_fwhm, lorentzian_fwhm, amplitude, baseline)."""
        width = dict(zip(widths, p[1:-2]))
        if min(width.values()) < 0:
            raise DomainError("widths must be non-negative")
        return (p[0], math.sqrt(width.get("gaussian", 0.0)),
                width.get("lorentzian", 0.0), p[-2], p[-1])

    def profile(p, wanted):
        center, f_g, f_l, _, _ = unpack(p)
        key = tuple(p)
        w = latest.pop(key, None)
        latest.clear()  # before the evaluation: one w is held at a time
        value, partials, w = voigt_value_and_derivatives(
            energy - center, sigma_from_fwhm(f_g), gamma_from_fwhm(f_l),
            columns=wanted, w=w)
        if not wanted:  # a residual: the Jacobian may follow at its point
            latest[key] = w
        return value, partials

    def residual(p):
        try:
            value, _ = profile(p, ())
        except DomainError:
            return np.full(energy.size, np.inf)
        amplitude, baseline = p[-2], p[-1]
        return sqrt_w * (baseline + amplitude * value - intensity)

    def jacobian(p):
        value, (d_dx, *d_widths) = profile(p, columns)
        amplitude = p[-2]
        # filled column by column, each entry the product np.stack gave
        jac = np.empty((value.size, len(p)))
        np.multiply(-amplitude, d_dx, out=jac[:, 0])
        for j, (name, d) in enumerate(zip(widths, d_widths), start=1):
            np.multiply(amplitude * _WIDTH_PARTIAL[name][1], d, out=jac[:, j])
        jac[:, -2], jac[:, -1] = value, 1.0
        return np.multiply(jac, sqrt_w[:, None], out=jac)

    return residual, jacobian, unpack


def _robust_outer_stats(intensity):
    k = max(2, intensity.size // 10)
    outer = np.concatenate([intensity[:k], intensity[-k:]])
    baseline = float(np.median(outer))
    noise = 1.4826 * float(np.median(np.abs(outer - baseline)))
    return baseline, noise


def _initial_guess(spectrum):
    energy = spectrum.energy
    intensity = spectrum.intensity
    baseline, noise = _robust_outer_stats(intensity)
    peak = float(intensity.max())
    if not peak > baseline + 5.0 * noise:
        raise NoPeakError(
            f"peak {peak:.4g} not above baseline {baseline:.4g} "
            f"+ 5 * noise {noise:.4g}")
    excess = np.clip(intensity - baseline, 0.0, None)
    total = float(excess.sum())
    if total <= 0:
        raise NoPeakError("no intensity above the baseline estimate")
    center = float((energy * excess).sum() / total)
    variance = float((((energy - center) ** 2) * excess).sum() / total)
    span = float(energy[-1] - energy[0])
    min_width = 4.0 * float(np.median(np.diff(energy)))
    width = float(np.clip(GAUSSIAN_FWHM_FACTOR * math.sqrt(max(variance, 0.0)),
                          min_width, span / 2.0))
    # the second moment is window-dominated for Lorentzian wings; cap it
    # with the measured FWHM when the half-max crossings are on the grid
    try:
        width = min(width, 1.5 * grid_fwhm(energy, excess))
    except DomainError:
        pass
    width = max(width, min_width)
    half = width / 2.0
    amp = (peak - baseline) / voigt_profile(
        0.0, sigma_from_fwhm(half), gamma_from_fwhm(half))
    return VoigtParams(center, half, half, float(max(amp, 1e-30)), baseline)


def fit_voigt(spectrum, init: Optional[VoigtParams] = None, weighted=True,
              mode="voigt") -> VoigtFit:
    """Fit one Voigt line (plus flat baseline) to a spectrum.

    One solve of the projected damped least-squares engine under the
    bounds f_G >= 0 and f_L >= 0, with no restarts: a pure shape ends
    exactly on its bound.  The Lorentzian width is fitted as f_L and the
    Gaussian one as f_G**2, in which the profile is smooth down to zero
    (see build_voigt_problem).  `mode` restricts the shape: "gaussian"
    pins the Lorentzian FWHM to zero, "lorentzian" pins the Gaussian FWHM
    to zero.  A width pinned by the mode or ending on its bound was not
    estimated: its uncertainty is infinite.

    Raises NoPeakError for structureless input and NotConvergedError when
    the iteration cap is hit.
    """
    if init is None:
        init = _initial_guess(spectrum)
    residual, jacobian, unpack = build_voigt_problem(spectrum, mode, weighted)
    widths = _MODE_WIDTHS[mode]
    if mode == "voigt":
        start = [init.gaussian_fwhm ** 2, init.lorentzian_fwhm]
    else:
        total = init.gaussian_fwhm + init.lorentzian_fwhm
        start = [total ** 2 if mode == "gaussian" else total]
    p0 = [init.center, *start, init.amplitude, init.baseline]
    lower = [-math.inf] + [0.0] * len(widths) + [-math.inf, -math.inf]
    result = least_squares(residual, jacobian, p0, lower=lower)
    if not result.converged:
        raise NotConvergedError(
            f"Voigt fit hit the {result.n_iterations}-iteration cap")
    center, f_g, f_l, amplitude, baseline = unpack(result.params)
    if amplitude <= 0:
        raise NoPeakError("fit collapsed to a non-positive amplitude")
    sd = np.sqrt(np.clip(np.diag(result.covariance), 0.0, None))
    # a width pinned by the mode, or on its bound, has infinite uncertainty
    errs = {"gaussian": math.inf, "lorentzian": math.inf}
    errs.update(zip(widths, sd[1:-2]))
    if f_g > 0:
        errs["gaussian"] /= 2.0 * f_g  # from the error of f_G^2
    return VoigtFit(
        params=VoigtParams(center, f_g, f_l, amplitude, baseline),
        uncertainties=VoigtParams(sd[0], errs["gaussian"],
                                  errs["lorentzian"], sd[-2], sd[-1]),
        rss=result.rss, n_points=spectrum.n_points, converged=True,
        n_iterations=result.n_iterations, mode=mode)


def classify_lineshape(spectrum, weighted=True) -> LineshapeClassification:
    """Pure-Gaussian vs pure-Lorentzian fit comparison.

    Returns the lower-RSS class when the RSS ratio exceeds 1.2, otherwise
    "ambiguous".
    """
    fit_g = fit_voigt(spectrum, weighted=weighted, mode="gaussian")
    fit_l = fit_voigt(spectrum, weighted=weighted, mode="lorentzian")
    low = min(fit_g.rss, fit_l.rss)
    high = max(fit_g.rss, fit_l.rss)
    ratio = high / max(low, 5e-324)
    if ratio > 1.2:
        label = "gaussian" if fit_g.rss < fit_l.rss else "lorentzian"
    else:
        label = "ambiguous"
    return LineshapeClassification(label=label, rss_ratio=ratio,
                                   fit_gaussian=fit_g, fit_lorentzian=fit_l)


def extract_components(fits: Sequence[tuple]):
    """Split per-temperature fits into a Gaussian floor and Lorentzian widths.

    `fits` is a sequence of (temperature, VoigtFit).  A single
    inverse-variance-weighted Gaussian floor is shared by all fits, and each
    Lorentzian component is recomputed from the fit's total FWHM under it.
    Returns (floor, [(T, f_L), ...]).
    """
    if len(fits) < 3:
        raise InsufficientDataError(
            f"need >= 3 temperatures, got {len(fits)}")
    ordered = sorted(fits, key=lambda tf: tf[0])
    temps = [t for t, _ in ordered]
    if any(b <= a for a, b in zip(temps, temps[1:])):
        raise DomainError("temperatures must be distinct")

    fg = np.array([f.params.gaussian_fwhm for _, f in ordered])
    sd = np.array([f.uncertainties.gaussian_fwhm for _, f in ordered])
    totals = np.array([f.total_fwhm for _, f in ordered])
    # relative uncertainty floor keeps noiseless fits equally weighted and
    # drops boundary-pinned components (infinite uncertainty) entirely
    floor_sd = 1e-6 * np.maximum(totals, 1e-12)
    weights = 1.0 / (sd ** 2 + floor_sd ** 2)
    if not weights.sum() > 0:
        raise InsufficientDataError(
            "no fit constrains the Gaussian component")
    floor = float((weights * fg).sum() / weights.sum())
    return floor, lorentzian_parts(zip(temps, totals), floor)


def lorentzian_parts(totals, floor):
    """(T, f_L) pairs of (T, total FWHM) pairs under a shared Gaussian floor;
    a total below the floor has no Lorentzian part."""
    return [(t, invert_voigt_fwhm(max(total, floor), floor))
            for t, total in totals]


# ---------------------------------------------------------------------------
# temperature-series model fits
# ---------------------------------------------------------------------------

def build_series_problem(temperatures, values, kind, *, quantity="total",
                         gaussian_floor=0.0, fit_floor=False, **shape):
    """Residual/Jacobian closures for a linewidth-vs-temperature model fit.

    Exposed for the same reason as build_voigt_problem: the analytic
    Jacobian is part of the engine contract and is checked against central
    finite differences.  Parameters are [amplitude] plus [floor] when
    `fit_floor`, both meant to be bounded below by zero; `shape` goes to
    physics.make_model as it is.
    """
    temps = np.asarray(temperatures, dtype=float)
    y = np.asarray(values, dtype=float)
    unit = physics.make_model(kind, 1.0, **shape)
    basis = np.array([unit.lorentzian_fwhm(t) for t in temps])

    def unpack(p):
        return p[0], (p[1] if fit_floor else gaussian_floor)

    def residual(p):
        amplitude, floor = unpack(p)
        f_l = amplitude * basis
        return (voigt_fwhm(floor, f_l) if quantity == "total" else f_l) - y

    def jacobian(p):
        amplitude, floor = unpack(p)
        f_l = amplitude * basis
        if quantity == "total":
            d_fg, d_fl = voigt_fwhm_partials(floor, f_l)
        else:
            d_fl, d_fg = np.ones_like(f_l), np.zeros_like(f_l)
        columns = [d_fl * basis]
        if fit_floor:
            columns.append(d_fg)
        return np.stack(columns, axis=1)

    return residual, jacobian, unpack, basis


def fit_series(points, kind, *, quantity="total", gaussian_floor=0.0,
               fit_floor=False, **shape) -> SeriesModelFit:
    """Fit one dephasing model to (temperature, linewidth) data.

    `quantity` states explicitly what the y-values are: "total" fits the
    combined Voigt FWHM (Gaussian floor included, fixed to `gaussian_floor`
    or fitted when `fit_floor`), "lorentzian" fits the bare Lorentzian
    component.  Only amplitudes (and optionally the floor) are free; the
    shape parameters are fixed, as physics.make_model takes them.
    """
    if quantity not in ("total", "lorentzian"):
        raise DomainError(f"unknown quantity {quantity!r}")
    if quantity == "lorentzian" and fit_floor:
        raise DomainError("the Gaussian floor does not enter a bare "
                          "Lorentzian-component fit")
    pts = sorted((float(t), float(y)) for t, y in points)
    n = len(pts)
    n_free = 1 + int(fit_floor)
    if n < 3 or n <= n_free:
        raise InsufficientDataError(
            f"{n} points cannot constrain {n_free} free parameter(s); "
            "need at least 3 points and more points than parameters")
    temps = np.array([t for t, _ in pts])
    y = np.array([v for _, v in pts])
    residual, jacobian, unpack, basis = build_series_problem(
        temps, y, kind, quantity=quantity, gaussian_floor=gaussian_floor,
        fit_floor=fit_floor, **shape)

    if fit_floor and not gaussian_floor > 0:
        floor0 = float(y.min())  # lowest-T total width approximates the floor
    else:
        floor0 = float(gaussian_floor)
    i_ref = int(np.argmax(basis))
    if basis[i_ref] <= 0:
        raise DomainError("model basis vanishes at every temperature")
    # the Lorentzian part of the width where the basis is largest
    f_l0 = (invert_voigt_fwhm(max(y[i_ref], floor0), floor0)
            if quantity == "total" else y[i_ref])
    p0 = [f_l0 / basis[i_ref]] + ([floor0] if fit_floor else [])
    result = least_squares(residual, jacobian, p0, lower=[0.0] * len(p0))
    if not result.converged:
        raise NotConvergedError(
            f"series fit hit the {result.n_iterations}-iteration cap")
    amplitude, floor = unpack(result.params)
    model = physics.make_model(kind, amplitude, gaussian_floor=floor, **shape)
    return SeriesModelFit(model=model, rss=result.rss, n_free=n_free,
                          n_iterations=result.n_iterations)


def compare_models(points, kinds=physics.MODEL_KINDS, **fit_kwargs):
    """Fit each candidate model to the same data and rank by AIC.

    AIC = n*ln(rss/n) + 2k.  Ties break toward fewer parameters, then
    declaration order.  Returns ModelComparison rows, best first.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise InsufficientDataError("need at least one candidate model")
    points = [(float(t), float(y)) for t, y in points]
    n = len(points)
    rows = []
    for index, kind in enumerate(kinds):
        fit = fit_series(points, kind, **fit_kwargs)
        aic = (n * math.log(fit.rss / n) + 2 * fit.n_free
               if fit.rss > 0 else -math.inf)
        rows.append((aic, fit.n_free, index, fit))
    rows.sort(key=lambda row: row[:3])
    best = rows[0][0]
    return [ModelComparison(**vars(fit), aic=aic,
                            delta_aic=0.0 if aic == best else aic - best)
            for aic, _, _, fit in rows]


def analyze_series(series, *, quantity="total", gaussian_floor=None,
                   weighted=True, **shape) -> SeriesFitResult:
    """Full pipeline on (temperature, Spectrum) pairs.

    Per-spectrum Voigt fits, shared-floor component extraction, then all
    candidate models fitted and ranked on the requested quantity.  Pass
    `gaussian_floor` to override the estimated shared floor; `shape` goes
    to every model fit, as in fit_series.
    """
    if quantity not in ("total", "lorentzian"):
        raise DomainError(f"unknown quantity {quantity!r}")
    ordered = sorted(series, key=lambda ts: ts[0])
    fits = tuple((t, fit_voigt(s, weighted=weighted)) for t, s in ordered)
    floor_est, _ = extract_components(fits)
    floor = floor_est if gaussian_floor is None else float(gaussian_floor)
    points = [(t, f.total_fwhm) for t, f in fits]
    if quantity == "lorentzian":
        points = lorentzian_parts(points, floor)
    comparisons = tuple(compare_models(
        points, quantity=quantity, gaussian_floor=floor, **shape))
    return SeriesFitResult(per_temperature=fits, comparisons=comparisons,
                           gaussian_floor=floor)
