"""Lineshape analysis and dephasing-model fitting for quantum-emitter spectra.

Fits emission spectra with Voigt profiles, decomposes linewidths into a
temperature-independent Gaussian floor and a phonon-driven Lorentzian
component, fits and compares linewidth-vs-temperature models, and simulates
the emitting two-level system from stochastic trajectories.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, FitError, FormatError,
                     IllConditionedError, InsufficientDataError,
                     InsufficientDecayError, NoPeakError, NotConvergedError,
                     ParseError, QuadratureError, ZplkitError)
from .lineshape import (GAUSSIAN_FWHM_FACTOR, VoigtParams, gaussian_profile,
                        gamma_from_fwhm, grid_fwhm, invert_voigt_fwhm,
                        sigma_from_fwhm, voigt_fwhm, voigt_profile)
from .physics import (BOLTZMANN_MEV_PER_K, HBAR_MEV_PS,
                      REFERENCE_TEMPERATURE_K, AcousticDebye, CubicLaw,
                      DephasingModel, MODEL_KINDS, OpticalMode, bose_einstein,
                      debye_integral, make_model, reduced_debye_integral)
from .fitting import (LineshapeClassification, ModelComparison, SeriesFitResult,
                      SeriesModelFit, Spectrum, VoigtFit, analyze_series,
                      classify_lineshape, compare_models, extract_components,
                      fit_series, fit_voigt)
from .optimize import LeastSquaresResult, least_squares
from .simulate import (CoherenceTrace, SimulationConfig, analytic_coherence,
                       mc_coherence, simulate_spectrum, spectrum_from_coherence)
from .io_formats import (SeriesManifest, ManifestEntry,
                         generate_synthetic_series, load_manifest,
                         load_series, load_spectrum, save_manifest,
                         save_spectrum, write_result_record)
