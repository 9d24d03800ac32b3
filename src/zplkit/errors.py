"""Exception types shared across the package.

The command line reports a FitError as a fit failure (exit code 2) and any
other ZplkitError as a parse error (exit code 1).
"""


class ZplkitError(Exception):
    """Base class for every package-specific error."""


class DomainError(ZplkitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureError(ZplkitError):
    """Adaptive quadrature could not reach the requested tolerance."""


class FitError(ZplkitError):
    """Base class for fitting failures."""


class NoPeakError(FitError):
    """The input spectrum has no discernible peak above the noise floor."""


class NotConvergedError(FitError):
    """The optimizer hit its iteration cap before converging."""


class IllConditionedError(FitError):
    """The normal equations are singular or produced non-finite values."""


class InsufficientDataError(FitError):
    """Too few data points for the requested fit."""


class FormatError(ZplkitError):
    """Base class for file-format errors."""


class ParseError(FormatError):
    """A file field could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ConfigError(ZplkitError, ValueError):
    """An invalid simulation or pipeline configuration."""


class InsufficientDecayError(FitError):
    """A coherence trace has not decayed enough for a windowed transform."""
