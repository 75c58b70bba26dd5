"""Exception types shared across the package, and the conversion,
finiteness, positivity and integer checks that input rules raise them
from."""

import numbers

import numpy as np


class ConfigurationError(ValueError):
    """Bad dimensions, non-positive weights, malformed config keys."""


class NumericalError(RuntimeError):
    """A numerical routine failed (eigensolver breakdown, non-PSD Gramian)."""


class SingularGramian(NumericalError):
    """The Gramian's least eigenvalue fell below the singular threshold."""


class GapViolation(NumericalError):
    """The uniform lower bound on the eigenvalues above the least one failed,
    so the cross terms of the eigenvalue derivative are not stably defined."""


class TrajectoryBlowup(NumericalError):
    """State trajectory escaped in finite time during integration."""

    def __init__(self, message, escape_time=None):
        super().__init__(message)
        self.escape_time = escape_time


class BadAnchor(ConfigurationError):
    """Initial domain point does not map close enough to the path start."""


class SingularStart(ConfigurationError):
    """Initial domain point lies in the singular set."""


class InvalidXi(ConfigurationError):
    """Power-law weight whose c is not positive and finite, or whose p is
    not a finite p <= 1, so the divergence requirement fails."""


def finite(values, what, error=ConfigurationError):
    """``values`` as a new float array; ``error`` unless all are finite."""
    try:
        out = np.array(values, dtype=float)
    except (ValueError, TypeError):
        raise error(f"{what} must be finite numbers, got {values!r}") from None
    if not np.isfinite(out).all():
        raise error(f"{what} must be finite")
    return out


def floats(values, name):
    """``values`` as a float array, with no copy where numpy makes none;
    ConfigurationError naming ``name`` unless they are real numbers
    (non-finite ones included)."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{name} must be real numbers: {exc}") from None


def integer(value, what):
    """``value`` as an int; ConfigurationError unless it is a Python or
    numpy integer (not a bool, a float or a string)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def positive(value, what):
    """``value`` as a float; ConfigurationError unless it is a positive
    finite real number (not a bool, a string or an array)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value < np.inf):
        raise ConfigurationError(
            f"{what} must be positive and finite, got {value!r}")
    return float(value)
