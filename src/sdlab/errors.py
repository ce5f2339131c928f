"""Error taxonomy shared by the whole package.

Every failure mode maps to one exception type, so callers (and the CLI's
exit codes) can dispatch on class alone.
"""

from __future__ import annotations

import numbers
import sys

__all__ = ["SdlabError", "InvalidInputError", "DivergenceError",
           "InsufficientDataError", "InfeasibleError", "NoSolutionError",
           "ResourceError", "DegenerateConfigurationError"]


class SdlabError(Exception):
    """Base class for package errors."""


class InvalidInputError(SdlabError, ValueError):
    """Argument outside its documented domain."""


class DivergenceError(SdlabError):
    """State sequence diverged: step is the 1-based step of detection, (u, v)
    the last finite state (nan when the caller tracked none) and trajectory
    the partial trajectory up to that step, when available."""

    def __init__(self, message, step, u=float("nan"), v=float("nan"),
                 trajectory=None):
        super().__init__(message)
        self.step = int(step)
        self.u = float(u)
        self.v = float(v)
        self.trajectory = trajectory


class InsufficientDataError(SdlabError, ValueError):
    """Too few data points for the requested computation."""


class InfeasibleError(SdlabError):
    """A required parameter inequality is violated; bound names it, one of
    "lowerc", "lambda2", "eps2" and "gamma-range"."""

    def __init__(self, bound, message):
        super().__init__(message)
        self.bound = str(bound)


class NoSolutionError(SdlabError, ValueError):
    """Inverse mapping has no solution in the admissible interval."""


class ResourceError(SdlabError):
    """Requested tolerance unreachable within the configured resource cap."""


class DegenerateConfigurationError(SdlabError):
    """A search cannot start because its trivial endpoint already fails."""


# float64 values one numpy array can index
_MAX_FLOATS = sys.maxsize // 8


def _check_array_len(n, what: str):
    """n, if an array of n float64 values can exist; else ResourceError."""
    if not n < _MAX_FLOATS:
        raise ResourceError(f"{n:.3g} {what}: more than one array can hold")
    return n


def _check_count(n, lo: int, what: str):
    """n, if an integer >= lo (numpy's too, not a bool); else InvalidInputError."""
    if isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= lo:
        return n
    raise InvalidInputError(f"{what} must be an integer >= {lo}, got {n!r}")
