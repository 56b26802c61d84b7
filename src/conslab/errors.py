"""Exception types shared across the package.

Every precondition failure raises one of these with an actionable message
(what was violated, and where applicable the admissible range).
"""

import numbers

import numpy as np


class ConslabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(ConslabError, ValueError):
    """A constructor or catalogue parameter is outside its validity range."""


class DomainViolationError(ConslabError, ValueError):
    """A state left the admissible state domain of a system."""


class GeometryError(ConslabError, ValueError):
    """A requested geometric construction is inconsistent (e.g. an enlarged
    range box exits the state domain)."""


class UnsupportedGeometryError(ConslabError, ValueError):
    """The operation is only defined for a different spatial dimension."""


class ResolutionError(ConslabError, ValueError):
    """A scale parameter is not resolvable on the given lattice."""


class TestSupportError(ConslabError, ValueError):
    """A test function's support does not fit inside the lattice interior."""


class InconsistentShockError(ConslabError, ValueError):
    """A jump's per-component flux speeds disagree, so no single shock speed
    exists."""


class ConfigError(ConslabError, ValueError):
    """A run configuration failed schema validation or referenced an unknown
    catalogue entry."""


def _integer(value, what: str, least=None) -> int:
    """value as a non-bool int (>= least if given), else ParameterError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    value = value.__index__()
    if least is not None and value < least:
        raise ParameterError(f"{what} must be >= {least}, got {value}")
    return value


def _real(value, what: str):
    """value unchanged if it is a real number other than a bool, else
    ParameterError; the caller checks its range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{what} must be a real number, got {value!r}")
    return value


def _reals(value, what: str) -> np.ndarray:
    """value as an array of floats, else ParameterError; the caller checks
    its shape and range."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(
            f"{what} must be real numbers, got {value!r}") from None
