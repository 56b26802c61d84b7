"""Shared smooth bump and transition profiles.

Everything here is built from the classic compactly supported profile
exp(-1/(1-r^2)) so that all derived objects (mollifier kernels, test
functions, compact-range cutoffs) are C-infinity with closed-form
derivatives.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.integrate import quad


def bump(r: np.ndarray) -> np.ndarray:
    """exp(-1/(1-r^2)) on |r| < 1, zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    s = r[inside]
    out[inside] = np.exp(-1.0 / (1.0 - s * s))
    return out


def bump_deriv(r: np.ndarray) -> np.ndarray:
    """Derivative of ``bump``: -2r/(1-r^2)^2 * bump(r)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    s = r[inside]
    one = 1.0 - s * s
    out[inside] = np.exp(-1.0 / one) * (-2.0 * s) / (one * one)
    return out


@lru_cache(maxsize=1)
def bump_line_integral() -> float:
    """Integral of ``bump`` over [-1, 1], used to normalize 1-d profiles."""
    val, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1.0, 1.0)
    return float(val)


def _g(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def _g_deriv(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = np.exp(-1.0 / s[pos]) / (s[pos] * s[pos])
    return out


def smoothstep(s: np.ndarray) -> np.ndarray:
    """C-infinity monotone transition: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    a, b = _g(sm), _g(1.0 - sm)
    out[mid] = a / (a + b)
    return out


def smoothstep_deriv(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    a, b = _g(sm), _g(1.0 - sm)
    da, db = _g_deriv(sm), _g_deriv(1.0 - sm)
    denom = (a + b) ** 2
    out[mid] = (da * b + a * db) / denom
    return out
