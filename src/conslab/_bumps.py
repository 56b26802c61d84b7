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


def smoothstep_pair(s: np.ndarray) -> tuple:
    """C-infinity monotone transition and its derivative, (chi, dchi):
    chi is 0 for s <= 0 and 1 for s >= 1.  With a = exp(-1/s) and
    b = exp(-1/(1-s)) on (0, 1), chi = a/(a+b) and, since
    d/ds exp(-1/s) = exp(-1/s)/s^2, dchi = (a' b + a b') / (a+b)^2; each
    exponential is evaluated once, on the transition band only."""
    s = np.asarray(s, dtype=float)
    chi = np.zeros_like(s)
    dchi = np.zeros_like(s)
    chi[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    rm = 1.0 - sm
    a, b = np.exp(-1.0 / sm), np.exp(-1.0 / rm)
    da, db = a / (sm * sm), b / (rm * rm)
    chi[mid] = a / (a + b)
    dchi[mid] = (da * b + a * db) / (a + b) ** 2
    return chi, dchi
