"""Shared smooth bump and transition profiles.

Everything here is built from the classic compactly supported profile
exp(-1/(1-r^2)) so that all derived objects (mollifier kernels, test
functions, compact-range cutoffs) are C-infinity with closed-form
derivatives.  The line integral of the profile is a recorded constant,
the value scipy.integrate.quad returned for it, so the package never
imports scipy.integrate.
"""

from __future__ import annotations

import numpy as np


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


def bump_line_integral() -> float:
    """Integral of ``bump`` over [-1, 1], used to normalize 1-d profiles:
    0x1.c6a650a045c4ep-2, 14 ulp below the correctly rounded value."""
    return 0.44399381616807865


def smoothstep_pair(s: np.ndarray) -> tuple:
    """C-infinity monotone transition and its derivative, (chi, dchi):
    chi is 0 for s <= 0 and 1 for s >= 1.  With a = exp(-1/s) and
    b = exp(-1/(1-s)) on (0, 1), chi = a/(a+b) and, since
    d/ds exp(-1/s) = exp(-1/s)/s^2, dchi = (a' b + a b') / (a+b)^2; each
    exponential is evaluated once, on the transition band only.  Below
    s = 1e-3, a is 0 in double precision and so are chi and dchi; the band
    starts there, so s*s cannot underflow into a 0/0 derivative."""
    s = np.asarray(s, dtype=float)
    chi = np.zeros_like(s)
    dchi = np.zeros_like(s)
    chi[s >= 1.0] = 1.0
    mid = (s > 1e-3) & (s < 1.0)
    sm = s[mid]
    rm = 1.0 - sm
    a, b = np.exp(-1.0 / sm), np.exp(-1.0 / rm)
    da, db = a / (sm * sm), b / (rm * rm)
    chi[mid] = a / (a + b)
    dchi[mid] = (da * b + a * db) / (a + b) ** 2
    return chi, dchi
