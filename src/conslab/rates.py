"""Log-log rate fitting and sequence extrapolation helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _reals


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit y ~ C * x**slope on log-log axes.

    ``residual`` is the RMS deviation of log(y) from the fit over the points
    actually used.  ``degenerate`` is set when fewer than two usable points
    remain (zero, negative or non-finite values are dropped), in which case
    slope/intercept/residual are NaN.
    """

    slope: float
    intercept: float
    residual: float
    x_min: float
    x_max: float
    n_points: int
    degenerate: bool = False


def fit_loglog(x, y, drop_endpoints: bool = False) -> RateFit:
    """Fit log(y) = slope*log(x) + intercept by least squares.

    Points with y <= 0 or non-finite x/y are excluded.  With
    ``drop_endpoints`` the first and last point of the (sorted-by-x) usable
    set are excluded as well, which suppresses boundary effects of dyadic
    sweeps.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError("fit_loglog expects two 1-d arrays of equal length")
    usable = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    xs, ys = x[usable], y[usable]
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    if drop_endpoints and xs.size >= 4:
        xs, ys = xs[1:-1], ys[1:-1]
    if xs.size < 2:
        return RateFit(np.nan, np.nan, np.nan,
                       float(xs.min()) if xs.size else np.nan,
                       float(xs.max()) if xs.size else np.nan,
                       int(xs.size), degenerate=True)
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return RateFit(float(slope), float(intercept), resid,
                   float(xs[0]), float(xs[-1]), int(xs.size))


def aitken_limit(values) -> float:
    """Aitken delta-squared extrapolation of the tail of a sequence.

    Uses the last three entries; falls back to the last entry when the
    second difference is too small for a stable update.
    """
    v = _reals(values, "aitken_limit values")
    v = v[np.isfinite(v)]
    if v.size == 0:
        return np.nan
    if v.size < 3:
        return float(v[-1])
    t0, t1, t2 = v[-3], v[-2], v[-1]
    denom = t2 - 2.0 * t1 + t0
    if abs(denom) < 1e-14 * (abs(t0) + abs(t1) + abs(t2) + 1e-300):
        return float(t2)
    return float(t2 - (t2 - t1) ** 2 / denom)
