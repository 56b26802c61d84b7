"""Companion-law accounting for discrete weak solutions.

weak_residual_system integrates G(U) : D_X psi, which vanishes (up to
grid error) exactly when U is a weak solution.  weak_residual_companion
integrates -Q(U) . D_X psi; for shocks it converges to the jump defect

    s [[Q_0]] - [[Q_1]],        [[a]] = a(U_left) - a(U_right),

which shock_dissipation_rate evaluates in closed form.  Shock speeds come
from the jump conditions per flux row; a companion-law speed computed the
same way generally disagrees, and that mismatch is the per-shock measure
of companion-law failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (InconsistentShockError, ParameterError,
                     UnsupportedGeometryError)
from .fields import Field
from .systems import SystemSpec, require_in_domain, require_states
from .testfunctions import TestFunction

_SPEED_TOL = 1e-10


def _flux_quadrature(field: Field, flux: np.ndarray,
                     testfns: Sequence[TestFunction]) -> list:
    """Node quadrature of flux . D_X psi per test function, against the
    node mean of D_X psi; flux is per node, with a trailing axis k + 1."""
    vol = field.node_volume
    out = []
    for tf in testfns:
        _psi, dpsi = tf.evaluate(field.lattice, field.periodic_time)
        out.append(float(np.sum(flux * field.node_mean(dpsi)) * vol))
    return out


def weak_residual_system(system: SystemSpec, field: Field,
                         testfns: Sequence[TestFunction]) -> list:
    """Lattice quadrature of G(U) : D_X psi per test function, summed over
    the field's nodes against the node mean of D_X psi.

    Scalar test functions are applied to every state row alike.
    """
    require_states(system, field, "weak_residual_system field")
    row_sum = np.einsum("...ij->...j", system.G(field.nodes))
    return _flux_quadrature(field, row_sum, testfns)


def weak_residual_companion(system: SystemSpec, field: Field,
                            testfns: Sequence[TestFunction]) -> list:
    """Lattice quadrature of -Q(U) . D_X psi per test function."""
    require_states(system, field, "weak_residual_companion field")
    # negation is exact: these are the bits of -sum(Q . D_X psi)
    return [-r for r in _flux_quadrature(field, system.Q(field.nodes),
                                         testfns)]


@dataclass(frozen=True)
class RankineHugoniot:
    """Jump-condition speeds for a two-state 1-d shock.

    speeds[i] = [[G_{i,1}]] / [[G_{i,0}]] per state row (NaN for rows with
    no jump in either flux).  consistent is True when all defined row
    speeds agree to a relative 1e-10, in which case `speed` is their mean.
    companion_speed applies the same quotient to the companion flux pair;
    mismatch = companion_speed - speed.
    """

    speeds: np.ndarray
    consistent: bool
    speed: float
    companion_speed: float
    mismatch: float


def rankine_hugoniot_speed(system: SystemSpec, U_left, U_right) -> RankineHugoniot:
    """Per-row shock speeds of the jump U_left -> U_right, plus the
    companion-law speed computed from the same jump."""
    if system.k != 1:
        raise UnsupportedGeometryError(
            f"jump conditions implemented for k = 1, got k={system.k}")
    U_left = np.asarray(U_left, dtype=float).reshape(-1)
    U_right = np.asarray(U_right, dtype=float).reshape(-1)
    if U_left.shape != (system.n,) or U_right.shape != (system.n,):
        raise ParameterError(f"states must have shape ({system.n},)")
    if np.array_equal(U_left, U_right):
        raise ParameterError("U_left equals U_right: no jump")
    require_in_domain(system.domain, U_left[None, :], "rankine_hugoniot U_left")
    require_in_domain(system.domain, U_right[None, :], "rankine_hugoniot U_right")

    dG = system.G(U_left) - system.G(U_right)
    scale = float(np.max(np.abs(dG)))
    atol = 1e-12 * max(scale, 1.0)
    speeds = np.full(system.n, np.nan)
    for i in range(system.n):
        dt_flux, dx_flux = dG[i, 0], dG[i, 1]
        if abs(dt_flux) <= atol:
            if abs(dx_flux) > atol:
                raise InconsistentShockError(
                    f"row {i}: temporal flux does not jump but the spatial "
                    f"flux jumps by {dx_flux:g}; no finite speed exists")
            continue
        speeds[i] = dx_flux / dt_flux

    defined = speeds[np.isfinite(speeds)]
    if defined.size == 0:
        raise InconsistentShockError("no flux row jumps; not a shock")
    mean = float(np.mean(defined))
    consistent = bool(np.all(np.abs(defined - mean)
                             <= _SPEED_TOL * (1.0 + abs(mean))))
    speed = mean if consistent else float("nan")

    dQ = system.Q(U_left) - system.Q(U_right)
    qscale = max(float(np.max(np.abs(dQ))), 1.0)
    if abs(dQ[0]) <= 1e-12 * qscale:
        companion = float("inf") if abs(dQ[1]) > 1e-12 * qscale else float("nan")
    else:
        companion = float(dQ[1] / dQ[0])
    return RankineHugoniot(speeds=speeds, consistent=consistent, speed=speed,
                           companion_speed=companion,
                           mismatch=companion - speed)


def shock_dissipation_rate(system: SystemSpec, U_left, U_right) -> float:
    """Companion-law defect rate s [[Q_0]] - [[Q_1]] of a consistent shock."""
    rh = rankine_hugoniot_speed(system, U_left, U_right)
    if not rh.consistent:
        raise InconsistentShockError(
            f"row speeds {rh.speeds} disagree; the jump is not a single shock")
    U_left = np.asarray(U_left, dtype=float).reshape(-1)
    U_right = np.asarray(U_right, dtype=float).reshape(-1)
    dQ = system.Q(U_left) - system.Q(U_right)
    return float(rh.speed * dQ[0] - dQ[1])


@dataclass(frozen=True)
class DissipationReport:
    """Companion-law accounting for one two-state shock field."""

    system_weak_residuals: list
    companion_weak_residuals: list
    rh_speed_flux: np.ndarray
    rh_speed_companion: float
    mismatch: float
    shock_dissipation_rate: float
    consistent: bool


def build_dissipation_report(system: SystemSpec, field: Field,
                             U_left, U_right,
                             testfns: Sequence[TestFunction]) -> DissipationReport:
    rh = rankine_hugoniot_speed(system, U_left, U_right)
    rate = shock_dissipation_rate(system, U_left, U_right) if rh.consistent \
        else float("nan")
    return DissipationReport(
        system_weak_residuals=weak_residual_system(system, field, testfns),
        companion_weak_residuals=weak_residual_companion(system, field, testfns),
        rh_speed_flux=rh.speeds,
        rh_speed_companion=rh.companion_speed,
        mismatch=rh.mismatch,
        shock_dissipation_rate=rate,
        consistent=rh.consistent,
    )
