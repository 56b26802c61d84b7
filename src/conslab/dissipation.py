"""Companion-law accounting for discrete weak solutions.

weak_residual_system integrates G(U) : D_X psi, which vanishes (up to
grid error) exactly when U is a weak solution.  weak_residual_companion
integrates -Q(U) . D_X psi; for shocks it converges to the jump defect

    s [[Q_0]] - [[Q_1]],        [[a]] = a(U_left) - a(U_right),

which shock_dissipation_rate evaluates in closed form.  Shock speeds come
from the jump conditions per flux row; a companion-law speed computed the
same way generally disagrees, and that mismatch is the per-shock measure
of companion-law failure.

Both weak residuals sum their flux over the field's nodes against the
node average of D_X psi, which the row window of testfunctions.node_means
gives over every row from one evaluate call per test function and
residual.  build_dissipation_report so evaluates each test function
twice, once per weak residual, and the jump once: rankine_hugoniot_speed
returns the defect rate with the speeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistentShockError, UnsupportedGeometryError
from .fields import Field
from .systems import SystemSpec, jump_states, require_states
from .testfunctions import TestFunction, node_means

_SPEED_TOL = 1e-10


def _flux_quadrature(field: Field, flux: np.ndarray,
                     testfns: Sequence[TestFunction]) -> list:
    """Node quadrature of flux . D_X psi per test function, against the
    node mean of D_X psi (testfunctions.node_means); flux is per node, with
    a trailing axis k + 1."""
    vol = field.node_volume
    out = []
    for tf in testfns:
        _psi, dpsi = node_means(tf, field)(slice(None))
        out.append(float(np.sum(flux * dpsi) * vol))
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
    mismatch = companion_speed - speed.  rate is the companion-law defect
    rate s [[Q_0]] - [[Q_1]] of a consistent shock, NaN otherwise.
    """

    speeds: np.ndarray
    consistent: bool
    speed: float
    companion_speed: float
    mismatch: float
    rate: float

    def consistent_rate(self) -> float:
        """rate; InconsistentShockError unless the shock is consistent."""
        if not self.consistent:
            raise InconsistentShockError(f"row speeds {self.speeds} disagree;"
                                         " the jump is not a single shock")
        return self.rate


def rankine_hugoniot_speed(system: SystemSpec, U_left, U_right) -> RankineHugoniot:
    """Per-row shock speeds of the jump U_left -> U_right, plus the
    companion-law speed and defect rate computed from the same jump."""
    if system.k != 1:
        raise UnsupportedGeometryError(
            f"jump conditions implemented for k = 1, got k={system.k}")
    U_left, U_right = jump_states(system, U_left, U_right, "rankine_hugoniot")

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
    rate = float(speed * dQ[0] - dQ[1]) if consistent else float("nan")
    return RankineHugoniot(speeds=speeds, consistent=consistent, speed=speed,
                           companion_speed=companion,
                           mismatch=companion - speed, rate=rate)


def shock_dissipation_rate(system: SystemSpec, U_left, U_right) -> float:
    """Companion-law defect rate s [[Q_0]] - [[Q_1]] of a consistent shock."""
    return rankine_hugoniot_speed(system, U_left, U_right).consistent_rate()


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
    return DissipationReport(
        system_weak_residuals=weak_residual_system(system, field, testfns),
        companion_weak_residuals=weak_residual_companion(system, field, testfns),
        rh_speed_flux=rh.speeds,
        rh_speed_companion=rh.companion_speed,
        mismatch=rh.mismatch,
        shock_dissipation_rate=rh.rate,
        consistent=rh.consistent,
    )
