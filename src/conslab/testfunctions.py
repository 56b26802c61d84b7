"""Smooth test functions with closed-form gradients.

All weak-form integrals in the package pair fluxes with scalar test
functions (applied to every state component alike).  Gradients are
analytic, so quadrature of G(U) : D_X psi carries no differencing error
from the test side.

The catalogue: tensor-product space-time bumps, constant-in-space time
bumps, and the shock-path-aligned plateau used to localize a single
traveling jump on the torus (a periodic shock field always carries two
interfaces; the plateau isolates one).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ._bumps import bump, bump_deriv, bump_line_integral, smoothstep_pair
from .errors import ParameterError, TestSupportError, UnsupportedGeometryError
from .fields import Lattice


def _wrap(z: np.ndarray, period: float) -> np.ndarray:
    return (z + 0.5 * period) % period - 0.5 * period


class TestFunction:
    """Interface: evaluate(lattice, periodic_time) -> (psi, grad) with
    psi over the lattice and grad carrying one trailing axis of length
    k + 1 (time derivative first)."""

    def evaluate(self, lattice: Lattice, periodic_time: bool = True):
        raise NotImplementedError


def _require_numeric(testfn) -> None:
    # Catalogue parameters are numbers, flags or sequences of numbers.
    for f in fields(testfn):
        value = getattr(testfn, f.name)
        try:
            numeric = np.asarray(value).dtype.kind in "biuf"
        except ValueError:
            numeric = False
        if not numeric:
            raise ParameterError(
                f"{type(testfn).__name__} parameter {f.name!r} must be "
                f"numeric, got {value!r}")


@dataclass(frozen=True)
class TensorBump(TestFunction):
    """amplitude * prod_a bump((z_a - center_a)/radius_a) over all axes."""

    center: Sequence[float]
    radius: Sequence[float]
    amplitude: float = 1.0

    def __post_init__(self):
        _require_numeric(self)

    def evaluate(self, lattice: Lattice, periodic_time: bool = True):
        center = np.asarray(self.center, dtype=float)
        radius = np.asarray(self.radius, dtype=float)
        if center.shape != (lattice.n_axes,) or radius.shape != (lattice.n_axes,):
            raise ParameterError(
                f"center/radius must have length k+1 = {lattice.n_axes}")
        if np.any(radius <= 0):
            raise ParameterError("bump radii must be positive")
        factors, dfactors = [], []
        for axis in range(lattice.n_axes):
            z = lattice.times() if axis == 0 else lattice.space_nodes()
            extent = lattice.axis_extent(axis)
            if axis == 0 and not periodic_time:
                lo = center[0] - radius[0]
                hi = center[0] + radius[0]
                if lo <= 0.0 or hi >= extent:
                    raise TestSupportError(
                        f"time support [{lo:g}, {hi:g}] exits the open interval "
                        f"(0, {extent:g})")
                w = (z - center[axis]) / radius[axis]
            else:
                if radius[axis] > 0.5 * extent:
                    raise TestSupportError(
                        f"radius {radius[axis]:g} on periodic axis {axis} exceeds "
                        f"half the period {extent:g}")
                w = _wrap(z - center[axis], extent) / radius[axis]
            factors.append(bump(w))
            dfactors.append(bump_deriv(w) / radius[axis])
        psi = _outer(factors)
        grad = np.empty(lattice.shape + (lattice.n_axes,))
        for axis in range(lattice.n_axes):
            grad[..., axis] = _outer([dfactors[a] if a == axis else f
                                      for a, f in enumerate(factors)])
        return self.amplitude * psi, self.amplitude * grad


def _outer(factors) -> np.ndarray:
    """Outer product of per-axis factors, multiplied in axis order."""
    out = factors[0]
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return out


def _expand(arr1d: np.ndarray, axis: int, shape: tuple) -> np.ndarray:
    idx = [None] * len(shape)
    idx[axis] = slice(None)
    return arr1d[tuple(idx)]


@dataclass(frozen=True)
class TimeBump(TestFunction):
    """Constant in space, a bump in time.

    With unit_integral the profile is scaled so its time integral equals
    amplitude (convenient for dissipation-rate comparisons).
    """

    center: float
    radius: float
    amplitude: float = 1.0
    unit_integral: bool = False

    def __post_init__(self):
        _require_numeric(self)

    def _profile(self, t: np.ndarray, extent: float, periodic_time: bool):
        if self.radius <= 0:
            raise ParameterError("time radius must be positive")
        if periodic_time:
            if self.radius > 0.5 * extent:
                raise TestSupportError(
                    f"time radius {self.radius:g} exceeds half the period {extent:g}")
            z = _wrap(t - self.center, extent) / self.radius
        else:
            lo, hi = self.center - self.radius, self.center + self.radius
            if lo <= 0.0 or hi >= extent:
                raise TestSupportError(
                    f"time support [{lo:g}, {hi:g}] exits the open interval "
                    f"(0, {extent:g})")
            z = (t - self.center) / self.radius
        scale = self.amplitude
        if self.unit_integral:
            scale = scale / (self.radius * bump_line_integral())
        return scale * bump(z), scale * bump_deriv(z) / self.radius

    def evaluate(self, lattice: Lattice, periodic_time: bool = True):
        phi, dphi = self._profile(lattice.times(), lattice.extent_time,
                                  periodic_time)
        shape = lattice.shape
        psi = np.broadcast_to(_expand(phi, 0, shape), shape).copy()
        grad = np.zeros(shape + (lattice.n_axes,))
        grad[..., 0] = _expand(dphi, 0, shape)
        return psi, grad

    @property
    def time_integral(self) -> float:
        return self.amplitude if self.unit_integral \
            else self.amplitude * self.radius * bump_line_integral()


@dataclass(frozen=True)
class ShockAlignedBump(TestFunction):
    """Time bump times a plateau in the co-moving coordinate x - speed*t.

    The plateau equals 1 within inner_radius of xi_center and vanishes
    beyond outer_radius, so for mollification scales below inner_radius
    the test function is constant across the tracked interface while its
    spatial gradient lives on the flanking bands.  Requires k = 1.
    """

    speed: float
    xi_center: float
    inner_radius: float
    outer_radius: float
    time_center: float
    time_radius: float
    amplitude: float = 1.0
    unit_time_integral: bool = True

    def __post_init__(self):
        _require_numeric(self)

    def _time_part(self):
        return TimeBump(center=self.time_center, radius=self.time_radius,
                        amplitude=self.amplitude,
                        unit_integral=self.unit_time_integral)

    def evaluate(self, lattice: Lattice, periodic_time: bool = True):
        if lattice.k != 1:
            raise UnsupportedGeometryError(
                "shock-aligned test functions require k = 1")
        if not 0.0 < self.inner_radius < self.outer_radius:
            raise ParameterError(
                "need 0 < inner_radius < outer_radius for the plateau")
        L = lattice.extent_space
        if self.outer_radius > 0.5 * L:
            raise TestSupportError(
                f"outer radius {self.outer_radius:g} exceeds half the period {L:g}")
        phi, dphi = self._time_part()._profile(
            lattice.times(), lattice.extent_time, periodic_time)
        t = lattice.times()[:, None]
        x = lattice.space_nodes()[None, :]
        d = _wrap(x - self.speed * t - self.xi_center, L)
        width = self.outer_radius - self.inner_radius
        u = (self.outer_radius - np.abs(d)) / width
        chi, dchi = smoothstep_pair(u)
        dchi *= -np.sign(d) / width
        psi = phi[:, None] * chi
        grad = np.empty(lattice.shape + (2,))
        grad[..., 0] = dphi[:, None] * chi + phi[:, None] * dchi * (-self.speed)
        grad[..., 1] = phi[:, None] * dchi
        return psi, grad

    @property
    def time_integral(self) -> float:
        return self._time_part().time_integral


_CATALOGUE = {"bump": TensorBump, "time-bump": TimeBump,
              "shock-aligned": ShockAlignedBump}


def from_config(spec: dict) -> TestFunction:
    """Build a catalogue test function from a plain config mapping."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if not isinstance(kind, str) or kind not in _CATALOGUE:
        raise ParameterError(
            f"unknown test function kind {kind!r}; "
            f"catalogue: {list(_CATALOGUE)}")
    try:
        return _CATALOGUE[kind](**spec)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for test function {kind!r}: {exc}")
