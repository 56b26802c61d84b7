"""Smooth test functions with closed-form gradients.

All weak-form integrals in the package pair fluxes with scalar test
functions (applied to every state component alike).  Gradients are
analytic, so quadrature of G(U) : D_X psi carries no differencing error
from the test side.

The catalogue: tensor-product space-time bumps, constant-in-space time
bumps, and the shock-path-aligned plateau used to localize a single
traveling jump on the torus (a periodic shock field always carries two
interfaces; the plateau isolates one).

Every catalogue class writes psi and grad psi only on its live rows, the
time rows where its time factor or that factor's derivative is nonzero
(`_live_rows`); the outputs come from np.zeros, so the other rows stay
+0.0 and their pages are never written.  TensorBump and TimeBump write
each contiguous run of live rows (two when a periodic support wraps
across t = 0) with whole-run products.  ShockAlignedBump writes one live
row at a time.  On a lattice snapped for its speed (fields._snap: p/q
nodes per step) its plateau is evaluated once per node of the fine
co-moving grid eta = q*i - p*t, one residue class of n_space nodes at a
time, and each live row is written from its window of its class
(fields._row_classes); on any other lattice, at x - speed*t, row by row.
Temporaries are row-sized.  The two agree within rounding, bit for bit
on the shipped configs (binary-fraction spacings, speeds and centres).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from ._bumps import bump, bump_deriv, bump_line_integral, smoothstep_pair
from .errors import ParameterError, TestSupportError, UnsupportedGeometryError
from .fields import Lattice, _row_classes, _snap


def _wrap(z: np.ndarray, period: float) -> np.ndarray:
    """z shifted by whole periods into [-period/2, period/2)."""
    return (z + 0.5 * period) % period - 0.5 * period


def _support(z: np.ndarray, center: float, radius: float, extent: float,
             periodic: bool, name: str) -> np.ndarray:
    """Normalized bump coordinate w = (z - center)/radius along one axis,
    wrapped when the axis is periodic.  The support must fit: a radius of
    at most half the period, or [center - radius, center + radius] inside
    the open interval (0, extent)."""
    if not radius > 0:
        raise ParameterError(f"{name} radius must be positive")
    if periodic:
        if radius > 0.5 * extent:
            raise TestSupportError(
                f"{name} radius {radius:g} exceeds half the period {extent:g}")
        return _wrap(z - center, extent) / radius
    lo, hi = center - radius, center + radius
    if lo <= 0.0 or hi >= extent:
        raise TestSupportError(
            f"{name} support [{lo:g}, {hi:g}] exits the open interval "
            f"(0, {extent:g})")
    return (z - center) / radius


def _live_rows(phi: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """The live-row rule: time row t is live where the time factor phi or
    its derivative dphi is nonzero there; psi and every component of
    grad psi vanish on the other rows."""
    return (phi != 0.0) | (dphi != 0.0)


def _live_runs(phi: np.ndarray, dphi: np.ndarray) -> list:
    """The live rows as slices over maximal contiguous runs, in order."""
    edges = np.flatnonzero(np.diff(_live_rows(phi, dphi), prepend=False,
                                   append=False)).tolist()
    return [slice(a, b) for a, b in zip(edges[::2], edges[1::2])]


class TestFunction:
    """Interface: evaluate(lattice, periodic_time) -> (psi, grad) with
    psi over the lattice and grad carrying one trailing axis of length
    k + 1 (time derivative first).  Rows outside the time support (see
    `_live_rows`) are +0.0 and are never written, so their pages stay
    unfaulted."""

    def evaluate(self, lattice: Lattice, periodic_time: bool = True):
        raise NotImplementedError


def _require_numeric(testfn) -> None:
    # Catalogue parameters are finite numbers, flags or sequences of them.
    for f in fields(testfn):
        value = getattr(testfn, f.name)
        try:
            array = np.asarray(value)
            numeric = array.dtype.kind in "biuf"
        except ValueError:
            numeric = False
        if not numeric:
            raise ParameterError(
                f"{type(testfn).__name__} parameter {f.name!r} must be "
                f"numeric, got {value!r}")
        if not np.all(np.isfinite(array)):
            raise ParameterError(
                f"{type(testfn).__name__}.{f.name} must be finite, "
                f"got {value!r}")


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
        factors, dfactors = [], []
        for axis in range(lattice.n_axes):
            z = lattice.times() if axis == 0 else lattice.space_nodes()
            w = _support(z, center[axis], radius[axis],
                         lattice.axis_extent(axis), axis > 0 or periodic_time,
                         "time" if axis == 0 else f"space axis {axis}")
            factors.append(bump(w))
            dfactors.append(bump_deriv(w) / radius[axis])
        psi = np.zeros(lattice.shape)
        grad = np.zeros(lattice.shape + (lattice.n_axes,))
        phi, dphi = factors[0], dfactors[0]
        for run in _live_runs(phi, dphi):
            factors[0], dfactors[0] = phi[run], dphi[run]
            _outer(factors, out=psi[run])
            for axis in range(lattice.n_axes):
                _outer([dfactors[a] if a == axis else f
                        for a, f in enumerate(factors)],
                       out=grad[run, ..., axis])
            # per run: a whole-array *= would write every page; x*1.0 is x
            if self.amplitude != 1.0:
                psi[run] *= self.amplitude
                grad[run] *= self.amplitude
        return psi, grad


def _outer(factors, out=None) -> np.ndarray:
    """Outer product of per-axis factors, multiplied in axis order; the
    last product is written to out when given."""
    acc = factors[0]
    for f in factors[1:-1]:
        acc = np.multiply.outer(acc, f)
    return np.multiply.outer(acc, factors[-1], out=out)


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
        z = _support(t, self.center, self.radius, extent, periodic_time,
                     "time")
        scale = self.amplitude
        if self.unit_integral:
            scale = scale / (self.radius * bump_line_integral())
        return scale * bump(z), scale * bump_deriv(z) / self.radius

    def evaluate(self, lattice: Lattice, periodic_time: bool = True):
        phi, dphi = self._profile(lattice.times(), lattice.extent_time,
                                  periodic_time)
        column = (-1,) + (1,) * lattice.k
        psi = np.zeros(lattice.shape)
        grad = np.zeros(lattice.shape + (lattice.n_axes,))
        for run in _live_runs(phi, dphi):
            psi[run] = phi[run].reshape(column)
            grad[run, ..., 0] = dphi[run].reshape(column)
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
        try:    # the co-moving path needs a lattice snapped for the speed
            snapped, p, q = _snap(lattice, self.speed)
        except ParameterError:      # no finite snapped extent_time
            snapped = None
        return self._evaluate(lattice, periodic_time,
                              (p, q) if snapped == lattice else None)

    def _evaluate(self, lattice, periodic_time, shift):
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
        psi = np.zeros(lattice.shape)
        grad = np.zeros(lattice.shape + (2,))
        live = _live_rows(phi, dphi)
        rows = self._lattice_rows(lattice, live) if shift is None \
            else self._class_rows(lattice, *shift, live)
        for t, (chi, dchi) in rows:
            np.multiply(phi[t], chi, out=psi[t])
            g_t, g_x = grad[t, :, 0], grad[t, :, 1]
            np.multiply(phi[t], dchi, out=g_x)
            np.add(dphi[t] * chi, g_x * (-self.speed), out=g_t)
        return psi, grad

    def _class_rows(self, lattice, p, q, live):
        # snapped lattice: the plateau once per class of the fine grid eta
        # = q*i - p*t, each live row its window (fields._row_classes)
        n = lattice.n_space
        eta = q * np.arange(n)
        for r, ts, ss in _row_classes(lattice, p, q):
            on = live[ts]
            if on.any():
                chi, dchi = (np.concatenate([a, a]) for a in self._plateau(
                    (eta + r) * (lattice.h_space / q), lattice.extent_space))
                for t, s in zip(ts[on].tolist(), ss[on].tolist()):
                    yield t, (chi[s:s + n], dchi[s:s + n])

    def _lattice_rows(self, lattice, live):
        # any lattice: the plateau at x - speed*t, one live row at a time
        t, x, L = lattice.times(), lattice.space_nodes(), lattice.extent_space
        for row in np.flatnonzero(live).tolist():
            yield row, self._plateau(x - self.speed * t[row], L)

    def _plateau(self, z: np.ndarray, L: float) -> tuple:
        """chi and chi' at the co-moving coordinate z = x - speed*t."""
        d = _wrap(z - self.xi_center, L)
        width = self.outer_radius - self.inner_radius
        chi, dchi = smoothstep_pair((self.outer_radius - np.abs(d)) / width)
        dchi *= -np.sign(d) / width
        return chi, dchi

    @property
    def time_integral(self) -> float:
        return self._time_part().time_integral


_CATALOGUE = {"bump": TensorBump, "time-bump": TimeBump,
              "shock-aligned": ShockAlignedBump}


def from_config(spec: dict) -> TestFunction:
    """Build a catalogue test function from a plain config mapping."""
    if not isinstance(spec, Mapping):
        raise ParameterError(
            f"a test function spec must be a mapping, got {spec!r}")
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
