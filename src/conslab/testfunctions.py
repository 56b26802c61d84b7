"""Smooth test functions with closed-form gradients.

All weak-form integrals in the package pair fluxes with scalar test
functions (applied to every state component alike).  Gradients are
analytic, so quadrature of G(U) : D_X psi carries no differencing error
from the test side.

The catalogue: tensor-product space-time bumps, constant-in-space time
bumps, and the shock-path-aligned plateau used to localize a single
traveling jump on the torus (a periodic shock field always carries two
interfaces; the plateau isolates one).

evaluate(lattice, periodic_time) checks the parameters against the
lattice and returns a Sample, one class for the whole catalogue: on k = 1
every sample is amplitude*phi(t)*chi(x - v*t), with v = 0 for TensorBump
and TimeBump (chi = 1) and v = speed for ShockAlignedBump, kept as
factors of O(n_time + q*n_space) numbers.  A sample has two views.

Rows: sample.window(rows) builds psi and grad psi on a slice of lattice
rows, and unpacking or indexing it (psi, grad = sample) gives the window
over every row, built on first use and kept.  Only the live rows are
written, the time rows where phi or its derivative is nonzero
(`_live_rows`); the outputs come from np.zeros, so the other rows stay
+0.0 and their pages are never written.  One generator hands the writer
the live rows in the window with their space factors: with static
factors, each contiguous run (two when a periodic support wraps across
t = 0), written with whole-run products; for a ShockAlignedBump, one row
at a time.  On a lattice snapped for its speed (fields._snap: p/q nodes
per step) its plateau is evaluated on the fine co-moving grid eta = q*i
- p*t, one residue class of n_space nodes at a time, and each live row
is its window of its class (fields._row_classes); on any other lattice,
at x - speed*t.  Temporaries are row-sized, and an entry's bits do not
depend on the window it is written in.  The two lattices' values agree
within rounding, bit for bit on the shipped configs (binary-fraction
spacings, speeds and centres).  While the fine grid (q*n_space nodes)
fits one row block (fields._BLOCK_NODES), every block has rows of every
class, so the sample keeps each class's plateau: once per sample, not
per window.

Node means: `node_means(testfn, field)` is how the package reaches a test
function, and the one place that picks the view a field reads: one
evaluate call, on the field's own lattice and clock, and a row window
over psi and grad psi averaged onto the field's nodes (means(rows) is
the pair on those node rows).  A Sample on a DiscreteField, whose node
rows are its lattice rows, gives sample.window, which writes just the
rows asked for; on a TravelingField over its lattice, its factor means
(Sample._wave_means), one residue class of the field's row rule at a
time, with no lattice array.  A shock bump at another speed, and the
plain (psi, grad) pair a user test function may give, take the dense
view averaged through field.node_mean.  The views agree within rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from ._bumps import bump, bump_deriv, bump_line_integral, smoothstep_pair
from .errors import ParameterError, TestSupportError, UnsupportedGeometryError
from . import fields
from .fields import (DiscreteField, Field, Lattice, TravelingField,
                     _row_classes, _snap)


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


class TestFunction:
    """Interface: evaluate(lattice, periodic_time) checks the parameters
    against the lattice, raising at call time, and returns a Sample, or a
    plain (psi, grad) pair of arrays: psi over the lattice, grad with one
    trailing axis of length k + 1 (time derivative first).  `node_means`
    averages either onto a field's nodes; a catalogue Sample builds its
    dense arrays only if they are read."""

    def evaluate(self, lattice: Lattice, periodic_time: bool = True):
        raise NotImplementedError


class Sample:
    """A test function on one lattice: amplitude * phi(t) * prod_a f_a(x_a)
    with space = ((f_a, f_a'), ...) per space axis (none for a sample
    constant in space), or, given a plateau (k = 1, co-moving), phi(t) *
    chi(x - speed*t) with (chi, chi') = plateau(x - speed*t).  shift is
    (p, q) on a lattice snapped for the speed, where chi is read on the
    fine grid eta = q*i - p*t, and None on any other lattice.

    window(rows) is (psi, grad) on the lattice rows `rows`, grad with one
    trailing axis of length k + 1 (time derivative first); unpacking or
    indexing gives the window over every row, built on first use and
    kept.  `_wave_means(field)` averages them onto the nodes of a wave
    over this lattice from the factors, where it can (see node_means)."""

    def __init__(self, lattice: Lattice, phi: np.ndarray, dphi: np.ndarray,
                 space=(), amplitude=1.0, plateau=None, speed=0.0,
                 shift=None):
        self.lattice, self.phi, self.dphi = lattice, phi, dphi
        self.space, self.amplitude = space, amplitude
        self.plateau, self.speed, self.shift = plateau, speed, shift
        self._plateaus = {}

    def window(self, rows: slice) -> tuple:
        """(psi, grad) on the lattice rows of `rows`, a slice of unit step
        (rows past the last are left out, as in slicing): zeros, with the
        live rows among them written."""
        start, stop, _ = rows.indices(self.lattice.n_time)
        shape = (max(stop - start, 0),) + self.lattice.shape[1:]
        psi = np.zeros(shape)
        grad = np.zeros(shape + (self.lattice.n_axes,))
        live = _live_rows(self.phi, self.dphi)
        live[:start] = live[stop:] = False
        for run, space in self._runs(live):
            factors = [(self.phi[run], self.dphi[run]), *space]
            p, g = (a[run.start - start:run.stop - start] for a in (psi, grad))
            _outer(None, factors, p)
            for c in range(self.lattice.n_axes):
                _outer(c, factors, g[..., c])
            if self.plateau is not None:    # d/dt of chi(x - speed*t)
                np.subtract(g[..., 0], self.speed * g[..., 1], out=g[..., 0])
            # per run: a whole-array *= would write every page; x*1.0 is x
            if self.amplitude != 1.0:
                p *= self.amplitude
                g *= self.amplitude
        return psi, grad

    def _runs(self, live: np.ndarray):
        """(rows, space factors) over the live rows: each maximal run with
        the static factors, or one row at a time for a co-moving sample."""
        if self.plateau is None:
            edges = np.flatnonzero(np.diff(live, prepend=False,
                                           append=False)).tolist()
            for a, b in zip(edges[::2], edges[1::2]):
                yield slice(a, b), self.space
        elif self.shift is None:    # the plateau at x - speed*t
            t, x = self.lattice.times(), self.lattice.space_nodes()
            for row in np.flatnonzero(live).tolist():
                yield slice(row, row + 1), \
                    (self.plateau(x - self.speed * t[row]),)
        else:   # snapped: each live row a window of its class's plateau
            n = self.lattice.n_space
            for r, ts, ss in _row_classes(self.lattice, *self.shift):
                on = live[ts]
                if on.any():
                    chi, dchi = (np.concatenate([a, a])
                                 for a in self._class_plateau(r))
                    for t, s in zip(ts[on].tolist(), ss[on].tolist()):
                        yield slice(t, t + 1), ((chi[s:s + n],
                                                 dchi[s:s + n]),)

    def _class_plateau(self, r: int) -> tuple:
        """chi and chi' on class r of the fine grid, its nodes q*m + r."""
        q = self.shift[1]
        if r in self._plateaus:
            return self._plateaus[r]
        eta = q * np.arange(self.lattice.n_space)
        plateau = self.plateau((eta + r) * (self.lattice.h_space / q))
        if q * self.lattice.n_space <= fields._BLOCK_NODES:   # see "Rows"
            self._plateaus[r] = plateau
        return plateau

    @cached_property
    def _arrays(self) -> tuple:
        return self.window(slice(None))

    def __iter__(self):
        return iter(self._arrays)

    def __getitem__(self, index):
        return self._arrays[index]

    def _wave_means(self, field: TravelingField):
        """Node means on a wave over this lattice from the factors, or None
        for a co-moving sample at another p/q.  sums[r, m] is (psi, d_t
        psi, d_x psi) summed over the cells of fine node rows*m + r."""
        lat, rows = field.lattice, field.rows
        n = lat.n_space
        classes = _row_classes(lat, field.shift, rows)
        sums = np.zeros((rows, n, 3))
        if self.plateau is not None:
            # at the field's own p/q every cell of fine node q*m + r sits at
            # that node's co-moving coordinate: the class's sum is chi there
            # times the sum of phi over the class's rows
            if self.shift != (field.shift, rows):
                return None
            for r, ts, _ in classes:
                m, dm = self.phi[ts].sum(), self.dphi[ts].sum()
                if m or dm:
                    chi, dchi = self._class_plateau(r)
                    sums[r, :, 0] = chi * m
                    sums[r, :, 2] = dchi * m
                    sums[r, :, 1] = chi * dm - self.speed * sums[r, :, 2]
        else:
            # row t of class r puts phi(t)*f(x_i) on fine node q*((i + s)
            # mod n) + r: the class's sum is the histogram of phi over its
            # rows' s, circularly convolved with f
            hist = np.empty((2, rows, n))
            for r, ts, ss in classes:
                for i, a in enumerate((self.phi, self.dphi)):
                    hist[i, r] = np.bincount(ss, weights=a[ts], minlength=n)
            if self.space:
                (f, df), = self.space
                h = np.fft.rfft(hist)
                f_hat = np.fft.rfft(f)
                sums[..., 0] = np.fft.irfft(h[0] * f_hat, n)
                sums[..., 1] = np.fft.irfft(h[1] * f_hat, n)
                sums[..., 2] = np.fft.irfft(h[0] * np.fft.rfft(df), n)
            else:
                sums[..., :2] = hist.sum(axis=-1).T[:, None]
        # the classes interleaved, as TravelingField.node_mean does
        means = np.moveaxis(sums * self.amplitude, 0, 1).reshape(1, -1, 3) \
            / (lat.n_time / rows)
        return means[..., 0], means[..., 1:]


def _outer(c, factors, out: np.ndarray) -> None:
    """Write to out the outer product over the axes of factors, one pair
    (f, f') per axis multiplied in axis order: f' on axis c, f on the
    others (c None: psi).  A time factor alone is broadcast down its rows,
    and a derivative along an axis without a factor stays zero."""
    if c is not None and c >= len(factors):
        return
    parts = [df if a == c else f for a, (f, df) in enumerate(factors)]
    if len(parts) == 1:
        out[...] = parts[0].reshape((-1,) + (1,) * (out.ndim - 1))
        return
    acc = parts[0]
    for f in parts[1:-1]:
        acc = np.multiply.outer(acc, f)
    np.multiply.outer(acc, parts[-1], out=out)


def node_means(testfn: TestFunction, field: Field):
    """psi and grad psi of a test function averaged onto the field's
    nodes, from one evaluate call on the field's own lattice and clock, as
    a row window: means(rows) is the pair on the node rows of `rows`, a
    slice of unit step, from the view chosen here (see "Node means").  An
    object without an evaluate method raises ParameterError."""
    if not callable(getattr(testfn, "evaluate", None)):
        raise ParameterError(
            f"expected a test function (an object with an evaluate "
            f"method), got {testfn!r}")
    evaluated = testfn.evaluate(field.lattice, field.periodic_time)
    means = None
    if isinstance(evaluated, Sample):
        if isinstance(field, DiscreteField):
            return evaluated.window
        if field.lattice == evaluated.lattice:      # a TravelingField
            means = evaluated._wave_means(field)
    psi, grad = means or map(field.node_mean, evaluated)
    return lambda rows: (psi[rows], grad[rows])


def _require_numeric(testfn) -> None:
    # Catalogue parameters are finite numbers, flags or sequences of them.
    for f in dataclass_fields(testfn):
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

    def evaluate(self, lattice: Lattice, periodic_time: bool = True) -> Sample:
        center = np.asarray(self.center, dtype=float)
        radius = np.asarray(self.radius, dtype=float)
        if center.shape != (lattice.n_axes,) or radius.shape != (lattice.n_axes,):
            raise ParameterError(
                f"center/radius must have length k+1 = {lattice.n_axes}")
        factors = []
        for axis in range(lattice.n_axes):
            z = lattice.times() if axis == 0 else lattice.space_nodes()
            w = _support(z, center[axis], radius[axis],
                         lattice.axis_extent(axis), axis > 0 or periodic_time,
                         "time" if axis == 0 else f"space axis {axis}")
            factors.append((bump(w), bump_deriv(w) / radius[axis]))
        return Sample(lattice, *factors[0], space=factors[1:],
                      amplitude=self.amplitude)


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

    def evaluate(self, lattice: Lattice, periodic_time: bool = True) -> Sample:
        return Sample(lattice, *self._profile(
            lattice.times(), lattice.extent_time, periodic_time))

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

    def evaluate(self, lattice: Lattice, periodic_time: bool = True) -> Sample:
        try:    # the co-moving path needs a lattice snapped for the speed
            snapped, p, q = _snap(lattice, self.speed)
        except ParameterError:      # no finite snapped extent_time
            snapped = None
        return self._evaluate(lattice, periodic_time,
                              (p, q) if snapped == lattice else None)

    def _evaluate(self, lattice, periodic_time, shift) -> Sample:
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
        return Sample(lattice, phi, dphi, plateau=partial(self._plateau, L=L),
                      speed=self.speed, shift=shift)

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
TESTFN_KINDS = tuple(_CATALOGUE)


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
