"""Discrete space-time state fields on periodic lattices.

Fields live on a uniform lattice over [0, extent_time) x torus^k with
time-major storage.  Generators produce the two field families the rest of
the package studies: exact traveling-shock weak solutions and synthetic
lacunary (Weierstrass-type) fields with a prescribed Besov regularity
exponent.  The Besov estimator measures that exponent back from finite
differences.

A DiscreteField stores every lattice node.  A TravelingField, an exact
discrete traveling wave that moves p/q nodes per time step, stores one
profile on the fine co-moving grid eta = q*i - p*t (mod q*n_space): its
q*n_space nodes hold every value the n_time*n_space lattice takes, each
for n_time/q cells; rows j, j + q, ... read one residue class of eta, each
from its own node (`_row_classes`).  Both generators snap extent_time so
their wave is time-periodic, which fixes p/q exactly; lacunary fields are
always TravelingFields, shock fields whenever their floating-point
left/right test is such a wave row for row.

Consumers work through the node protocol both forms share: `nodes` (the
distinct node values, lattice axes first), `node_volume` (the lattice
volume one node stands for), `node_roll` (a lattice shift as a shift of
the nodes: (a, c) moves eta by q*c - p*a), `node_mean` (a lattice array
averaged onto the nodes, turning lattice integrals into node sums) and
`with_nodes` (the same form with new node values).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (ParameterError, ResolutionError,
                     UnsupportedGeometryError, _integer, _real, _reals)
from .rates import RateFit, fit_loglog
from .systems import SystemSpec, jump_states

# Nodes per block of the blockwise lattice loops (make_shock_field's
# left/right test; difference_squares, which every L^q norm of node values
# runs through; in commutator, each eps level's fluxes, multipliers and
# chain products), and the cap on a co-moving sample's kept plateaus; read
# here at call time by every module.  A 128 KiB scalar temporary stays in
# cache and under glibc's malloc trim threshold, so freed temporaries are
# reused, not faulted in again by the next block (1 MiB ones took about
# 50,000 minor faults per 4096x2048 call).
_BLOCK_NODES = 1 << 14

_MAGIC = b"CLABFLD1"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIIIB3xQQdd")


@dataclass(frozen=True)
class Lattice:
    """Uniform space-time lattice: n_time samples over [0, extent_time),
    n_space samples per spatial axis over a torus of circumference
    extent_space."""

    k: int
    n_time: int
    n_space: int
    extent_time: float
    extent_space: float

    def __post_init__(self):
        for name, least in (("k", 1), ("n_time", 8), ("n_space", 8)):
            object.__setattr__(self, name, _integer(
                getattr(self, name), f"lattice {name}", least))
        for name in ("extent_time", "extent_space"):
            if not 0 < _real(getattr(self, name), f"lattice {name}") < math.inf:
                raise ParameterError(
                    "lattice extents must be positive and finite")
        if math.prod(self.shape) > np.iinfo(np.intp).max:
            raise ParameterError(
                f"a lattice of shape {self.shape} has more nodes than an "
                "array can index")

    @property
    def h_time(self) -> float:
        return self.extent_time / self.n_time

    @property
    def h_space(self) -> float:
        return self.extent_space / self.n_space

    @property
    def shape(self) -> tuple:
        return (self.n_time,) + (self.n_space,) * self.k

    @property
    def n_axes(self) -> int:
        return self.k + 1

    @property
    def cell_volume(self) -> float:
        return self.h_time * self.h_space ** self.k

    def axis_spacing(self, axis: int) -> float:
        return self.h_time if axis == 0 else self.h_space

    def axis_extent(self, axis: int) -> float:
        return self.extent_time if axis == 0 else self.extent_space

    def times(self) -> np.ndarray:
        return np.arange(self.n_time) * self.h_time

    def space_nodes(self) -> np.ndarray:
        return np.arange(self.n_space) * self.h_space


@dataclass(frozen=True)
class DiscreteField:
    """Array of values over a lattice; trailing axes hold the value shape
    ((n,) for state fields, (n, k+1) for flux-like matrix fields)."""

    lattice: Lattice
    values: np.ndarray
    periodic_time: bool = True

    def __post_init__(self):
        values = _reals(self.values, "field values")
        lshape = self.lattice.shape
        if values.shape[:len(lshape)] != lshape or values.ndim <= len(lshape):
            raise ParameterError(
                f"values shape {values.shape} does not extend lattice shape {lshape}")
        if not np.all(np.isfinite(values)):
            raise ParameterError("field values must be finite")
        view = values.view()
        view.flags.writeable = False
        object.__setattr__(self, "values", view)

    @property
    def value_shape(self) -> tuple:
        return self.values.shape[self.lattice.n_axes:]

    @property
    def n(self) -> int:
        return self.value_shape[0]

    # node protocol: every lattice node is a node of its own
    @property
    def nodes(self) -> np.ndarray:
        return self.values

    @property
    def node_volume(self) -> float:
        return self.lattice.cell_volume

    def node_roll(self, offset) -> tuple:
        return tuple(offset)

    def node_mean(self, arr: np.ndarray) -> np.ndarray:
        shape = self.lattice.shape
        if np.shape(arr)[:len(shape)] != shape:
            raise ParameterError(f"an array of shape {np.shape(arr)} is not "
                                 f"over this field's {shape} lattice")
        return arr

    def with_nodes(self, nodes: np.ndarray) -> "DiscreteField":
        return DiscreteField(lattice=self.lattice, values=nodes,
                             periodic_time=self.periodic_time)


@dataclass(frozen=True)
class TravelingField:
    """Exact discrete traveling wave on a k = 1 lattice that moves
    shift/rows nodes per time step (shift and rows coprime, rows >= 1).

    The profile lives on the fine co-moving grid eta = rows*i - shift*t
    (mod rows*n_space): values[t, i] = profile[(rows*i - shift*t) %
    (rows*n_space)].  Row t reads the residue class (-shift*t) mod rows of
    the profile, so U(t + rows, x) = U(t, x - shift*h_space).  For rows = 1
    this is values[t] = roll(profile, shift*t).  shift*n_time must be a
    multiple of rows*n_space, which makes the wave time-periodic.

    profile has shape (rows*n_space,) + value_shape.  Its node is
    profile[None] and stands for n_time/rows lattice cells; `values`
    materializes the full array on first use.
    """

    lattice: Lattice
    profile: np.ndarray
    shift: int
    rows: int = 1
    periodic_time = True

    def __post_init__(self):
        profile = _reals(self.profile, "a traveling wave's profile")
        lat = self.lattice
        for name in ("shift", "rows"):
            object.__setattr__(self, name, _integer(
                getattr(self, name), f"a traveling wave's {name}"))
        shift, rows = self.shift, self.rows
        if rows < 1:
            raise ParameterError(
                f"a traveling wave needs rows >= 1 (the denominator of its "
                f"shift per step), got {rows}")
        g = math.gcd(shift, rows)
        if g != 1:
            raise ParameterError(
                f"shift {shift}/{rows} per step is not in lowest terms; "
                f"pass {shift // g}/{rows // g}")
        if lat.k != 1 or profile.ndim < 2 or \
                profile.shape[0] != rows * lat.n_space:
            raise ParameterError(
                f"a traveling profile of shape {profile.shape} does not fit "
                f"a k = 1 lattice with {lat.n_space} nodes per row: it needs "
                f"rows*n_space = {rows * lat.n_space} nodes and a value axis")
        if not np.all(np.isfinite(profile)):
            raise ParameterError("field values must be finite")
        if (shift * lat.n_time) % (rows * lat.n_space):
            raise ParameterError(
                f"shift {shift}/{rows} per step is not time-periodic on "
                f"{lat.n_time} x {lat.n_space} nodes: shift*n_time must be "
                f"a multiple of rows*n_space")
        view = profile.view()
        view.flags.writeable = False
        object.__setattr__(self, "profile", view)

    @cached_property
    def values(self) -> np.ndarray:
        n = self.lattice.n_space
        values = np.empty(self.lattice.shape + self.value_shape)
        for r, ts, ss in _row_classes(self.lattice, self.shift, self.rows):
            # class r doubled along space: row t is its window from s
            cls = np.concatenate([self.profile[r::self.rows]] * 2)
            for t, s in zip(ts.tolist(), ss.tolist()):
                values[t] = cls[s:s + n]
        values.flags.writeable = False
        return values

    @property
    def value_shape(self) -> tuple:
        return self.profile.shape[1:]

    @property
    def n(self) -> int:
        return self.value_shape[0]

    @property
    def nodes(self) -> np.ndarray:
        return self.profile[None]

    @property
    def node_volume(self) -> float:
        return self.lattice.n_time / self.rows * self.lattice.cell_volume

    def node_roll(self, offset) -> tuple:
        # U(t - a, x - c) = profile(eta - (rows*c - shift*a))
        a, c = offset
        return (0, self.rows * c - self.shift * a)

    def node_mean(self, arr: np.ndarray) -> np.ndarray:
        """Shear average of a lattice array onto the profile nodes: the
        mean of arr[t, i] over the n_time/rows cells with
        rows*i - shift*t = eta."""
        lat, n, rows = self.lattice, self.lattice.n_space, self.rows
        if arr.shape[:2] != lat.shape:
            raise ParameterError(f"an array of shape {arr.shape} is not over "
                                 f"this wave's {lat.n_time} x {n} lattice")
        # each class is summed contiguously and interleaved at the end
        acc = np.zeros((rows,) + arr.shape[1:])
        for r, ts, ss in _row_classes(lat, self.shift, rows):
            for t, s in zip(ts.tolist(), ss.tolist()):
                acc[r, s:] += arr[t, :n - s]
                acc[r, :s] += arr[t, n - s:]
        out = np.moveaxis(acc, 0, 1).reshape((rows * n,) + arr.shape[2:])
        return (out / (lat.n_time / rows))[None]

    def with_nodes(self, nodes: np.ndarray) -> "TravelingField":
        return TravelingField(lattice=self.lattice, profile=nodes[0],
                              shift=self.shift, rows=self.rows)


Field = Union[DiscreteField, TravelingField]


def _row_classes(lattice: Lattice, shift: int, rows: int):
    """The row rule of a wave moving shift/rows nodes per step, values[t,
    i] = profile[(rows*i - shift*t) mod rows*n_space], by residue class.

    Yields (r, t, s) once per class, for j = 0, ..., rows - 1: lattice rows
    t = j, j + rows, ... read class r of the profile from node s, values[t,
    i] = profile[rows*((i + s) mod n_space) + r].  t (ascending) and s are
    integer arrays of n_time/rows entries."""
    n = lattice.n_space
    k = np.arange(lattice.n_time // rows)
    for j in range(rows):
        s, r = divmod(-shift * j, rows)
        yield r, j + rows * k, (s % n - shift % n * k) % n


def _row_blocks(shape: tuple):
    """Slices of the leading axis of an array over nodes of `shape`, in
    order, each of max(1, _BLOCK_NODES // nodes_per_row) whole rows (the
    last may be shorter).  A compact field's nodes are one row: one
    block."""
    rows, per_row = shape[0], math.prod(shape[1:])
    step = max(1, _BLOCK_NODES // per_row)
    for start in range(0, rows, step):
        yield slice(start, start + step)


def remainder(a: np.ndarray, period: float) -> np.ndarray:
    """a % period for a positive period, bit for bit, without the
    per-element fmod of np.remainder.

    Binary long division on |a| subtracts period*2^j from the entries in
    [period*2^j, period*2^(j+1)); each subtraction is exact (Sterbenz), so
    the rest is fmod(|a|, period) exactly.  Where a < 0 and the rest is
    nonzero, period - rest is the one rounding np.remainder makes too.
    NaN, inf and entries more than 2^32 periods out take np.remainder
    itself."""
    rest = np.abs(a)
    top = rest.max(initial=0.0)
    if not top < 2.0 ** 32 * period:
        return a % period
    step = period
    while 2.0 * step <= top:
        step *= 2.0
    while step >= period:
        np.subtract(rest, step, out=rest, where=rest >= step)
        step *= 0.5
    np.subtract(period, rest, out=rest, where=(a < 0.0) & (rest != 0.0))
    return rest


def _snap(lattice: Lattice, speed: float) -> tuple:
    """Snap extent_time so that |speed|*extent_time is mult whole spatial
    periods (mult the nearest count >= 1) and return (lattice, p, q): a wave
    of this speed moves p/q = sign(speed)*mult*n_space/n_time nodes per
    time step, in lowest terms ((0, 1) at speed 0).  A speed so small that
    extent_space/|speed| overflows, or so large that the count does, has
    no such extent: ParameterError."""
    if speed == 0.0:
        return lattice, 0, 1
    period = lattice.extent_space
    periods = abs(speed) * lattice.extent_time / period
    if not periods < math.inf:
        raise ParameterError(
            f"speed {speed!r} is too large for a time-periodic wave: "
            f"|speed|*extent_time/extent_space overflows")
    mult = max(1, round(periods))
    extent_time = mult * period / abs(speed)
    if not extent_time < math.inf:
        raise ParameterError(
            f"speed {speed!r} is too small for a time-periodic wave: "
            f"extent_space/|speed| = {period!r}/{abs(speed)!r} has no finite "
            f"snapped time extent")
    lattice = replace(lattice, extent_time=extent_time)
    p = mult * lattice.n_space if speed > 0 else -mult * lattice.n_space
    g = math.gcd(p, lattice.n_time)
    return lattice, p // g, lattice.n_time // g


def make_shock_field(system: SystemSpec, U_left, U_right, speed: float,
                     lattice: Lattice) -> Field:
    """Traveling two-state field: U_left where (x - speed*t) mod L is in
    [0, L/2), U_right otherwise.

    The left-to-right interface sits on the co-moving line
    x - speed*t = L/2 (the companion right-to-left interface on x - speed*t
    = 0); a periodic field necessarily carries both.  With the
    Rankine-Hugoniot speed this is an exact weak solution.  The lattice
    extent_time is snapped so the wave is exactly time-periodic; read it
    back from the returned field.

    The left/right test, (x - speed*t) % L < L/2 in floating point, is the
    definition; it runs on every lattice node, in row blocks, with
    `remainder` in place of np.remainder (the same bits).  When
    2q <= n_time (every profile node is tested on two rows or more) and row
    t + q of the test is row t rolled by p for every t, the result is a
    TravelingField moving p/q nodes per step (see `_snap`); otherwise (as
    in a shock moving 4 nodes per step whose interface rounding moves in
    some rows) it is a DiscreteField.  Either way the values are those of
    the test, bit for bit.
    """
    if lattice.k != 1:
        raise UnsupportedGeometryError(
            f"shock fields are one-dimensional; got k={lattice.k}")
    if not np.isfinite(_real(speed, "speed")):
        raise ParameterError("speed must be finite")
    U_left, U_right = jump_states(system, U_left, U_right, "make_shock_field")

    lattice, p, q = _snap(lattice, speed)
    L = lattice.extent_space
    t = lattice.times()
    x = lattice.space_nodes()
    left = np.empty(lattice.shape, dtype=bool)
    for rows in _row_blocks(lattice.shape):
        left[rows] = remainder(x - speed * t[rows, None], L) < 0.5 * L
    if 2 * q <= lattice.n_time and np.array_equal(
            left[q:], np.roll(left[:-q], p, axis=1)):
        fine = np.empty(q * lattice.n_space, dtype=bool)
        for r, ts, ss in _row_classes(lattice, p, q):
            fine[r::q] = np.roll(left[ts[0]], ss[0])
        return TravelingField(lattice=lattice, shift=p, rows=q,
                              profile=np.where(fine[:, None], U_left, U_right))
    values = np.where(left[..., None], U_left, U_right)
    return DiscreteField(lattice=lattice, values=values)


def lacunary_profile(alpha: float, n_octaves: int, seed: int, period: float,
                     amplitude: float, x: np.ndarray) -> np.ndarray:
    """Evaluate amplitude * sum_j 2^{-alpha j} cos(2^j 2 pi x/period + phi_j)
    with phases phi_j drawn once from the seeded generator."""
    n_octaves, seed = _lacunary_counts(n_octaves, seed)
    _real(alpha, "alpha")
    _real(period, "period")
    _real(amplitude, "amplitude")
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n_octaves)
    out = np.zeros_like(np.asarray(x, dtype=float))
    base = 2.0 * np.pi / period
    for j in range(1, n_octaves + 1):
        out += 2.0 ** (-alpha * j) * np.cos((2 ** j) * base * x + phases[j - 1])
    return amplitude * out


def _lacunary_counts(n_octaves, seed) -> tuple:
    """n_octaves >= 1 and seed >= 0 as ints, else ParameterError."""
    return _integer(n_octaves, "n_octaves", 1), _integer(seed, "seed", 0)


def make_lacunary_field(alpha: float, n_octaves: int, seed: int,
                        travel_speed: float, lattice: Lattice,
                        amplitude: float = 1.0) -> TravelingField:
    """Scalar traveling field U(t, x) = f(x - travel_speed * t) where f is
    the lacunary profile with exact Besov/Hoelder exponent alpha.

    The lattice extent_time is snapped so the wave moves p/q nodes per time
    step (see `_snap`).  The result is a TravelingField whose profile
    samples f at eta*h_space/q on the fine grid eta = q*i - p*t; for q = 1
    these are the lattice nodes.
    """
    if not np.isfinite(_real(travel_speed, "travel_speed")):
        raise ParameterError("travel_speed must be finite")
    _real(amplitude, "amplitude")
    if not 0.0 < _real(alpha, "alpha") < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if lattice.k != 1:
        raise UnsupportedGeometryError(
            f"lacunary fields are one-dimensional; got k={lattice.k}")
    n_octaves, seed = _lacunary_counts(n_octaves, seed)
    max_octaves = int(np.floor(np.log2(lattice.n_space / 4)))
    if 2 ** n_octaves > lattice.n_space / 4:
        raise ResolutionError(
            f"2^{n_octaves} oscillations per period are not resolvable on "
            f"{lattice.n_space} nodes; maximum n_octaves here is {max_octaves}")

    lattice, p, q = _snap(lattice, travel_speed)
    eta = np.arange(q * lattice.n_space) * (lattice.h_space / q)
    profile = lacunary_profile(alpha, n_octaves, seed, lattice.extent_space,
                               amplitude, eta)
    return TravelingField(lattice=lattice, profile=profile[:, None],
                          shift=p, rows=q)


# ---------------------------------------------------------------------------
# Besov estimation


def shift_difference_norm(field: Field, axis: int, nodes: int,
                          q: float) -> float:
    """L^q norm of U(. + shift) - U(.) for a shift of `nodes` lattice nodes
    along one axis.  Periodic axes wrap (one np.roll); a non-periodic time
    axis restricts to the overlap window, read in place."""
    require_q(q)
    axis, nodes = _integer(axis, "axis", 0), _integer(nodes, "nodes", 1)
    n_axes = field.lattice.n_axes
    if axis >= n_axes:
        raise ParameterError(f"axis must be < {n_axes}, got {axis}")
    v = field.nodes
    if axis == 0 and not field.periodic_time:
        if nodes >= field.lattice.n_time:
            raise ResolutionError("shift exceeds the time extent")
        return difference_lq_norm(v[nodes:], v[:-nodes], n_axes, q,
                                  field.node_volume)
    offset = -nodes * np.eye(n_axes, dtype=int)[axis]
    rolled = np.roll(v, field.node_roll(offset), axis=tuple(range(n_axes)))
    return difference_lq_norm(rolled, v, n_axes, q, field.node_volume)


def require_q(q: float) -> None:
    """Raise ParameterError unless the integrability exponent q is >= 1 and
    finite."""
    if not 1 <= _real(q, "q") < math.inf:
        raise ParameterError(f"q must be >= 1 and finite, got {q}")


def difference_squares(a: np.ndarray, b, n_axes: int):
    """Yield |a - b|^2 (|a|^2 when b is None) per block of _BLOCK_NODES
    nodes, in node order, where a and b have their first n_axes axes over
    the same nodes and the rest value axes.  Each component is subtracted
    and squared in one of two block-sized arrays and added in component
    order; the yielded block is
    overwritten by the next, and a consumer may spend it.  Nothing
    lattice-sized is made while the node axes of a and b merge into one
    (contiguous arrays, leading-axis slices and moved-axis views)."""
    count, width = math.prod(a.shape[:n_axes]), math.prod(a.shape[n_axes:])
    a = a.reshape(count, width)
    b = None if b is None else b.reshape(count, width)
    mag2 = np.zeros(min(count, _BLOCK_NODES))     # zero when width is 0
    part = np.empty_like(mag2)
    for start in range(0, count, _BLOCK_NODES):
        stop = min(start + _BLOCK_NODES, count)
        out, tmp = mag2[:stop - start], part[:stop - start]
        for i in range(width):
            square = tmp if i else out
            v = a[start:stop, i]
            if b is not None:
                v = np.subtract(v, b[start:stop, i], out=square)
            np.square(v, out=square)
            if i:
                out += tmp
        yield out


def difference_lq_norm(a: np.ndarray, b, n_axes: int, q: float,
                       volume: float) -> float:
    """L^q norm of |a - b| (|a| when b is None) on nodes of `volume`."""
    return squares_lq_norm(difference_squares(a, b, n_axes), q, volume)


def squares_lq_norm(blocks, q: float, volume: float) -> float:
    """L^q norm of |v| on nodes of `volume` from blocks of |v|^2, which it
    may spend.  Outside power_sum's product chain a large q would
    underflow or overflow |v|^q, so each block is divided by the running
    max of |v|^2 (the sum rescaled as it grows) and the norm is
    sqrt(max) * (sum * volume)^(1/q).  An inf or NaN square is the norm."""
    if _product_chain(q):
        total = 0.0
        for mag2 in blocks:
            total += power_sum(mag2, q)
        return float((total * volume) ** (1.0 / q))
    top = total = 0.0
    for mag2 in blocks:
        peak = float(mag2.max(initial=0.0))
        if not peak < math.inf:
            return peak
        if peak > top:
            total *= (top / peak) ** (q / 2.0)
            top = peak
        if top:
            mag2 /= top
            total += power_sum(mag2, q)
    return float(math.sqrt(top) * (total * volume) ** (1.0 / q))


def _product_chain(q: float) -> bool:
    return q == int(q) and q <= 16     # see power_sum


def power_sum(mag2: np.ndarray, q: float) -> float:
    """Sum of |v|^q over the squared magnitudes mag2 (left unchanged).

    For integer q up to 16, |v|^q is a product of q//2 factors |v|^2,
    times |v| when q is odd, so no pow runs; any other q takes one pow,
    (|v|^2)^(q/2), however large q is, and overflows to inf silently."""
    if not _product_chain(q):
        with np.errstate(over="ignore"):
            return np.sum(mag2 ** (q / 2.0))
    half, odd = divmod(int(q), 2)
    power = np.sqrt(mag2) if odd else mag2
    # every product after the first of an even power works in place
    for _ in range(half - 1 + odd):
        power = np.multiply(power, mag2, out=None if power is mag2 else power)
    return np.sum(power)


@dataclass(frozen=True)
class BesovEstimate:
    """Finite-difference Besov diagnostic at integrability q.

    shifts are physical shift magnitudes in strictly decreasing dyadic
    order; diff_norms are the matching L^q difference norms, maximized
    over the participating axes.  fitted_alpha is the log-log slope (with
    its regression residual inside `fit`); seminorm_proxy is
    max_i diff_norms[i] / shifts[i]^fitted_alpha.
    """

    q: float
    shifts: np.ndarray
    diff_norms: np.ndarray
    fitted_alpha: float
    fit: RateFit
    seminorm_proxy: float


def estimate_besov(field: Field, q: float, n_shifts: int = 9) -> BesovEstimate:
    """Estimate the Besov exponent from dyadic shift differences.

    Shift magnitudes are 2*h_space*2^i for i < n_shifts, capped at one
    eighth of the relevant extent; each is realized along every axis where
    it rounds to at least one node (spatial axes always; the time axis
    additionally when within its extent), and the reported norm is the max
    over axes.  The loop stops at the first shift past every axis's cap,
    so a larger n_shifts gives the same estimate.  The regression drops the
    smallest and largest shift.
    """
    require_q(q)
    n_shifts = _integer(n_shifts, "n_shifts", 3)
    lat = field.lattice
    shifts = []
    norms = []
    for i in range(n_shifts):
        s = 2.0 * lat.h_space * 2.0 ** i
        axes = [a for a in range(lat.n_axes) if s <= lat.axis_extent(a) / 8.0]
        if not axes:
            break           # s doubles, so no later shift fits either
        best = 0.0
        usable = False
        for axis in axes:
            nodes = round(s / lat.axis_spacing(axis))
            if nodes < 1:
                continue
            usable = True
            best = max(best, shift_difference_norm(field, axis, nodes, q))
        if usable:
            shifts.append(s)
            norms.append(best)
    if len(shifts) < 3:
        raise ResolutionError(
            f"only {len(shifts)} usable shifts on this lattice; need >= 3 "
            "(shrink the shift count or refine the lattice)")
    shifts = np.array(shifts[::-1])
    norms = np.array(norms[::-1])
    fit = fit_loglog(shifts, norms, drop_endpoints=True)
    alpha = fit.slope
    if np.all(norms == 0.0):
        proxy = 0.0
    elif np.isfinite(alpha):
        proxy = float(np.max(norms / shifts ** alpha))
    else:
        proxy = float("nan")
    return BesovEstimate(q=float(q), shifts=shifts, diff_norms=norms,
                         fitted_alpha=float(alpha), fit=fit,
                         seminorm_proxy=proxy)


# ---------------------------------------------------------------------------
# serialization


def save_field(field: Field, path) -> None:
    """Write a state field to the flat binary container (little endian)."""
    if len(field.value_shape) != 1:
        raise ParameterError("only state fields (one value axis) serialize")
    header = _HEADER.pack(
        _MAGIC, _FORMAT_VERSION, field.lattice.k, field.n,
        1 if field.periodic_time else 0, field.lattice.n_time,
        field.lattice.n_space, field.lattice.extent_time,
        field.lattice.extent_space)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field(path) -> DiscreteField:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ParameterError(f"not a field container: {len(blob)} bytes, "
                             f"shorter than the {_HEADER.size}-byte header")
    magic, version, k, n, periodic, n_time, n_space, ext_t, ext_x = \
        _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ParameterError(f"not a field container: bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise ParameterError(f"unsupported container version {version}")
    lattice = Lattice(k=k, n_time=n_time, n_space=n_space,
                      extent_time=ext_t, extent_space=ext_x)
    count = n_time * n_space ** k * n
    if len(blob) != _HEADER.size + 8 * count:
        raise ParameterError(f"field container holds {len(blob)} bytes; its "
                             f"header promises {_HEADER.size + 8 * count}")
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=_HEADER.size)
    values = data.astype(float).reshape(lattice.shape + (n,))
    return DiscreteField(lattice=lattice, values=values,
                         periodic_time=bool(periodic))


def field_to_csv(field: Field, path, max_nodes: int = 2_000_000) -> None:
    """One row per lattice node: time, space coordinates, state components.
    Intended for small fields; larger ones should use the binary container."""
    if len(field.value_shape) != 1:
        raise ParameterError("only state fields (one value axis) export to CSV")
    n_nodes = int(np.prod(field.lattice.shape))
    if n_nodes > max_nodes:
        raise ParameterError(
            f"{n_nodes} nodes exceed the CSV limit {max_nodes}; "
            "use save_field instead")
    lat = field.lattice
    axes = [lat.times()] + [lat.space_nodes()] * lat.k
    grids = np.meshgrid(*axes, indexing="ij")
    cols = [g.reshape(-1) for g in grids]
    cols += [field.values[..., i].reshape(-1) for i in range(field.n)]
    header = ",".join(["t"] + [f"x{i+1}" for i in range(lat.k)]
                      + [f"u{i+1}" for i in range(field.n)])
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
               comments="")
