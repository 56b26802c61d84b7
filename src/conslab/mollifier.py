"""Discrete mollification on the space-time lattice.

The kernel is the classic compactly supported bump exp(-1/(1-|X/eps|^2))
sampled on the lattice stencil of radius eps and renormalized so the
discrete sum times the cell volume is exactly one; mollification is then
circular convolution with that stencil.  Direct stencil summation is the
reference semantics; the FFT path (numpy.fft, one thread; the kernel
spectrum is a BLAS product on BLAS's own threads) computes the same
circular convolution and is the one every epsilon sweep uses.

A TravelingField (an exact discrete traveling wave in one space
dimension moving p/q nodes per step, values[t, i] = profile[q*i - p*t]
with the profile on q*n_space fine nodes and p*n_time a multiple of
q*n_space) stays compact.  Its 2-D spectrum lives on the line
(j, k) = (-P*kappa mod n_time, kappa mod n_space), P = p*n_time/(q*n_space),
over the profile modes kappa, so the FFT path filters the profile with
that line of the kernel spectrum: one 1-D transform pair of length
q*n_space per channel, and the result is again a TravelingField with the
same shift.  It agrees with the 2-D path to rounding.  Every other field
takes the 2-D path.

What a kernel retains: the 2-D path caches the real, even spectrum at its
nonnegative frequencies ((n_time/2 + 1) x (n_space/2 + 1) entries, a
cosine sum over the stencil's nonnegative quadrant, in one plain array),
since every 2-D mollification reads all of it.
The line path caches only the line it reads, q*n_space/2 + 1 entries per
(P, q*n_space), and drops the 2-D spectrum once the line is cut out; so
a compact sweep keeps no lattice-sized array per kernel.  A kernel that
later meets a 2-D field sums its stencil again, with the same result.

What a sweep retains: `sweep` drops [U]_eps and its kernel before it
mollifies the next level, and each consumer (verify_estimates here, and
residual_R and lemma_bound_audit in commutator) takes a level's terms in
a function and drops the level before asking for the next, so a sweep
over a 2-D field holds one level's arrays, not one set per kernel.  Within a
level the 2-D path transforms one channel at a time into one complex
buffer and back into its own slab of a channel-major result, whose
channel-last view it returns; a central derivative is one roll with the
other neighbour subtracted in place, the gradient norm adds each
derivative's squares into one accumulator block by block
(fields.difference_squares), and the approximation and translation
norms, like lq_norm, are one blockwise pass over their differences
(fields.difference_lq_norm): a translation rolls U once, and no
difference or square is lattice-sized; fields.squares_lq_norm reduces all.

verify_estimates audits the three smoothing estimates that drive the
commutator analysis: the gradient bound (slope alpha - 1), the
approximation bound (slope alpha), and the translation bound (slope
alpha), for fields of Besov exponent alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ._bumps import bump
from .errors import ParameterError, ResolutionError, _integer, _real
from .fields import (DiscreteField, Field, Lattice, TravelingField,
                     difference_lq_norm, difference_squares, require_q,
                     shift_difference_norm, squares_lq_norm)
from .rates import RateFit, fit_loglog


class MollifierKernel:
    """Sampled bump kernel bound to one lattice.

    profile_samples holds the renormalized weights on the centered stencil
    (time axis first; a space-only kernel has a single time slice).
    discrete_sum records sum(weights) * cell_volume, which renormalization
    makes 1 up to rounding.
    """

    def __init__(self, epsilon: float, lattice: Lattice,
                 space_only: bool = False):
        if not 0 < _real(epsilon, "epsilon") < np.inf:
            raise ParameterError(
                f"epsilon must be positive and finite, got {epsilon}")
        spacings = [lattice.h_space] * lattice.k if space_only else \
            [lattice.h_time] + [lattice.h_space] * lattice.k
        h_coarse = max(spacings)
        if epsilon < 4.0 * h_coarse:
            raise ResolutionError(
                f"epsilon {epsilon:g} under-resolved: needs >= 4 nodes per "
                f"radius, minimum epsilon here is {4.0 * h_coarse:g}")

        radius = []
        for axis, n in enumerate(lattice.shape):
            r = 0 if axis == 0 and space_only else \
                int(np.floor(epsilon / lattice.axis_spacing(axis)))
            if 2 * r + 1 > n:
                raise ResolutionError(
                    f"epsilon {epsilon:g} too large: stencil spans {2*r+1} nodes "
                    f"on axis {axis} of size {n}")
            radius.append(r)

        grids = np.meshgrid(
            *[np.arange(-r, r + 1) * lattice.axis_spacing(a)
              for a, r in enumerate(radius)], indexing="ij")
        dist = np.sqrt(sum(g * g for g in grids))
        weights = bump(dist / epsilon)
        cell = float(np.prod(spacings))
        total = weights.sum() * cell
        if total <= 0:
            raise ResolutionError("kernel stencil carries no mass")
        weights = weights / total
        weights.flags.writeable = False

        self.epsilon = float(epsilon)
        self.lattice = lattice
        self.space_only = bool(space_only)
        self.radius_nodes = tuple(radius)
        self.profile_samples = weights
        self.cell_volume = cell
        self.discrete_sum = float(weights.sum() * cell)
        self._spectrum: Optional[np.ndarray] = None
        self._lines: dict = {}

    def spectrum(self) -> np.ndarray:
        """Spectrum of the stencil wrapped into a lattice-sized array at
        the nonnegative frequencies, N_a//2 + 1 per axis, time first.  The
        sampled bump is even on every axis, bit for bit, so this is the
        cosine sum C_t W C_x^T over the stencil's nonnegative quadrant W
        (`_cosine_table`): each space axis contracted in turn, then time
        in one BLAS product, whose last bits follow the BLAS thread count.
        Cached until `line` cuts a line out of it; the next call sums the
        stencil again."""
        if self._spectrum is None:
            lat = self.lattice
            r_t, *r_space = self.radius_nodes
            w = self.profile_samples[tuple(slice(r, None)
                                           for r in self.radius_nodes)]
            for r, n in zip(r_space, lat.shape[1:]):  # frequencies go last
                w = np.tensordot(w, _cosine_table(n, r), axes=(1, 1))
            half = [n // 2 + 1 for n in lat.shape]
            self._spectrum = np.matmul(_cosine_table(lat.n_time, r_t),
                                       w.reshape(r_t + 1, -1)).reshape(half)
        return self._spectrum

    def line(self, P: int, size: int) -> np.ndarray:
        """Cell volume times the spectrum on the line (j, k) =
        (-P*kappa mod n_time, kappa mod n_space), kappa = 0 .. size/2: the
        filter of a traveling wave whose profile has `size` nodes.  The
        spectrum is even, so entry (j, k) is read at (min(j, n_time - j),
        min(k, n_space - k)).  Cached per (P, size); a miss reads the 2-D
        spectrum once and drops it from the kernel."""
        key = (P, size)
        if key not in self._lines:
            n_time, n = self.lattice.shape
            kappa = np.arange(size // 2 + 1)
            self._lines[key] = self.spectrum()[
                _fold(-P * kappa, n_time), _fold(kappa, n)] * self.cell_volume
            self._spectrum = None
        return self._lines[key]

    def offsets(self):
        """(offset tuple, weight) pairs over the nonzero stencil entries."""
        nz = np.argwhere(self.profile_samples > 0.0)
        for index in nz:
            off = tuple(int(index[a]) - self.radius_nodes[a]
                        for a in range(len(self.radius_nodes)))
            yield off, float(self.profile_samples[tuple(index)])


def _cosine_table(n: int, r: int) -> np.ndarray:
    """C[j, a] = m_a cos(2 pi (j a mod n) / n), j <= n//2, a <= r, with
    m_0 = 1, m_a = 2: an even stencil's transform from its half."""
    j, a = np.ogrid[:n // 2 + 1, :r + 1]
    table = np.cos(2 * np.pi * np.arange(n) / n)[j * a % n]
    table[:, 1:] *= 2.0
    return table


def _fold(index: np.ndarray, n: int) -> np.ndarray:
    """Entry of frequency `index` (mod n) in an even spectrum's kept half."""
    index = index % n
    return np.minimum(index, n - index)


def _require_kernel(kernel) -> MollifierKernel:
    """kernel unchanged if it is a MollifierKernel, else ParameterError."""
    if not isinstance(kernel, MollifierKernel):
        raise ParameterError(
            f"expected a MollifierKernel (see make_kernel), got {kernel!r}")
    return kernel


def make_kernel(epsilon: float, lattice: Lattice,
                space_only: bool = False) -> MollifierKernel:
    """Build the discrete mollification kernel at scale epsilon."""
    return MollifierKernel(epsilon, lattice, space_only=space_only)


def _convolve_line(field: TravelingField,
                   kernel: MollifierKernel) -> np.ndarray:
    """Nodes of the convolution of a traveling wave.  Profile mode kappa
    (of q*n) is the lattice mode (-P*kappa mod n_time, kappa mod n),
    P = p*n_time/(q*n), so it is filtered by that line of the kernel
    spectrum."""
    n_time, n = kernel.lattice.shape
    size = field.rows * n
    line = kernel.line(field.shift * n_time // size, size)
    line = line.reshape(line.shape + (1,) * (field.profile.ndim - 1))
    profile = np.fft.irfft(np.fft.rfft(field.profile, axis=0) * line,
                           n=size, axis=0)
    return profile[None]


def _convolve_fft(values: np.ndarray, kernel: MollifierKernel) -> np.ndarray:
    shape = kernel.lattice.shape
    flat = values.reshape(shape + (-1,))
    # the filter: the even spectrum unfolded onto the rfftn layout of the
    # leading axes, times the cell volume
    spec = kernel.spectrum()[np.ix_(*[_fold(np.arange(n), n)
                                      for n in shape[:-1]])]
    spec *= kernel.cell_volume
    # channel-major: each channel is transformed into one complex buffer
    # and back into its own contiguous slab, in place per pass (rfftn and
    # irfftn allocate per pass); the result is the channel-last view
    out = np.empty((flat.shape[-1],) + shape)
    fhat = np.empty(spec.shape, dtype=complex)
    for c, channel in enumerate(np.moveaxis(flat, -1, 0)):
        np.fft.rfft(channel, out=fhat)
        for axis in range(len(shape) - 1):
            np.fft.fft(fhat, axis=axis, out=fhat)
        fhat *= spec
        for axis in range(len(shape) - 1):
            np.fft.ifft(fhat, axis=axis, out=fhat)
        np.fft.irfft(fhat, n=shape[-1], out=out[c])
    return np.moveaxis(out, 0, -1).reshape(values.shape)


def _convolve_direct(values: np.ndarray, kernel: MollifierKernel) -> np.ndarray:
    lat_axes = kernel.lattice.n_axes
    axes = tuple(range(lat_axes))
    out = np.zeros_like(values)
    for off, w in kernel.offsets():
        out += w * np.roll(values, shift=off, axis=axes)
    out *= kernel.cell_volume
    return out


def mollify(field: Field, kernel: MollifierKernel,
            method: str = "fft") -> Field:
    """Convolve a field with the kernel.

    Fully periodic fields (space always, time via periodic_time) return a
    field on the same lattice.  A field that is not periodic in time is
    convolved circularly and then trimmed by the kernel's time radius at
    both ends, so every surviving node saw only legitimate neighbors.

    method: "fft" (the default; every epsilon sweep uses it) and "direct"
    compute the same circular convolution; "direct" is the reference
    stencil summation with exact shift equivariance.  With "fft", a
    TravelingField is convolved along its single spectral line and comes
    back as a TravelingField, equal to the 2-D transform to rounding;
    "direct" materializes it and returns a DiscreteField.
    """
    if _require_kernel(kernel).lattice != field.lattice:
        raise ParameterError("kernel was built for a different lattice")
    if method not in ("fft", "direct"):
        raise ParameterError(f"unknown method {method!r}")
    if method == "fft" and isinstance(field, TravelingField):
        return field.with_nodes(_convolve_line(field, kernel))

    conv = _convolve_fft if method == "fft" else _convolve_direct
    values = conv(np.asarray(field.values), kernel)

    r_t = kernel.radius_nodes[0]
    if field.periodic_time or r_t == 0:
        return DiscreteField(lattice=field.lattice, values=values,
                             periodic_time=field.periodic_time)
    n_keep = field.lattice.n_time - 2 * r_t
    if n_keep < 8:
        raise ResolutionError(
            f"trimming {r_t} nodes from both time ends leaves {n_keep} < 8 "
            "samples; enlarge the time extent or shrink epsilon")
    trimmed = Lattice(k=field.lattice.k, n_time=n_keep,
                      n_space=field.lattice.n_space,
                      extent_time=n_keep * field.lattice.h_time,
                      extent_space=field.lattice.extent_space)
    return DiscreteField(lattice=trimmed, values=values[r_t:r_t + n_keep],
                         periodic_time=False)


def sweep(field: Field, kernels: Sequence[MollifierKernel]):
    """Return an iterator that yields (kernel, [U]_eps, rows) per kernel,
    coarsest epsilon first; rows slices the leading axis of U's nodes (or
    of any array on them) to the lattice of [U]_eps: the time slab a trim
    keeps, all of it otherwise.  [U]_eps has the form of U, so a
    TravelingField stays compact through the sweep.  kernels must be a
    non-empty sequence of MollifierKernels, checked on the call:
    ParameterError otherwise."""
    if not isinstance(kernels, Sequence):
        raise ParameterError(
            f"expected a sequence of MollifierKernels, got {kernels!r}")
    if not kernels:
        raise ParameterError("empty kernel sweep")
    kernels = sorted(map(_require_kernel, kernels), key=lambda k: -k.epsilon)
    return _levels(field, kernels)


def _levels(field: Field, kernels: list):
    count = len(field.nodes)
    while kernels:     # popped: no reference kept to a finished kernel
        kernel = kernels.pop(0)
        mollified = mollify(field, kernel)
        r_t = (field.lattice.n_time - mollified.lattice.n_time) // 2
        yield kernel, mollified, slice(r_t, count - r_t)
        del mollified       # before the next level is mollified


def lq_norm(field: Field, q: float) -> float:
    """L^q norm of the pointwise Euclidean magnitude over the lattice."""
    require_q(q)
    return difference_lq_norm(field.nodes, None, field.lattice.n_axes, q,
                              field.node_volume)


def axis_derivative(field: Field, axis: int) -> np.ndarray:
    """Central-difference derivative along one lattice axis, on the
    field's nodes.

    Periodic axes wrap; a non-periodic time axis falls back to one-sided
    differences at the two boundary slices.  On a TravelingField the time
    derivative is (profile[eta + p] - profile[eta - p]) / (2 h_t).
    """
    n_axes = field.lattice.n_axes
    axis = _integer(axis, "axis", 0)
    if axis >= n_axes:
        raise ParameterError(f"axis must be < {n_axes}, got {axis}")
    v = field.nodes
    h = field.lattice.axis_spacing(axis)
    if axis == 0 and not field.periodic_time:
        return np.gradient(v, h, axis=0)
    # a unit step moves one node axis, by d nodes: out[i] = v[i + d] from
    # one roll, minus v[i - d] taken in place from two slices of v
    shift = field.node_roll(np.eye(n_axes, dtype=int)[axis])
    node_axis = int(np.argmax(np.abs(shift)))
    n = v.shape[node_axis]
    d = shift[node_axis] % n
    out = np.roll(v, -d, axis=node_axis)
    ahead, behind = (np.moveaxis(a, node_axis, 0) for a in (out, v))
    np.subtract(ahead[d:], behind[:n - d], out=ahead[d:])
    np.subtract(ahead[:d], behind[n - d:], out=ahead[:d])
    out /= 2.0 * h
    return out


def _squared_gradient(field: Field) -> np.ndarray:
    """Pointwise squared Frobenius norm of the central-difference
    space-time gradient, on the field's nodes: each axis derivative's
    squared magnitude added block by block."""
    n_axes = field.lattice.n_axes
    acc = np.zeros(field.nodes.shape[:n_axes])
    flat = acc.reshape(-1)
    for axis in range(n_axes):
        start = 0
        for mag2 in difference_squares(axis_derivative(field, axis), None,
                                       n_axes):
            flat[start:start + mag2.size] += mag2
            start += mag2.size
    return acc


@dataclass(frozen=True)
class MollifierAudit:
    """Per-epsilon norms and log-log fits for the three smoothing estimates.

    Expected slopes for a field of Besov exponent alpha_ref: gradient_fit
    about alpha_ref - 1, approximation_fit about alpha_ref, translation_fit
    about alpha_ref.  Degenerate fits (all norms zero, e.g. constant
    fields) carry the RateFit degenerate sentinel.
    """

    q: float
    alpha_ref: float
    epsilons: np.ndarray
    gradient_norms: np.ndarray
    approximation_norms: np.ndarray
    translation_norms: np.ndarray
    gradient_fit: RateFit
    approximation_fit: RateFit
    translation_fit: RateFit


def verify_estimates(field: Field, q: float,
                     epsilons: Sequence[float],
                     alpha_ref: float) -> MollifierAudit:
    """Measure the three mollification estimates across an epsilon sweep."""
    require_q(q)
    if np.ndim(epsilons) != 1 or len(epsilons) < 4:
        raise ParameterError(f"need a sequence of at least 4 epsilons for "
                             f"stable fits, got {epsilons!r}")
    if not 0.0 < _real(alpha_ref, "alpha_ref") < 1.0:
        raise ParameterError(f"alpha_ref must lie in (0, 1), got {alpha_ref}")
    # map drops each level once its norms are taken, before it asks for
    # the next: one [U]_eps and one kernel's spectrum alive at a time
    eps, grad_norms, diff_norms, trans_norms = map(np.array, zip(*map(
        partial(_estimate_norms, field, q),
        sweep(field, [make_kernel(e, field.lattice) for e in epsilons]))))
    return MollifierAudit(
        q=float(q), alpha_ref=float(alpha_ref), epsilons=eps,
        gradient_norms=grad_norms, approximation_norms=diff_norms,
        translation_norms=trans_norms,
        gradient_fit=fit_loglog(eps, grad_norms),
        approximation_fit=fit_loglog(eps, diff_norms),
        translation_fit=fit_loglog(eps, trans_norms),
    )


def _estimate_norms(field: Field, q: float, level) -> tuple:
    """(eps, gradient, approximation and translation norms) of one level
    of sweep."""
    kernel, smoothed, rows = level
    lat = field.lattice
    e = kernel.epsilon
    vol = smoothed.node_volume
    grad = squares_lq_norm([_squared_gradient(smoothed)], q, vol)
    diff = difference_lq_norm(smoothed.nodes, field.nodes[rows], lat.n_axes,
                              q, vol)
    best = 0.0
    for axis in range(lat.n_axes):
        nodes = round(e / lat.axis_spacing(axis))
        if nodes < 1 or nodes >= lat.shape[axis] // 2:
            continue
        best = max(best, shift_difference_norm(field, axis, nodes, q))
    return e, grad, diff, best


def kernel_table(kernel: MollifierKernel):
    """The stencil as a (header, rows) table: node offsets, physical
    offsets and weight, one row per stencil node, zero weights included."""
    lat = _require_kernel(kernel).lattice
    idx = np.argwhere(np.ones_like(kernel.profile_samples, dtype=bool))
    offs = idx - np.array(kernel.radius_nodes)
    phys = offs * np.array([lat.axis_spacing(a) for a in range(lat.n_axes)])
    w = kernel.profile_samples.reshape(-1)
    axes = ["t"] + [f"x{a}" for a in range(1, lat.n_axes)]
    header = [f"d{a}" for a in axes] + [f"off_{a}" for a in axes] + ["weight"]
    return header, np.column_stack([offs, phys, w])
