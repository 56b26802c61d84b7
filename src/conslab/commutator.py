"""Nonlinear commutator of flux and mollification, and the residual it
leaves in the mollified companion law.

The central object is W = G([U]_eps) - [G(U)]_eps.  Entries in affine
flux columns or rows vanish identically (mollification commutes with
affine maps against a kernel of unit discrete mass) and are short-
circuited to exact zeros.  A compact-range extension has no affine entries
globally, but where U and [U]_eps both lie in its delta enlargement every
flux it evaluates is the base system's, so at such a level the base's
affine entries are short-circuited too (SystemSpec.extension_of) and G, B
and DB are the base's own evaluators, which the extension would return
unchanged there; at any other level every entry is computed through the
extension.  A finite-difference DB always differences the extension's B.

residual_R integrates the defect of the mollified companion law against a
test function, split as the multiplier-derivative part I1 and the
test-gradient part I2:

    I1 = -integral  W : (D_U B^T([U]_eps) . D_X [U]_eps) psi
    I2 = -integral  W : (B^T([U]_eps) . D_X psi)

so that I1 + I2 equals -integral Q([U]_eps) . D_X psi for exact weak
solutions.  The leading minus comes from the integration by parts that
moves the divergence off the commutator; with it, admissible shocks
produce negative totals matching their dissipation rate.

Everything here runs on the field's nodes (see fields): on a
TravelingField moving p/q nodes per step the commutator, the multiplier
and every norm live on the q*n_space profile nodes of the co-moving grid
eta = q*i - p*t, and the integrals pair them with the shear averages of
psi and D_X psi onto that grid.  residual_R takes those averages from
the row window of testfunctions.node_means, which picks the test
function's view; a level trimmed in time reads the rows of its window,
and checks only the rows it trims.

A consumer holds one level at a time.  residual_R and lemma_bound_audit
take a level's terms in mollifier.per_level, so the level's [U]_eps,
commutator entries and derivatives are dropped before the next level is
computed, and the sweep drops its own reference to [U]_eps before it
mollifies the next: a sweep peaks where its costliest single level does,
however many kernels it has.

Within a level the nonlinear layer runs in row blocks of about
fields._BLOCK_NODES nodes (fields._row_blocks): G(U) and G([U]_eps) keep
only the entries the level asks for, and psi, D_X psi, B, DB, the chain
products and the I1/I2 sums are taken block by block.  What a level
holds whole is [U]_eps, the needed G(U) entries and their mollification,
the parts and one derivative of [U]_eps per axis read (one roll, the
other neighbour subtracted in place); no flux, multiplier or test
function array of the whole level is built.  The lemma's norms and the
good set's count square [U]_eps - U, the entries and U minus each rolled
U block by block (fields.difference_squares), never the whole level.  A
compact field's nodes are one row, so it runs as a single block.  The
sums reorder across blocks, so I1 and I2 on a 2-D field agree with a
whole-level sum to rounding, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import ParameterError, TestSupportError
from .fields import (Field, _row_blocks, difference_lq_norm,
                     difference_squares, require_q)
from .mollifier import (MollifierKernel, axis_derivative, mollify,
                        per_level, sweep)
from .rates import RateFit, aitken_limit, fit_loglog
from .systems import (FD_STEP, SystemSpec, fd_jacobian, require_delta,
                      require_in_domain, require_states)
from .testfunctions import TestFunction, node_means


def _commutator(system: SystemSpec, field: Field,
                 kernel: MollifierKernel, mollified: Field,
                 entries) -> np.ndarray:
    """The commutator entries `entries` with the fluxes of `system`, one
    array: parts[m] is entry entries[m] on the nodes of [U]_eps.

    G(U) and G([U]_eps) run per row block (fields._row_blocks), and each
    block keeps only the entries asked for, so the level holds the needed
    entries of G(U), their mollification and the parts, never a whole
    flux array."""
    shape = mollified.nodes.shape[:-1]
    if not entries:
        return np.empty((0,) + shape)
    rows, cols = zip(*entries)
    nodes = field.nodes
    fluxes = np.empty(nodes.shape[:-1] + (len(entries),))
    for blk in _row_blocks(nodes.shape[:-1]):
        fluxes[blk] = system.G(nodes[blk])[..., rows, cols]
    smoothed = mollify(field.with_nodes(fluxes), kernel).nodes
    del fluxes
    nodes = mollified.nodes
    parts = np.empty((len(entries),) + shape)
    for blk in _row_blocks(shape):
        parts[:, blk] = np.moveaxis(
            system.G(nodes[blk])[..., rows, cols] - smoothed[blk], -1, 0)
    return parts


def _entries(system: SystemSpec) -> list:
    """The flux entries (i, j) outside the system's affine rows and columns."""
    return [(i, j)
            for i in range(system.n) if i not in system.affine_rows
            for j in range(system.k + 1) if j not in system.affine_columns]


def _commutators(system: SystemSpec, field: Field,
                 kernels: Sequence[MollifierKernel]):
    """Check the field's states and the kernels, then return an iterator
    over the sweep that yields (kernel, [U]_eps, rows, local, entries,
    parts) per kernel, coarsest epsilon first: rows as in mollifier.sweep,
    local the system whose evaluators the level reads, parts[m] the
    commutator entry entries[m] (affine rows and columns left out), all
    in one array (see _commutator).

    On a compact-range extension, a level where both U and [U]_eps pass the
    extension's interior test also leaves out the base system's affine
    entries, and its local system is the base: every flux the level
    evaluates is the base's there, so calling the base skips the cutoff
    the extension's evaluators would compute per call; no other code calls
    the base of an extension.  Elsewhere local is the system itself.

    The iterator keeps no level it has yielded once it computes the next:
    a consumer that drops its level before asking for the next holds one
    level at a time."""
    require_states(system, field, f"field of {system.name!r}")
    swept = sweep(field, kernels)
    entries = _entries(system)
    narrow = entries
    if system.extension_of is not None:
        base, interior = system.extension_of
        if interior(field.nodes):
            narrow = _entries(base)

    def levels():
        for kernel, mollified, rows in swept:
            require_in_domain(
                system.domain, mollified.nodes,
                f"mollified field of {system.name!r} at eps "
                f"{kernel.epsilon:g} (replace the system with "
                "extend_to_compact_range(...) over the field's range box)")
            local, level = system, entries
            if narrow is not entries and interior(mollified.nodes):
                local, level = base, narrow
            yield (kernel, mollified, rows, local, level,
                   _commutator(local, field, kernel, mollified, level))
            del mollified   # before the next level is mollified
    return levels()


def commutator_field(system: SystemSpec, field: Field,
                     kernel: MollifierKernel) -> Field:
    """G([U]_eps) - [G(U)]_eps as a matrix-valued field (n x (k+1) per
    node), of the form of [U]_eps.

    Affine columns and rows are exact zeros by construction.  Raises a
    domain violation when the field or its mollification leaves a bounded
    state domain; the fix is to extend the system to a compact range
    first.
    """
    _, mollified, _, _, entries, parts = next(
        _commutators(system, field, [kernel]))
    nodes = mollified.nodes
    out = np.zeros(nodes.shape[:-1] + (system.n, system.k + 1))
    for (i, j), part in zip(entries, parts):
        out[..., i, j] = part
    return mollified.with_nodes(out)


@dataclass(frozen=True)
class CommutatorSweep:
    """Commutator norms against the square-difference bound, per epsilon.

    lemma_bound_values holds the bound with unit constant:
    ||[U]_eps - U||^2_{L^{2q}} plus the max over nonzero stencil offsets Y
    of ||U - U(. - Y)||^2_{L^{2q}}.  measured_C is the ratio of the two
    sides (NaN where the bound vanishes).
    """

    q: float
    epsilons: np.ndarray
    commutator_Lq_norms: np.ndarray
    lemma_bound_values: np.ndarray
    measured_C: np.ndarray
    rate_fit: RateFit


def lemma_bound_audit(system: SystemSpec, field: Field,
                      kernels: Sequence[MollifierKernel],
                      q: float) -> CommutatorSweep:
    """Measure ||W||_{L^q} against the square-difference bound per epsilon.

    The sup over kernel-support shifts is realized exactly as a max over
    all nonzero stencil offsets, so the cost grows with the stencil size;
    intended for audit-scale lattices.  On a TravelingField an offset
    (a, c) is the profile shift q*c - p*a, and each distinct one is
    visited once.  Each visit rolls the nodes once and sums |v|^{2q}
    block by block, so a shift norm agrees with a whole-array sum to
    rounding, not bit for bit.
    """
    require_q(q)
    if not field.periodic_time:
        raise ParameterError(
            "lemma_bound_audit requires a fully periodic field (the shift "
            "maximum wraps every axis)")
    eps, lhs, bounds = per_level(partial(_lemma_terms, field, q),
                                 _commutators(system, field, kernels))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bounds > 0, lhs / bounds, np.nan)
    return CommutatorSweep(q=float(q), epsilons=eps,
                           commutator_Lq_norms=lhs,
                           lemma_bound_values=bounds, measured_C=ratio,
                           rate_fit=fit_loglog(eps, lhs))


def _lemma_terms(field: Field, q: float, level) -> tuple:
    """(eps, ||W||_{L^q}, bound) of one level of _commutators."""
    kernel, mollified, rows, _, _, parts = level
    n_axes = field.lattice.n_axes
    vol = mollified.node_volume
    lhs = difference_lq_norm(np.moveaxis(parts, 0, -1), None, n_axes, q, vol)
    approx = difference_lq_norm(mollified.nodes, field.nodes[rows], n_axes,
                                2.0 * q, vol)
    shift_sup = _max_shift_norm(field, kernel, 2.0 * q)
    return kernel.epsilon, lhs, approx ** 2 + shift_sup ** 2


def _max_shift_norm(field: Field, kernel: MollifierKernel,
                    q: float) -> float:
    """max over the kernel's nonzero offsets Y of ||U - U(. - Y)||_{L^q},
    one np.roll per distinct node shift, freed once it is read."""
    n_axes = field.lattice.n_axes
    nodes = np.ascontiguousarray(field.nodes)
    best = 0.0
    for shift in _distinct_shifts(field, kernel).tolist():
        best = max(best, difference_lq_norm(
            nodes, np.roll(nodes, tuple(shift), axis=tuple(range(n_axes))),
            n_axes, q, field.node_volume))
    return best


def _distinct_shifts(field: Field, kernel: MollifierKernel) -> np.ndarray:
    """The node shifts of the kernel's nonzero offsets Y > 0 (in
    lexicographic order), reduced mod the node shape: each distinct shift
    once, one row per shift, in lexicographic order.

    ||U - U(. - Y)|| equals ||U - U(. + Y)|| on the fully periodic fields
    lemma_bound_audit admits, so one offset of each opposite pair is
    enough; on a TravelingField many offsets move the profile alike.
    node_roll is linear in the offset on both field forms, so the shifts
    are the offsets times its values on the unit offsets."""
    n_axes = field.lattice.n_axes
    shape = field.nodes.shape[:n_axes]
    offsets = (np.argwhere(kernel.profile_samples > 0.0)
               - np.array(kernel.radius_nodes))
    lead = offsets[np.arange(len(offsets)), np.argmax(offsets != 0, axis=1)]
    basis = np.array([field.node_roll(unit)
                      for unit in np.eye(n_axes, dtype=int)])
    shifts = offsets[lead > 0] @ basis % np.array(shape)
    # deduplicated by sorting flat indices: np.unique would load numpy.ma
    # (1.1 MiB of modules) on its first call
    keys = np.sort(np.ravel_multi_index(tuple(shifts.T), shape))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.column_stack(np.unravel_index(keys, shape))


@dataclass(frozen=True)
class ResidualReport:
    """Companion-law defect integral per epsilon with its I1/I2 split.

    total = I1 + I2 summand by summand.  rate_fit is a log-log fit of
    |total| against epsilon; limit_estimate extrapolates total toward
    epsilon -> 0 from the tail of the sweep.
    """

    epsilons: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    total: np.ndarray
    rate_fit: RateFit
    limit_estimate: float


def residual_R(system: SystemSpec, field: Field,
               kernels: Sequence[MollifierKernel],
               testfn: TestFunction) -> ResidualReport:
    """Integrate the mollified companion-law defect against a test function.

    Per epsilon: I1 pairs the commutator with the multiplier derivative
    along D_X[U]_eps times psi; I2 pairs it with the multiplier times
    D_X psi.  The multiplier Jacobian D_U B uses the system's analytic DB
    when present, else central differences with step systems.FD_STEP.

    psi and D_X psi come from one evaluate call on the field's own
    lattice and clock, averaged onto its nodes as a row window
    (testfunctions.node_means); each level reads the rows of its window,
    one row block at a time.  On a field that is not
    periodic in time a level keeps the time window its kernel's radius
    leaves at both ends, and psi and D_X psi must vanish outside it:
    TestSupportError otherwise.
    """
    levels = _commutators(system, field, kernels)
    eps, I1s, I2s, totals = per_level(
        partial(_residual_terms, system, field, node_means(testfn, field)),
        levels)
    return ResidualReport(epsilons=eps, I1=I1s, I2=I2s, total=totals,
                          rate_fit=fit_loglog(eps, np.abs(totals)),
                          limit_estimate=aitken_limit(totals))


def _residual_terms(system: SystemSpec, field: Field, means,
                    level) -> tuple:
    """(eps, I1, I2, I1 + I2) of one level of _commutators, with psi and
    D_X psi from the row window means of testfunctions.node_means.  B and
    DB are the level's local system's; a finite-difference DB differences
    the system's own B, since a perturbed state may leave where the two
    agree.  psi, D_X psi, B, DB, the chain products and the sums run per
    row block of [U]_eps's nodes (fields._row_blocks)."""
    kernel, mollified, rows, local, entries, parts = level
    _require_window_support(field, kernel, rows, means)
    vol = mollified.node_volume
    nodes = mollified.nodes
    derivs = {j: axis_derivative(mollified, j)
              for j in {j for _, j in entries}}
    I1 = 0.0
    I2 = 0.0
    for blk in _row_blocks(nodes.shape[:-1]):
        psi, dpsi = means(slice(rows.start + blk.start,
                                rows.start + min(blk.stop, len(nodes))))
        U = nodes[blk]
        B = local.B(U)
        if local.DB is not None:
            DB = local.DB(U)
        else:
            DB = fd_jacobian(system.B, U, FD_STEP)
        for (i, j), W_ij in zip(entries, parts[:, blk]):
            chain = np.einsum("...m,...m->...", DB[..., i, :],
                              derivs[j][blk])
            I1 -= np.sum(W_ij * chain * psi) * vol
            I2 -= np.sum(W_ij * B[..., i] * dpsi[..., j]) * vol
    return kernel.epsilon, float(I1), float(I2), float(I1 + I2)


def _require_window_support(field: Field, kernel: MollifierKernel,
                            rows: slice, means) -> None:
    """Raise TestSupportError where psi or D_X psi (the row window means)
    is nonzero on a row the level at kernel trims."""
    trimmed = means(slice(0, rows.start)) + \
        means(slice(rows.stop, len(field.nodes)))
    if any(map(np.any, trimmed)):
        h = field.lattice.h_time
        raise TestSupportError(
            f"test function is nonzero outside the time window "
            f"[{rows.start * h:g}, {(rows.stop - 1) * h:g}] that the level "
            f"at eps {kernel.epsilon:g} keeps; shrink its time support or "
            "epsilon")


def good_set_measure(field: Field, kernel: MollifierKernel,
                     delta: float) -> float:
    """Fraction of lattice nodes where |U - [U]_eps| < delta."""
    require_delta(delta)
    _, mollified, rows = next(sweep(field, [kernel]))
    n_axes = field.lattice.n_axes
    good = sum(np.count_nonzero(np.sqrt(mag2, out=mag2) < delta) for mag2
               in difference_squares(mollified.nodes, field.nodes[rows],
                                     n_axes))
    return good / math.prod(mollified.nodes.shape[:n_axes])
