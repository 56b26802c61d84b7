"""Nonlinear commutator, square-difference bound, companion-law residual."""

import dataclasses
import itertools
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import oracles
from conftest import traced_peak
from conslab import TestSupportError as SupportError
from conslab import cli, commutator, fields, mollifier
from conslab import (DiscreteField, DomainViolationError, GeometryError,
                     Lattice, ParameterError, ShockAlignedBump, StateDomain,
                     SystemSpec, TensorBump, TimeBump, TravelingField,
                     commutator_field, extend_to_compact_range,
                     good_set_measure,
                     lemma_bound_audit, lq_norm, make_builtin, make_kernel,
                     make_lacunary_field, make_shock_field, mollify,
                     residual_R, shift_difference_norm, verify_estimates)
from conslab.fields import _row_blocks
from conslab.mollifier import axis_derivative
from conslab.systems import FD_STEP, fd_jacobian
from conslab.testfunctions import node_means


@pytest.fixture(scope="module")
def space_lattice():
    return Lattice(k=1, n_time=16, n_space=2048, extent_time=1.0,
                   extent_space=1.0)


@pytest.fixture(scope="module")
def unit_shock(burgers, space_lattice):
    return make_shock_field(burgers, [1.0], [0.0], 0.0, space_lattice)


# ---------------------------------------------------------------------------
# structure of the commutator field


def test_affine_columns_are_exact_zeros(burgers, unit_shock, space_lattice):
    kernel = make_kernel(2.0 ** -4, space_lattice, space_only=True)
    W = commutator_field(burgers, unit_shock, kernel)
    assert W.value_shape == (1, 2)
    assert np.all(W.values[..., 0, 0] == 0.0)  # density column is affine
    assert np.any(W.values[..., 0, 1] != 0.0)


def test_affine_rows_are_exact_zeros(elasto):
    lat = Lattice(k=1, n_time=16, n_space=512, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(elasto, [1.0, 0.2], [1.5, -0.2], 0.0, lat)
    W = commutator_field(elasto, field, make_kernel(0.0625, lat,
                                                    space_only=True))
    assert np.all(W.values[..., 0, :] == 0.0)  # kinematic row is affine
    assert np.any(W.values[..., 1, 1] != 0.0)


def make_affine_system():
    def G(U):
        u = U[..., 0]
        return np.stack([2.0 * u + 1.0, -3.0 * u], axis=-1)[..., None, :]

    def B(U):
        return np.ones_like(U)

    def Q(U):
        u = U[..., 0]
        return np.stack([2.0 * u, -3.0 * u], axis=-1)

    return SystemSpec(name="affine-toy", n=1, k=1,
                      domain=StateDomain.all_space(), G=G, B=B, Q=Q,
                      affine_columns=frozenset({0, 1}))


def test_fully_affine_system_has_zero_residual(space_lattice):
    system = make_affine_system()
    field = make_lacunary_field(0.4, 7, seed=3, travel_speed=0.0,
                                lattice=space_lattice)
    kernel = make_kernel(0.0625, space_lattice, space_only=True)
    W = commutator_field(system, field, kernel)
    assert np.all(W.values == 0.0)
    report = residual_R(system, field, [kernel],
                        TensorBump(center=(0.5, 0.5), radius=(0.4, 0.4)))
    assert report.total[0] == 0.0
    assert report.I1[0] == 0.0 and report.I2[0] == 0.0


def test_smooth_field_commutator_is_second_order(burgers):
    lat = Lattice(k=1, n_time=128, n_space=128, extent_time=1.0,
                  extent_space=1.0)
    t, x = np.meshgrid(lat.times(), lat.space_nodes(), indexing="ij")
    field = DiscreteField(lattice=lat,
                          values=np.sin(2 * np.pi * (x - t))[..., None])
    n_coarse = lq_norm(commutator_field(burgers, field,
                                        make_kernel(1 / 8, lat)), 2.0)
    n_fine = lq_norm(commutator_field(burgers, field,
                                      make_kernel(1 / 16, lat)), 2.0)
    # halving eps quarters the commutator of smooth data
    assert n_coarse / n_fine == pytest.approx(4.0, rel=0.2)


def test_shock_commutator_l1_closed_form(burgers, unit_shock, space_lattice):
    # both interfaces of the periodic two-state field contribute
    # c * eps * [u]^2 / 2 each, c the step-variance line integral
    c = oracles.step_variance_l1_constant()
    for eps in (2.0 ** -4, 2.0 ** -5):
        W = commutator_field(burgers, unit_shock,
                             make_kernel(eps, space_lattice, space_only=True))
        assert lq_norm(W, 1.0) == pytest.approx(c * eps, rel=1e-3)


def test_shock_commutator_quadratic_in_jump(burgers, space_lattice):
    eps = 2.0 ** -4
    kernel = make_kernel(eps, space_lattice, space_only=True)
    small = make_shock_field(burgers, [1.0], [0.0], 0.0, space_lattice)
    big = make_shock_field(burgers, [1.0], [-1.0], 0.0, space_lattice)
    r = lq_norm(commutator_field(burgers, big, kernel), 1.0) / \
        lq_norm(commutator_field(burgers, small, kernel), 1.0)
    assert r == pytest.approx(4.0, rel=1e-3)


def test_commutator_trims_nonperiodic_time(burgers, rng):
    lat = Lattice(k=1, n_time=64, n_space=64, extent_time=2.0,
                  extent_space=1.0)
    field = DiscreteField(lattice=lat, values=rng.normal(size=lat.shape + (1,)),
                          periodic_time=False)
    kernel = make_kernel(0.25, lat)
    W = commutator_field(burgers, field, kernel)
    assert not W.periodic_time
    assert W.lattice.n_time == 64 - 2 * kernel.radius_nodes[0]


# ---------------------------------------------------------------------------
# square-difference bound


@pytest.fixture(scope="module")
def lemma_sweep(burgers, space_lattice):
    field = make_lacunary_field(0.5, 7, seed=7, travel_speed=0.0,
                                lattice=space_lattice)
    eps = [2.0 ** (-4 - 0.5 * i) for i in range(5)]
    kernels = [make_kernel(e, space_lattice, space_only=True) for e in eps]
    return lemma_bound_audit(burgers, field, kernels, q=1.5)


def test_lemma_bound_dominates(lemma_sweep):
    # the measured constant: below 1 (the bound holds with unit constant
    # here) and stable across the sweep
    assert np.all(lemma_sweep.commutator_Lq_norms <=
                  lemma_sweep.lemma_bound_values)
    C = lemma_sweep.measured_C
    assert np.all(np.isfinite(C))
    assert C.max() / C.min() <= 5.0


def test_lemma_rate_for_half_besov(lemma_sweep):
    # ||W||_{L^q} ~ eps^{2 alpha} with alpha = 1/2 and 2q = 3
    assert 0.9 <= lemma_sweep.rate_fit.slope <= 1.1
    assert np.all(np.diff(lemma_sweep.epsilons) < 0.0)


def test_lemma_constant_stable_under_refinement(burgers, lemma_sweep):
    fine = Lattice(k=1, n_time=16, n_space=4096, extent_time=1.0,
                   extent_space=1.0)
    field = make_lacunary_field(0.5, 7, seed=7, travel_speed=0.0,
                                lattice=fine)
    eps = [2.0 ** (-4 - 0.5 * i) for i in range(5)]
    kernels = [make_kernel(e, fine, space_only=True) for e in eps]
    refined = lemma_bound_audit(burgers, field, kernels, q=1.5)
    ratio = refined.measured_C / lemma_sweep.measured_C
    assert np.all(ratio <= 5.0)
    assert np.all(ratio >= 1.0 / 5.0)


def test_lemma_constant_field_sentinel(burgers, space_lattice):
    field = DiscreteField(lattice=space_lattice,
                          values=np.full(space_lattice.shape + (1,), 0.7))
    kernels = [make_kernel(e, space_lattice, space_only=True)
               for e in (0.0625, 0.03125)]
    sweep = lemma_bound_audit(burgers, field, kernels, q=1.5)
    assert np.all(np.isnan(sweep.measured_C))
    assert np.all(sweep.commutator_Lq_norms <= 1e-14)


def _brute_lemma_bounds(field, kernels, qs):
    """||[U]_eps - U||^2 + sup_Y ||U - U(. - Y)||^2 in L^{2q} on the
    materialized lattice, the sup over every nonzero stencil offset with
    both signs and no deduplication: {q: bounds per kernel}."""
    lat = field.lattice
    U = np.array(field.values)
    axes = tuple(range(lat.n_axes))

    def norms(v):
        mag = np.linalg.norm(v.reshape(lat.shape + (-1,)), axis=-1)
        return np.array([(np.sum(mag ** (2 * q)) * lat.cell_volume)
                         ** (1 / (2 * q)) for q in qs])

    bounds = []
    for kernel in kernels:
        smoothed = mollify(DiscreteField(lattice=lat, values=U), kernel)
        sup = np.max([norms(U - np.roll(U, tuple(sign * o for o in off),
                                        axis=axes))
                      for off, _ in kernel.offsets() if any(off)
                      for sign in (1, -1)], axis=0)
        bounds.append(norms(smoothed.values - U) ** 2 + sup ** 2)
    return dict(zip(qs, np.transpose(bounds)))


_LEMMA_QS = (1.0, 1.25, 1.5, 2.5, 3.0, 6.0)   # 2q even, fractional, odd


@pytest.fixture(scope="module")
def lemma_cases(elasto, euler2d, plane_field):
    """form -> (system, field, kernels, small block, brute bounds per q):
    a 2-D shock over 30 rows, a traveling wave, and the 16x32x32 k = 2
    lattice.  The small block leaves a partial last one and is no multiple
    of a row."""
    s = np.sqrt((1.2 ** 3 - 1.0) / 0.2)
    shock = make_shock_field(
        elasto, [1.0, 0.1 * s], [1.2, -0.1 * s], s,
        Lattice(k=1, n_time=30, n_space=64, extent_time=1.0,
                extent_space=1.0))
    rng = np.random.default_rng(3)
    profile = np.column_stack([1.1 + 0.05 * rng.normal(size=64),
                               0.1 * rng.normal(size=64)])
    traveling = TravelingField(
        lattice=Lattice(k=1, n_time=64, n_space=32, extent_time=1.0,
                        extent_space=1.0),
        profile=profile, shift=1, rows=2)
    cases = {}
    for form, system, field, epsilons, small in (
            ("discrete", elasto,
             DiscreteField(lattice=shock.lattice, values=shock.values),
             (0.25, 0.15), 100),
            ("traveling", elasto, traveling, (0.25, 0.15), 27),
            ("k2", euler2d, plane_field, (0.25,), 5 * 32 * 32 + 7)):
        kernels = [make_kernel(e, field.lattice) for e in epsilons]
        cases[form] = (system, field, kernels, small,
                       _brute_lemma_bounds(field, kernels, _LEMMA_QS))
    return cases


@pytest.mark.parametrize("form", ["discrete", "traveling", "k2"])
def test_lemma_bound_matches_brute_force_shift_sup(lemma_cases, form):
    # the shift loop sums |v|^{2q} block by block: the module's blocks and
    # a small odd one give the brute-force sup
    system, field, kernels, small, brute = lemma_cases[form]
    before = np.array(field.nodes)
    for q, block in itertools.product(_LEMMA_QS,
                                      (fields._BLOCK_NODES, small)):
        with mock.patch.object(fields, "_BLOCK_NODES", block):
            audit = lemma_bound_audit(system, field, kernels, q=q)
        np.testing.assert_allclose(audit.lemma_bound_values, brute[q],
                                   rtol=1e-12, err_msg=f"q {q}, block {block}")
    assert np.array_equal(field.nodes, before)


def test_shift_loop_holds_one_rolled_array_and_block_temporaries(rng):
    # one np.roll per shift, then cache-sized blocks: the loop's peak is
    # one rolled lattice array and a few block temporaries, not the
    # lattice-sized difference, squares and powers
    lattice = Lattice(k=1, n_time=128, n_space=1024, extent_time=1.0,
                      extent_space=1.0)
    field = DiscreteField(lattice=lattice,
                          values=rng.normal(size=lattice.shape + (2,)))
    kernel = make_kernel(2.0 ** -7, lattice, space_only=True)
    list(kernel.offsets())          # the stencil is built before tracing
    for q in (3.0, 5.0):
        peak = traced_peak(lambda: commutator._max_shift_norm(field, kernel,
                                                               q))
        assert peak <= field.nodes.nbytes + 4 * 8 * fields._BLOCK_NODES


def _rolled_block_loop(field, kernel, q) -> float:
    """The lemma's shift sup as a loop of its own: per distinct shift one
    np.roll, then per block of _BLOCK_NODES nodes the difference written
    over the rolled block, its squares added in component order, and the
    block's power sum added to the total."""
    nodes = np.ascontiguousarray(field.nodes)
    n_axes = field.lattice.n_axes
    flat = nodes.reshape(-1, nodes.shape[-1])
    size = fields._BLOCK_NODES
    best = 0.0
    for shift in commutator._distinct_shifts(field, kernel).tolist():
        diff = np.roll(nodes, tuple(shift),
                       axis=tuple(range(n_axes))).reshape(flat.shape)
        total = 0.0
        for start in range(0, len(flat), size):
            block = diff[start:start + size]
            np.subtract(flat[start:start + size], block, out=block)
            mag2 = np.square(block[:, 0])
            for i in range(1, block.shape[1]):
                mag2 += np.square(block[:, i])
            total += fields.power_sum(mag2, q)
        best = max(best, float((total * field.node_volume) ** (1.0 / q)))
    return best


def _commutator_sweep_case():
    """configs/commutator_sweep.json's system, field and kernels."""
    config = json.loads((Path(__file__).resolve().parent.parent / "configs"
                         / "commutator_sweep.json").read_text())
    system = make_builtin(config["system"]["name"])
    field = cli._build_field(config["field"],
                             cli._build_lattice(config["lattice"]), system)
    return field, [make_kernel(e, field.lattice)
                   for e in cli._sweep_epsilons(config["sweep"])]


@pytest.mark.parametrize("case", ["bounded-audit", "commutator-sweep"])
def test_shift_sup_is_bitwise_the_rolled_block_loop(elasto, case):
    # bounded-audit's 512 x 1024 field and lemma kernel (190 shifts) at its
    # lemma exponent 2q = 6; the shipped sweep's compact shock at every
    # level, at 2q = 6 and an odd exponent
    if case == "bounded-audit":
        lat = Lattice(k=1, n_time=512, n_space=1024, extent_time=1.0,
                      extent_space=1.0)
        field = make_shock_field(elasto, *_C8_STATES, _C8_SPEED, lat)
        kernels, qs = [make_kernel(2.0 ** -6, field.lattice)], (6.0,)
        assert len(commutator._distinct_shifts(field, kernels[0])) == 190
    else:
        (field, kernels), qs = _commutator_sweep_case(), (6.0, 5.0)
    for kernel, q in itertools.product(kernels, qs):
        got = commutator._max_shift_norm(field, kernel, q)
        assert got == _rolled_block_loop(field, kernel, q), (kernel.epsilon, q)


def _whole_norm(diff, n_axes, q, volume) -> float:
    """L^q norm of |diff| from whole-array sums."""
    mag = np.sqrt(np.sum(np.square(diff.reshape(diff.shape[:n_axes] + (-1,))),
                         axis=-1))
    return float((np.sum(mag ** q) * volume) ** (1.0 / q))


def _reduction_field(form, rng):
    """Two random channels on 48 x 512 nodes (two blocks), periodic in
    time or not, or a wave moving half a node per step on 1024 nodes."""
    low, high = [1.1, -0.2], [1.5, 0.2]
    if form == "traveling":
        lat = Lattice(k=1, n_time=1024, n_space=512, extent_time=1.0,
                      extent_space=1.0)
        return TravelingField(lattice=lat, shift=1, rows=2,
                              profile=rng.uniform(low, high, (1024, 2)))
    lat = Lattice(k=1, n_time=48, n_space=512, extent_time=1.0,
                  extent_space=1.0)
    return DiscreteField(lattice=lat,
                         values=rng.uniform(low, high, lat.shape + (2,)),
                         periodic_time=form == "discrete")


@pytest.mark.parametrize("block", [None, 1000])
@pytest.mark.parametrize("form", ["discrete", "traveling", "aperiodic"])
def test_reductions_match_whole_array_formulas(elasto, rng, form, block):
    # every L^q norm and the good set's count on node values go through
    # fields.difference_squares; its blocks (the module's, and a small
    # size that splits every field here) agree with whole-array sums
    field = _reduction_field(form, rng)
    system = extend_to_compact_range(elasto, ([1.0, -0.3], [1.4, 0.3]), 0.2)
    v, n_axes, vol = field.nodes, field.lattice.n_axes, field.node_volume
    epsilons = [1 / 4, 3 / 16, 1 / 8, 3 / 32]
    kernels = [make_kernel(e, field.lattice) for e in epsilons]

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    patch = mock.patch.object(fields, "_BLOCK_NODES",
                              block or fields._BLOCK_NODES)
    with patch:
        close(lq_norm(field, 3.0), _whole_norm(v, n_axes, 3.0, vol))
        for axis, nodes in ((0, 3), (1, 5)):
            if axis == 0 and form == "aperiodic":
                diff = v[nodes:] - v[:-nodes]
            else:
                offset = -nodes * np.eye(n_axes, dtype=int)[axis]
                diff = np.roll(v, field.node_roll(offset),
                               axis=tuple(range(n_axes))) - v
            close(shift_difference_norm(field, axis, nodes, 2.5),
                  _whole_norm(diff, n_axes, 2.5, vol))
        audit = verify_estimates(field, 3.0, epsilons, 1.0 / 3.0)
        levels = mollifier.sweep(field, kernels)
        for (kernel, smoothed, rows), got in zip(levels,
                                                 audit.approximation_norms):
            diff = smoothed.nodes - v[rows]
            close(got, _whole_norm(diff, n_axes, 3.0, smoothed.node_volume))
            mag = np.linalg.norm(diff.reshape(diff.shape[:n_axes] + (-1,)),
                                 axis=-1)
            delta = float(np.median(mag))
            close(good_set_measure(field, kernel, delta),
                  float(np.mean(mag < delta)))
        for level in commutator._commutators(system, field, kernels[3:]):
            kernel, mollified, rows, _, _, parts = level
            q, mvol = 1.5, mollified.node_volume
            lhs = _whole_norm(np.moveaxis(parts, 0, -1), n_axes, q, mvol)
            approx = _whole_norm(mollified.nodes - v[rows], n_axes, 2 * q,
                                 mvol)
            shift = max(_whole_norm(np.roll(v, tuple(s),
                                            axis=tuple(range(n_axes))) - v,
                                    n_axes, 2 * q, vol)
                        for s in commutator._distinct_shifts(field, kernel))
            close(commutator._max_shift_norm(field, kernel, 2 * q), shift)
            _, got_lhs, bound = commutator._lemma_terms(field, q, level)
            close(got_lhs, lhs)
            close(bound, approx ** 2 + shift ** 2)


def test_reductions_hold_their_inputs_and_block_temporaries(
        elasto, c8_extension):
    # on the C8 shock at 256 x 1024 (two channels): the norms and the good
    # set's count hold a few _BLOCK_NODES-sized arrays beyond their inputs,
    # and a roll of the nodes where they shift them periodically
    lat = Lattice(k=1, n_time=256, n_space=1024, extent_time=1.0,
                  extent_space=1.0)
    shock = make_shock_field(elasto, *_C8_STATES, _C8_SPEED, lat)
    field = DiscreteField(lattice=shock.lattice, values=shock.values)
    aperiodic = DiscreteField(lattice=shock.lattice, values=shock.values,
                              periodic_time=False)
    kernel = make_kernel(1 / 24, field.lattice, space_only=True)
    level = next(mollifier.sweep(field, [kernel]))
    lemma_level = next(commutator._commutators(c8_extension, field,
                                               [kernel]))
    blocks = 4 * 8 * fields._BLOCK_NODES
    roll = field.nodes.nbytes
    with mock.patch.object(commutator, "sweep", lambda f, k: iter([level])):
        good_set = traced_peak(lambda: good_set_measure(field, kernel, 0.1))
    peaks = {
        "good_set_measure": (good_set, blocks),
        "lq_norm": (traced_peak(lambda: lq_norm(field, 3.0)), blocks),
        "shift_difference_norm": (traced_peak(
            lambda: shift_difference_norm(field, 1, 5, 3.0)), roll + blocks),
        "overlap window": (traced_peak(
            lambda: shift_difference_norm(aperiodic, 0, 5, 3.0)), blocks),
        "_lemma_terms": (traced_peak(
            lambda: commutator._lemma_terms(field, 3.0, lemma_level)),
            roll + blocks)}
    over = {name: peak_budget for name, peak_budget in peaks.items()
            if peak_budget[0] > peak_budget[1]}
    assert not over


def test_lemma_audit_validation(burgers, unit_shock, space_lattice, rng):
    with pytest.raises(ParameterError, match="empty"):
        lemma_bound_audit(burgers, unit_shock, [], 1.5)
    kernel = make_kernel(0.0625, space_lattice, space_only=True)
    with pytest.raises(ParameterError, match="q must be"):
        lemma_bound_audit(burgers, unit_shock, [kernel], 0.5)
    aperiodic = DiscreteField(lattice=space_lattice,
                              values=rng.normal(size=space_lattice.shape + (1,)),
                              periodic_time=False)
    with pytest.raises(ParameterError, match="periodic"):
        lemma_bound_audit(burgers, aperiodic, [kernel], 1.5)


# ---------------------------------------------------------------------------
# companion-law residual


@pytest.fixture(scope="module")
def rh_shock(burgers):
    lat = Lattice(k=1, n_time=256, n_space=256, extent_time=1.0,
                  extent_space=1.0)
    return make_shock_field(burgers, [1.0], [0.0], 0.5, lat)


@pytest.fixture(scope="module")
def aligned_bump():
    return ShockAlignedBump(speed=0.5, xi_center=0.5, inner_radius=0.15,
                            outer_radius=0.35, time_center=1.0,
                            time_radius=0.8)


def test_residual_matches_companion_integral_for_weak_solution(
        burgers, rh_shock, aligned_bump):
    # for an exact weak solution, I1 + I2 telescopes to
    # -integral Q([U]_eps) . D psi; the discrete shock satisfies the weak
    # form up to quadrature error
    kernels = [make_kernel(e, rh_shock.lattice) for e in (1 / 8, 1 / 16)]
    report = residual_R(burgers, rh_shock, kernels, aligned_bump)
    for idx, kernel in enumerate(kernels):
        smoothed = mollify(rh_shock, kernel)
        psi, dpsi = aligned_bump.evaluate(smoothed.lattice, True)
        Q = burgers.Q(smoothed.values)
        rhs = -float(np.sum(Q[..., 0] * dpsi[..., 0]
                            + Q[..., 1] * dpsi[..., 1])
                     * smoothed.lattice.cell_volume)
        assert report.total[idx] == pytest.approx(rhs, rel=5e-3)
    # admissible compression: strictly dissipative total
    assert np.all(report.total < 0.0)


def test_residual_linearity_in_test_function(burgers, rh_shock):
    kernels = [make_kernel(1 / 8, rh_shock.lattice)]
    base = TensorBump(center=(0.5, 0.5), radius=(0.35, 0.35))
    scaled = TensorBump(center=(0.5, 0.5), radius=(0.35, 0.35), amplitude=3.0)
    a = residual_R(burgers, rh_shock, kernels, base)
    b = residual_R(burgers, rh_shock, kernels, scaled)
    assert b.I1[0] == pytest.approx(3.0 * a.I1[0], rel=1e-12)
    assert b.I2[0] == pytest.approx(3.0 * a.I2[0], rel=1e-12)
    assert b.total[0] == pytest.approx(3.0 * a.total[0], rel=1e-12)


def test_residual_decay_single_inversion_allowed(burgers):
    # supercritical Besov field: |total| must decay along the dyadic
    # sweep with at most one inversion
    lat = Lattice(k=1, n_time=1024, n_space=2048, extent_time=1.0,
                  extent_space=1.0)
    field = make_lacunary_field(0.6, 9, seed=7, travel_speed=1.0, lattice=lat)
    kernels = [make_kernel(2.0 ** -k, lat) for k in range(4, 9)]
    report = residual_R(burgers, field, kernels,
                        TensorBump(center=(0.5, 0.5), radius=(0.35, 0.35)))
    totals = np.abs(report.total)
    inversions = int(np.sum(totals[1:] > totals[:-1]))
    assert inversions <= 1
    assert totals[-1] < totals[0]
    # 3 alpha - 1 = 0.8 for alpha = 0.6; small-lattice fit has slack
    assert report.rate_fit.slope >= 0.55


def test_residual_sorts_kernels(burgers, rh_shock, aligned_bump):
    eps = [1 / 16, 1 / 8]  # deliberately ascending
    kernels = [make_kernel(e, rh_shock.lattice) for e in eps]
    report = residual_R(burgers, rh_shock, kernels, aligned_bump)
    assert report.epsilons[0] == pytest.approx(1 / 8)
    assert np.all(np.diff(report.epsilons) < 0.0)
    with pytest.raises(ParameterError, match="empty"):
        residual_R(burgers, rh_shock, [], aligned_bump)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 2.5])
def test_lemma_norm_is_bitwise_the_stacked_one(elasto, rng, q):
    # lemma_bound_audit sums the entries' squares without stacking them;
    # the stacked magnitude norm adds the same squares in the same order
    from conslab.commutator import _commutators
    from conslab.fields import difference_lq_norm
    lat = Lattice(k=1, n_time=32, n_space=64, extent_time=1.0,
                  extent_space=1.0)
    # the compact-range extension has four commutator entries, as in the
    # bounded audit; states beyond its delta enlargement take the cutoff,
    # so no entry is an exact zero and the order of the sum shows
    system = extend_to_compact_range(elasto, ([1.0, -0.3], [1.4, 0.3]), 0.2)
    values = rng.uniform([0.7, -0.6], [1.7, 0.6], size=(32, 64, 2))
    field = DiscreteField(lattice=lat, values=values)
    kernels = [make_kernel(e, lat) for e in (1 / 4, 1 / 8)]
    want = []
    for _, mollified, _, _, entries, parts in _commutators(system, field,
                                                           kernels):
        assert len(parts) == len(entries) == 4 and all(map(np.any, parts))
        want.append(difference_lq_norm(np.stack(parts, axis=-1), None, 2, q,
                                       mollified.node_volume))
    got = lemma_bound_audit(system, field, kernels, q).commutator_Lq_norms
    assert np.array_equal(got, want)


def test_residual_identical_between_raw_and_extended_system(elasto):
    lat = Lattice(k=1, n_time=64, n_space=512, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(elasto, [1.2, 0.1], [1.6, -0.1], 0.0, lat)
    ext = extend_to_compact_range(elasto, ([1.2, -0.1], [1.6, 0.1]), 0.2)
    kernels = [make_kernel(1 / 8, lat)]
    bump = TensorBump(center=(0.5, 0.5), radius=(0.35, 0.35))
    raw = residual_R(elasto, field, kernels, bump)
    wrapped = residual_R(ext, field, kernels, bump)
    # mollified states stay inside the delta enlargement where the
    # extension is the identity
    assert wrapped.total[0] == pytest.approx(raw.total[0], abs=1e-10)
    assert wrapped.I1[0] == pytest.approx(raw.I1[0], abs=1e-10)


# the bounded-audit system: the box holds both states of the C8 shock
_C8_SPEED = np.sqrt((1.2 ** 3 - 1.0) / 0.2)
_C8_STATES = ([1.0, 0.1 * _C8_SPEED], [1.2, -0.1 * _C8_SPEED])


@pytest.fixture(scope="module")
def c8_extension(elasto):
    return extend_to_compact_range(elasto, ([1.0, -1.0], [2.0, 1.0]), 0.25)


def _c8_bump(field):
    T = field.lattice.extent_time
    return ShockAlignedBump(speed=_C8_SPEED, xi_center=0.5, inner_radius=0.1,
                            outer_radius=0.3, time_center=0.5 * T,
                            time_radius=0.4 * T)


def _bitwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("form", ["discrete", "traveling"])
def test_extension_on_interior_field_is_the_raw_system_bit_for_bit(
        elasto, c8_extension, form):
    # every state and every mollified state lies in the delta enlargement,
    # so the extension evaluates only the raw entries, through its own G
    lat = Lattice(k=1, n_time=64, n_space=128, extent_time=1.0,
                  extent_space=1.0)
    if form == "discrete":
        shock = make_shock_field(elasto, *_C8_STATES, _C8_SPEED, lat)
        field = DiscreteField(lattice=shock.lattice, values=shock.values)
    else:
        field = make_shock_field(elasto, [1.2, 0.1], [1.6, -0.1], 0.0, lat)
        assert isinstance(field, TravelingField)
    kernels = [make_kernel(e, field.lattice) for e in (1 / 4, 1 / 8)]
    for (*_, ext_entries, ext_parts), (*_, entries, parts) in zip(
            commutator._commutators(c8_extension, field, kernels),
            commutator._commutators(elasto, field, kernels)):
        assert ext_entries == entries == [(1, 1)]
        assert all(map(_bitwise, ext_parts, parts))
    bump = _c8_bump(field)
    ext = residual_R(c8_extension, field, kernels, bump)
    raw = residual_R(elasto, field, kernels, bump)
    for name in ("I1", "I2", "total"):
        assert _bitwise(getattr(ext, name), getattr(raw, name))
    ext_lemma = lemma_bound_audit(c8_extension, field, kernels, 3.0)
    raw_lemma = lemma_bound_audit(elasto, field, kernels, 3.0)
    for name in ("commutator_Lq_norms", "lemma_bound_values", "measured_C"):
        assert _bitwise(getattr(ext_lemma, name), getattr(raw_lemma, name))
    assert _bitwise(commutator_field(c8_extension, field, kernels[0]).nodes,
                    commutator_field(elasto, field, kernels[0]).nodes)


def test_extension_with_a_state_in_the_shell_evaluates_every_entry(
        elasto, c8_extension):
    # one state between the delta and the 2 delta enlargement sends every
    # evaluation through the cutoff: the affine entries are not zero there,
    # and each entry is G([U]_eps) - [G(U)]_eps as computed in full
    lat = Lattice(k=1, n_time=64, n_space=128, extent_time=1.0,
                  extent_space=1.0)
    shock = make_shock_field(elasto, *_C8_STATES, _C8_SPEED, lat)
    values = np.array(shock.values)
    values[3, 5, 0] = 0.65          # 0.35 below the box, delta = 0.25
    field = DiscreteField(lattice=shock.lattice, values=values)
    interior = c8_extension.extension_of[1]
    assert not interior(field.nodes)
    kernels = [make_kernel(e, field.lattice) for e in (1 / 4, 1 / 8)]
    everything = [(i, j) for i in range(2) for j in range(2)]
    for kernel in kernels:
        W = commutator_field(c8_extension, field, kernel).nodes
        smoothed = mollify(field, kernel)
        G = c8_extension.G(field.nodes)
        mollified_G = mollify(field.with_nodes(
            G[..., [0, 0, 1, 1], [0, 1, 0, 1]]), kernel).nodes
        want = c8_extension.G(smoothed.nodes)
        for m, (i, j) in enumerate(everything):
            want[..., i, j] -= mollified_G[..., m]
        assert _bitwise(W, want)
        assert np.any(W[..., 0, :] != 0.0) and np.any(W[..., :, 0] != 0.0)
    # residual and lemma are those of a system with no agreement recorded
    full = dataclasses.replace(c8_extension, extension_of=None)
    bump = _c8_bump(field)
    for name in ("I1", "I2", "total"):
        assert _bitwise(
            getattr(residual_R(c8_extension, field, kernels, bump), name),
            getattr(residual_R(full, field, kernels, bump), name))
    assert _bitwise(
        lemma_bound_audit(c8_extension, field, kernels, 3.0).measured_C,
        lemma_bound_audit(full, field, kernels, 3.0).measured_C)


@pytest.mark.parametrize("answers, want", [
    ((True, True, False), [[(1, 1)], "all"]),   # [U]_eps leaves at level 2
    ((False,), ["all", "all"]),                 # U leaves: no level asks
])
def test_extension_narrows_only_levels_inside_the_interior(
        elasto, c8_extension, answers, want):
    # the interior test is asked of U once, then of [U]_eps per level; a
    # narrowed level evaluates with the base system, any other with the
    # extension itself
    lat = Lattice(k=1, n_time=64, n_space=128, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(elasto, [1.2, 0.1], [1.6, -0.1], 0.0, lat)
    kernels = [make_kernel(e, lat) for e in (1 / 4, 1 / 8)]
    replies = iter(answers)
    system = dataclasses.replace(
        c8_extension, extension_of=(elasto, lambda U: next(replies)))
    everything = [(i, j) for i in range(2) for j in range(2)]
    levels = [(local, entries) for _, _, _, local, entries, _ in
              commutator._commutators(system, field, kernels)]
    assert [entries for _, entries in levels] == [
        everything if w == "all" else w for w in want]
    assert all(local is (system if w == "all" else elasto)
               for (local, _), w in zip(levels, want))


@pytest.mark.parametrize("consumer", ["residual", "lemma"])
def test_sweep_consumer_holds_one_level_at_a_time(elasto, c8_extension,
                                                  consumer):
    # each level is dropped before the next is asked for, so four levels
    # peak where the finest alone does; the kernel spectra are built, and
    # one untraced run made, before tracing, as what a kernel caches is
    # not a level
    lat = Lattice(k=1, n_time=64, n_space=128, extent_time=1.0,
                  extent_space=1.0)
    shock = make_shock_field(elasto, *_C8_STATES, _C8_SPEED, lat)
    field = DiscreteField(lattice=shock.lattice, values=shock.values)
    kernels = [make_kernel(e, field.lattice)
               for e in (1 / 4, 3 / 16, 1 / 8, 1 / 12)]
    for kernel in kernels:
        kernel.spectrum()
    bump = _c8_bump(field)
    if consumer == "residual":
        def run(sweep):
            residual_R(c8_extension, field, sweep, bump)
    else:
        def run(sweep):
            lemma_bound_audit(c8_extension, field, sweep, 3.0)
    run(kernels)
    finest = traced_peak(lambda: run(kernels[-1:]))
    assert traced_peak(lambda: run(kernels)) <= 1.1 * finest


# ---------------------------------------------------------------------------
# a level's fluxes and multipliers run in row blocks


def _whole_level(system, field, level, psi_all, dpsi_all):
    """(parts, I1, I2, I1 mass, I2 mass) of one level of _commutators, with
    G(U), G([U]_eps), B, DB and every chain product built over the whole
    level at once, as before the level ran in row blocks.  A mass is the
    sum of the magnitudes of an integral's summands, which bounds what
    reordering its sum can move it by."""
    kernel, mollified, rows, local, entries, _ = level
    nodes = mollified.nodes
    r, c = zip(*entries)
    smoothed = mollify(field.with_nodes(local.G(field.nodes)[..., r, c]),
                       kernel).nodes
    G = local.G(nodes)
    parts = [G[..., i, j] - smoothed[..., m]
             for m, (i, j) in enumerate(entries)]
    B = local.B(nodes)
    DB = local.DB(nodes) if local.DB is not None else \
        fd_jacobian(system.B, nodes, FD_STEP)
    psi, dpsi = psi_all[rows], dpsi_all[rows]
    vol = mollified.node_volume
    I1 = I2 = mass1 = mass2 = 0.0
    for (i, j), W in zip(entries, parts):
        chain = np.einsum("...m,...m->...", DB[..., i, :],
                          axis_derivative(mollified, j))
        t1, t2 = W * chain * psi, W * B[..., i] * dpsi[..., j]
        I1 -= np.sum(t1) * vol
        I2 -= np.sum(t2) * vol
        mass1 += np.sum(np.abs(t1)) * vol
        mass2 += np.sum(np.abs(t2)) * vol
    return np.array(parts), I1, I2, mass1, mass2


def _block_case(name, elasto, c8_extension, euler2d):
    """(system, field, kernels, test function) per case.  Every lattice
    gives several row blocks of fields._BLOCK_NODES and a partial last
    one: 1000 nodes per row make blocks of 16 rows, over 40 rows (16, 16,
    8) or, trimmed from 44, over 34 or 36; the k = 2 rows of 64 x 64
    nodes make blocks of 4 rows over 10 (4, 4, 2)."""
    rng = np.random.default_rng(11)
    if name == "k2":
        lat = Lattice(k=2, n_time=10, n_space=64, extent_time=1.0,
                      extent_space=1.0)
        field = DiscreteField(lattice=lat,
                              values=rng.normal(size=lat.shape + (3,)))
        return (euler2d, field, [make_kernel(0.4, lat)],
                TensorBump(center=(0.5, 0.5, 0.5), radius=(0.45, 0.4, 0.4)))
    trimmed = name == "trimmed"
    lat = Lattice(k=1, n_time=44 if trimmed else 40, n_space=1000,
                  extent_time=1.0, extent_space=1.0)
    values = rng.uniform([1.1, -0.5], [1.9, 0.5], size=lat.shape + (2,))
    if name == "shell":
        values[:10, :, 0] = 0.3     # 0.7 below the box, delta = 0.25
    field = DiscreteField(lattice=lat, values=values,
                          periodic_time=not trimmed)
    system = {"fd": dataclasses.replace(elasto, DB=None),
              "narrowed": c8_extension, "shell": c8_extension}.get(
                  name, elasto)
    return (system, field,
            [make_kernel(e, lat) for e in (0.125, 0.1)],
            TensorBump(center=(0.5, 0.5), radius=(0.3, 0.4)))


@pytest.mark.parametrize("name", ["periodic", "trimmed", "fd", "narrowed",
                                  "shell", "k2"])
def test_blocked_level_equals_the_whole_level(elasto, c8_extension, euler2d,
                                              name):
    # the commutator entries are the same node by node; I1 and I2 are the
    # same sums taken block by block: within 1e-13 relative, with a floor
    # of 1e-14 times the summands' total magnitude for an integral that
    # nearly cancels
    system, field, kernels, testfn = _block_case(name, elasto, c8_extension,
                                                 euler2d)
    means = node_means(testfn, field)
    psi_all, dpsi_all = means(slice(None))
    for level in commutator._commutators(system, field, kernels):
        _, mollified, rows, local, entries, parts = level
        shape = mollified.nodes.shape[:-1]
        blocks = list(_row_blocks(shape))
        assert len(blocks) >= 3 and blocks[-1].stop > shape[0]
        if name == "narrowed":
            assert local is elasto and entries == [(1, 1)]
        elif name == "shell":
            # not narrowed: the extension's interior test passes on some
            # blocks and fails on others
            assert local is system and len(entries) == 4
            interior = system.extension_of[1]
            inside = [interior(mollified.nodes[blk]) for blk in blocks]
            assert any(inside) and not all(inside)
        if field.periodic_time:
            assert rows == slice(0, len(field.nodes))
        else:
            assert rows.start > 0
        want, I1, I2, mass1, mass2 = _whole_level(system, field, level,
                                                  psi_all, dpsi_all)
        assert np.array_equal(parts, want)
        _, got1, got2, _ = commutator._residual_terms(system, field, means,
                                                      level)
        assert abs(got1 - I1) <= 1e-13 * abs(I1) + 1e-14 * mass1
        assert abs(got2 - I2) <= 1e-13 * abs(I2) + 1e-14 * mass2
        assert I1 != 0.0 and I2 != 0.0


@pytest.mark.parametrize("consumer", ["residual", "lemma"])
def test_level_peak_is_a_few_whole_lattice_arrays(elasto, c8_extension,
                                                  consumer):
    # Counted in whole-lattice scalar arrays A (8 bytes a node) on a
    # 256 x 1024 C8 field with one state in the shell, so that every level
    # evaluates all n(k+1) = 4 entries through the extension's cutoff.  A
    # level holds [U]_eps (n = 2), the G(U) entries (4) until they are
    # mollified, the mollified entries (4) until the parts (4) are formed,
    # and one channel's transform (its half spectrum, complex, 1; the
    # filter, 0.5; the inverse, 1): 2 + 4 + 4 + 2.5 = 12.5 A at the
    # mollification.  residual_R adds the node means of psi and grad psi
    # (3), so 15.5 A there, and later holds [U]_eps, the parts and one
    # derivative per axis read (2 each), the second taken from two rolls
    # and their difference (at most 6; numpy takes it in place of the
    # first roll, 4): 3 + 2 + 4 + 2 + 6 = 17 A.  One more A covers the
    # block temporaries, 16 of 16384 nodes.  With G, B and DB over the
    # whole level, as before, the peaks were 25.1 A and 22.1 A.
    lat = Lattice(k=1, n_time=256, n_space=1024, extent_time=1.0,
                  extent_space=1.0)
    shock = make_shock_field(elasto, *_C8_STATES, _C8_SPEED, lat)
    values = np.array(shock.values)
    values[3, 5, 0] = 0.65          # 0.35 below the box, delta = 0.25
    field = DiscreteField(lattice=shock.lattice, values=values)
    kernels = [make_kernel(e, field.lattice) for e in (1 / 32, 1 / 48)]
    for kernel in kernels:
        kernel.spectrum()
    bump = _c8_bump(field)
    if consumer == "residual":
        def run():
            residual_R(c8_extension, field, kernels, bump)
        budget = 17.0
    else:
        def run():
            lemma_bound_audit(c8_extension, field, kernels[-1:], 3.0)
        budget = 12.5
    run()
    array = 8 * lat.n_time * lat.n_space
    assert traced_peak(run) <= (budget + 1.0) * array


def test_estimates_hold_one_of_their_kernels_spectra_at_a_time(elasto):
    # Counted in whole-lattice scalar arrays A as above, on the 256 x 1024
    # C8 shock.  verify_estimates builds its own four kernels, so each
    # spectrum ((n_time/2 + 1) x (n_space/2 + 1) entries, 0.25 A) is made
    # by the call.  After a level's norms are taken the sweep keeps
    # neither its [U]_eps nor its kernel: at the gradient it holds one
    # spectrum (0.25), [U]_eps (2), the squared gradient (1) and one
    # derivative (2), 5.25 A, and block temporaries within 0.5 A more.
    # With every finished kernel's spectrum kept until the call returned,
    # 3 x 0.25 A more; in buffers twice as wide, 7.2 A.
    lat = Lattice(k=1, n_time=256, n_space=1024, extent_time=1.0,
                  extent_space=1.0)
    shock = make_shock_field(elasto, *_C8_STATES, _C8_SPEED, lat)
    field = DiscreteField(lattice=shock.lattice, values=shock.values)

    def run():
        verify_estimates(field, 3.0, [1 / 8, 3 / 32, 1 / 16, 1 / 24],
                         1.0 / 3.0)
    run()
    array = 8 * lat.n_time * lat.n_space
    assert traced_peak(run) <= (5.25 + 0.5) * array


@pytest.mark.parametrize("consumer", ["residual", "lemma", "good-set",
                                      "estimates"])
def test_two_d_consumer_holds_its_level_and_row_temporaries(
        elasto, c8_extension, consumer):
    # Counted in whole-lattice scalar arrays A (8 bytes a node) on the
    # bounded-audit C8 shock at 256 x 1024 (16 row blocks), its states
    # inside the box, so every level evaluates the one entry (1, 1) of
    # the base system.  Mollifying one channel in place costs its output
    # (1), the complex half spectrum (1), the filter (0.5) and the
    # finiteness mask (0.125 per channel); psi and grad psi are written
    # per row block, and every other temporary is row-sized: 16 arrays of
    # _BLOCK_NODES nodes cover them.
    # - residual: [U]_eps (2) and the G(U) entry (1) while it is mollified
    #   (2.625): 5.625; later [U]_eps, the parts (1) and one derivative
    #   taken from one roll (2): 5.  With psi and grad psi held whole (3)
    #   and the last level alive while the next was mollified, 10 A.
    # - lemma: as in the residual, 5.625 while the G(U) entry is
    #   mollified; its norms then hold [U]_eps, the parts and one rolled U
    #   (2) and square their differences block by block: 5.  With
    #   [U]_eps - U squared in its own memory (2) and the cube of those
    #   squares (1), 6 A; before that, 8 A.
    # - good set: U's two channels mollified (2 + 1 + 0.5 + 0.25): 3.75;
    #   it then counts blocks of [U]_eps - U.  With the difference squared
    #   in place (2) and the mask (0.125) beside [U]_eps, 4.125 A.
    # - estimates: all four kernels' spectra, built by the call, in
    #   buffers twice as wide (4 x 0.5), [U]_eps, the squared gradient (1)
    #   and one derivative (2): 7.  Before, 9.1 A.  The test above bounds
    #   it tighter, with one plain spectrum held at a time.
    # The lemma and the good set peak inside a mollification, where no
    # row temporary is alive, so their budgets are those peaks less the 16
    # row arrays (1 A on this lattice) that the check adds.
    lat = Lattice(k=1, n_time=256, n_space=1024, extent_time=1.0,
                  extent_space=1.0)
    shock = make_shock_field(elasto, *_C8_STATES, _C8_SPEED, lat)
    field = DiscreteField(lattice=shock.lattice, values=shock.values)
    epsilons = [1 / 8, 3 / 32, 1 / 16, 1 / 24]
    # the lemma's kernel is space-only, which keeps its shift loop short
    kernels = [make_kernel(e, field.lattice) for e in epsilons] + \
        [make_kernel(1 / 24, field.lattice, space_only=True)]
    for kernel in kernels:
        kernel.spectrum()
    run, budget = {
        "residual": (lambda: residual_R(c8_extension, field, kernels[2:4],
                                        _c8_bump(field)), 5.625),
        "lemma": (lambda: lemma_bound_audit(c8_extension, field,
                                            kernels[-1:], 3.0), 5.625 - 1),
        "good-set": (lambda: good_set_measure(field, kernels[3], 0.1),
                     3.75 - 1),
        "estimates": (lambda: verify_estimates(field, 3.0, epsilons,
                                               1.0 / 3.0), 7.0)}[consumer]
    run()
    array = 8 * lat.n_time * lat.n_space
    rows = 16 * 8 * fields._BLOCK_NODES
    assert traced_peak(run) <= budget * array + rows


def _per_offset_shifts(field, kernel) -> set:
    """The lemma's distinct node shifts, one offset at a time: every
    nonzero offset after zero in lexicographic order, through node_roll,
    reduced mod the node shape."""
    shape = field.nodes.shape
    zero = (0,) * field.lattice.n_axes
    return {tuple(int(s) % n for s, n in zip(field.node_roll(off), shape))
            for off, _ in kernel.offsets() if off > zero}


@pytest.mark.parametrize("shift, rows, n_time", [
    (None, None, 64), (None, None, 10), (0, 1, 64), (5, 1, 64), (1, 2, 64),
    (-1, 2, 64), (2, 3, 48), (-2, 3, 48), (1, 3, 96)])
def test_rolled_shifts_are_the_per_offset_set(rng, shift, rows, n_time):
    # (None, None): a DiscreteField, k = 1 on 64 rows and k = 2 on 10
    k = 2 if n_time == 10 else 1
    lat = Lattice(k=k, n_time=n_time, n_space=32, extent_time=1.0,
                  extent_space=1.0)
    if shift is None:
        field = DiscreteField(lattice=lat,
                              values=rng.normal(size=lat.shape + (1,)))
    else:
        field = TravelingField(lattice=lat, shift=shift, rows=rows,
                               profile=rng.normal(size=(rows * 32, 1)))
    for epsilon in (0.45, 0.4) if k == 2 else (0.25, 0.15):
        kernel = make_kernel(epsilon, lat)
        got = commutator._distinct_shifts(field, kernel).tolist()
        want = _per_offset_shifts(field, kernel)
        assert len(got) == len(want) and set(map(tuple, got)) == want


def test_c8_gap_is_exactly_zero(elasto, c8_extension):
    # criterion 8's field, test function and sweep: the extended and the
    # raw residual agree to the last bit, not only within its 1e-10
    lat = Lattice(k=1, n_time=512, n_space=1024, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(elasto, *_C8_STATES, _C8_SPEED, lat)
    kernels = [make_kernel(2.0 ** -i, field.lattice) for i in range(3, 7)]
    bump = _c8_bump(field)
    ext = residual_R(c8_extension, field, kernels, bump)
    raw = residual_R(elasto, field, kernels, bump)
    assert np.max(np.abs(ext.total - raw.total)) == 0.0
    assert _bitwise(ext.I1, raw.I1) and _bitwise(ext.I2, raw.I2)


def test_residual_finite_difference_DB_matches_analytic(elasto):
    # elastodynamics has a non-affine multiplier row, so the DB fallback
    # contributes nonzero entries to I1
    s = np.sqrt((1.2 ** 3 - 1.0) / 0.2)
    lat = Lattice(k=1, n_time=64, n_space=128, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(elasto, [1.0, 0.1 * s], [1.2, -0.1 * s], s, lat)
    T = field.lattice.extent_time
    bump = ShockAlignedBump(speed=s, xi_center=0.5, inner_radius=0.1,
                            outer_radius=0.3, time_center=0.5 * T,
                            time_radius=0.4 * T)
    kernels = [make_kernel(e, field.lattice) for e in (1 / 4, 1 / 8)]
    analytic = residual_R(elasto, field, kernels, bump)
    fd = residual_R(dataclasses.replace(elasto, DB=None), field, kernels,
                    bump)
    assert np.all(analytic.I1 != 0.0)
    np.testing.assert_allclose(fd.I1, analytic.I1, rtol=1e-8, atol=0)
    np.testing.assert_allclose(fd.total, analytic.total, rtol=1e-8, atol=0)


def test_domain_violation_names_the_extension(space_lattice):
    # genuinely non-convex admissible set: an annulus; the two states sit
    # inside but their mollification crosses the hole
    def norm(U):
        return np.sqrt(np.einsum("...i,...i->...", U, U))

    # annulus 0.5 < |U| < 3
    domain = StateDomain.from_predicate(
        lambda U: (norm(U) > 0.5) & (norm(U) < 3.0))

    def G(U):
        return np.stack([U, U], axis=-1)

    def B(U):
        return np.ones_like(U)

    def Q(U):
        return np.stack([norm(U), norm(U)], axis=-1)

    system = SystemSpec(name="annulus-toy", n=2, k=1, domain=domain,
                        G=G, B=B, Q=Q)
    field = make_shock_field(system, [1.0, 1.0], [-1.0, -1.0], 0.0,
                             space_lattice)
    kernel = make_kernel(0.0625, space_lattice, space_only=True)
    with pytest.raises(DomainViolationError,
                       match="extend_to_compact_range"):
        commutator_field(system, field, kernel)
    # no range box holds both states: the corners of the enlarged box lie
    # in the annulus, its centre is the hole, and the probe names it
    with pytest.raises(GeometryError, match=r"predicate domain near state "
                       r"\[0\. 0\.\]"):
        extend_to_compact_range(system, ([-1.0, -1.0], [1.0, 1.0]), 0.1)
    extend_to_compact_range(system, ([1.0, 1.0], [1.5, 1.5]), 0.1)


def test_residual_rejects_field_with_wrong_state_count(burgers,
                                                       space_lattice):
    # Burgers reads only component 0: unchecked, this sweep ran to zeros.
    field = DiscreteField(lattice=space_lattice,
                          values=np.ones(space_lattice.shape + (2,)))
    kernel = make_kernel(0.0625, space_lattice, space_only=True)
    psi = TensorBump(center=[0.5, 0.5], radius=[0.3, 0.3])
    with pytest.raises(ParameterError,
                       match=r"shape \(2,\).*'burgers' has 1 state"):
        residual_R(burgers, field, [kernel], psi)


def test_residual_rejects_field_of_other_space_dimension(space_lattice):
    # a k = 1 lattice under a k = 2 system once died in axis_derivative;
    # the check comes before the test function, here one built for k = 2
    euler2d = make_builtin("euler-incompressible-2d")
    field = DiscreteField(lattice=space_lattice,
                          values=np.full(space_lattice.shape + (3,), 0.1))
    kernel = make_kernel(0.0625, space_lattice, space_only=True)
    psi = TensorBump(center=[0.5, 0.5, 0.5], radius=[0.3, 0.3, 0.3])
    with pytest.raises(ParameterError,
                       match=r"k = 1 space dimensions.*has k = 2"):
        residual_R(euler2d, field, [kernel], psi)


def open_time_field():
    # 64 x 64 over [0, 2) x [0, 1), not periodic in time; at eps = 1/8 the
    # kernel's time radius is r_t = 4 nodes
    lattice = Lattice(k=1, n_time=64, n_space=64, extent_time=2.0,
                      extent_space=1.0)
    values = np.cumsum(np.random.default_rng(0).normal(size=(64, 64, 1)),
                       axis=0) * 0.1
    return DiscreteField(lattice=lattice, values=values, periodic_time=False)


def test_residual_reads_psi_on_the_fields_own_clock(burgers):
    # each trimmed level once evaluated psi on a lattice whose clock
    # restarted at 0, so psi slid by r_t*h_t: I1 read 0.005630
    field = open_time_field()
    kernel = make_kernel(1 / 8, field.lattice)
    assert kernel.radius_nodes[0] == 4
    testfn = TimeBump(center=1.0, radius=0.5)
    report = residual_R(burgers, field, [kernel], testfn)

    psi = testfn.evaluate(field.lattice, periodic_time=False)[0][4:60]
    smoothed = mollify(field, kernel)
    W = commutator_field(burgers, field, kernel).values[..., 0, 1]
    chain = burgers.DB(smoothed.values)[..., 0, 0] \
        * axis_derivative(smoothed, 1)[..., 0]
    want = -np.sum(W * chain * psi) * smoothed.node_volume
    assert report.I1[0] == pytest.approx(want, rel=1e-12)
    assert report.I1[0] == pytest.approx(0.004044, abs=5e-7)


def test_residual_rejects_psi_on_trimmed_rows(burgers):
    field = open_time_field()
    # support [0.15, 1.85]: inside the rows 4..59 that eps 1/8 keeps, but
    # nonzero on rows 5 and 58, which eps 3/16 (r_t = 6) trims
    testfn = TimeBump(center=1.0, radius=0.85)
    kernels = [make_kernel(e, field.lattice) for e in (1 / 8, 3 / 16)]
    residual_R(burgers, field, kernels[:1], testfn)
    with pytest.raises(SupportError,
                       match=r"window \[0.1875, 1.78125\].*eps 0.1875"):
        residual_R(burgers, field, kernels, testfn)


class CountingTestFunction:
    """Forwards evaluate to a test function and counts the calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate(self, lattice, periodic_time=True):
        self.calls += 1
        return self.inner.evaluate(lattice, periodic_time)


@pytest.mark.parametrize("form", ["traveling", "discrete", "open-time"])
def test_residual_evaluates_psi_once_per_call(burgers, form):
    lattice = Lattice(k=1, n_time=64, n_space=64, extent_time=2.0,
                      extent_space=1.0)
    if form == "open-time":
        field = open_time_field()
        testfn = TimeBump(center=1.0, radius=0.5)
    else:
        field = make_lacunary_field(0.6, 4, 3, 1.0, lattice)
        assert isinstance(field, TravelingField)
        if form == "discrete":
            field = DiscreteField(lattice=field.lattice, values=field.values)
        testfn = TensorBump(center=(1.0, 0.5), radius=(0.5, 0.35))
    counting = CountingTestFunction(testfn)
    kernels = [make_kernel(e, field.lattice) for e in (1 / 8, 3 / 16, 1 / 4)]
    report = residual_R(burgers, field, kernels, counting)
    assert counting.calls == 1
    assert len(report.total) == 3


def test_compact_sweep_retains_no_lattice_array(burgers):
    # a compact residual sweep keeps one spectrum line per kernel, and its
    # peak is the test function's two outputs or one kernel spectrum in
    # the making, not one 2-D spectrum per kernel
    lattice = Lattice(k=1, n_time=512, n_space=1024, extent_time=1.0,
                      extent_space=1.0)
    field = make_lacunary_field(0.6, 6, 3, 1.0, lattice)
    assert isinstance(field, TravelingField)
    testfn = TensorBump(center=(0.5, 0.5), radius=(0.35, 0.35))
    lattice = field.lattice
    kept = {}

    def run():
        kernels = [make_kernel(2.0 ** -i, lattice) for i in range(3, 7)]
        kept["report"] = residual_R(burgers, field, kernels, testfn)
        # what the kernels and the report hold once the sweep is done
        kept["held"] = tracemalloc.get_traced_memory()[0]

    peak = traced_peak(run)
    held = kept["held"]
    assert len(kept["report"].total) == 4
    array = 8 * lattice.n_time * lattice.n_space
    outputs = (1 + lattice.n_axes) * array
    # the complex transform at nonnegative frequencies that a kernel's
    # real spectrum is a view of, half a complex rfftn
    spectrum = 16 * (lattice.n_time // 2 + 1) * (lattice.n_space // 2 + 1)
    assert held < array
    assert peak <= 1.25 * (outputs + spectrum)


# ---------------------------------------------------------------------------
# good set


def test_good_set_constant_field(space_lattice):
    field = DiscreteField(lattice=space_lattice,
                          values=np.full(space_lattice.shape + (1,), 1.0))
    kernel = make_kernel(0.0625, space_lattice, space_only=True)
    assert good_set_measure(field, kernel, 1e-12) == 1.0


def test_good_set_monotone_in_delta(unit_shock, space_lattice):
    kernel = make_kernel(0.0625, space_lattice, space_only=True)
    fractions = [good_set_measure(unit_shock, kernel, d)
                 for d in (0.05, 0.2, 0.5, 1.1)]
    assert np.all(np.diff(fractions) >= 0.0)
    assert fractions[-1] == 1.0  # delta above the jump covers everything


def test_good_set_complement_linear_in_eps(burgers, unit_shock,
                                           space_lattice):
    comp = []
    eps = [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
    for e in eps:
        kernel = make_kernel(e, space_lattice, space_only=True)
        comp.append(1.0 - good_set_measure(unit_shock, kernel, 0.25))
    # the bad set is the pair of smeared interface bands of width ~ eps
    assert comp[0] / comp[1] == pytest.approx(2.0, rel=0.2)
    assert comp[1] / comp[2] == pytest.approx(2.0, rel=0.2)


def test_good_set_fills_in_for_rough_fields(space_lattice):
    field = make_lacunary_field(0.5, 7, seed=7, travel_speed=0.0,
                                lattice=space_lattice)
    coarse = good_set_measure(field, make_kernel(2.0 ** -4, space_lattice,
                                                 space_only=True), 0.3)
    fine = good_set_measure(field, make_kernel(2.0 ** -6, space_lattice,
                                               space_only=True), 0.3)
    assert fine > coarse
    assert fine > 0.95


def test_good_set_window_on_nonperiodic_field(rng):
    # [U]_eps is trimmed by the kernel's time radius r_t, so it is
    # compared with U[r_t : r_t + n_keep]
    lat = Lattice(k=1, n_time=64, n_space=64, extent_time=2.0,
                  extent_space=1.0)
    vals = np.cumsum(rng.normal(size=lat.shape + (2,)), axis=0) * 0.1
    field = DiscreteField(lattice=lat, values=vals, periodic_time=False)
    kernel = make_kernel(0.25, lat)
    r_t = kernel.radius_nodes[0]
    n_keep = lat.n_time - 2 * r_t
    diff = mollify(field, kernel).values - vals[r_t:r_t + n_keep]
    mag = np.sqrt(np.sum(diff ** 2, axis=-1))
    for delta in (0.1, 0.3, 1.0):
        want = np.count_nonzero(mag < delta) / mag.size
        assert 0.0 < want < 1.0
        assert good_set_measure(field, kernel, delta) == want


def test_good_set_validation(unit_shock, space_lattice):
    kernel = make_kernel(0.0625, space_lattice, space_only=True)
    # NaN used to pass a delta <= 0 test and measure an empty good set
    for delta in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="delta must be positive"):
            good_set_measure(unit_shock, kernel, delta)


# ---------------------------------------------------------------------------
# k = 2: incompressible Euler on a 16 x 32 x 32 lattice


@pytest.fixture(scope="module")
def euler2d():
    return make_builtin("euler-incompressible-2d")


@pytest.fixture(scope="module")
def plane_lattice():
    return Lattice(k=2, n_time=16, n_space=32, extent_time=1.0,
                   extent_space=1.0)


@pytest.fixture(scope="module")
def plane_kernel(plane_lattice):
    return make_kernel(0.25, plane_lattice)


@pytest.fixture(scope="module")
def plane_field(plane_lattice):
    rng = np.random.default_rng(7)
    return DiscreteField(lattice=plane_lattice,
                         values=rng.normal(size=plane_lattice.shape + (3,)))


def test_k2_fft_mollification_matches_direct(plane_field, plane_kernel):
    got = mollify(plane_field, plane_kernel, method="fft").values
    want = mollify(plane_field, plane_kernel, method="direct").values
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_k2_affine_row_and_column_commute(euler2d, plane_field, plane_kernel):
    # row 0 is the divergence constraint, column 0 the temporal flux
    W = commutator_field(euler2d, plane_field, plane_kernel).values
    assert W.shape == plane_field.lattice.shape + (3, 3)
    assert np.all(W[..., 0, :] == 0.0)
    assert np.all(W[..., :, 0] == 0.0)
    assert np.all(np.any(W[..., 1:, 1:] != 0.0, axis=(0, 1, 2)))


def test_k2_affine_field_has_zero_commutator(euler2d, plane_field,
                                             plane_kernel):
    # with the velocity constant, every flux entry is affine in the
    # pressure, so mollification commutes with the flux along the field
    values = np.array(plane_field.values)
    values[..., 1:] = [0.7, -1.3]
    field = DiscreteField(lattice=plane_field.lattice, values=values)
    W = commutator_field(euler2d, field, plane_kernel).values
    assert np.max(np.abs(W)) <= 1e-13


# brute-force oracle: the kernel from its definition, direct-sum
# mollification, W entry by entry, central differences and every stencil
# offset; only the system's G, B and DB come from the package.  Its arrays
# put channels first, so that each slice of a padded array below is a run
# of contiguous lattice rows.


def _brute_kernel(epsilon, lattice):
    """{offset: weight} of exp(-1/(1 - |X/eps|^2)) at the stencil offsets
    X, scaled to unit discrete mass."""
    h = (lattice.h_time,) + (lattice.h_space,) * lattice.k
    weights = {}
    for off in itertools.product(*[range(-int(epsilon // s),
                                         int(epsilon // s) + 1) for s in h]):
        r2 = sum((o * s / epsilon) ** 2 for o, s in zip(off, h))
        if r2 < 1.0:
            weights[off] = np.exp(-1.0 / (1.0 - r2))
    mass = sum(weights.values()) * np.prod(h)
    return {off: w / mass for off, w in weights.items()}


def _shifted(values, weights):
    """values(. - Y) per stencil offset Y, as slices of one periodic pad."""
    r = np.max(np.abs(list(weights)), axis=0)
    padded = np.pad(values, [(0, 0)] + [(ri, ri) for ri in r], mode="wrap")
    for off in weights:
        yield off, padded[(slice(None),) + tuple(
            slice(ri - o, ri - o + n)
            for ri, o, n in zip(r, off, values.shape[1:]))]


def _brute_mollify(values, weights, lattice):
    out = 0.0
    for off, shifted in _shifted(values, weights):
        out = out + weights[off] * shifted
    return out * lattice.cell_volume


def _brute_norm(v, p, lattice):
    squares = np.sum(v.reshape((-1,) + lattice.shape) ** 2, axis=0)
    return (np.sum(squares ** (0.5 * p)) * lattice.cell_volume) ** (1.0 / p)


def _brute_tensor_bump(center, radius, lattice):
    """psi and grad psi of prod_a bump((z_a - c_a)/r_a), support inside
    the lattice so nothing wraps."""
    coords = [lattice.times()] + [lattice.space_nodes()] * lattice.k
    w = np.meshgrid(*[(z - c) / r for z, c, r in zip(coords, center, radius)],
                    indexing="ij")
    inside = [np.abs(x) < 1.0 for x in w]
    b = [np.where(m, np.exp(-1.0 / (1.0 - np.where(m, x, 0.0) ** 2)), 0.0)
         for x, m in zip(w, inside)]
    db = [bx * -2.0 * x / (1.0 - np.where(m, x, 0.0) ** 2) ** 2
          for bx, x, m in zip(b, w, inside)]
    psi = np.prod(b, axis=0)
    grad = np.stack([db[a] / radius[a] * np.prod(
        [b[c] for c in range(len(b)) if c != a], axis=0)
        for a in range(len(b))], axis=-1)
    return psi, grad


def _brute_residual_and_lemma(system, field, epsilons, center, radius, q):
    lat = field.lattice
    n, m = system.n, lat.n_axes
    h = (lat.h_time,) + (lat.h_space,) * lat.k
    U = np.moveaxis(field.values, -1, 0)
    G_of_U = np.moveaxis(system.G(field.values), (-2, -1), (0, 1))
    psi, dpsi = _brute_tensor_bump(center, radius, lat)
    I1s, I2s, lhs, bounds = [], [], [], []
    for eps in sorted(epsilons, reverse=True):
        weights = _brute_kernel(eps, lat)
        Ue = _brute_mollify(U, weights, lat)
        states = np.moveaxis(Ue, 0, -1)
        G_of_Ue = system.G(states)
        G_e = _brute_mollify(G_of_U.reshape((n * m,) + lat.shape), weights,
                             lat).reshape(G_of_U.shape)
        W = np.empty_like(G_e)
        for i in range(n):
            for j in range(m):
                W[i, j] = G_of_Ue[..., i, j] - G_e[i, j]
        B, DB = system.B(states), system.DB(states)
        D = [(np.roll(Ue, -1, axis=1 + j) - np.roll(Ue, 1, axis=1 + j))
             / (2.0 * h[j]) for j in range(m)]
        I1 = I2 = 0.0
        for i in range(n):
            for j in range(m):
                chain = sum(DB[..., i, k] * D[j][k] for k in range(n))
                I1 -= np.sum(W[i, j] * chain * psi) * lat.cell_volume
                I2 -= np.sum(W[i, j] * B[..., i] * dpsi[..., j]) \
                    * lat.cell_volume
        I1s.append(I1)
        I2s.append(I2)
        sup = max(_brute_norm(U - shifted, 2 * q, lat)
                  for off, shifted in _shifted(U, weights) if any(off))
        lhs.append(_brute_norm(W, q, lat))
        bounds.append(_brute_norm(Ue - U, 2 * q, lat) ** 2 + sup ** 2)
    return np.array(I1s), np.array(I2s), np.array(lhs), np.array(bounds)


@pytest.fixture(scope="module")
def plane_wave(plane_lattice):
    # smooth along t + x: the shift sup sits at offsets with a time part
    t, x, y = np.meshgrid(plane_lattice.times(), plane_lattice.space_nodes(),
                          plane_lattice.space_nodes(), indexing="ij")
    values = np.stack([np.cos(2.0 * np.pi * (t + x) + c)
                       + 0.1 * np.sin(2.0 * np.pi * y) for c in range(3)],
                      axis=-1)
    return DiscreteField(lattice=plane_lattice, values=values)


@pytest.mark.parametrize("name, epsilons", [("plane_field", (0.25, 0.3)),
                                            ("plane_wave", (0.25,))])
def test_k2_residual_and_lemma_match_brute_force(euler2d, plane_lattice,
                                                 request, name, epsilons):
    field = request.getfixturevalue(name)
    center, radius, q = (0.5, 0.5, 0.45), (0.3, 0.3, 0.35), 1.5
    kernels = [make_kernel(e, plane_lattice) for e in epsilons]
    I1, I2, lhs, bounds = _brute_residual_and_lemma(
        euler2d, field, epsilons, center, radius, q)
    report = residual_R(euler2d, field, kernels,
                        TensorBump(center=center, radius=radius))
    np.testing.assert_allclose(report.I1, I1, rtol=1e-12)
    np.testing.assert_allclose(report.I2, I2, rtol=1e-12)
    np.testing.assert_allclose(report.total, I1 + I2, rtol=1e-12)
    sweep = lemma_bound_audit(euler2d, field, kernels, q)
    np.testing.assert_allclose(sweep.commutator_Lq_norms, lhs, rtol=1e-12)
    np.testing.assert_allclose(sweep.lemma_bound_values, bounds, rtol=1e-12)
    np.testing.assert_allclose(sweep.measured_C, lhs / bounds, rtol=1e-12)
