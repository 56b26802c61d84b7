"""Compact traveling-wave fields: the representation, the generators that
emit it, and every consumer against the same call on the materialized
2-D field."""

import math
from unittest import mock

import numpy as np
import pytest

from conftest import traced_peak
from conslab import (DiscreteField, DomainViolationError, Lattice,
                     ParameterError, ShockAlignedBump, TensorBump, TimeBump,
                     TravelingField, build_dissipation_report,
                     commutator_field, good_set_measure,
                     lacunary_profile, lemma_bound_audit, make_builtin,
                     make_kernel, make_lacunary_field, make_shock_field,
                     mollify, residual_R, shift_difference_norm,
                     verify_estimates, weak_residual_companion,
                     weak_residual_system)
from conslab import fields
from conslab.mollifier import axis_derivative

LAT = Lattice(k=1, n_time=64, n_space=128, extent_time=1.0, extent_space=1.0)
# 128 = 2*64, so waves of p/q = 1/2 and -3/2 nodes per step are periodic
LAT2 = Lattice(k=1, n_time=128, n_space=64, extent_time=1.0, extent_space=1.0)
C8_SPEED = math.sqrt((1.2 ** 3 - 1.0) / 0.2)
EPSILONS = [2.0 ** -2, 2.0 ** -2.5, 2.0 ** -3, 2.0 ** -3.5, 2.0 ** -4]


def materialized(field):
    return DiscreteField(lattice=field.lattice, values=np.array(field.values))


def assert_close(got, want):
    # 1e-12 relative to the scale of the compared values; sums that vanish
    # for exact weak solutions are compared at a 1e-14 absolute floor
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = float(np.max(np.abs(want), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=max(1e-12 * scale, 1e-14))


def float_shock(U_left, U_right, speed, lattice):
    # the floating-point left/right test make_shock_field applies
    t, x = lattice.times(), lattice.space_nodes()
    L = lattice.extent_space
    left = (x[None, :] - speed * t[:, None]) % L < 0.5 * L
    return np.where(left[..., None], U_left, U_right)


# ---------------------------------------------------------------------------
# representation


def test_values_are_rolled_profiles(rng):
    profile = rng.normal(size=(128, 2))
    field = TravelingField(lattice=LAT, profile=profile, shift=-6)
    assert field.periodic_time and field.value_shape == (2,) and field.n == 2
    assert field.values.shape == (64, 128, 2)
    for t in (0, 1, 17, 63):
        np.testing.assert_array_equal(field.values[t],
                                      np.roll(profile, -6 * t, axis=0))
    assert not field.values.flags.writeable
    assert not field.profile.flags.writeable
    assert field.node_volume == 64 * LAT.cell_volume
    np.testing.assert_array_equal(field.nodes, profile[None])


def test_node_mean_is_the_shear_average(rng):
    field = TravelingField(lattice=LAT, profile=rng.normal(size=(128, 1)),
                           shift=2)
    arr = rng.normal(size=LAT.shape + (3,))
    want = np.mean([np.roll(arr[t], -2 * t, axis=0) for t in range(64)],
                   axis=0)
    assert_close(field.node_mean(arr)[0], want)


def test_node_mean_rejects_an_array_off_the_lattice(rng):
    lat = Lattice(k=1, n_time=64, n_space=64, extent_time=1.0,
                  extent_space=1.0)
    field = TravelingField(lattice=lat, profile=rng.normal(size=(64, 1)),
                           shift=1)
    for shape in ((10, 64), (64, 32), (64,), (128, 64, 1)):
        with pytest.raises(ParameterError,
                           match="not over this wave's 64 x 64 lattice"):
            field.node_mean(np.ones(shape))


@pytest.mark.parametrize("n_time, shift, rows", [(1024, 3, 1),
                                                 (1022, 256, 511)])
def test_values_allocate_little_beyond_the_output(n_time, shift, rows):
    # q = 1 and q = n_time/2: besides the output, one class doubled along
    # space and a few words of row offsets per lattice row; a lattice-sized
    # index (8*n_time*n_space bytes) does not fit
    lat = Lattice(k=1, n_time=n_time, n_space=512, extent_time=1.0,
                  extent_space=1.0)
    profile = np.random.default_rng(0).normal(size=(rows * 512, 2))
    field = TravelingField(lattice=lat, profile=profile, shift=shift,
                           rows=rows)
    row_bytes = profile.nbytes // rows
    peak = traced_peak(lambda: field.values)
    values = field.values           # cached: the array just traced
    assert peak <= values.nbytes + 4 * row_bytes + 128 * n_time


def test_traveling_field_validation(rng):
    with pytest.raises(ParameterError, match="not time-periodic"):
        TravelingField(lattice=LAT, profile=np.zeros((128, 1)), shift=3)
    with pytest.raises(ParameterError, match="finite"):
        TravelingField(lattice=LAT, profile=np.full((128, 1), np.nan),
                       shift=2)
    with pytest.raises(ParameterError, match="does not fit"):
        TravelingField(lattice=LAT, profile=np.zeros(128), shift=2)
    with pytest.raises(ParameterError, match="does not fit"):
        TravelingField(lattice=LAT, profile=np.zeros((64, 1)), shift=2)
    for rows in (0, -2):
        with pytest.raises(ParameterError, match="rows >= 1"):
            TravelingField(lattice=LAT2, profile=np.zeros((64, 1)), shift=1,
                           rows=rows)
    with pytest.raises(ParameterError, match="pass 1/2"):
        TravelingField(lattice=LAT2, profile=np.zeros((256, 1)), shift=2,
                       rows=4)
    with pytest.raises(ParameterError, match="lowest terms"):
        TravelingField(lattice=LAT2, profile=np.zeros((128, 1)), shift=0,
                       rows=2)
    # rows = 2 needs 2*n_space profile nodes
    with pytest.raises(ParameterError, match="rows\\*n_space = 128"):
        TravelingField(lattice=LAT2, profile=np.zeros((64, 1)), shift=1,
                       rows=2)
    # 1/2 node per step returns after 2*n_space = 256 steps, not 64
    with pytest.raises(ParameterError, match="1/2 per step is not time-periodic"):
        TravelingField(lattice=LAT, profile=np.zeros((256, 1)), shift=1,
                       rows=2)


@pytest.mark.parametrize("shift,rows,bad", [
    (1.7, 1, "shift"), (True, 1, "shift"), (np.nan, 1, "shift"),
    (2.0, 1, "shift"), (1, 2.0, "rows"), (1, np.True_, "rows"),
    (1, "2", "rows")])
def test_traveling_field_requires_integer_shift_and_rows(shift, rows, bad):
    # these once became int(value) (1.7 and True as 1) or a raw ValueError
    value = shift if bad == "shift" else rows
    with pytest.raises(ParameterError,
                       match=f"{bad} must be an integer, got {value!r}"):
        TravelingField(lattice=LAT2, profile=np.zeros((128, 1)), shift=shift,
                       rows=rows)


def test_traveling_field_takes_numpy_integers():
    field = TravelingField(lattice=LAT, profile=np.zeros((128, 1)),
                           shift=np.int64(2), rows=np.int32(1))
    assert (field.shift, field.rows) == (2, 1)
    assert type(field.shift) is int and type(field.rows) is int


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("speed,shift", [(1.0, 2), (-2.0, -4), (0.0, 0)])
def test_lacunary_integer_shift_is_compact(speed, shift):
    field = make_lacunary_field(0.6, 5, 3, speed, LAT)
    assert isinstance(field, TravelingField)
    assert field.shift == shift


def test_lacunary_fractional_shift_is_compact():
    lat = Lattice(k=1, n_time=64, n_space=96, extent_time=1.0,
                  extent_space=1.0)
    # speed 1 moves 1.5 nodes per step on this lattice
    field = make_lacunary_field(0.6, 4, 3, 1.0, lat)
    assert isinstance(field, TravelingField)
    assert (field.shift, field.rows) == (3, 2)
    t, x = field.lattice.times(), field.lattice.space_nodes()
    want = lacunary_profile(0.6, 4, 3, 1.0, 1.0, x[None, :] - t[:, None])
    np.testing.assert_allclose(field.values[..., 0], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name,left,right,speed,n_time,n_space,compact", [
    ("burgers", [1.0], [0.0], 0.5, 256, 256, True),      # commutator_sweep
    ("burgers", [0.0], [1.0], -0.5, 128, 256, True),
    ("elastodynamics-1d", [1.0, 0.5], [1.5, -0.5], 0.0, 64, 512, True),
    # half a node per step (shock-limit, the onsager shock)
    ("burgers", [1.0], [0.0], 0.5, 512, 256, True),
    # C8: four nodes per step, but rounding moves the interface in 340 rows
    ("elastodynamics-1d", [1.0, 0.1 * C8_SPEED], [1.2, -0.1 * C8_SPEED],
     C8_SPEED, 512, 1024, False),
    # 64/127 nodes per step: no p/q with q <= n_time/2
    ("burgers", [1.0], [0.0], 0.5, 127, 64, False),
])
def test_shock_form_and_values(name, left, right, speed, n_time, n_space,
                               compact):
    lat = Lattice(k=1, n_time=n_time, n_space=n_space, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(make_builtin(name), left, right, speed, lat)
    assert isinstance(field, TravelingField if compact else DiscreteField)
    if compact:
        # the wave moves shift/rows nodes per step
        lat = field.lattice
        assert math.gcd(field.shift, field.rows) == 1
        assert field.shift * lat.h_space == pytest.approx(
            speed * lat.h_time * field.rows, abs=1e-15)
    if n_time == 2 * n_space:    # half a node per step
        assert (field.shift, field.rows) == (1, 2)
    assert np.array_equal(field.values,
                          float_shock(left, right, speed, field.lattice))


@pytest.mark.parametrize("block", [1, 7, 3 * 64 + 5, 1 << 14])
@pytest.mark.parametrize("speed", [0.5, -2.75, 3.3])
def test_shock_test_in_row_blocks(block, speed):
    # the left/right test runs per row block with fields.remainder; any
    # block size gives the whole-lattice np.remainder test bit for bit,
    # also where the co-moving coordinate runs over several periods
    lat = Lattice(k=1, n_time=100, n_space=64, extent_time=1.0,
                  extent_space=1.0)
    with mock.patch.object(fields, "_BLOCK_NODES", block):
        field = make_shock_field(make_builtin("burgers"), [1.0], [0.0],
                                 speed, lat)
    assert np.array_equal(field.values,
                          float_shock([1.0], [0.0], speed, field.lattice))


# ---------------------------------------------------------------------------
# consumers: compact against materialized


@pytest.fixture(params=["m>0", "m<0", "m=0", "elastodynamics shock",
                        "p/q=1/2", "p/q=-3/2"])
def case(request):
    if request.param == "elastodynamics shock":
        system = make_builtin("elastodynamics-1d")
        field = make_shock_field(system, [1.0, 0.5], [1.5, -0.5], 0.0, LAT)
        testfn = ShockAlignedBump(speed=0.0, xi_center=0.5, inner_radius=0.1,
                                  outer_radius=0.3, time_center=0.5,
                                  time_radius=0.4)
    elif request.param == "p/q=1/2":
        # the shock-limit shock at small size
        system = make_builtin("burgers")
        field = make_shock_field(system, [1.0], [0.0], 0.5, LAT2)
        assert (field.shift, field.rows) == (1, 2)
        testfn = ShockAlignedBump(speed=0.5, xi_center=0.5, inner_radius=0.15,
                                  outer_radius=0.35, time_center=1.0,
                                  time_radius=0.8)
    elif request.param == "p/q=-3/2":
        system = make_builtin("burgers")
        eta = np.arange(128) / 128
        profile = lacunary_profile(0.6, 4, 3, 1.0, 1.0, eta)
        field = TravelingField(lattice=LAT2, profile=profile[:, None],
                               shift=-3, rows=2)
        testfn = TensorBump(center=(0.5, 0.5), radius=(0.35, 0.35))
    else:
        speed = {"m>0": 1.0, "m<0": -2.0, "m=0": 0.0}[request.param]
        system = make_builtin("burgers")
        field = make_lacunary_field(0.6, 5, 3, speed, LAT)
        testfn = TensorBump(center=(0.5, 0.5), radius=(0.35, 0.35))
    assert isinstance(field, TravelingField)
    return system, field, testfn


def kernels(field):
    return [make_kernel(e, field.lattice) for e in EPSILONS]


def test_mollify(case):
    _, field, _ = case
    flat = materialized(field)
    for kernel in kernels(field):
        got = mollify(field, kernel)
        assert isinstance(got, TravelingField)
        assert (got.shift, got.rows) == (field.shift, field.rows)
        assert_close(got.values, mollify(flat, kernel).values)
        direct = mollify(field, kernel, method="direct")
        assert isinstance(direct, DiscreteField)
        assert_close(got.values, direct.values)


def test_residual_R(case):
    system, field, testfn = case
    got = residual_R(system, field, kernels(field), testfn)
    want = residual_R(system, materialized(field), kernels(field), testfn)
    for name in ("I1", "I2", "total"):
        assert_close(getattr(got, name), getattr(want, name))


def test_lemma_bound_audit(case):
    system, field, _ = case
    ks = kernels(field)[-2:]
    got = lemma_bound_audit(system, field, ks, 3.0)
    want = lemma_bound_audit(system, materialized(field), ks, 3.0)
    assert_close(got.commutator_Lq_norms, want.commutator_Lq_norms)
    assert_close(got.lemma_bound_values, want.lemma_bound_values)


def test_good_set_measure(case):
    _, field, _ = case
    flat = materialized(field)
    for kernel in kernels(field)[::2]:
        for delta in (0.05, 0.2):
            assert good_set_measure(field, kernel, delta) == \
                good_set_measure(flat, kernel, delta)


def test_verify_estimates(case):
    _, field, _ = case
    got = verify_estimates(field, 3.0, EPSILONS, 0.6)
    want = verify_estimates(materialized(field), 3.0, EPSILONS, 0.6)
    for name in ("gradient_norms", "approximation_norms",
                 "translation_norms"):
        assert_close(getattr(got, name), getattr(want, name))


def test_commutator_field(case):
    system, field, _ = case
    kernel = kernels(field)[1]
    got = commutator_field(system, field, kernel)
    assert isinstance(got, TravelingField)
    assert got.value_shape == (system.n, 2)
    assert_close(got.values,
                 commutator_field(system, materialized(field), kernel).values)


@pytest.mark.parametrize("weak_residual", [weak_residual_system,
                                           weak_residual_companion])
def test_weak_residuals(case, weak_residual):
    system, field, testfn = case
    testfns = [testfn, TensorBump(center=(0.3, 0.6), radius=(0.2, 0.3))]
    assert_close(weak_residual(system, field, testfns),
                 weak_residual(system, materialized(field), testfns))


class PlainPair:
    """A user test function: evaluate returns a plain (psi, grad) pair."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, lattice, periodic_time=True):
        psi, grad = self.inner.evaluate(lattice, periodic_time)
        return psi, grad


SHOCK_STATES = {"burgers": ([1.0], [0.0]),
                "elastodynamics-1d": ([1.0, 0.5], [1.5, -0.5])}


def test_plain_pair_takes_the_dense_path(case):
    # a plain pair reaches the nodes through node_mean, once per array and
    # call; a catalogue sample through its factors on the wave and its row
    # window on the materialized field, never; the two agree, and on the
    # materialized field, where the window writes the pair's entries, bit
    # for bit
    system, wave, testfn = case
    states = SHOCK_STATES[system.name]
    for field in (wave, materialized(wave)):
        form = type(field)
        results = []
        for fn, calls in ((PlainPair(testfn), 2 + 2 * 2), (testfn, 0)):
            with mock.patch.object(form, "node_mean", autospec=True,
                                   side_effect=form.node_mean) as spy:
                results.append((
                    residual_R(system, field, kernels(field), fn),
                    build_dissipation_report(system, field, *states, [fn])))
            assert spy.call_count == calls
        (got, got_report), (want, want_report) = results
        compare = np.testing.assert_array_equal if form is DiscreteField \
            else assert_close
        for name in ("I1", "I2", "total"):
            compare(getattr(got, name), getattr(want, name))
        for name in ("system_weak_residuals", "companion_weak_residuals"):
            compare(getattr(got_report, name), getattr(want_report, name))


@pytest.mark.parametrize("form", ["shock", "lacunary"])
def test_compact_runs_hold_no_lattice_array(form):
    # test functions reach a compact field through their factors, so the
    # dissipation report and a residual sweep each peak below one
    # n_time x n_space array (at three, psi and grad psi, when the test
    # function was evaluated on the lattice)
    burgers = make_builtin("burgers")
    lattice = Lattice(k=1, n_time=1024, n_space=512, extent_time=1.0,
                      extent_space=1.0)
    if form == "shock":
        field = make_shock_field(burgers, [1.0], [0.0], 0.5, lattice)
        testfns = [ShockAlignedBump(speed=0.5, xi_center=0.5,
                                    inner_radius=0.15, outer_radius=0.35,
                                    time_center=1.0, time_radius=0.8)]
    else:
        field = make_lacunary_field(0.6, 6, 3, 1.0, lattice)
        testfns = [TensorBump(center=(0.5, 0.5), radius=(0.35, 0.35)),
                   TimeBump(center=0.5, radius=0.3)]
    assert isinstance(field, TravelingField) and field.rows == 2
    lattice = field.lattice
    ks = [make_kernel(2.0 ** -i, lattice) for i in range(4, 7)]
    for kernel in ks:       # the kernel lines, cut before tracing starts
        mollify(field, kernel)
    array = 8 * lattice.n_time * lattice.n_space
    for call in (lambda: build_dissipation_report(burgers, field, [1.0],
                                                  [0.0], testfns),
                 lambda: residual_R(burgers, field, ks, testfns[0])):
        assert traced_peak(call) < array


def test_axis_derivative(case):
    _, field, _ = case
    flat = materialized(field)
    for axis in (0, 1):
        # the compact derivative is the profile of the 2-D one
        got = axis_derivative(field, axis)
        assert got.shape == field.nodes.shape
        want = field.with_nodes(got).values
        assert_close(want, axis_derivative(flat, axis))


def test_shift_difference_norm(case):
    _, field, _ = case
    flat = materialized(field)
    for axis in (0, 1):
        for nodes in (1, 3, 10):
            for q in (1.0, 3.0):
                assert_close(shift_difference_norm(field, axis, nodes, q),
                             shift_difference_norm(flat, axis, nodes, q))


def test_domain_violation_message_matches_2d(rng):
    # strains drop below w_min = 1.2 where sin < -1/2, from node 75 on
    system = make_builtin("elastodynamics-1d", {"w_min": 1.2})
    xi = LAT.space_nodes()
    profile = np.stack([1.3 + 0.2 * np.sin(2 * np.pi * xi),
                        rng.normal(size=128)], axis=-1)
    field = TravelingField(lattice=LAT, profile=profile, shift=2)
    kernel = make_kernel(0.25, LAT)
    messages = []
    for form in (field, materialized(field)):
        with pytest.raises(DomainViolationError) as err:
            commutator_field(system, form, kernel)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "at index (0, 75)" in messages[0]
