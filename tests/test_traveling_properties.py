"""Property tests of TravelingField for random coprime shifts p/q on small
periodic lattices: each protocol method against a brute-force reference
on the materialized lattice, both generators against their
floating-point definitions, and test-function node means from factors
against the node mean of the dense arrays."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conslab import (Lattice, ShockAlignedBump, TensorBump, TimeBump,
                     TravelingField, lacunary_profile, make_builtin,
                     make_kernel, make_lacunary_field, make_shock_field,
                     mollify)
from conslab.fields import _row_classes
from conslab.mollifier import _convolve_fft
from conslab.testfunctions import node_means

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def waves(draw):
    """A TravelingField moving p/q nodes per step, gcd(p, q) = 1, on the
    smallest periodic n_time >= 16 times a drawn multiplier."""
    q = draw(st.integers(1, 4))
    p = draw(st.integers(-3 * q, 3 * q).filter(lambda p: math.gcd(p, q) == 1))
    n = draw(st.sampled_from([16, 20, 32]))
    period = q * n // math.gcd(p, q * n)      # p*n_time = 0 mod q*n
    n_time = period * max(1, -(-16 // period)) * draw(st.integers(1, 2))
    lattice = Lattice(k=1, n_time=n_time, n_space=n, extent_time=1.0,
                      extent_space=1.0)
    seed = draw(st.integers(0, 2 ** 16))
    channels = draw(st.integers(1, 2))
    profile = np.random.default_rng(seed).normal(size=(q * n, channels))
    return TravelingField(lattice=lattice, profile=profile, shift=p, rows=q)


def fine_index(field):
    lat = field.lattice
    t = np.arange(lat.n_time)[:, None]
    i = np.arange(lat.n_space)[None, :]
    return (field.rows * i - field.shift * t) % (field.rows * lat.n_space)


@SETTINGS
@given(waves())
def test_values_are_the_fine_grid_samples(field):
    lat = field.lattice
    want = np.empty(lat.shape + field.value_shape)
    for t in range(lat.n_time):
        for i in range(lat.n_space):
            want[t, i] = field.profile[
                (field.rows * i - field.shift * t) % (field.rows * lat.n_space)]
    assert np.array_equal(field.values, want)
    # the profile nodes share the lattice volume equally
    assert field.node_volume * len(field.profile) == \
        pytest.approx(lat.extent_time * lat.extent_space, rel=1e-14)


def _former_gather(field):
    # values as built before the sheared rows: one lattice-sized index
    lat = field.lattice
    size = field.rows * lat.n_space
    offsets = (np.arange(lat.n_time) * field.shift) % size
    idx = (field.rows * np.arange(lat.n_space)[None, :]
           - offsets[:, None]) % size
    return field.profile[idx]


@SETTINGS
@given(waves())
@example(TravelingField(lattice=Lattice(k=1, n_time=37, n_space=12,
                                        extent_time=1.0, extent_space=1.0),
                        profile=np.arange(37.0 * 12)[:, None], shift=-12,
                        rows=37))
def test_values_are_the_former_gather(field):
    values = TravelingField(lattice=field.lattice, profile=field.profile,
                            shift=field.shift, rows=field.rows).values
    want = _former_gather(field)
    assert values.shape == want.shape
    assert np.array_equal(values.view(np.int64), want.view(np.int64))
    assert not values.flags.writeable


@SETTINGS
@given(st.integers(1, 4), st.integers(-6, 6), st.sampled_from([16, 24, 32]),
       st.integers(1, 3))
def test_shock_generator_values_are_the_float_test(q, p, n, mult):
    # a Burgers shock moving p/q nodes per step, whatever form it takes
    if math.gcd(p, q) != 1 or p == 0:
        return
    period = q * n // math.gcd(p, q * n)
    n_time = period * max(1, -(-16 // period)) * mult
    lattice = Lattice(k=1, n_time=n_time, n_space=n, extent_time=1.0,
                      extent_space=1.0)
    speed = p / q * n_time / n               # L = T = 1
    field = make_shock_field(make_builtin("burgers"), [1.0], [0.0], speed,
                             lattice)
    lat = field.lattice
    t, x = lat.times(), lat.space_nodes()
    left = (x[None, :] - speed * t[:, None]) % 1.0 < 0.5
    assert np.array_equal(field.values, np.where(left, 1.0, 0.0)[..., None])
    if isinstance(field, TravelingField):
        assert field.shift * q == p * field.rows


@SETTINGS
@given(st.integers(8, 48), st.integers(16, 64),
       st.floats(-4.0, 4.0, allow_subnormal=False), st.integers(0, 2 ** 16))
def test_lacunary_generator_is_the_snapped_wave(n_time, n, speed, seed):
    # any finite speed: a compact wave moving sign*mult*n_space/n_time
    # nodes per step, mult the whole periods crossed over the snapped
    # extent_time (L = T = 1 before the snap)
    lattice = Lattice(k=1, n_time=n_time, n_space=n, extent_time=1.0,
                      extent_space=1.0)
    octaves = int(math.log2(n // 4))
    field = make_lacunary_field(0.6, octaves, seed, speed, lattice)
    assert isinstance(field, TravelingField)
    mult = max(1, round(abs(speed))) if speed else 0
    shift = Fraction(int(math.copysign(mult, speed)) * n, n_time)
    assert (field.shift, field.rows) == (shift.numerator, shift.denominator)
    t, x = field.lattice.times(), field.lattice.space_nodes()
    want = lacunary_profile(0.6, octaves, seed, 1.0, 1.0,
                            x[None, :] - speed * t[:, None])
    np.testing.assert_allclose(field.values[..., 0], want, rtol=0, atol=1e-12)


@SETTINGS
@given(waves(), st.integers(0, 2 ** 16))
def test_node_mean_is_the_scattered_mean(field, seed):
    lat = field.lattice
    arr = np.random.default_rng(seed).normal(size=lat.shape + (3,))
    want = np.zeros((field.rows * lat.n_space, 3))
    np.add.at(want, fine_index(field), arr)
    np.testing.assert_allclose(field.node_mean(arr)[0],
                               want / (lat.n_time / field.rows),
                               rtol=0, atol=1e-13)


@SETTINGS
@given(waves(), st.integers(-40, 40), st.integers(-40, 40))
def test_node_roll_is_the_lattice_roll(field, a, c):
    rolled = np.roll(field.nodes, field.node_roll((a, c)), axis=(0, 1))
    assert np.array_equal(field.with_nodes(rolled).values,
                          np.roll(field.values, (a, c), axis=(0, 1)))


@SETTINGS
@given(waves(), st.floats(1.0, 1.9))
def test_line_mollification_is_the_2d_transform(field, widen):
    lat = field.lattice
    kernel = make_kernel(4.0 * max(lat.h_time, lat.h_space) * widen, lat)
    got = mollify(field, kernel)
    assert isinstance(got, TravelingField)
    want = _convolve_fft(np.asarray(field.values), kernel)
    np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)


@st.composite
def sampled_waves(draw):
    """A TravelingField moving p/q nodes per step (q in 1..3, p of either
    sign) on a lattice with extents 1, and a catalogue test function: a
    TensorBump, a TimeBump, or a ShockAlignedBump at the wave's speed
    p*n_time/(q*n_space), for which the lattice is snapped, or at another
    speed."""
    field = draw(waves().filter(lambda f: f.rows <= 3))
    lat = field.lattice
    amplitude = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["tensor", "time", "aligned", "other"]))
    if kind == "tensor":
        testfn = TensorBump(center=(draw(st.floats(-1.0, 2.0)),
                                    draw(st.floats(-1.0, 2.0))),
                            radius=(draw(st.floats(0.05, 0.5)),
                                    draw(st.floats(0.05, 0.5))),
                            amplitude=amplitude)
    elif kind == "time":
        testfn = TimeBump(center=draw(st.floats(-1.0, 2.0)),
                          radius=draw(st.floats(0.05, 0.5)),
                          amplitude=amplitude,
                          unit_integral=draw(st.booleans()))
    else:
        speed = field.shift * lat.n_time / (field.rows * lat.n_space)
        if kind == "other":
            speed += draw((st.sampled_from([-1.0, 0.5]) | st.floats(-3.0, 3.0))
                          .filter(lambda d: speed + d != speed))
        outer = draw(st.floats(0.05, 0.5))
        testfn = ShockAlignedBump(
            speed=speed, xi_center=draw(st.floats(-2.0, 2.0)),
            inner_radius=outer * draw(st.floats(0.05, 0.8)),
            outer_radius=outer, time_center=draw(st.floats(-1.0, 2.0)),
            time_radius=draw(st.floats(0.05, 0.5)), amplitude=amplitude,
            unit_time_integral=draw(st.booleans()))
    return field, testfn, kind


def _sample_node_means(sample, field):
    """The node means testfunctions.node_means takes of `sample`, over
    every row."""
    given = SimpleNamespace(evaluate=lambda lattice, periodic_time: sample)
    return node_means(given, field)(slice(None))


@settings(max_examples=150, deadline=None)
@given(sampled_waves())
def test_sample_node_means_are_the_node_means_of_the_dense_arrays(case):
    field, testfn, kind = case
    lat = field.lattice
    sample = testfn.evaluate(lat)
    got = _sample_node_means(sample, field)
    # the catalogue paths read the factors and build no lattice array; a
    # shock bump at another speed averages its dense arrays
    assert ("_arrays" in vars(sample)) == (kind == "other")
    # a node mean is a mean of dense entries, so its rounding scales with
    # their max (sums of phi' over a period cancel to rounding)
    for g, dense in zip(got, testfn.evaluate(lat)):
        want = field.node_mean(dense)
        assert g.shape == want.shape
        np.testing.assert_allclose(g, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(dense)))


def _separable_wave_means(sample, field):
    # node means of static factors as a formula of their own: per class,
    # the histogram of phi over its rows' shifts convolved with
    # the space factor
    n, rows = field.lattice.n_space, field.rows
    hist = np.empty((2, rows, n))
    for r, ts, ss in _row_classes(field.lattice, field.shift, rows):
        hist[0, r] = np.bincount(ss, weights=sample.phi[ts], minlength=n)
        hist[1, r] = np.bincount(ss, weights=sample.dphi[ts], minlength=n)
    sums = np.zeros((rows, n, 3))
    if sample.space:
        (f, df), = sample.space
        h = np.fft.rfft(hist)
        f_hat = np.fft.rfft(f)
        sums[..., 0] = np.fft.irfft(h[0] * f_hat, n)
        sums[..., 1] = np.fft.irfft(h[1] * f_hat, n)
        sums[..., 2] = np.fft.irfft(h[0] * np.fft.rfft(df), n)
    else:
        sums[..., :2] = hist.sum(axis=-1).T[:, None]
    return _interleaved(field, sums * sample.amplitude)


def _comoving_wave_means(sample, field):
    # node means of a co-moving sample at the field's own p/q: chi on
    # each class of the fine grid times the class sums of phi and phi'
    p, q = sample.shift
    lat = field.lattice
    sums = np.zeros((q, lat.n_space, 3))
    for r, ts, _ in _row_classes(lat, p, q):
        m, dm = sample.phi[ts].sum(), sample.dphi[ts].sum()
        if m or dm:
            eta = q * np.arange(lat.n_space)
            chi, dchi = sample.plateau((eta + r) * (lat.h_space / q))
            sums[r, :, 0] = chi * m
            sums[r, :, 2] = dchi * m
            sums[r, :, 1] = chi * dm - sample.speed * sums[r, :, 2]
    return _interleaved(field, sums)


def _interleaved(field, sums):
    lat, rows = field.lattice, field.rows
    means = np.moveaxis(sums, 0, 1).reshape(1, -1, 3) / (lat.n_time / rows)
    return means[..., 0], means[..., 1:]


@settings(max_examples=150, deadline=None)
@given(sampled_waves())
def test_sample_node_means_are_bitwise_the_two_formulas(case):
    # node means are, bit for bit and zeros with their signs, the
    # histogram formula for static factors, the class-sum formula for a
    # shock bump at the wave's speed, and the dense view's node mean at
    # any other speed
    field, testfn, kind = case
    sample = testfn.evaluate(field.lattice)
    got = _sample_node_means(sample, field)
    if kind == "other":
        want = tuple(map(field.node_mean, testfn.evaluate(field.lattice)))
    elif kind == "aligned":
        want = _comoving_wave_means(sample, field)
    else:
        want = _separable_wave_means(sample, field)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
