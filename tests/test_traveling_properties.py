"""Property tests of TravelingField for random coprime shifts p/q on small
periodic lattices: each protocol method against a brute-force reference
on the materialized lattice, and both generators against their
floating-point definitions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslab import (Lattice, TravelingField, lacunary_profile, make_builtin,
                     make_kernel, make_lacunary_field, make_shock_field,
                     mollify)
from conslab.mollifier import _convolve_fft

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
