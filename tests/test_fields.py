"""Lattices, discrete fields, Besov diagnostics, serialization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conslab import (DiscreteField, Lattice, ParameterError, ResolutionError,
                     UnsupportedGeometryError, estimate_besov, field_to_csv,
                     lacunary_profile, load_field, make_builtin,
                     make_lacunary_field, make_shock_field, save_field,
                     shift_difference_norm)
from conslab import fields
from conslab.errors import DomainViolationError
from conslab.fields import difference_lq_norm, difference_squares


# ---------------------------------------------------------------------------
# lattice geometry


def test_lattice_geometry():
    lat = Lattice(k=2, n_time=10, n_space=16, extent_time=2.0,
                  extent_space=4.0)
    assert lat.h_time == pytest.approx(0.2)
    assert lat.h_space == pytest.approx(0.25)
    assert lat.shape == (10, 16, 16)
    assert lat.n_axes == 3
    assert lat.cell_volume == pytest.approx(0.2 * 0.25 * 0.25)
    assert lat.axis_spacing(0) == lat.h_time
    assert lat.axis_spacing(2) == lat.h_space
    assert lat.axis_extent(0) == 2.0
    assert lat.axis_extent(1) == 4.0
    times = lat.times()
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(2.0 - lat.h_time)  # periodic: no endpoint
    assert lat.space_nodes().shape == (16,)


@pytest.mark.parametrize("kwargs", [
    dict(k=0, n_time=8, n_space=8, extent_time=1.0, extent_space=1.0),
    dict(k=1, n_time=1, n_space=8, extent_time=1.0, extent_space=1.0),
    dict(k=1, n_time=8, n_space=8, extent_time=0.0, extent_space=1.0),
    dict(k=1, n_time=8, n_space=8, extent_time=1.0, extent_space=-2.0),
    dict(k=1, n_time=8, n_space=8, extent_time=np.inf, extent_space=1.0),
    # counts must be integers, and a bool is not one
    dict(k=True, n_time=8, n_space=8, extent_time=1.0, extent_space=1.0),
    dict(k=1.0, n_time=8, n_space=8, extent_time=1.0, extent_space=1.0),
    dict(k=1, n_time=16.5, n_space=8, extent_time=1.0, extent_space=1.0),
    dict(k=1, n_time=16.0, n_space=8, extent_time=1.0, extent_space=1.0),
    dict(k=1, n_time=8, n_space="8", extent_time=1.0, extent_space=1.0),
    dict(k=1, n_time=8, n_space=None, extent_time=1.0, extent_space=1.0),
    # 2^64 nodes are more than numpy can index (and allocate nothing)
    dict(k=1, n_time=2 ** 32, n_space=2 ** 32, extent_time=1.0,
         extent_space=1.0),
])
def test_lattice_validation(kwargs):
    with pytest.raises(ParameterError):
        Lattice(**kwargs)


def test_lattice_counts_take_numpy_integers_as_ints():
    lat = Lattice(k=np.int64(1), n_time=np.int32(16), n_space=np.uint16(24),
                  extent_time=1.0, extent_space=1.0)
    assert lat == Lattice(k=1, n_time=16, n_space=24, extent_time=1.0,
                          extent_space=1.0)
    assert all(type(c) is int for c in (lat.k, lat.n_time, lat.n_space))


def test_subnormal_speed_is_rejected():
    # snapping extent_time to one period at this speed overflows to inf
    lat = Lattice(k=1, n_time=8, n_space=16, extent_time=1.0,
                  extent_space=1.0)
    with pytest.raises(ParameterError, match="finite"):
        make_lacunary_field(0.5, 2, 0, 5e-324, lat)


def test_field_validation(tiny_lattice):
    good = np.zeros(tiny_lattice.shape + (2,))
    field = DiscreteField(lattice=tiny_lattice, values=good)
    assert field.n == 2
    assert field.value_shape == (2,)
    with pytest.raises(ParameterError, match="shape"):
        DiscreteField(lattice=tiny_lattice, values=np.zeros((4, 4, 1)))
    bad = good.copy()
    bad[0, 0, 0] = np.inf
    with pytest.raises(ParameterError, match="finite"):
        DiscreteField(lattice=tiny_lattice, values=bad)


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 7.3]),
       value_shape=st.sampled_from([(), (2,), (2, 2), (3,)]),
       k=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 16))
def test_magnitude_lq_norm_matches_the_oracle(q, value_shape, k, seed):
    # difference_lq_norm with no subtrahend is the norm of |values|
    rng = np.random.default_rng(seed)
    lattice_shape = (5,) + (6,) * k
    values = rng.normal(size=lattice_shape + value_shape)
    before = values.copy()
    volume = rng.uniform(0.1, 2.0)
    mag = np.linalg.norm(values.reshape(lattice_shape + (-1,)), axis=-1)
    want = (np.sum(mag ** q) * volume) ** (1.0 / q)
    got = difference_lq_norm(values, None, k + 1, q, volume)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    assert np.array_equal(values, before)


@pytest.mark.parametrize("n", range(1, 4))
def test_squared_magnitude_by_component_count(n, rng, monkeypatch):
    # the per-component sum in component order, bit for bit, over blocks
    # that do not divide the node count
    monkeypatch.setattr(fields, "_BLOCK_NODES", 100)
    values = rng.normal(size=(24, 32, n))
    want = np.square(values[..., 0])
    for i in range(1, n):
        want = want + np.square(values[..., i])
    got = np.concatenate([block.copy() for block in
                          difference_squares(values, None, 2)])
    assert np.array_equal(got, want.reshape(-1))
    # a value matrix counts its entries as components
    assert np.array_equal(np.concatenate(
        [block.copy() for block in
         difference_squares(values.reshape(24, 32, 1, n), None, 2)]), got)


def _counting_multiply(monkeypatch):
    products = []
    multiply = np.multiply

    def counted(*args, **kwargs):
        products.append(args[0].shape)
        return multiply(*args, **kwargs)

    monkeypatch.setattr(np, "multiply", counted)
    return products


@pytest.mark.parametrize("q, n_products", [(3, 1), (6, 2), (16, 7)])
def test_power_sum_small_integer_q_is_a_product_chain(q, n_products,
                                                      monkeypatch):
    mag2 = np.array([0.25, 1.0, 2.0, 3.5])
    products = _counting_multiply(monkeypatch)
    got = fields.power_sum(mag2, float(q))
    assert len(products) == n_products
    assert got == pytest.approx(np.sum(np.sqrt(mag2) ** q), rel=1e-14)


def test_power_sum_large_integer_q_takes_one_pow(monkeypatch):
    # a chain of q//2 - 1 products would run half a million times here;
    # the pow's overflow to inf raises no RuntimeWarning
    mag2 = np.array([0.25, 1.0, 4.0])
    products = _counting_multiply(monkeypatch)
    assert fields.power_sum(mag2, 2.0 ** 20) == np.inf
    assert fields.power_sum(mag2[:2], 2.0 ** 20) == 1.0
    assert len(products) == 0


@pytest.mark.parametrize("q", [3.0, 2.5, 1e12])
def test_besov_at_amplitude_1e200_is_the_scaled_estimate(q):
    # 1e200 squares to inf: the norm is taken again on the values divided
    # by their largest entry, in the product chain and the scaled sum alike,
    # with no overflow warning
    lat = Lattice(k=1, n_time=8, n_space=512, extent_time=1.0,
                  extent_space=1.0)
    unit = estimate_besov(make_lacunary_field(0.5, 6, 7, 0.0, lat), q)
    values = np.array([[[0.5], [1.0]], [[2.0], [0.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = estimate_besov(make_lacunary_field(0.5, 6, 7, 0.0, lat,
                                                 amplitude=1e200), q)
        norm = difference_lq_norm(1e200 * values, None, 2, q, 1.0)
        # an inf entry leaves nothing to rescale: the norm stays inf
        assert difference_lq_norm(np.array([[[np.inf], [1.0]]]), None, 2, q,
                                  1.0) == np.inf
    assert np.all(np.isfinite(big.diff_norms))
    np.testing.assert_allclose(big.diff_norms, 1e200 * unit.diff_norms,
                               rtol=1e-12)
    assert norm == pytest.approx(
        1e200 * difference_lq_norm(values, None, 2, q, 1.0), rel=1e-12)


def test_besov_stops_at_the_last_usable_shift(rough_lattice):
    # 2^i overflows a double at i = 1024, long after every shift has
    # passed an eighth of the extent
    field = make_lacunary_field(0.5, 8, seed=7, travel_speed=0.0,
                                lattice=rough_lattice)
    est = estimate_besov(field, q=3.0, n_shifts=2000)
    usable = estimate_besov(field, q=3.0, n_shifts=len(est.shifts))
    assert np.array_equal(est.shifts, usable.shifts)
    assert np.array_equal(est.diff_norms, usable.diff_norms)
    assert (est.fit, est.fitted_alpha, est.seminorm_proxy) == \
        (usable.fit, usable.fitted_alpha, usable.seminorm_proxy)


# ---------------------------------------------------------------------------
# shock fields


def test_shock_field_is_two_valued(burgers):
    lat = Lattice(k=1, n_time=16, n_space=64, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(burgers, [1.0], [0.0], 0.5, lat)
    assert set(np.unique(field.values)) == {0.0, 1.0}
    # at t=0 the left state occupies [0, L/2)
    x = field.lattice.space_nodes()
    np.testing.assert_array_equal(field.values[0, :, 0],
                                  np.where(x < 0.5, 1.0, 0.0))


def test_shock_field_snaps_time_extent(burgers):
    lat = Lattice(k=1, n_time=16, n_space=64, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(burgers, [1.0], [0.0], 0.5, lat)
    # period/|speed| = 2; extent snaps to the nearest multiple
    assert field.lattice.extent_time == pytest.approx(2.0)
    same = make_shock_field(burgers, [1.0], [0.0], 1.0, lat)
    assert same.lattice.extent_time == pytest.approx(1.0)


def test_shock_field_travels_by_exact_rolls(burgers):
    # 64 nodes, 16 steps, speed 0.5 -> snapped T=2, shift 4 nodes per step
    lat = Lattice(k=1, n_time=16, n_space=64, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(burgers, [1.0], [0.0], 0.5, lat)
    shift = round(0.5 * field.lattice.h_time / field.lattice.h_space)
    assert shift == 4
    for i in range(1, field.lattice.n_time):
        np.testing.assert_array_equal(
            field.values[i], np.roll(field.values[0], i * shift, axis=0))


def test_shock_field_static(burgers):
    lat = Lattice(k=1, n_time=8, n_space=32, extent_time=1.0, extent_space=1.0)
    field = make_shock_field(burgers, [1.0], [-1.0], 0.0, lat)
    assert field.lattice.extent_time == 1.0  # no snapping without motion
    assert np.all(field.values == field.values[0])


def test_shock_field_validation(burgers, elasto):
    lat = Lattice(k=1, n_time=8, n_space=32, extent_time=1.0, extent_space=1.0)
    with pytest.raises(UnsupportedGeometryError, match="one-dimensional"):
        make_shock_field(burgers, [1.0], [0.0], 0.5,
                         Lattice(k=2, n_time=8, n_space=8, extent_time=1.0,
                                 extent_space=1.0))
    with pytest.raises(ParameterError, match="shape"):
        make_shock_field(burgers, [1.0, 2.0], [0.0], 0.5, lat)
    with pytest.raises(ParameterError, match="no jump"):
        make_shock_field(burgers, [1.0], [1.0], 0.5, lat)
    with pytest.raises(ParameterError, match="finite"):
        make_shock_field(burgers, [1.0], [0.0], np.nan, lat)
    with pytest.raises(DomainViolationError):
        make_shock_field(elasto, [-1.0, 0.0], [1.0, 0.0], 0.5, lat)


# ---------------------------------------------------------------------------
# lacunary fields


def test_lacunary_profile_octave_amplitudes():
    x = np.linspace(0.0, 1.0, 4096, endpoint=False)
    prof = lacunary_profile(0.5, 6, seed=3, period=1.0, amplitude=1.0, x=x)
    spectrum = np.abs(np.fft.rfft(prof)) / x.size * 2.0
    for j in range(1, 7):
        assert spectrum[2 ** j] == pytest.approx(2.0 ** (-0.5 * j), rel=1e-10)
    # nothing off the lacunary frequencies
    mask = np.ones(spectrum.size, dtype=bool)
    mask[[2 ** j for j in range(1, 7)]] = False
    mask[0] = False
    assert np.max(spectrum[mask]) < 1e-12


def test_lacunary_field_travels_by_exact_rolls():
    lat = Lattice(k=1, n_time=16, n_space=256, extent_time=1.0,
                  extent_space=1.0)
    field = make_lacunary_field(0.5, 5, seed=7, travel_speed=1.0, lattice=lat)
    assert field.lattice.extent_time == 1.0
    for i in range(1, 16):
        np.testing.assert_array_equal(
            field.values[i], np.roll(field.values[0], i * 16, axis=0))


def test_lacunary_field_fractional_speed_snaps():
    lat = Lattice(k=1, n_time=16, n_space=256, extent_time=1.0,
                  extent_space=1.0)
    field = make_lacunary_field(0.5, 5, seed=7, travel_speed=0.75, lattice=lat)
    # snapped so speed * T is a whole number of periods
    ratio = 0.75 * field.lattice.extent_time
    assert ratio == pytest.approx(round(ratio))


_SNAP_LAT = Lattice(k=1, n_time=16, n_space=64, extent_time=1.0,
                    extent_space=1.0)


@pytest.mark.parametrize("make, speed", [
    (lambda s: make_lacunary_field(0.6, 3, 0, s, _SNAP_LAT), 1e-310),
    (lambda s: make_shock_field(make_builtin("burgers"), [1.0], [0.0], s,
                                _SNAP_LAT), 1e-320),
    (lambda s: make_shock_field(make_builtin("burgers"), [1.0], [0.0], s,
                                _SNAP_LAT), -1e-320),
])
def test_generators_name_a_speed_with_no_finite_snapped_extent(make, speed):
    # extent_space/|speed| overflows: the message names the speed and the
    # cause, not the generic lattice-extent check it used to reach
    with pytest.raises(ParameterError) as info:
        make(speed)
    message = str(info.value)
    assert f"speed {speed!r}" in message
    assert "extent_space/|speed|" in message
    assert "no finite snapped time extent" in message


def test_shock_field_names_a_speed_whose_period_count_overflows(burgers):
    lat = Lattice(k=1, n_time=16, n_space=64, extent_time=10.0,
                  extent_space=1.0)
    with pytest.raises(ParameterError, match=r"speed 1e\+308 is too large"):
        make_shock_field(burgers, [1.0], [0.0], 1e308, lat)


def test_lacunary_field_validation():
    lat = Lattice(k=1, n_time=8, n_space=256, extent_time=1.0,
                  extent_space=1.0)
    with pytest.raises(ParameterError, match="alpha"):
        make_lacunary_field(1.5, 4, 0, 0.0, lat)
    with pytest.raises(ParameterError, match="n_octaves"):
        make_lacunary_field(0.5, 0, 0, 0.0, lat)
    with pytest.raises(UnsupportedGeometryError):
        make_lacunary_field(0.5, 4, 0, 0.0,
                            Lattice(k=2, n_time=8, n_space=16,
                                    extent_time=1.0, extent_space=1.0))
    with pytest.raises(ResolutionError, match="maximum n_octaves here is 6"):
        make_lacunary_field(0.5, 9, 0, 0.0, lat)
    for speed in (np.nan, np.inf, 1e400):
        with pytest.raises(ParameterError, match="travel_speed must be finite"):
            make_lacunary_field(0.5, 4, 0, speed, lat)
    for n_octaves, seed, match in [
            (2.5, 0, "n_octaves must be an integer, got 2.5"),
            (True, 0, "n_octaves must be an integer, got True"),
            (2, 1.0, "seed must be an integer, got 1.0"),
            (2, -1, "seed must be >= 0, got -1"),
            (2, np.int64(-3), "seed must be >= 0, got -3")]:
        with pytest.raises(ParameterError, match=match):
            make_lacunary_field(0.5, n_octaves, seed, 0.0, lat)


def test_lacunary_seed_reproducibility():
    lat = Lattice(k=1, n_time=8, n_space=256, extent_time=1.0,
                  extent_space=1.0)
    a = make_lacunary_field(0.5, 5, seed=11, travel_speed=0.0, lattice=lat)
    b = make_lacunary_field(0.5, 5, seed=11, travel_speed=0.0, lattice=lat)
    c = make_lacunary_field(0.5, 5, seed=12, travel_speed=0.0, lattice=lat)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


# ---------------------------------------------------------------------------
# Besov diagnostics


@pytest.fixture(scope="module")
def rough_lattice():
    return Lattice(k=1, n_time=8, n_space=2048, extent_time=1.0,
                   extent_space=1.0)


def test_shift_norm_matches_manual(tiny_lattice, rng):
    vals = rng.normal(size=tiny_lattice.shape + (2,))
    field = DiscreteField(lattice=tiny_lattice, values=vals)
    got = shift_difference_norm(field, axis=1, nodes=3, q=3.0)
    diff = np.roll(vals, -3, axis=1) - vals
    mag = np.sqrt(np.sum(diff ** 2, axis=-1))
    want = (np.sum(mag ** 3) * tiny_lattice.cell_volume) ** (1.0 / 3.0)
    assert got == pytest.approx(want, rel=1e-13)


def test_shift_norm_forward_backward_symmetry(rough_lattice):
    field = make_lacunary_field(0.5, 7, seed=5, travel_speed=0.0,
                                lattice=rough_lattice)
    # reflection maps a forward shift to a backward one; periodic axes
    # make the two norms identical
    reflected = DiscreteField(lattice=rough_lattice,
                              values=field.values[:, ::-1].copy())
    for nodes in (1, 5, 32):
        fwd = shift_difference_norm(field, 1, nodes, 3.0)
        bwd = shift_difference_norm(reflected, 1, nodes, 3.0)
        assert abs(fwd - bwd) <= 1e-12 * max(1.0, fwd)


def test_shift_norm_nonperiodic_time_overlap(tiny_lattice, rng):
    vals = rng.normal(size=tiny_lattice.shape + (1,))
    field = DiscreteField(lattice=tiny_lattice, values=vals,
                          periodic_time=False)
    got = shift_difference_norm(field, axis=0, nodes=2, q=2.0)
    diff = vals[2:] - vals[:-2]
    want = np.sqrt(np.sum(diff ** 2) * tiny_lattice.cell_volume)
    assert got == pytest.approx(want, rel=1e-13)
    with pytest.raises(ResolutionError, match="time extent"):
        shift_difference_norm(field, axis=0, nodes=16, q=2.0)
    with pytest.raises(ParameterError, match=">= 1"):
        shift_difference_norm(field, axis=0, nodes=0, q=2.0)


@pytest.mark.parametrize("alpha,lo,hi", [(0.25, 0.20, 0.30),
                                         (0.5, 0.45, 0.55),
                                         (0.75, 0.70, 0.80)])
def test_besov_recovers_lacunary_exponent(rough_lattice, alpha, lo, hi):
    field = make_lacunary_field(alpha, 8, seed=7, travel_speed=0.0,
                                lattice=rough_lattice)
    est = estimate_besov(field, q=3.0, n_shifts=6)
    assert lo <= est.fitted_alpha <= hi
    assert est.q == 3.0
    assert est.seminorm_proxy > 0.0
    assert np.all(np.diff(est.shifts) < 0)  # strictly decreasing dyadic order


def test_besov_halving_factor(rough_lattice):
    alpha = 0.5
    field = make_lacunary_field(alpha, 8, seed=7, travel_speed=0.0,
                                lattice=rough_lattice)
    est = estimate_besov(field, q=2.0, n_shifts=7)
    ratios = est.diff_norms[1:] / est.diff_norms[:-1]
    # halving the shift scales the norm by ~2^-alpha away from the
    # resolution floor; the final (finest) ratio is excluded
    for r in ratios[:-1]:
        assert 2.0 ** (-alpha - 0.1) <= r <= 2.0 ** (-alpha + 0.1)


def test_besov_scale_invariance(rough_lattice):
    field = make_lacunary_field(0.5, 8, seed=9, travel_speed=0.0,
                                lattice=rough_lattice)
    scaled = DiscreteField(lattice=rough_lattice, values=17.0 * field.values)
    a = estimate_besov(field, q=3.0, n_shifts=6)
    b = estimate_besov(scaled, q=3.0, n_shifts=6)
    assert abs(a.fitted_alpha - b.fitted_alpha) <= 1e-9
    assert b.seminorm_proxy == pytest.approx(17.0 * a.seminorm_proxy,
                                             rel=1e-9)
    np.testing.assert_allclose(b.diff_norms, 17.0 * a.diff_norms, rtol=1e-12)


def test_besov_constant_field_sentinel(rough_lattice):
    field = DiscreteField(lattice=rough_lattice,
                          values=np.full(rough_lattice.shape + (1,), 2.5))
    est = estimate_besov(field, q=2.0, n_shifts=5)
    assert np.isnan(est.fitted_alpha)
    assert est.fit.degenerate
    assert est.seminorm_proxy == 0.0
    assert np.all(est.diff_norms == 0.0)


def test_besov_single_cosine_is_lipschitz(rough_lattice):
    x = rough_lattice.space_nodes()
    vals = np.broadcast_to(np.cos(2.0 * np.pi * x)[None, :, None],
                           rough_lattice.shape + (1,)).copy()
    field = DiscreteField(lattice=rough_lattice, values=vals)
    est = estimate_besov(field, q=2.0, n_shifts=6)
    # all probe shifts sit below a quarter wavelength, where the smooth
    # profile looks Lipschitz
    assert est.fitted_alpha == pytest.approx(1.0, abs=0.05)


def test_besov_validation(rough_lattice):
    field = make_lacunary_field(0.5, 5, seed=0, travel_speed=0.0,
                                lattice=rough_lattice)
    with pytest.raises(ParameterError, match="q must be >= 1"):
        estimate_besov(field, q=0.5)
    with pytest.raises(ParameterError, match="n_shifts"):
        estimate_besov(field, q=2.0, n_shifts=2)
    coarse = Lattice(k=1, n_time=8, n_space=16, extent_time=1.0,
                     extent_space=1.0)
    tiny = DiscreteField(lattice=coarse, values=np.zeros(coarse.shape + (1,)))
    with pytest.raises(ResolutionError, match="usable shifts"):
        estimate_besov(tiny, q=2.0, n_shifts=8)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_roundtrip(tmp_path, rng):
    lat = Lattice(k=1, n_time=12, n_space=20, extent_time=1.5,
                  extent_space=2.0)
    field = DiscreteField(lattice=lat, values=rng.normal(size=lat.shape + (3,)),
                          periodic_time=False)
    path = tmp_path / "field.bin"
    save_field(field, path)
    back = load_field(path)
    assert back.lattice == lat
    assert back.periodic_time is False
    np.testing.assert_array_equal(back.values, field.values)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"notafld!" + b"\x00" * 64)
    with pytest.raises(ParameterError, match="bad magic"):
        load_field(path)


@pytest.fixture
def saved_field(tmp_path, rng):
    lat = Lattice(k=1, n_time=8, n_space=8, extent_time=1.0, extent_space=1.0)
    path = tmp_path / "field.bin"
    save_field(DiscreteField(lattice=lat, values=rng.normal(size=(8, 8, 2))),
               path)
    return path


def test_load_rejects_file_shorter_than_header(saved_field):
    saved_field.write_bytes(saved_field.read_bytes()[:20])
    with pytest.raises(ParameterError, match="20 bytes.*56-byte header"):
        load_field(saved_field)


def test_load_rejects_truncated_body(saved_field):
    full = saved_field.read_bytes()
    assert len(full) == 56 + 8 * 8 * 8 * 2
    saved_field.write_bytes(full[:-8])
    with pytest.raises(ParameterError, match="holds 1072 bytes.*promises 1080"):
        load_field(saved_field)


def test_load_rejects_trailing_bytes(saved_field):
    saved_field.write_bytes(saved_field.read_bytes() + b"\x00" * 8)
    with pytest.raises(ParameterError, match="holds 1088 bytes.*promises 1080"):
        load_field(saved_field)


def test_save_requires_state_field(tiny_lattice, tmp_path):
    field = DiscreteField(lattice=tiny_lattice,
                          values=np.zeros(tiny_lattice.shape + (2, 2)))
    with pytest.raises(ParameterError, match="one value axis"):
        save_field(field, tmp_path / "x.bin")


def test_field_to_csv(tmp_path, burgers):
    lat = Lattice(k=1, n_time=8, n_space=8, extent_time=1.0, extent_space=1.0)
    field = make_shock_field(burgers, [1.0], [0.0], 0.0, lat)
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,u1"
    assert len(lines) == 1 + 8 * 8
    with pytest.raises(ParameterError, match="CSV limit"):
        field_to_csv(field, path, max_nodes=10)
