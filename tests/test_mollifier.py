"""Kernel construction, convolution semantics, smoothing estimates."""

import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

import oracles
from conftest import traced_peak
from conslab import (DiscreteField, Lattice, ParameterError, ResolutionError,
                     TravelingField, estimate_besov, kernel_table,
                     lemma_bound_audit, lq_norm, make_builtin, make_kernel,
                     make_lacunary_field, make_shock_field, mollify,
                     shift_difference_norm, verify_estimates)
from conslab import _runtime, mollifier
from conslab.mollifier import _squared_gradient, axis_derivative


@pytest.fixture
def small_lattice():
    return Lattice(k=1, n_time=24, n_space=24, extent_time=1.0,
                   extent_space=1.0)


@pytest.fixture
def small_field(small_lattice, rng):
    vals = rng.normal(size=small_lattice.shape + (2,))
    return DiscreteField(lattice=small_lattice, values=vals)


# ---------------------------------------------------------------------------
# kernel construction


def test_kernel_normalization(small_lattice):
    kernel = make_kernel(0.25, small_lattice)
    assert abs(kernel.discrete_sum - 1.0) <= 1e-15
    assert np.all(kernel.profile_samples >= 0.0)
    assert kernel.radius_nodes == (6, 6)


def test_kernel_supported_in_ball(small_lattice):
    eps = 0.25
    kernel = make_kernel(eps, small_lattice)
    for off, w in kernel.offsets():
        dist = np.hypot(off[0] * small_lattice.h_time,
                        off[1] * small_lattice.h_space)
        assert dist < eps
        assert w > 0.0


def test_kernel_resolution_guards(small_lattice):
    with pytest.raises(ParameterError, match="positive"):
        make_kernel(0.0, small_lattice)
    with pytest.raises(ResolutionError, match="minimum epsilon here is"):
        make_kernel(0.1, small_lattice)  # < 4 nodes per radius
    with pytest.raises(ResolutionError, match="stencil spans"):
        make_kernel(0.8, small_lattice)  # stencil wider than the lattice


@pytest.mark.parametrize("epsilon", [np.inf, np.nan])
def test_kernel_rejects_non_finite_epsilon(small_lattice, epsilon):
    with pytest.raises(ParameterError, match="finite"):
        make_kernel(epsilon, small_lattice)


def test_mollify_takes_fft_or_direct_only(small_field, small_lattice):
    with pytest.raises(ParameterError, match="unknown method 'auto'"):
        mollify(small_field, make_kernel(0.2, small_lattice), method="auto")


def test_space_only_kernel(small_lattice):
    kernel = make_kernel(0.25, small_lattice, space_only=True)
    assert kernel.space_only
    assert kernel.radius_nodes[0] == 0
    assert abs(kernel.discrete_sum - 1.0) <= 1e-15
    # time slices stay decoupled: a field constant per slice is unchanged
    vals = np.arange(24, dtype=float)[:, None, None] * np.ones((1, 24, 1))
    field = DiscreteField(lattice=small_lattice, values=vals)
    out = mollify(field, kernel, method="direct")
    np.testing.assert_allclose(out.values, vals, atol=1e-12)


# ---------------------------------------------------------------------------
# convolution semantics


def test_mollify_matches_naive_reference(small_field):
    kernel = make_kernel(0.2, small_field.lattice)
    want = oracles.naive_mollify(small_field.values, kernel)
    got_fft = mollify(small_field, kernel, method="fft").values
    got_direct = mollify(small_field, kernel, method="direct").values
    np.testing.assert_allclose(got_fft, want, atol=1e-13)
    np.testing.assert_allclose(got_direct, want, atol=1e-13)


def test_mollify_single_mode_scaled_by_closed_form(small_lattice):
    kernel = make_kernel(0.3, small_lattice)
    x = small_lattice.space_nodes()
    vals = np.broadcast_to(np.cos(4.0 * np.pi * x)[None, :, None],
                           small_lattice.shape + (1,)).copy()
    field = DiscreteField(lattice=small_lattice, values=vals)
    out = mollify(field, kernel, method="direct")
    factor = oracles.cosine_multiplier(kernel, (0, 2))
    assert 0.0 < factor <= 1.0
    np.testing.assert_allclose(out.values, factor * vals, atol=1e-13)


def test_mollify_linearity(small_lattice, rng):
    kernel = make_kernel(0.2, small_lattice)
    a = DiscreteField(lattice=small_lattice,
                      values=rng.normal(size=small_lattice.shape + (2,)))
    b = DiscreteField(lattice=small_lattice,
                      values=rng.normal(size=small_lattice.shape + (2,)))
    combo = DiscreteField(lattice=small_lattice,
                          values=2.0 * a.values - 3.0 * b.values)
    lhs = mollify(combo, kernel).values
    rhs = 2.0 * mollify(a, kernel).values - 3.0 * mollify(b, kernel).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_mollify_constant_preserved(small_lattice):
    kernel = make_kernel(0.25, small_lattice)
    field = DiscreteField(lattice=small_lattice,
                          values=np.full(small_lattice.shape + (3,), 1.7))
    out = mollify(field, kernel)
    np.testing.assert_allclose(out.values, 1.7, atol=1e-14)


def test_mollify_direct_shift_equivariance(small_field):
    kernel = make_kernel(0.2, small_field.lattice)
    rolled = DiscreteField(lattice=small_field.lattice,
                           values=np.roll(small_field.values, (3, 5),
                                          axis=(0, 1)))
    lhs = mollify(rolled, kernel, method="direct").values
    rhs = np.roll(mollify(small_field, kernel, method="direct").values,
                  (3, 5), axis=(0, 1))
    np.testing.assert_array_equal(lhs, rhs)


def test_mollify_respects_range(small_field):
    # positive normalized weights: output within the input range
    kernel = make_kernel(0.2, small_field.lattice)
    out = mollify(small_field, kernel, method="direct")
    assert out.values.min() >= small_field.values.min() - 1e-13
    assert out.values.max() <= small_field.values.max() + 1e-13


def test_mollify_argument_validation(small_field, small_lattice):
    other = Lattice(k=1, n_time=16, n_space=16, extent_time=1.0,
                    extent_space=1.0)
    with pytest.raises(ParameterError, match="different lattice"):
        mollify(small_field, make_kernel(0.3, other))
    kernel = make_kernel(0.2, small_lattice)
    with pytest.raises(ParameterError, match="unknown method"):
        mollify(small_field, kernel, method="chebyshev")


def test_mollify_trims_nonperiodic_time(rng):
    lat = Lattice(k=1, n_time=64, n_space=32, extent_time=2.0,
                  extent_space=1.0)
    vals = rng.normal(size=lat.shape + (1,))
    field = DiscreteField(lattice=lat, values=vals, periodic_time=False)
    kernel = make_kernel(0.25, lat)
    r_t = kernel.radius_nodes[0]
    out = mollify(field, kernel)
    assert not out.periodic_time
    assert out.lattice.n_time == 64 - 2 * r_t
    assert out.lattice.extent_time == pytest.approx((64 - 2 * r_t) *
                                                    lat.h_time)
    # interior values agree with the periodic convolution of the same data
    periodic = mollify(DiscreteField(lattice=lat, values=vals), kernel)
    np.testing.assert_allclose(out.values, periodic.values[r_t:64 - r_t],
                               atol=1e-13)
    # a kernel that eats nearly the whole time extent leaves too little
    stretched = Lattice(k=1, n_time=64, n_space=64, extent_time=2.0,
                        extent_space=8.0)
    short = DiscreteField(lattice=stretched,
                          values=np.zeros(stretched.shape + (1,)),
                          periodic_time=False)
    with pytest.raises(ResolutionError, match="leaves"):
        mollify(short, make_kernel(0.95, stretched))


def test_mollify_bitwise_identical_across_workers(rng):
    # the worker count is stored but no transform reads it, so results are
    # bitwise equal at every setting; the traveling wave takes the
    # line-spectrum path
    lat = Lattice(k=1, n_time=64, n_space=128, extent_time=1.0,
                  extent_space=1.0)
    for field in (DiscreteField(lattice=lat,
                                values=rng.normal(size=lat.shape + (2,))),
                  make_lacunary_field(0.6, 5, 3, 1.0, lat)):
        results = []
        try:
            for workers in (1, 4):
                _runtime.set_workers(workers)
                results.append(mollify(field, make_kernel(0.125, lat)).values)
        finally:
            _runtime.set_workers(1)
        assert np.array_equal(results[0], results[1])


@st.composite
def kernel_cases(draw):
    # a lattice with odd or even axis lengths and a kernel that fits it:
    # epsilon is 1.01-1.25 times the smallest admissible, 4 coarse cells,
    # so a radius is at most 5*n/n_min nodes and 2r + 1 <= n for n >= 11
    k = draw(st.sampled_from([1, 2]))
    sizes = st.integers(11, 17) if k == 2 else st.integers(12, 40)
    lat = Lattice(k=k, n_time=draw(sizes), n_space=draw(sizes),
                  extent_time=1.0, extent_space=1.0)
    space_only = draw(st.booleans())
    n_min = lat.n_space if space_only else min(lat.shape)
    epsilon = draw(st.floats(1.01, 1.25)) * 4.0 / n_min
    kernel = make_kernel(epsilon, lat, space_only=space_only)
    return kernel, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_spectrum_is_the_real_nonnegative_half_of_the_stencil_rfftn(case):
    kernel, seed = case
    lat = kernel.lattice
    stencil = np.zeros(lat.shape)
    stencil[np.ix_(*[np.arange(-r, r + 1) % n for r, n in
                     zip(kernel.radius_nodes, lat.shape)])] = \
        kernel.profile_samples
    want = np.fft.rfftn(stencil)[tuple(slice(n // 2 + 1)
                                       for n in lat.shape[:-1])]
    got = kernel.spectrum()
    assert got.dtype == np.float64
    assert got.shape == tuple(n // 2 + 1 for n in lat.shape)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-13 * np.abs(want).max())
    # the 2-D path unfolds it: FFT and direct summation agree
    field = DiscreteField(lattice=lat, values=np.random.default_rng(
        seed).normal(size=lat.shape + (1,)))
    direct = mollify(field, kernel, method="direct").values
    np.testing.assert_allclose(mollify(field, kernel).values, direct,
                               rtol=0, atol=1e-12 * np.abs(direct).max())


@settings(max_examples=60, deadline=None)
@given(kernel_cases(), st.data())
def test_2d_path_keeps_constants_and_commutes_with_rolls(case, data):
    # off powers of two this path's inverse and scipy's irfftn may differ
    # in the last bit (per-axis against one overall 1/n scaling); the
    # properties hold on either
    kernel, seed = case
    lat = kernel.lattice
    const = DiscreteField(lattice=lat, values=np.full(lat.shape + (2,), -0.7))
    np.testing.assert_allclose(mollify(const, kernel).values, -0.7,
                               rtol=0, atol=1e-14)
    field = DiscreteField(lattice=lat, values=np.random.default_rng(
        seed).normal(size=lat.shape + (2,)))
    shift = tuple(data.draw(st.integers(-n, n)) for n in lat.shape)
    axes = tuple(range(lat.n_axes))
    rolled = DiscreteField(lattice=lat,
                           values=np.roll(field.values, shift, axis=axes))
    want = np.roll(mollify(field, kernel).values, shift, axis=axes)
    np.testing.assert_allclose(mollify(rolled, kernel).values, want,
                               rtol=0, atol=1e-12 * np.abs(want).max())


def test_2d_path_matches_a_scipy_fft_convolution(rng):
    # the same circular convolution by scipy.fft; over a time axis of 33
    # the two inverses differ in the last bit
    lat = Lattice(k=1, n_time=33, n_space=64, extent_time=1.0,
                  extent_space=1.0)
    kernel = make_kernel(0.15, lat)
    stencil = np.zeros(lat.shape)
    stencil[np.ix_(*[np.arange(-r, r + 1) % n for r, n in
                     zip(kernel.radius_nodes, lat.shape)])] = \
        kernel.profile_samples
    values = rng.normal(size=lat.shape + (2,))
    spec = sfft.rfftn(stencil) * kernel.cell_volume
    want = np.stack([sfft.irfftn(sfft.rfftn(values[..., c]) * spec,
                                 s=lat.shape) for c in range(2)], axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        got = mollify(DiscreteField(lattice=lat, values=values), kernel).values
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-14 * np.abs(want).max())


def _wrapped_stencil(kernel):
    lat = kernel.lattice
    stencil = np.zeros(lat.shape)
    stencil[np.ix_(*[np.arange(-r, r + 1) % n for r, n in
                     zip(kernel.radius_nodes, lat.shape)])] = \
        kernel.profile_samples
    return stencil


def test_spectrum_matches_rfft2_on_the_bounded_audit_lattice(elasto):
    # the C8 shock lattice, 512x1024 with its time extent adjusted: at
    # eps = 2^-3 the time radius is 61 nodes, the longest cosine sums of
    # the benchmark sweeps
    s = np.sqrt((1.2 ** 3 - 1.0) / 0.2)
    lat = make_shock_field(elasto, [1.0, 0.1 * s], [1.2, -0.1 * s], s,
                           Lattice(k=1, n_time=512, n_space=1024,
                                   extent_time=1.0,
                                   extent_space=1.0)).lattice
    radii = []
    for e in 2.0 ** -np.arange(3, 7):
        kernel = make_kernel(e, lat)
        radii.append(kernel.radius_nodes[0])
        want = np.fft.rfft2(_wrapped_stencil(kernel))[:257].real
        np.testing.assert_allclose(kernel.spectrum(), want, rtol=0,
                                   atol=1e-14 * np.abs(want).max())
    assert radii == [61, 30, 15, 7]


_SPECTRA_CHILD = """
import sys
import numpy as np
from conslab import Lattice, make_kernel
lat = Lattice(k=1, n_time=256, n_space=512, extent_time=1.0,
              extent_space=1.0)
np.save(sys.argv[1], np.stack([make_kernel(e, lat).spectrum()
                               for e in (2.0 ** -2, 2.0 ** -4, 2.0 ** -5)]))
"""


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode argument
        return "unknown"


@pytest.mark.skipif("openblas" not in _blas_name().lower(),
                    reason="OPENBLAS_NUM_THREADS sets the thread count of "
                    "OpenBLAS only; other BLAS would run both children alike")
def test_spectra_agree_across_blas_thread_counts(tmp_path):
    # the time contraction is a BLAS matrix product, whose last bits
    # follow the BLAS thread count; each count is reproducible
    src = str(Path(mollifier.__file__).resolve().parent.parent)
    spectra = {}
    for run, threads in enumerate(("1", "2", "2")):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"spectra{run}.npy"
        proc = subprocess.run([sys.executable, "-c", _SPECTRA_CHILD,
                               str(out)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        spectra[run] = np.load(out)
    one, two, rerun = spectra.values()
    np.testing.assert_allclose(two, one, rtol=0,
                               atol=1e-15 * np.abs(one).max())
    assert np.array_equal(rerun, two)


def _old_spectrum(kernel):
    """The spectrum as it was written before it took a plain array: the
    same cosine sums, with the time product written into the left half of
    a buffer twice as wide.  The bitwise reference."""
    lat = kernel.lattice
    r_t, *r_space = kernel.radius_nodes
    w = kernel.profile_samples[tuple(slice(r, None)
                                     for r in kernel.radius_nodes)]
    for r, n in zip(r_space, lat.shape[1:]):
        w = np.tensordot(w, mollifier._cosine_table(n, r), axes=(1, 1))
    half = [n // 2 + 1 for n in lat.shape]
    cols = int(np.prod(half[1:]))
    out = np.empty((half[0], 2 * cols))[:, :cols]
    np.matmul(mollifier._cosine_table(lat.n_time, r_t),
              w.reshape(r_t + 1, -1), out=out)
    return out.reshape(half)


@pytest.mark.parametrize("shape, epsilons", [
    ((256, 512), (2.0 ** -2, 2.0 ** -4, 2.0 ** -6)),
    ((128, 64, 64), (2.0 ** -3, 2.0 ** -4)),
    ((512, 1024), (2.0 ** -3, 2.0 ** -5))])
@pytest.mark.parametrize("space_only", [False, True])
def test_spectrum_allocates_its_buffer_tables_and_stencil_only(
        shape, epsilons, space_only):
    # no complex array of the lattice's size: the peak is the buffer the
    # spectrum lives in, the cosine tables and the stencil quadrant W; with
    # two space axes also the space-contracted slab of r_t + 1 time slices.
    # The buffer is a plain array, and its bits are those of the product
    # written into a buffer twice as wide: BLAS gives the same result
    # whether the output rows are cols or 2*cols apart in memory
    lat = Lattice(k=len(shape) - 1, n_time=shape[0], n_space=shape[1],
                  extent_time=1.0, extent_space=1.0)
    for e in epsilons:
        kernel = make_kernel(e, lat, space_only=space_only)
        peak = traced_peak(kernel.spectrum)
        spec = kernel.spectrum()        # cached: the buffer just traced
        half = [n // 2 + 1 for n in shape]
        radii = kernel.radius_nodes
        buffer = spec
        while buffer.base is not None:  # the array that owns the memory
            buffer = buffer.base
        assert buffer.dtype == np.float64
        assert spec.flags.c_contiguous and buffer.flags.c_contiguous
        assert buffer.nbytes == spec.nbytes
        tables = 8 * sum(h * (r + 1) for h, r in zip(half, radii))
        stencil = 8 * int(np.prod([r + 1 for r in radii]))
        slab = 8 * (radii[0] + 1) * int(np.prod(half[1:])) if lat.k > 1 \
            else 0
        assert peak <= 1.1 * (buffer.nbytes + tables + stencil + slab)
        want = _old_spectrum(kernel)
        assert spec.shape == want.shape
        assert np.array_equal(spec.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# line-spectrum path for discrete traveling waves


LINE_LATTICE = Lattice(k=1, n_time=32, n_space=64, extent_time=1.0,
                       extent_space=1.0)


def _rolled(profile, m, n_time, periodic_time=True):
    # values[t] = roll(profile, m*t): an exact discrete traveling wave
    lat = Lattice(k=1, n_time=n_time, n_space=profile.shape[0],
                  extent_time=1.0, extent_space=1.0)
    values = np.stack([np.roll(profile, m * t, axis=0)
                       for t in range(n_time)])
    return DiscreteField(lattice=lat, values=values,
                         periodic_time=periodic_time)


@pytest.mark.parametrize("case", ["m>0", "m<0", "m=0", "two channels",
                                  "trimmed", "half-node shock"])
def test_line_path_matches_direct(case, burgers, rng):
    if case == "two channels":
        field, m = TravelingField(lattice=LINE_LATTICE, shift=6,
                                  profile=rng.normal(size=(64, 2))), 6
    elif case == "half-node shock":
        # half a node per step: a two-row wave on 2*n_space profile nodes
        field, m = make_shock_field(
            burgers, [1.0], [0.0], 0.5,
            Lattice(k=1, n_time=128, n_space=64, extent_time=1.0,
                    extent_space=1.0)), 1
        assert field.rows == 2
    elif case == "trimmed":
        # a rolled field that is not periodic in time stays 2-D
        field, m = _rolled(rng.normal(size=(32, 1)), -2, 64,
                           periodic_time=False), None
    else:
        speed, m = {"m>0": (1.0, 2), "m<0": (-2.0, 60), "m=0": (0.0, 0)}[case]
        field = make_lacunary_field(0.6, 4, 3, speed, LINE_LATTICE)
    if m is None:
        assert isinstance(field, DiscreteField)
    else:
        assert isinstance(field, TravelingField)
        assert field.shift % field.lattice.n_space == m
    kernel = make_kernel(0.25, field.lattice)
    got = mollify(field, kernel, method="fft")
    want = mollify(field, kernel, method="direct")
    assert type(got) is type(field)
    assert got.lattice == want.lattice
    np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)


def _perturbed_lacunary():
    values = np.array(make_lacunary_field(0.6, 4, 3, 1.0,
                                          LINE_LATTICE).values)
    values[17, 5, 0] = np.nextafter(values[17, 5, 0], np.inf)
    return DiscreteField(lattice=LINE_LATTICE, values=values)


@pytest.mark.parametrize("make_field", [
    # the shock moves 64/127 nodes per step: no p/q with q <= n_time/2
    lambda burgers, rng: make_shock_field(
        burgers, [1.0], [0.0], 0.5,
        Lattice(k=1, n_time=127, n_space=64, extent_time=1.0,
                extent_space=1.0)),
    # one value of one row is off by one ulp
    lambda burgers, rng: _perturbed_lacunary(),
    # exact shifts, but 3 * n_time is not a multiple of n_space
    lambda burgers, rng: _rolled(rng.normal(size=(64, 1)), 3, 32),
], ids=["shock, no small p/q", "perturbed row", "aperiodic shift"])
def test_line_path_fallback_is_the_2d_path(make_field, burgers, rng):
    field = make_field(burgers, rng)
    assert isinstance(field, DiscreteField)
    kernel = make_kernel(0.25, field.lattice)
    got = mollify(field, kernel).values
    assert np.array_equal(
        got, mollifier._convolve_fft(np.asarray(field.values), kernel))


def test_kernel_keeps_its_line_and_drops_the_2d_spectrum(burgers):
    # half a node per step: 128 profile nodes on 64 per row, so the line
    # also folds frequencies past n_space/2 onto the kept half
    lat = Lattice(k=1, n_time=128, n_space=64, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(burgers, [1.0], [0.0], 0.5, lat)
    assert (field.shift, field.rows) == (1, 2)
    kernel = make_kernel(0.25, field.lattice)
    got = mollify(field, kernel)
    assert kernel._spectrum is None
    assert list(kernel._lines) == [(1, 128)]
    # oracle: the full complex transform of the wrapped stencil, read at
    # (-P*kappa mod n_time, kappa mod n_space) with P = 1
    stencil = np.zeros(field.lattice.shape)
    stencil[np.ix_(*[np.arange(-r, r + 1) % n for r, n in
                     zip(kernel.radius_nodes, field.lattice.shape)])] = \
        kernel.profile_samples
    kappa = np.arange(65)
    want = np.fft.fft2(stencil)[-kappa % 128, kappa % 64] * kernel.cell_volume
    np.testing.assert_allclose(kernel.line(1, 128), want, rtol=0,
                               atol=1e-12 * np.abs(want).max())
    # a second sweep over the same wave reads the cached line
    with mock.patch.object(mollifier.MollifierKernel, "spectrum",
                           side_effect=AssertionError("spectrum recomputed")):
        again = mollify(field, kernel)
    assert np.array_equal(again.profile, got.profile)


def test_kernel_that_served_a_line_mollifies_2d_fields_as_fresh(rng):
    lat = Lattice(k=1, n_time=64, n_space=128, extent_time=1.0,
                  extent_space=1.0)
    wave = make_lacunary_field(0.6, 5, 3, 1.0, lat)
    field = DiscreteField(lattice=wave.lattice,
                          values=rng.normal(size=wave.lattice.shape + (2,)))
    used = make_kernel(0.125, wave.lattice)
    mollify(wave, used)
    fresh = make_kernel(0.125, wave.lattice)
    assert np.array_equal(mollify(field, used).values,
                          mollify(field, fresh).values)
    assert np.array_equal(mollify(wave, used).profile,
                          mollify(wave, fresh).profile)


# ---------------------------------------------------------------------------
# norms and derivatives


def test_lq_norm_manual(small_lattice):
    vals = np.zeros(small_lattice.shape + (2,))
    vals[..., 0] = 2.0
    field = DiscreteField(lattice=small_lattice, values=vals)
    # constant magnitude 2 over the unit square, any q
    assert lq_norm(field, 3.0) == pytest.approx(2.0, rel=1e-12)


def test_axis_derivative_of_mode(small_lattice):
    x = small_lattice.space_nodes()
    vals = np.broadcast_to(np.sin(2 * np.pi * x)[None, :, None],
                           small_lattice.shape + (1,)).copy()
    field = DiscreteField(lattice=small_lattice, values=vals)
    d = axis_derivative(field, 1)
    want = np.broadcast_to(2 * np.pi * np.cos(2 * np.pi * x)[None, :, None],
                           d.shape)
    # central differences: O(h^2) accuracy
    np.testing.assert_allclose(d, want, atol=(2 * np.pi) ** 3 *
                               small_lattice.h_space ** 2)
    assert np.max(np.abs(axis_derivative(field, 0))) == 0.0


def test_gradient_magnitude_combines_axes(small_lattice):
    t, x = np.meshgrid(small_lattice.times(), small_lattice.space_nodes(),
                       indexing="ij")
    field = DiscreteField(lattice=small_lattice,
                          values=(2.0 * t + 3.0 * x)[..., None])
    g = np.sqrt(_squared_gradient(field))
    # affine data: central differences are exact away from the wrap
    interior = g[2:-2, 2:-2]
    np.testing.assert_allclose(interior, np.hypot(2.0, 3.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# smoothing estimates


def test_estimates_on_lacunary_field():
    lat = Lattice(k=1, n_time=512, n_space=2048, extent_time=1.0,
                  extent_space=1.0)
    alpha = 0.5
    field = make_lacunary_field(alpha, 8, seed=7, travel_speed=1.0,
                                lattice=lat)
    eps = [2.0 ** (-4 - 0.5 * i) for i in range(7)]
    audit = verify_estimates(field, 3.0, eps, alpha)
    assert audit.gradient_fit.slope == pytest.approx(alpha - 1.0, abs=0.15)
    assert audit.approximation_fit.slope == pytest.approx(alpha, abs=0.15)
    assert audit.translation_fit.slope == pytest.approx(alpha, abs=0.15)
    # the hidden constant in the translation estimate stays bounded
    C = audit.translation_norms / audit.epsilons ** alpha
    assert C.max() / C.min() < 3.0
    assert np.all(np.diff(audit.epsilons) < 0)


def test_estimates_on_smooth_field():
    lat = Lattice(k=1, n_time=256, n_space=256, extent_time=1.0,
                  extent_space=1.0)
    t, x = np.meshgrid(lat.times(), lat.space_nodes(), indexing="ij")
    field = DiscreteField(lattice=lat,
                          values=np.sin(2 * np.pi * (x - t))[..., None])
    eps = [1 / 16, 1 / 22.6, 1 / 32, 1 / 45.25, 1 / 64]
    audit = verify_estimates(field, 2.0, eps, 0.9)
    # smooth data: approximation error is second order, gradient saturates
    assert audit.approximation_fit.slope == pytest.approx(2.0, abs=0.2)
    assert audit.gradient_norms.max() / audit.gradient_norms.min() < 1.1


def test_estimates_constant_field_degenerate(small_lattice):
    field = DiscreteField(lattice=small_lattice,
                          values=np.full(small_lattice.shape + (1,), 4.0))
    audit = verify_estimates(field, 2.0, [0.35, 0.3, 0.25, 0.2], 0.5)
    # every probe bottoms out at machine zero: either the fit carries the
    # degenerate sentinel or the surviving norms are pure roundoff
    for fit, norms in ((audit.approximation_fit, audit.approximation_norms),
                       (audit.gradient_fit, audit.gradient_norms),
                       (audit.translation_fit, audit.translation_norms)):
        assert fit.degenerate or np.max(norms) <= 1e-14
        assert np.all(norms <= 1e-13)


def test_estimates_window_on_nonperiodic_field():
    # [U]_eps of a field not periodic in time is trimmed by the kernel's
    # time radius r_t, so it is compared with U[r_t : r_t + n_keep]
    lat = Lattice(k=1, n_time=64, n_space=64, extent_time=2.0,
                  extent_space=1.0)
    t, x = np.meshgrid(lat.times(), lat.space_nodes(), indexing="ij")
    vals = (t ** 2 * np.sin(2 * np.pi * x) + np.cos(3.0 * t))[..., None]
    field = DiscreteField(lattice=lat, values=vals, periodic_time=False)
    eps = [0.25, 0.2, 0.15, 0.125]
    audit = verify_estimates(field, 3.0, eps, 0.5)
    for e, got in zip(audit.epsilons, audit.approximation_norms):
        kernel = make_kernel(e, lat)
        r_t = kernel.radius_nodes[0]
        n_keep = lat.n_time - 2 * r_t
        smoothed = mollify(field, kernel).values
        diff = np.abs(smoothed - vals[r_t:r_t + n_keep])
        want = (np.sum(diff ** 3) * lat.cell_volume) ** (1.0 / 3.0)
        assert got == pytest.approx(want, rel=1e-12)


def test_estimates_validation(small_field):
    with pytest.raises(ParameterError, match="at least 4"):
        verify_estimates(small_field, 2.0, [0.3, 0.25, 0.2], 0.5)
    with pytest.raises(ParameterError, match="alpha_ref"):
        verify_estimates(small_field, 2.0, [0.35, 0.3, 0.25, 0.2], 1.5)


@pytest.mark.parametrize("q", [0.0, -1.0, 0.5, np.nan])
@pytest.mark.parametrize("call", [
    lambda f, q: verify_estimates(f, q, [0.35, 0.3, 0.25, 0.2], 0.5),
    lambda f, q: lq_norm(f, q),
    lambda f, q: shift_difference_norm(f, 1, 2, q),
], ids=["verify_estimates", "lq_norm", "shift_difference_norm"])
def test_q_below_one_rejected(small_field, call, q):
    with pytest.raises(ParameterError, match="q must be >= 1"):
        call(small_field, q)


@pytest.mark.parametrize("call", [
    lambda f, q: verify_estimates(f, q, [0.35, 0.3, 0.25, 0.2], 0.5),
    lambda f, q: lq_norm(f, q),
    lambda f, q: shift_difference_norm(f, 1, 2, q),
    lambda f, q: estimate_besov(f, q, n_shifts=3),
    lambda f, q: lemma_bound_audit(make_builtin("elastodynamics-1d"), f,
                                   [make_kernel(0.25, f.lattice)], q),
], ids=["verify_estimates", "lq_norm", "shift_difference_norm",
        "estimate_besov", "lemma_bound_audit"])
def test_infinite_q_rejected(small_lattice, call):
    # a constant-2 field, whose L^inf norm is 2: q = inf is no L^q exponent
    # here, and the power formula used to report 1.0 for it
    field = DiscreteField(lattice=small_lattice,
                          values=np.full(small_lattice.shape + (2,), 2.0))
    with pytest.raises(ParameterError, match="q must be >= 1 and finite"):
        call(field, np.inf)


def test_mollified_jump_width(burgers):
    # smearing a shock: strictly intermediate values only within eps of
    # the two interfaces
    lat = Lattice(k=1, n_time=64, n_space=256, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(burgers, [1.0], [0.0], 0.0, lat)
    eps = 0.125
    kernel = make_kernel(eps, lat)
    out = mollify(field, kernel)
    x = lat.space_nodes()
    dist = np.minimum(np.abs(x - 0.5), np.minimum(x, 1.0 - x))
    mixed = (out.values[0, :, 0] > 1e-10) & (out.values[0, :, 0] < 1 - 1e-10)
    assert np.all(dist[mixed] < eps)
    # and the smeared zone is nonempty
    assert mixed.any()


def test_kernel_csv(small_lattice):
    kernel = make_kernel(0.25, small_lattice)
    header, rows = kernel_table(kernel)
    assert ",".join(header) == "dt,dx1,off_t,off_x1,weight"
    assert len(rows) == kernel.profile_samples.size
    total = sum(row[-1] for row in rows) * kernel.cell_volume
    assert total == pytest.approx(1.0, abs=1e-12)
