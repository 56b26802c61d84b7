"""Test-function catalogue: values, analytic gradients, support guards."""

import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import traced_peak
from conslab import (DiscreteField, Lattice, ParameterError,
                     ShockAlignedBump, TensorBump, TimeBump,
                     UnsupportedGeometryError, fields)
from conslab import TestSupportError as SupportError
from conslab._bumps import (bump, bump_deriv, bump_line_integral,
                            smoothstep_pair)
from conslab.fields import remainder
from conslab.testfunctions import _wrap, node_means
from conslab.testfunctions import from_config as build_testfn


@pytest.fixture(scope="module")
def lattice():
    return Lattice(k=1, n_time=96, n_space=96, extent_time=1.0,
                   extent_space=1.0)


FINE = Lattice(k=1, n_time=384, n_space=384, extent_time=1.0,
               extent_space=1.0)


def check_gradient(testfn, atol):
    """Analytic gradient against a centered lattice difference.

    The exp-bump profiles have large third derivatives near their support
    edges, so the cross-check runs on a fine lattice where the O(h^2)
    differencing error stays below atol.
    """
    psi, grad = testfn.evaluate(FINE)
    assert psi.shape == FINE.shape
    assert grad.shape == FINE.shape + (FINE.n_axes,)
    for axis in range(FINE.n_axes):
        fd = oracles.finite_difference_gradient(testfn.evaluate, FINE,
                                                axis, 1)
        np.testing.assert_allclose(grad[..., axis], fd, atol=atol)


def test_tensor_bump_gradient(lattice):
    fn = TensorBump(center=(0.5, 0.4), radius=(0.3, 0.35), amplitude=2.0)
    check_gradient(fn, atol=0.01)


def test_tensor_bump_support_and_positivity(lattice):
    fn = TensorBump(center=(0.5, 0.5), radius=(0.2, 0.2))
    psi, _ = fn.evaluate(lattice)
    t = lattice.times()[:, None]
    x = lattice.space_nodes()[None, :]
    outside = (np.abs(t - 0.5) >= 0.2) | (np.abs(x - 0.5) >= 0.2)
    assert np.all(psi[outside] == 0.0)
    assert np.all(psi >= 0.0)
    # node at the exact center: bump(0)^2 = e^-2
    assert psi.max() == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_tensor_bump_periodic_wrap(lattice):
    # a bump centered at the origin wraps smoothly across both seams
    fn = TensorBump(center=(0.0, 0.0), radius=(0.3, 0.3))
    psi, _ = fn.evaluate(lattice)
    assert psi[0, 0] == pytest.approx(np.exp(-2.0), rel=1e-12)
    assert psi[-1, -1] > 0.0  # mass on the far corner via the wrap


def test_tensor_bump_validation(lattice):
    with pytest.raises(ParameterError, match="length"):
        TensorBump(center=(0.5,), radius=(0.2, 0.2)).evaluate(lattice)
    with pytest.raises(ParameterError, match="positive"):
        TensorBump(center=(0.5, 0.5), radius=(0.2, -0.1)).evaluate(lattice)
    with pytest.raises(SupportError, match="half the period"):
        TensorBump(center=(0.5, 0.5), radius=(0.2, 0.7)).evaluate(lattice)


def test_tensor_bump_nonperiodic_time_guard(lattice):
    fn = TensorBump(center=(0.1, 0.5), radius=(0.2, 0.2))
    with pytest.raises(SupportError, match="exits the open interval"):
        fn.evaluate(lattice, periodic_time=False)
    # the same support is fine when time wraps
    psi, _ = fn.evaluate(lattice, periodic_time=True)
    assert psi.max() > 0.0


def test_time_bump_gradient_and_uniformity(lattice):
    fn = TimeBump(center=0.5, radius=0.3)
    psi, grad = fn.evaluate(lattice)
    check_gradient(fn, atol=0.01)
    # constant in space
    assert np.all(psi == psi[:, :1])
    assert np.all(grad[..., 1] == 0.0)


def test_time_bump_unit_integral(lattice):
    fn = TimeBump(center=0.5, radius=0.3, amplitude=1.5, unit_integral=True)
    assert fn.time_integral == pytest.approx(1.5)
    psi, _ = fn.evaluate(lattice)
    # lattice quadrature of the time profile reproduces the closed form
    total = psi[:, 0].sum() * lattice.h_time
    assert total == pytest.approx(1.5, rel=1e-6)
    plain = TimeBump(center=0.5, radius=0.3, amplitude=2.0)
    psi2, _ = plain.evaluate(lattice)
    assert plain.time_integral == pytest.approx(psi2[:, 0].sum() *
                                                lattice.h_time, rel=1e-6)


def test_time_bump_validation(lattice):
    with pytest.raises(ParameterError, match="positive"):
        TimeBump(center=0.5, radius=0.0).evaluate(lattice)
    with pytest.raises(SupportError, match="half the period"):
        TimeBump(center=0.5, radius=0.6).evaluate(lattice)
    with pytest.raises(SupportError, match="exits"):
        TimeBump(center=0.05, radius=0.2).evaluate(lattice,
                                                   periodic_time=False)
    # the interval is open at both ends
    for center, radius in ((0.25, 0.25), (0.75, 0.25), (0.9, 0.2)):
        with pytest.raises(SupportError, match="exits the open interval"):
            TimeBump(center=center, radius=radius).evaluate(
                lattice, periodic_time=False)


def test_shock_aligned_plateau_tracks_interface(lattice):
    speed = 0.5
    fn = ShockAlignedBump(speed=speed, xi_center=0.5, inner_radius=0.15,
                          outer_radius=0.35, time_center=0.5,
                          time_radius=0.4)
    psi, grad = fn.evaluate(lattice)
    t = lattice.times()
    x = lattice.space_nodes()
    for i in (10, 40, 70):
        xi = (x - speed * t[i] - 0.5 + 0.5) % 1.0 - 0.5
        on = np.abs(xi) <= 0.15 - lattice.h_space
        off = np.abs(xi) >= 0.35 + lattice.h_space
        phi_t = psi[i][on]
        # plateau: constant across the tracked interface...
        assert phi_t.max() - phi_t.min() <= 1e-12
        # ...with the spatial gradient confined to the flanking bands
        assert np.all(psi[i][off] == 0.0)
        assert np.all(grad[i, on, 1] == 0.0)
        band = (np.abs(xi) > 0.16) & (np.abs(xi) < 0.34)
        assert np.any(grad[i, band, 1] != 0.0)


def test_shock_aligned_gradient(lattice):
    fn = ShockAlignedBump(speed=0.5, xi_center=0.5, inner_radius=0.15,
                          outer_radius=0.35, time_center=0.5,
                          time_radius=0.4, unit_time_integral=False)
    check_gradient(fn, atol=0.02)


def test_shock_aligned_comoving_advection(lattice):
    # psi depends on (t, x) only through t and x - speed*t, so
    # d_t psi + speed * d_x psi equals the pure time-profile derivative
    fn = ShockAlignedBump(speed=0.7, xi_center=0.3, inner_radius=0.1,
                          outer_radius=0.3, time_center=0.5, time_radius=0.35,
                          unit_time_integral=False)
    psi, grad = fn.evaluate(lattice)
    transport = grad[..., 0] + 0.7 * grad[..., 1]
    profile = TimeBump(center=0.5, radius=0.35)
    _, tgrad = profile.evaluate(lattice)
    chi = np.where(psi > 0, psi / np.maximum(profile.evaluate(lattice)[0],
                                             1e-300), 0.0)
    np.testing.assert_allclose(transport, tgrad[..., 0] * chi, atol=1e-10)


def _old_smoothstep_pair(s):
    # the two separate evaluations smoothstep_pair replaced, six
    # exponentials per band node
    def g(s):
        out = np.zeros_like(s)
        pos = s > 0.0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    def g_deriv(s):
        out = np.zeros_like(s)
        pos = s > 0.0
        out[pos] = np.exp(-1.0 / s[pos]) / (s[pos] * s[pos])
        return out

    chi, dchi = np.zeros_like(s), np.zeros_like(s)
    chi[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    a, b = g(sm), g(1.0 - sm)
    chi[mid] = a / (a + b)
    dchi[mid] = (g_deriv(sm) * b + a * g_deriv(1.0 - sm)) / (a + b) ** 2
    return chi, dchi


def test_smoothstep_pair_is_bitwise_the_old_pair(rng):
    s = np.concatenate([rng.uniform(-0.5, 1.5, 20000),
                        [0.0, 1.0, 1e-3, 0.999, 0.5,
                         np.nextafter(1.0, 0.0), 2.0]])
    s = s.reshape(-1, 3)
    for got, want in zip(smoothstep_pair(s), _old_smoothstep_pair(s)):
        assert got.shape == s.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_smoothstep_pair_vanishes_below_the_band():
    # exp(-1/s) underflows to 0 here, and s*s too for the two smallest
    s = np.array([5e-324, 1e-300, 1e-160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi, dchi = smoothstep_pair(s)
    for got in (chi, dchi):
        assert np.array_equal(got.view(np.int64), np.zeros(3, dtype=np.int64))


def test_shock_aligned_time_integral():
    fn = ShockAlignedBump(speed=0.5, xi_center=0.5, inner_radius=0.15,
                          outer_radius=0.35, time_center=1.0, time_radius=0.8)
    assert fn.time_integral == pytest.approx(1.0)


def test_shock_aligned_validation(lattice):
    with pytest.raises(UnsupportedGeometryError, match="k = 1"):
        ShockAlignedBump(speed=0.5, xi_center=0.5, inner_radius=0.1,
                         outer_radius=0.2, time_center=0.5,
                         time_radius=0.3).evaluate(
            Lattice(k=2, n_time=8, n_space=8, extent_time=1.0,
                    extent_space=1.0))
    with pytest.raises(ParameterError, match="plateau"):
        ShockAlignedBump(speed=0.5, xi_center=0.5, inner_radius=0.3,
                         outer_radius=0.2, time_center=0.5,
                         time_radius=0.3).evaluate(lattice)
    with pytest.raises(SupportError, match="outer radius"):
        ShockAlignedBump(speed=0.5, xi_center=0.5, inner_radius=0.1,
                         outer_radius=0.6, time_center=0.5,
                         time_radius=0.3).evaluate(lattice)


def test_from_config_catalogue():
    fn = build_testfn({"kind": "bump", "center": [0.5, 0.5],
                                    "radius": [0.2, 0.2]})
    assert isinstance(fn, TensorBump)
    fn = build_testfn({"kind": "time-bump", "center": 0.5,
                                    "radius": 0.2})
    assert isinstance(fn, TimeBump)
    fn = build_testfn({"kind": "shock-aligned", "speed": 0.5,
                                    "xi_center": 0.5, "inner_radius": 0.1,
                                    "outer_radius": 0.2, "time_center": 0.5,
                                    "time_radius": 0.3})
    assert isinstance(fn, ShockAlignedBump)


def test_from_config_errors():
    with pytest.raises(ParameterError, match="unknown test function"):
        build_testfn({"kind": "wavelet"})
    with pytest.raises(ParameterError, match="bad parameters"):
        build_testfn({"kind": "time-bump", "middle": 0.5})


@pytest.mark.parametrize("build, name", [
    (lambda: TensorBump(center="ab", radius=[0.3, 0.3]), "center"),
    (lambda: TensorBump(center=[0.5, 0.5], radius=[0.3, None]), "radius"),
    (lambda: TimeBump(center=0.5, radius="wide"), "radius"),
    (lambda: ShockAlignedBump(speed=0.5, xi_center=0.5, inner_radius=0.1,
                              outer_radius=0.2, time_center="now",
                              time_radius=0.3), "time_center"),
], ids=["TensorBump.center", "TensorBump.radius", "TimeBump.radius",
        "ShockAlignedBump.time_center"])
def test_direct_construction_rejects_non_numeric_parameter(build, name):
    with pytest.raises(ParameterError, match=f"{name!r} must be numeric"):
        build()


def test_from_config_rejects_non_numeric_parameter():
    with pytest.raises(ParameterError, match="'center' must be numeric"):
        build_testfn({"kind": "bump", "center": "ab", "radius": [0.2, 0.2]})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["center", "radius", "amplitude"])
def test_tensor_bump_rejects_non_finite_parameter(name, value):
    params = {"center": (0.5, 0.5), "radius": (0.2, 0.2), "amplitude": 1.0}
    params[name] = (0.5, value) if name != "amplitude" else value
    with pytest.raises(ParameterError, match=f"TensorBump.{name} must be finite"):
        TensorBump(**params)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["center", "radius", "amplitude"])
def test_time_bump_rejects_non_finite_parameter(name, value):
    params = {"center": 0.5, "radius": 0.2, "amplitude": 1.0, name: value}
    with pytest.raises(ParameterError, match=f"TimeBump.{name} must be finite"):
        TimeBump(**params)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["speed", "xi_center", "inner_radius",
                                  "outer_radius", "time_center",
                                  "time_radius", "amplitude"])
def test_shock_aligned_rejects_non_finite_parameter(name, value):
    params = {"speed": 0.5, "xi_center": 0.5, "inner_radius": 0.1,
              "outer_radius": 0.2, "time_center": 0.5, "time_radius": 0.3,
              name: value}
    with pytest.raises(ParameterError,
                       match=f"ShockAlignedBump.{name} must be finite"):
        ShockAlignedBump(**params)


def test_bump_line_integral_is_the_quadrature():
    # the recorded constant is the value quad returns, 14 ulp (1.75e-15
    # relative) below the correctly rounded integral 0.4439938161680794
    import mpmath
    from scipy.integrate import quad
    val, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1.0, 1.0)
    assert bump_line_integral() == pytest.approx(val, rel=1e-15, abs=0.0)
    with mpmath.workdps(40):
        exact = mpmath.quad(lambda s: mpmath.exp(-1 / (1 - s * s)),
                            [-1, 0, 1])
    assert bump_line_integral() == pytest.approx(float(exact), rel=5e-15,
                                                 abs=0.0)


@st.composite
def wrap_cases(draw):
    """A period and z near whole and half periods on both sides of zero,
    where the long division ends on exact zeros; now and then any floats
    at all, which take np.remainder."""
    period = draw(st.floats(1e-3, 1e3))
    if draw(st.integers(0, 3)) == 0:
        return draw(arrays(np.float64, st.integers(0, 40),
                           elements=st.floats())), period
    turns = draw(st.lists(st.integers(-4, 4) | st.integers(-2 ** 34, 2 ** 34),
                          max_size=40))
    frac = draw(st.lists(st.sampled_from([-0.5, 0.0, 0.5]) |
                         st.floats(-1.0, 1.0),
                         min_size=len(turns), max_size=len(turns)))
    return (np.array(turns, dtype=float) + np.array(frac)) * period, period


@settings(max_examples=200, deadline=None)
@given(wrap_cases())
@example((np.array([0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1e-300,
                    -1e-300]), 1.0))
@example((np.array([0.7 * j for j in range(-9, 10)]), 0.7))
@example((np.array([4.0 ** 20, -(4.0 ** 20), 0.1]), 1.0))
@example((np.array([np.nan, 0.1, np.inf, -np.inf]), 1.0))
def test_wrap_is_bitwise_the_remainder(case):
    z, period = case
    with np.errstate(invalid="ignore", over="ignore"):
        want = (z + 0.5 * period) % period - 0.5 * period
        got = _wrap(z, period)
        rest, want_rest = remainder(z, period), np.remainder(z, period)
    assert got.shape == want.shape and rest.shape == want_rest.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(rest.view(np.int64), want_rest.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3).filter(lambda period: period != 1.0),
       st.lists(st.integers(-2 ** 34, 2 ** 34), min_size=1, max_size=20),
       st.floats(-1.0, 1.0))
@example(0.7, [4, -8, 3], 0.25)
def test_remainder_is_bitwise_np_remainder(period, turns, frac):
    # whole multiples of the period (the largest may be period*2^j, where
    # the division starts), their float neighbours on both sides and an
    # offset, where the long division ends on or next to zero
    whole = np.array(turns, dtype=float) * period
    for z in (whole, np.nextafter(whole, -np.inf),
              np.nextafter(whole, np.inf), whole + frac * period):
        got, want = remainder(z, period), np.remainder(z, period)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _old_shock_aligned(fn, lattice, periodic_time, shift=None):
    # the whole-lattice ShockAlignedBump.evaluate the per-row one
    # replaced, with TimeBump._profile and the np.remainder wrap inlined;
    # given shift = (p, q), at the co-moving coordinate of the fine grid
    # eta = q*i - p*t instead of x - speed*t
    T, L = lattice.extent_time, lattice.extent_space
    times = lattice.times()
    radius = fn.time_radius
    if periodic_time:
        w = ((times - fn.time_center + 0.5 * T) % T - 0.5 * T) / radius
    else:
        w = (times - fn.time_center) / radius
    scale = fn.amplitude
    if fn.unit_time_integral:
        scale = scale / (radius * bump_line_integral())
    phi, dphi = scale * bump(w), scale * bump_deriv(w) / radius
    t = times[:, None]
    x = lattice.space_nodes()[None, :]
    z = x - fn.speed * t
    if shift is not None:
        p, q = shift
        i, j = np.arange(lattice.n_space), np.arange(lattice.n_time)
        eta = (q * i[None, :] - p * j[:, None]) % (q * lattice.n_space)
        z = eta * (lattice.h_space / q)
    d = (z - fn.xi_center + 0.5 * L) % L - 0.5 * L
    width = fn.outer_radius - fn.inner_radius
    u = (fn.outer_radius - np.abs(d)) / width
    chi, dchi = _old_smoothstep_pair(u)
    dchi *= -np.sign(d) / width
    psi = phi[:, None] * chi
    grad = np.empty(lattice.shape + (2,))
    grad[..., 0] = dphi[:, None] * chi + phi[:, None] * dchi * (-fn.speed)
    grad[..., 1] = phi[:, None] * dchi
    return psi, grad


@st.composite
def shock_aligned_cases(draw):
    """A valid ShockAlignedBump on a small lattice, and whether time is
    periodic."""
    n_time = draw(st.integers(8, 150))
    n_space = draw(st.integers(8, 40))
    T = draw(st.floats(0.5, 3.0))
    L = draw(st.floats(0.5, 2.0))
    periodic_time = draw(st.booleans())
    time_radius = draw(st.floats(0.05, 0.45)) * T
    if periodic_time:
        time_center = draw(st.floats(-T, 2.0 * T))
    else:
        time_center = draw(st.floats(time_radius + 1e-3 * T,
                                     T - time_radius - 1e-3 * T))
    outer = draw(st.floats(0.02, 0.5)) * L
    inner = outer * draw(st.floats(0.05, 0.95))
    fn = ShockAlignedBump(
        speed=draw(st.sampled_from([0.0, -0.5, 0.5]) | st.floats(-3.0, 3.0)),
        xi_center=draw(st.floats(-2.0 * L, 2.0 * L)),
        inner_radius=inner, outer_radius=outer, time_center=time_center,
        time_radius=time_radius,
        amplitude=draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([1, -1])),
        unit_time_integral=draw(st.booleans()))
    lattice = Lattice(k=1, n_time=n_time, n_space=n_space, extent_time=T,
                      extent_space=L)
    return fn, lattice, periodic_time


# a support that wraps across t = 0, speeds of both signs and zero, and a
# negative amplitude
_LAT = Lattice(k=1, n_time=37, n_space=12, extent_time=1.0, extent_space=1.0)


def _aligned(speed, time_center, amplitude=1.0, unit=True):
    return ShockAlignedBump(speed=speed, xi_center=0.3, inner_radius=0.1,
                            outer_radius=0.3, time_center=time_center,
                            time_radius=0.3, amplitude=amplitude,
                            unit_time_integral=unit)


@settings(max_examples=100, deadline=None)
@given(shock_aligned_cases())
@example((_aligned(-0.7, 0.05), _LAT, True))
@example((_aligned(0.0, 0.5, -1.5, False), _LAT, False))
@example((_aligned(1.3, 0.95, -0.5), _LAT, True))
def test_lattice_rows_are_the_whole_lattice_evaluation(case):
    # the per-row path directly: a drawn lattice may be snapped for the
    # drawn speed, and evaluate would then take the co-moving path
    fn, lattice, periodic_time = case
    psi, grad = fn._evaluate(lattice, periodic_time, None)
    want_psi, want_grad = _old_shock_aligned(fn, lattice, periodic_time)
    # array_equal compares with ==: zeros may differ in sign, every
    # other entry must match bit for bit
    assert np.array_equal(psi, want_psi)
    assert np.array_equal(grad, want_grad)


def test_shock_aligned_evaluate_allocates_little_beyond_its_outputs():
    # both paths, on lattices snapped for speed 1/2 (extent_time 2), where
    # the wave moves 1/2 and 256/511 nodes per step
    fn = ShockAlignedBump(speed=0.5, xi_center=0.5, inner_radius=0.15,
                          outer_radius=0.35, time_center=1.0,
                          time_radius=0.8)
    for n_time, q in ((1024, 2), (1022, 511)):
        lattice = Lattice(k=1, n_time=n_time, n_space=512, extent_time=2.0,
                          extent_space=1.0)
        snapped, p, q_snap = fields._snap(lattice, fn.speed)
        assert snapped == lattice and q_snap == q
        outputs = 8 * (1 + lattice.n_axes) * n_time * lattice.n_space
        for shift in ((p, q), None):
            peak = traced_peak(
                lambda: tuple(fn._evaluate(lattice, True, shift)))
            assert peak <= 1.25 * outputs


@pytest.mark.parametrize("speed", [1e-310, -1e-320])
def test_shock_aligned_speed_without_snapped_extent_takes_lattice_rows(speed):
    # _snap refuses the speed (extent_space/|speed| overflows), so evaluate
    # falls back to the per-row path at x - speed*t
    fn = _aligned(speed, 0.5)
    with pytest.raises(ParameterError, match="no finite snapped time extent"):
        fields._snap(_LAT, speed)
    with mock.patch.object(ShockAlignedBump, "_evaluate", autospec=True,
                           side_effect=ShockAlignedBump._evaluate) as spy:
        got = fn.evaluate(_LAT)
    assert spy.call_args.args[3] is None
    assert _is_bitwise(got, fn._evaluate(_LAT, True, None))


def _is_bitwise(got, want):
    return all(a.shape == b.shape and
               np.array_equal(a.view(np.int64), b.view(np.int64))
               for a, b in zip(got, want))


@st.composite
def snapped_cases(draw):
    """A ShockAlignedBump on a lattice snapped for its speed, and whether
    time is periodic."""
    speed = draw(st.sampled_from([0.0, -0.5, 0.5]) |
                 st.floats(0.01, 3.0).map(lambda s: -s) | st.floats(0.01, 3.0))
    n_space = draw(st.integers(8, 40))
    lattice, p, q = fields._snap(
        Lattice(k=1, n_time=draw(st.integers(8, 96)), n_space=n_space,
                extent_time=draw(st.floats(0.5, 3.0)),
                extent_space=draw(st.floats(0.5, 2.0))), speed)
    T, L = lattice.extent_time, lattice.extent_space
    periodic_time = draw(st.booleans())
    time_radius = draw(st.floats(0.05, 0.45)) * T
    if periodic_time:
        time_center = draw(st.floats(-1.0, 2.0)) * T
    else:
        time_center = draw(st.floats(time_radius + 1e-3 * T,
                                     T - time_radius - 1e-3 * T))
    outer = draw(st.floats(0.05, 0.5)) * L
    fn = ShockAlignedBump(
        speed=speed, xi_center=draw(st.floats(-2.0, 2.0)) * L,
        inner_radius=outer * draw(st.floats(0.05, 0.8)), outer_radius=outer,
        time_center=time_center, time_radius=time_radius,
        amplitude=draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([1, -1])),
        unit_time_integral=draw(st.booleans()))
    return fn, lattice, (p, q), periodic_time


# a lattice where q = n_time (12/37 nodes per step), speeds of both signs,
# speed 0, and residue classes without a live row
_SNAPPED = fields._snap(_LAT, 0.7)[0]


@settings(max_examples=100, deadline=None)
@given(snapped_cases())
@example((_aligned(0.7, 0.2), _SNAPPED, (12, 37), True))
@example((_aligned(-0.7, 0.7, -2.0), fields._snap(_LAT, -0.7)[0], (-12, 37),
          False))
@example((_aligned(0.0, 0.5, -1.5, False), _LAT, (0, 1), True))
def test_comoving_path_is_the_whole_lattice_evaluation(case):
    fn, lattice, shift, periodic_time = case
    psi, grad = fn.evaluate(lattice, periodic_time)
    assert _is_bitwise((psi, grad),
                       fn._evaluate(lattice, periodic_time, shift))
    # at the same coordinate every entry matches (zeros up to sign)
    want = _old_shock_aligned(fn, lattice, periodic_time, shift)
    assert np.array_equal(psi, want[0]) and np.array_equal(grad, want[1])
    # x - speed*t rounds at its own magnitude, which the plateau turns
    # into errors of about that over the band width
    T, L = lattice.extent_time, lattice.extent_space
    kappa = (abs(fn.speed) * T + abs(fn.xi_center) + L) / \
        (fn.outer_radius - fn.inner_radius)
    for got, want in zip((psi, grad),
                         _old_shock_aligned(fn, lattice, periodic_time)):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * kappa * scale


@settings(max_examples=50, deadline=None)
@given(snapped_cases())
def test_comoving_row_t_plus_q_is_row_t_rolled_by_p(case):
    # with a time profile of 1 every output is a function of the plateau
    # alone, and the plateau moves p nodes per q rows exactly
    fn, lattice, (p, q), periodic_time = case
    with mock.patch.object(
            TimeBump, "_profile",
            lambda self, t, *_: (np.ones_like(t), np.zeros_like(t))):
        psi, grad = fn.evaluate(lattice, periodic_time)
    for out in (psi, grad):
        assert np.array_equal(out[q:], np.roll(out[:-q], p, axis=1))


@pytest.mark.parametrize("config, lattice", [
    ("commutator_sweep", (256, 256)), ("dissipation_shock", (1024, 1024)),
    ("onsager_suite", (2048, 1024))])
def test_comoving_path_is_bitwise_the_lattice_rows_on_the_configs(config,
                                                                  lattice):
    import json
    spec = json.loads((Path(__file__).parent.parent / "configs"
                       / f"{config}.json").read_text())
    spec = spec.get("shock", spec)
    spec = spec.get("test_function") or spec["test_functions"][0]
    fn = build_testfn(spec)
    lat, p, q = fields._snap(Lattice(k=1, n_time=lattice[0],
                                     n_space=lattice[1], extent_time=1.0,
                                     extent_space=1.0), fn.speed)
    got = fn.evaluate(lat)
    assert _is_bitwise(got, fn._evaluate(lat, True, None))
    assert _is_bitwise(got, fn._evaluate(lat, True, (p, q)))


def _old_tensor_bump(fn, lattice, periodic_time):
    # the evaluation before the in-place one: amplitude times fresh outer
    # products on every row, with _support's np.remainder wrap inlined;
    # also the rows where the time factor or its derivative is nonzero
    factors, dfactors = [], []
    for axis in range(lattice.n_axes):
        z = lattice.times() if axis == 0 else lattice.space_nodes()
        c, r = fn.center[axis], fn.radius[axis]
        P = lattice.axis_extent(axis)
        if axis > 0 or periodic_time:
            w = ((z - c + 0.5 * P) % P - 0.5 * P) / r
        else:
            w = (z - c) / r
        factors.append(bump(w))
        dfactors.append(bump_deriv(w) / r)

    def outer(fs):
        out = fs[0]
        for f in fs[1:]:
            out = np.multiply.outer(out, f)
        return out

    grad = np.empty(lattice.shape + (lattice.n_axes,))
    for axis in range(lattice.n_axes):
        grad[..., axis] = outer([dfactors[a] if a == axis else f
                                 for a, f in enumerate(factors)])
    live = (factors[0] != 0.0) | (dfactors[0] != 0.0)
    return fn.amplitude * outer(factors), fn.amplitude * grad, live


def _assert_live_rows_are(got, want, live):
    # the live rows bit for bit, zeros' signs included; every other row
    # +0.0, whose bit pattern is all zeros
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a[live].view(np.int64), b[live].view(np.int64))
        assert not np.any(a[~live].view(np.int64))


@st.composite
def tensor_bump_cases(draw):
    """A valid TensorBump for k = 1 or 2 and whether time is periodic."""
    k = draw(st.integers(1, 2))
    T, L = draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 2.0))
    periodic_time = draw(st.booleans())
    center, radius = [], []
    for axis, extent in enumerate([T] + [L] * k):
        r = draw(st.floats(0.05, 0.45)) * extent
        if axis == 0 and not periodic_time:
            c = draw(st.floats(r + 1e-3 * T, T - r - 1e-3 * T))
        else:
            c = draw(st.floats(-extent, 2.0 * extent))
        center.append(c)
        radius.append(r)
    amplitude = draw(st.floats(0.1, 3.0) | st.sampled_from([1, 2, -3])) \
        * draw(st.sampled_from([1, -1]))
    fn = TensorBump(center=center, radius=radius, amplitude=amplitude)
    lattice = Lattice(k=k, n_time=draw(st.integers(8, 24)),
                      n_space=draw(st.integers(8, 24 if k == 1 else 12)),
                      extent_time=T, extent_space=L)
    return fn, lattice, periodic_time


@settings(max_examples=60, deadline=None)
@given(tensor_bump_cases())
@example((TensorBump(center=(0.5, 0.5, 0.25), radius=(0.3, 0.2, 0.4),
                     amplitude=-1.5), Lattice(k=2, n_time=9, n_space=8,
                                              extent_time=1.0,
                                              extent_space=1.0), False))
def test_tensor_bump_in_place_is_the_old_evaluation(case):
    # x*a and a*x round alike, so live rows match bit for bit; the old
    # products gave -0.0 on other rows where the amplitude is negative
    fn, lattice, periodic_time = case
    *want, live = _old_tensor_bump(fn, lattice, periodic_time)
    _assert_live_rows_are(fn.evaluate(lattice, periodic_time), want, live)


def _old_time_bump(fn, lattice, periodic_time):
    # the broadcast evaluation before live rows: the profile copied down
    # every row, its derivative into every row of grad's time component,
    # with _support's wrap inlined; also the rows where either is nonzero
    T, t = lattice.extent_time, lattice.times()
    if periodic_time:
        w = ((t - fn.center + 0.5 * T) % T - 0.5 * T) / fn.radius
    else:
        w = (t - fn.center) / fn.radius
    scale = fn.amplitude
    if fn.unit_integral:
        scale = scale / (fn.radius * bump_line_integral())
    phi, dphi = scale * bump(w), scale * bump_deriv(w) / fn.radius
    column = (-1,) + (1,) * lattice.k
    psi = np.broadcast_to(phi.reshape(column), lattice.shape).copy()
    grad = np.zeros(lattice.shape + (lattice.n_axes,))
    grad[..., 0] = dphi.reshape(column)
    return psi, grad, (phi != 0.0) | (dphi != 0.0)


@st.composite
def time_bump_cases(draw):
    """A valid TimeBump for k = 1 or 2 and whether time is periodic."""
    k = draw(st.integers(1, 2))
    T = draw(st.floats(0.5, 3.0))
    periodic_time = draw(st.booleans())
    radius = draw(st.floats(0.05, 0.45)) * T
    if periodic_time:
        center = draw(st.floats(-T, 2.0 * T))
    else:
        center = draw(st.floats(radius + 1e-3 * T, T - radius - 1e-3 * T))
    amplitude = draw(st.floats(0.1, 3.0) | st.sampled_from([1, 2, -3])) \
        * draw(st.sampled_from([1, -1]))
    fn = TimeBump(center=center, radius=radius, amplitude=amplitude,
                  unit_integral=draw(st.booleans()))
    lattice = Lattice(k=k, n_time=draw(st.integers(8, 24)),
                      n_space=draw(st.integers(8, 24 if k == 1 else 12)),
                      extent_time=T, extent_space=draw(st.floats(0.5, 2.0)))
    return fn, lattice, periodic_time


@settings(max_examples=60, deadline=None)
@given(time_bump_cases())
@example((TimeBump(center=0.05, radius=0.3, amplitude=-1.5),
          Lattice(k=2, n_time=9, n_space=8, extent_time=1.0,
                  extent_space=1.0), True))
@example((TimeBump(center=0.5, radius=0.3, amplitude=-2.0,
                   unit_integral=True),
          Lattice(k=1, n_time=9, n_space=8, extent_time=1.0,
                  extent_space=1.0), False))
def test_time_bump_live_rows_are_the_old_evaluation(case):
    # a negative amplitude gave -0.0 outside the support
    fn, lattice, periodic_time = case
    *want, live = _old_time_bump(fn, lattice, periodic_time)
    _assert_live_rows_are(fn.evaluate(lattice, periodic_time), want, live)


@st.composite
def window_cases(draw):
    """A catalogue test function on a DiscreteField over its lattice, with
    a block size and one more window of rows: TensorBump (k = 1, 2),
    TimeBump, and ShockAlignedBump on unsnapped and snapped lattices."""
    cases = tensor_bump_cases() | time_bump_cases() | \
        shock_aligned_cases() | snapped_cases().map(
            lambda case: (case[0], case[1], case[3]))
    fn, lattice, periodic_time = draw(cases)
    n = lattice.n_time
    block = draw(st.integers(1, n + 1))
    start = draw(st.integers(0, n))
    stop = draw(st.integers(start, n + 4))
    return fn, lattice, periodic_time, block, slice(start, stop)


_WRAPPED = TimeBump(center=0.05, radius=0.3, amplitude=-1.5)
_LAT2 = Lattice(k=2, n_time=9, n_space=8, extent_time=1.0, extent_space=1.0)


@settings(max_examples=150, deadline=None)
@given(window_cases())
# supports wrapped across t = 0, cut by every block and window; a partial
# last block
@example((_WRAPPED, _LAT2, True, 2, slice(1, 8)))
@example((TensorBump(center=(0.95, 0.5), radius=(0.3, 0.35), amplitude=-2.0),
          _LAT, True, 5, slice(3, 40)))
@example((_aligned(0.7, 0.05), _SNAPPED, True, 4, slice(30, 37)))
@example((_aligned(-0.7, 0.05), _LAT, True, 4, slice(0, 6)))
def test_row_window_is_the_rows_of_the_dense_arrays(case):
    # the window node_means hands residual_R on a DiscreteField writes its
    # rows from the factors: bit for bit the rows of the dense arrays,
    # block by block and on any window, zeros with their signs
    fn, lattice, periodic_time, block, window = case
    field = DiscreteField(lattice=lattice,
                          values=np.zeros(lattice.shape + (1,)),
                          periodic_time=periodic_time)
    means = node_means(fn, field)
    dense = tuple(fn.evaluate(lattice, periodic_time))
    n = lattice.n_time
    windows = [slice(a, a + block) for a in range(0, n, block)]
    for rows in windows + [window, slice(0, 0), slice(None)]:
        assert _is_bitwise(means(rows), [a[rows] for a in dense])


@pytest.mark.parametrize("n_time, n_space, speed, q", [
    (32, 64, 1.0, 1), (64, 32, 1.0, 2), (96, 32, -1.0, 3), (37, 12, 0.7, 37)])
def test_snapped_windows_evaluate_each_class_plateau_once(n_time, n_space,
                                                          speed, q):
    # residual_R reads a DiscreteField's window block by block; each
    # residue class of the fine grid evaluates its plateau once per
    # sample, not once per block it has a live row in
    lattice, p, got_q = fields._snap(
        Lattice(k=1, n_time=n_time, n_space=n_space, extent_time=1.0,
                extent_space=1.0), speed)
    assert got_q == q
    fn = _aligned(speed, 0.3 * lattice.extent_time)
    field = DiscreteField(lattice=lattice,
                          values=np.zeros(lattice.shape + (1,)))
    with mock.patch.object(ShockAlignedBump, "_plateau", autospec=True,
                           side_effect=ShockAlignedBump._plateau) as spy:
        means = node_means(fn, field)
        sample = means.__self__
        live = (sample.phi != 0.0) | (sample.dphi != 0.0)
        classes = sum(bool(live[ts].any())
                      for _, ts, _ in fields._row_classes(lattice, p, q))
        for rows in [slice(a, a + 5) for a in range(0, n_time, 5)] + \
                [slice(None), slice(3, 20)]:
            means(rows)
        tuple(sample)       # the dense view reads the same plateaus
    assert 0 < classes <= q and spy.call_count == classes


def test_tensor_bump_evaluate_allocates_little_beyond_its_outputs():
    lattice = Lattice(k=1, n_time=1024, n_space=512, extent_time=1.0,
                      extent_space=1.0)
    fn = TensorBump(center=(0.5, 0.5), radius=(0.35, 0.35), amplitude=-2.0)
    peak = traced_peak(lambda: tuple(fn.evaluate(lattice)))
    outputs = 8 * (1 + lattice.n_axes) * lattice.n_time * lattice.n_space
    assert peak <= 1.25 * outputs


# an exec'd process reports at least its parent's peak as ru_maxrss (this
# test's pytest process); a process forked from it starts from its own
_RSS_CHILD = """
import os, resource, sys
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
from conslab import Lattice, TensorBump, TimeBump
lattice = Lattice(k=1, n_time=2048, n_space=2048, extent_time=1.0,
                  extent_space=1.0)
fn = {"tensor": TensorBump(center=(0.05, 0.5), radius=(0.1, 0.35),
                           amplitude=-2.0),
      "time": TimeBump(center=0.05, radius=0.1, amplitude=-2.0)}[sys.argv[1]]
fn.evaluate(Lattice(k=1, n_time=64, n_space=64, extent_time=1.0,
                    extent_space=1.0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
psi, grad = fn.evaluate(lattice)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024, psi.nbytes + grad.nbytes)
"""


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("kind", ["tensor", "time"])
def test_evaluate_leaves_rows_outside_the_support_unwritten(kind):
    # a time support of 0.2 of the period, wrapping across t = 0, on a
    # lattice whose outputs (32 and 64 MiB) pass glibc's 32 MiB mmap
    # ceiling, so np.zeros hands out fresh pages that only a write faults
    # in; writing every row would grow the peak RSS by the outputs' size
    src = str(Path(fields.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, kind], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    grown, nbytes = map(int, proc.stdout.split())
    assert grown <= 0.5 * nbytes
