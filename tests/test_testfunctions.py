"""Test-function catalogue: values, analytic gradients, support guards."""

import warnings

import numpy as np
import pytest

import oracles
from conslab import (Lattice, ParameterError, ShockAlignedBump, TensorBump,
                     TimeBump, UnsupportedGeometryError)
from conslab import TestSupportError as SupportError
from conslab._bumps import smoothstep_pair
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
