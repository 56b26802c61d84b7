"""Weak residuals, jump conditions, and shock defect rates."""

import numpy as np
import pytest

import oracles
from conslab import (DiscreteField, InconsistentShockError, Lattice,
                     ParameterError, ShockAlignedBump, StateDomain,
                     SystemSpec, TensorBump, TimeBump,
                     UnsupportedGeometryError, build_dissipation_report,
                     make_builtin, make_kernel, make_lacunary_field,
                     make_shock_field, rankine_hugoniot_speed, residual_R,
                     shock_dissipation_rate, weak_residual_companion,
                     weak_residual_system)

ELASTO_SPEED = np.sqrt((1.2 ** 3 - 1.0) / 0.2)  # strain law W'(w) = w^3


@pytest.fixture(scope="module")
def rh_field(burgers):
    lat = Lattice(k=1, n_time=512, n_space=512, extent_time=1.0,
                  extent_space=1.0)
    return make_shock_field(burgers, [1.0], [0.0], 0.5, lat)


@pytest.fixture(scope="module")
def aligned_bump():
    return ShockAlignedBump(speed=0.5, xi_center=0.5, inner_radius=0.15,
                            outer_radius=0.35, time_center=1.0,
                            time_radius=0.8)


# ---------------------------------------------------------------------------
# jump conditions


def test_rh_speed_burgers(burgers):
    rh = rankine_hugoniot_speed(burgers, [1.0], [0.0])
    assert rh.speed == pytest.approx(0.5, abs=1e-14)
    assert rh.consistent
    # companion flux pair moves at its own speed: the 1/6 mismatch is the
    # per-shock fingerprint of companion-law failure
    assert rh.companion_speed == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert rh.mismatch == pytest.approx(1.0 / 6.0, abs=1e-13)


def test_rh_speed_elasto_consistent_pair(elasto):
    s = ELASTO_SPEED
    rh = rankine_hugoniot_speed(elasto, [1.0, 0.1 * s], [1.2, -0.1 * s])
    assert rh.consistent
    assert rh.speed == pytest.approx(s, rel=1e-12)
    assert np.all(np.isfinite(rh.speeds))


def test_rh_speed_elasto_generic_pair_inconsistent(elasto):
    rh = rankine_hugoniot_speed(elasto, [1.0, 0.3], [1.5, 0.1])
    assert not rh.consistent
    assert np.isnan(rh.speed)
    with pytest.raises(InconsistentShockError, match="row speeds"):
        shock_dissipation_rate(elasto, [1.0, 0.3], [1.5, 0.1])


def test_rh_validation(burgers, elasto):
    with pytest.raises(ParameterError, match="no jump"):
        rankine_hugoniot_speed(burgers, [1.0], [1.0])
    with pytest.raises(ParameterError, match="shape"):
        rankine_hugoniot_speed(burgers, [1.0, 2.0], [0.0])
    with pytest.raises(UnsupportedGeometryError, match="k = 1"):
        rankine_hugoniot_speed(make_builtin("euler-incompressible-2d"),
                               [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    # strain equal, velocity jumps: kinematic row admits no finite speed
    with pytest.raises(InconsistentShockError, match="no finite speed"):
        rankine_hugoniot_speed(elasto, [1.0, 0.5], [1.0, -0.5])


def test_rh_rejects_jump_only_in_spectator_state():
    mhd = make_builtin("mhd-incompressible-1d")
    left = [1.0, 0.0, 0.2, 0.1, 0.3, 0.4]
    right = [1.0, 5.0, 0.2, 0.1, 0.3, 0.4]  # only q differs; no flux jumps
    with pytest.raises(InconsistentShockError, match="not a shock"):
        rankine_hugoniot_speed(mhd, left, right)


# ---------------------------------------------------------------------------
# dissipation rates


@pytest.mark.parametrize("u_l,u_r", [(1.0, 0.0), (2.0, 0.0), (1.5, -0.5),
                                     (0.0, 1.0), (-0.3, 0.7)])
def test_burgers_rate_closed_form(burgers, u_l, u_r):
    rate = shock_dissipation_rate(burgers, [u_l], [u_r])
    assert rate == pytest.approx(oracles.burgers_shock_rate(u_l, u_r),
                                 abs=1e-14)


def test_burgers_rate_antisymmetry(burgers):
    compression = shock_dissipation_rate(burgers, [1.0], [0.0])
    expansion = shock_dissipation_rate(burgers, [0.0], [1.0])
    assert compression == pytest.approx(-1.0 / 12.0, abs=1e-15)
    assert expansion == pytest.approx(-compression, abs=1e-15)


def test_constant_multiplier_system_never_dissipates():
    # B identically 1 forces Q to inherit the flux jump structure, so the
    # companion speed equals the shock speed and the defect rate vanishes
    def G(U):
        u = U[..., 0]
        return np.stack([u, 0.5 * u * u], axis=-1)[..., None, :]

    def B(U):
        return np.ones_like(U)

    def Q(U):
        u = U[..., 0]
        return np.stack([u, 0.5 * u * u], axis=-1)

    system = SystemSpec(name="transport-companion", n=1, k=1,
                        domain=StateDomain.all_space(), G=G, B=B, Q=Q)
    rh = rankine_hugoniot_speed(system, [1.3], [-0.4])
    assert abs(rh.mismatch) <= 1e-12
    assert abs(shock_dissipation_rate(system, [1.3], [-0.4])) <= 1e-12


def test_mismatch_zero_implies_rate_zero(burgers):
    # rate = [[Q_0]] * mismatch whenever the flux speed is defined
    for u_l, u_r in [(1.0, 0.0), (2.0, -1.0), (0.3, 0.9)]:
        rh = rankine_hugoniot_speed(burgers, [u_l], [u_r])
        dQ0 = burgers.Q(np.array([u_l]))[0] - burgers.Q(np.array([u_r]))[0]
        rate = shock_dissipation_rate(burgers, [u_l], [u_r])
        assert rate == pytest.approx(-dQ0 * rh.mismatch, abs=1e-13)


# ---------------------------------------------------------------------------
# weak residuals


def test_rh_shock_is_discrete_weak_solution(burgers, rh_field):
    psi = TensorBump(center=(0.7, 0.35), radius=(0.3, 0.3))
    resid = weak_residual_system(burgers, rh_field, [psi])[0]
    assert abs(resid) <= 1e-9
    # fractional node shift per step: cancellation survives equidistribution
    lat = Lattice(k=1, n_time=768, n_space=512, extent_time=2.0,
                  extent_space=1.0)
    frac = make_shock_field(burgers, [1.0], [0.0], 0.5, lat)
    assert abs(weak_residual_system(burgers, frac, [psi])[0]) <= 1e-9


def test_wrong_speed_field_fails_weak_form(burgers):
    lat = Lattice(k=1, n_time=768, n_space=512, extent_time=2.0,
                  extent_space=1.0)
    bad = make_shock_field(burgers, [1.0], [0.0], 0.3, lat)  # RH speed is 0.5
    psi = TensorBump(center=(0.7, 0.35), radius=(0.3, 0.3))
    assert abs(weak_residual_system(burgers, bad, [psi])[0]) > 1e-3


def test_system_residual_rows_do_not_cancel(burgers):
    # the second flux row is the negative of the first, so the row sum is
    # zero on any field; the residual is the first row's, Burgers' own
    def G(U):
        row = burgers.G(U[..., :1])
        return np.concatenate([row, -row], axis=-2)

    def zeros(U):
        return np.zeros(U.shape[:-1] + (2,))

    system = SystemSpec(name="mirrored-burgers", n=2, k=1,
                        domain=StateDomain.all_space(), G=G, B=zeros,
                        Q=zeros)
    lat = Lattice(k=1, n_time=768, n_space=512, extent_time=2.0,
                  extent_space=1.0)
    bad = make_shock_field(burgers, [1.0], [0.0], 0.3, lat)  # RH speed is 0.5
    pair = DiscreteField(lattice=bad.lattice,
                         values=np.repeat(bad.values, 2, axis=-1))
    psi = TensorBump(center=(0.7, 0.35), radius=(0.3, 0.3))
    row = weak_residual_system(burgers, bad, [psi])[0]
    assert abs(row) > 1e-3
    assert weak_residual_system(system, pair, [psi]) == [row]


def test_expansion_shock_weak_but_antidissipative(burgers, aligned_bump):
    lat = Lattice(k=1, n_time=512, n_space=512, extent_time=1.0,
                  extent_space=1.0)
    expansion = make_shock_field(burgers, [0.0], [1.0], 0.5, lat)
    psi = TensorBump(center=(0.7, 0.35), radius=(0.3, 0.3))
    assert abs(weak_residual_system(burgers, expansion, [psi])[0]) <= 1e-8
    defect = weak_residual_companion(burgers, expansion, [aligned_bump])[0]
    assert defect == pytest.approx(+1.0 / 12.0, rel=1e-10)


def test_companion_defect_matches_rate_through_aligned_bump(
        burgers, rh_field, aligned_bump):
    # the plateau tracks exactly one of the two interfaces; with a unit
    # time integral the defect integral equals the per-shock rate
    defect = weak_residual_companion(burgers, rh_field, [aligned_bump])[0]
    rate = shock_dissipation_rate(burgers, [1.0], [0.0])
    assert defect == pytest.approx(rate, rel=1e-10)
    assert defect == pytest.approx(-1.0 / 12.0, rel=1e-10)


def test_companion_defects_cancel_over_full_torus(burgers, rh_field):
    # a space-constant test function sees both interfaces, whose defects
    # are equal and opposite
    tb = TimeBump(center=1.0, radius=0.8)
    assert abs(weak_residual_companion(burgers, rh_field, [tb])[0]) <= 1e-12


def test_traveling_profile_companion_residual_is_quadrature_exact(burgers):
    # for any traveling field and space-constant psi the spatial average
    # of Q_0 is time invariant, so the residual is pure quadrature error
    lat = Lattice(k=1, n_time=256, n_space=512, extent_time=1.0,
                  extent_space=1.0)
    whole = make_lacunary_field(0.5, 6, seed=7, travel_speed=1.0, lattice=lat)
    tb = TimeBump(center=0.5, radius=0.4)
    assert abs(weak_residual_companion(burgers, whole, [tb])[0]) <= 1e-12
    frac_lat = Lattice(k=1, n_time=192, n_space=384, extent_time=3.0,
                       extent_space=1.0)
    frac = make_lacunary_field(0.5, 6, seed=7, travel_speed=1.0 / 3.0,
                               lattice=frac_lat)
    tb2 = TimeBump(center=1.5, radius=1.2)
    assert abs(weak_residual_companion(burgers, frac, [tb2])[0]) <= 1e-12


def test_residual_limit_agrees_with_companion_defect(burgers, rh_field,
                                                     aligned_bump):
    kernels = [make_kernel(2.0 ** -k, rh_field.lattice) for k in (3, 4, 5)]
    report = residual_R(burgers, rh_field, kernels, aligned_bump)
    defect = weak_residual_companion(burgers, rh_field, [aligned_bump])[0]
    assert report.limit_estimate == pytest.approx(defect, rel=0.05)
    # already at fixed epsilon the totals sit within a percent
    np.testing.assert_allclose(report.total, defect, rtol=0.01)


def test_elasto_companion_defect_matches_rate_exact_roll(elasto):
    # strains 1.5, 2.5 make s^2 = w_l^2 + w_l w_r + w_r^2 = 49/4 rational,
    # so the interface advances a whole number of nodes per step and the
    # defect quadrature is exact
    left, right = [1.5, 1.75], [2.5, -1.75]
    rh = rankine_hugoniot_speed(elasto, left, right)
    assert rh.consistent
    assert rh.speed == pytest.approx(3.5, abs=1e-13)
    lat = Lattice(k=1, n_time=512, n_space=1024, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(elasto, left, right, 3.5, lat)
    T = field.lattice.extent_time
    bump = ShockAlignedBump(speed=3.5, xi_center=0.5, inner_radius=0.1,
                            outer_radius=0.3, time_center=0.5 * T,
                            time_radius=0.4 * T)
    defect = weak_residual_companion(elasto, field, [bump])[0]
    rate = shock_dissipation_rate(elasto, left, right)
    assert rate != 0.0
    assert defect == pytest.approx(rate, rel=1e-9)


def test_elasto_companion_defect_irrational_speed(elasto):
    # irrational speed: the interface lands between nodes with drifting
    # offsets, leaving an O(h) quadrature wobble in the defect
    s = ELASTO_SPEED
    left, right = [1.0, 0.1 * s], [1.2, -0.1 * s]
    lat = Lattice(k=1, n_time=512, n_space=1024, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(elasto, left, right, s, lat)
    T = field.lattice.extent_time
    bump = ShockAlignedBump(speed=s, xi_center=0.5, inner_radius=0.1,
                            outer_radius=0.3, time_center=0.5 * T,
                            time_radius=0.4 * T)
    defect = weak_residual_companion(elasto, field, [bump])[0]
    rate = shock_dissipation_rate(elasto, left, right)
    assert rate != 0.0
    assert defect == pytest.approx(rate, rel=0.01)


def test_companion_residual_rejects_field_with_wrong_state_count(elasto):
    lat = Lattice(k=1, n_time=16, n_space=32, extent_time=1.0,
                  extent_space=1.0)
    scalar = make_lacunary_field(0.5, 3, 0, 0.0, lat)
    with pytest.raises(ParameterError,
                       match=r"shape \(1,\).*'elastodynamics-1d' has 2 state"):
        weak_residual_companion(elasto, scalar,
                                [TimeBump(center=0.5, radius=0.3)])


# ---------------------------------------------------------------------------
# report assembly


def test_dissipation_report_consistent_shock(burgers, rh_field, aligned_bump):
    tb = TimeBump(center=1.0, radius=0.8)
    report = build_dissipation_report(burgers, rh_field, [1.0], [0.0],
                                      [aligned_bump, tb])
    assert report.consistent
    assert report.shock_dissipation_rate == pytest.approx(-1.0 / 12.0,
                                                          abs=1e-14)
    assert report.mismatch == pytest.approx(1.0 / 6.0, abs=1e-13)
    assert len(report.system_weak_residuals) == 2
    assert report.companion_weak_residuals[0] == pytest.approx(-1.0 / 12.0,
                                                               rel=1e-9)
    assert abs(report.companion_weak_residuals[1]) <= 1e-12


def test_dissipation_report_inconsistent_pair(elasto):
    lat = Lattice(k=1, n_time=64, n_space=128, extent_time=1.0,
                  extent_space=1.0)
    field = make_shock_field(elasto, [1.0, 0.3], [1.5, 0.1], 0.0, lat)
    report = build_dissipation_report(elasto, field, [1.0, 0.3], [1.5, 0.1],
                                      [TimeBump(center=0.5, radius=0.3)])
    assert not report.consistent
    assert np.isnan(report.shock_dissipation_rate)
