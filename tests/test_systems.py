"""System catalogue: companion identity, Jacobians, domains, extension."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conslab import (BUILTIN_NAMES, DomainViolationError, GeometryError,
                     ParameterError, StateDomain, check_compatibility,
                     extend_to_compact_range, make_builtin,
                     uniform_box_sampler)
from conslab import systems
from conslab._bumps import smoothstep_pair
from conslab.systems import fd_jacobian, make_pressure_law, make_stored_energy
from conftest import STATE_BOXES, random_states


# ---------------------------------------------------------------------------
# companion identity


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_identity_holds_symbolically(name):
    # independent sympy derivation: D_U Q_j - sum_i B_i D_U G_ij == 0 exactly
    residual = oracles.symbolic_identity_residual(name)
    assert all(entry == 0 for entry in residual)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_evaluators_match_symbolic_reference(name, rng):
    system = make_builtin(name)
    ref_G, ref_B, ref_Q = oracles.lambdified_system(name)
    U = random_states(name, rng, 50)
    np.testing.assert_allclose(system.G(U), ref_G(U), atol=1e-12)
    # reference B and Q carry an explicit row axis
    np.testing.assert_allclose(system.B(U), ref_B(U)[..., 0, :], atol=1e-12)
    np.testing.assert_allclose(system.Q(U), ref_Q(U)[..., 0, :], atol=1e-12)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_analytic_jacobians_match_finite_differences(name, rng):
    system = make_builtin(name)
    U = random_states(name, rng, 30)
    for f, df in ((system.G, system.DG), (system.B, system.DB),
                  (system.Q, system.DQ)):
        fd = fd_jacobian(f, U, 1e-6)
        np.testing.assert_allclose(df(U), fd, atol=5e-8)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("method,tol", [("analytic", 1e-6),
                                        ("finite-difference", 1e-4)])
def test_compatibility_sampled(name, method, tol):
    system = make_builtin(name)
    sampler = uniform_box_sampler(*STATE_BOXES[name])
    report = check_compatibility(system, sampler, 200, rng=0, method=method)
    assert report.max_residual <= tol
    assert report.method == method
    assert report.samples == 200
    assert 0 <= report.worst_column <= system.k
    assert report.worst_state.shape == (system.n,)
    assert report.system_name == name


def test_compatibility_detects_tampered_companion(burgers):
    # add 0.1 * u to the spatial companion flux; the analytic identity
    # residual must equal the tampering amplitude exactly
    def bad_Q(U):
        out = burgers.Q(U)
        out[..., 1] += 0.1 * U[..., 0]
        return out

    def bad_DQ(U):
        out = burgers.DQ(U)
        out[..., 1, 0] += 0.1
        return out

    tampered = replace(burgers, Q=bad_Q, DQ=bad_DQ)
    sampler = uniform_box_sampler(*STATE_BOXES["burgers"])
    report = check_compatibility(tampered, sampler, 100, rng=0,
                                 method="analytic")
    assert report.max_residual == pytest.approx(0.1, abs=1e-15)
    assert report.worst_column == 1

    fd_report = check_compatibility(replace(burgers, Q=bad_Q), sampler, 100,
                                    rng=0, method="finite-difference")
    assert fd_report.max_residual == pytest.approx(0.1, rel=1e-6)


def test_compatibility_rejects_a_non_finite_residual(burgers):
    # max() over residuals would pass a NaN over and report a pass
    sampler = uniform_box_sampler(*STATE_BOXES["burgers"])
    with pytest.raises(ParameterError, match=r"not finite at state "
                       r"\[.*\], column 0 with fd_step 1e\+308"):
        check_compatibility(burgers, sampler, 8, fd_step=1e308,
                            method="finite-difference")

    def nan_DQ(U):
        out = burgers.DQ(U)
        out[..., 1, 0] = np.nan
        return out

    with pytest.raises(ParameterError,
                       match=r"'burgers' is not finite at state \[.*\], "
                             r"column 1$"):
        check_compatibility(replace(burgers, DQ=nan_DQ), sampler, 8,
                            method="analytic")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_affine_annotations_are_actually_affine(name, rng):
    system = make_builtin(name)
    A = random_states(name, rng, 20)
    Bst = random_states(name, rng, 20)
    mid = 0.5 * (A + Bst)
    G_mid = system.G(mid)
    G_avg = 0.5 * (system.G(A) + system.G(Bst))
    for j in system.affine_columns:
        np.testing.assert_allclose(G_mid[..., :, j], G_avg[..., :, j],
                                   atol=1e-12)
    for i in system.affine_rows:
        np.testing.assert_allclose(G_mid[..., i, :], G_avg[..., i, :],
                                   atol=1e-12)


def test_affine_annotation_catalogue():
    # row/column bookkeeping the commutator shortcuts rely on
    assert make_builtin("burgers").affine_columns == frozenset({0})
    el = make_builtin("elastodynamics-1d")
    assert el.affine_rows == frozenset({0})
    mhd = make_builtin("mhd-incompressible-1d")
    assert mhd.affine_rows == frozenset({0, 1, 4})


def test_m_form_agrees_with_velocity_form(rng):
    u_form = make_builtin("euler-compressible-1d")
    m_form = make_builtin("euler-compressible-m-form-1d")
    rho = rng.uniform(0.3, 2.0, size=40)
    u = rng.uniform(-2.0, 2.0, size=40)
    U_u = np.stack([rho, u], axis=-1)
    U_m = np.stack([rho, rho * u], axis=-1)
    # same physical fields: companion pair and the mass row transform exactly
    np.testing.assert_allclose(m_form.Q(U_m), u_form.Q(U_u), atol=1e-12)
    np.testing.assert_allclose(m_form.G(U_m)[..., 0, :],
                               u_form.G(U_u)[..., 0, :], atol=1e-12)


# ---------------------------------------------------------------------------
# domains and constitutive laws


def test_density_domain_rejects_vacuum():
    system = make_builtin("euler-compressible-1d")
    with pytest.raises(DomainViolationError,
                       match=r"at index \(0,\) is outside the admissible"):
        system_check = check_compatibility(
            system, lambda rng, count: np.tile([-0.5, 1.0], (count, 1)),
            4, method="analytic")
        del system_check


def test_strain_domain_not_convex(elasto):
    assert elasto.domain.contains(np.array([0.5, -3.0]))
    assert not elasto.domain.contains(np.array([-0.5, 0.0]))


def test_domain_margin_shrinks_half_space():
    dom = StateDomain.box([0.0, -np.inf], [np.inf, np.inf])
    assert dom.contains(np.array([1e-3, 0.0]))
    assert not dom.contains(np.array([1e-3, 0.0]), margin=1e-2)


def test_convex_box_contains_midpoints(rng):
    dom = StateDomain.box([0.0, -1.0], [2.0, 1.0])
    pts = rng.uniform([0.0, -1.0], [2.0, 1.0], size=(50, 2))
    mids = 0.5 * (pts[:25] + pts[25:])
    assert bool(np.all(dom.contains(mids)))


def test_pressure_law_primitive_relation():
    # P'(rho) = p(rho)/rho^2 pins the normalization the companion flux needs
    for gamma in (1.0, 1.4, 2.0, 3.0):
        law = make_pressure_law({"name": "polytropic", "kappa": 0.7,
                                 "gamma": gamma})
        rho = np.linspace(0.4, 3.0, 25)
        np.testing.assert_allclose(law.dP(rho), law.p(rho) / rho ** 2,
                                   rtol=1e-12)
        h = 1e-6
        fd = (law.P(rho + h) - law.P(rho - h)) / (2 * h)
        np.testing.assert_allclose(fd, law.dP(rho), rtol=1e-8)
        assert law.P(1.0) == pytest.approx(0.0, abs=1e-15)


def test_isothermal_pressure_uses_log_primitive():
    law = make_pressure_law({"gamma": 1.0, "kappa": 2.0})
    assert law.P(np.e) == pytest.approx(2.0, rel=1e-12)


def test_pressure_law_rejects_bad_parameters():
    with pytest.raises(ParameterError, match="catalogue"):
        make_pressure_law({"name": "tait"})
    with pytest.raises(ParameterError, match="kappa"):
        make_pressure_law({"kappa": -1.0})
    with pytest.raises(ParameterError, match="gamma"):
        make_pressure_law({"gamma": 0.0})
    with pytest.raises(ParameterError, match="unknown pressure-law param"):
        make_pressure_law({"mach": 2.0})


def test_stored_energy_derivative_chain():
    energy = make_stored_energy({"amplitude": 2.0, "exponent": 4.0})
    w = np.linspace(0.3, 2.0, 17)
    h = 1e-6
    np.testing.assert_allclose((energy.W(w + h) - energy.W(w - h)) / (2 * h),
                               energy.dW(w), rtol=1e-8)
    np.testing.assert_allclose((energy.dW(w + h) - energy.dW(w - h)) / (2 * h),
                               energy.d2W(w), rtol=1e-8)
    with pytest.raises(ParameterError, match="exponent"):
        make_stored_energy({"exponent": 2.0})


@pytest.mark.parametrize("name, params, named", [
    ("euler-compressible-1d", {"pressure": 5}, "pressure law"),
    ("euler-compressible-1d", {"rho_min": "abc"}, "'rho_min'"),
    ("euler-compressible-m-form-1d", {"pressure": {"kappa": "x"}}, "'kappa'"),
    ("elastodynamics-1d", {"stored_energy": 3}, "stored energy"),
    ("elastodynamics-1d", {"w_min": None}, "'w_min'"),
])
def test_make_builtin_rejects_wrong_typed_params(name, params, named):
    with pytest.raises(ParameterError, match=named):
        make_builtin(name, params)


def test_make_builtin_rejects_unknown_names_and_params():
    with pytest.raises(ParameterError, match="unknown system"):
        make_builtin("kdv")
    with pytest.raises(ParameterError, match="no parameters"):
        make_builtin("burgers", {"nu": 0.1})


# each system's message for the unknown keys nu and zeta, given with every
# known key set to a value the system refuses: the unknown keys come first
UNKNOWN_KEYS = {
    "burgers": ({}, "burgers takes no parameters, got ['nu', 'zeta']"),
    "euler-compressible-1d": (
        {"pressure": 5, "rho_min": -1.0},
        "euler-compressible-1d parameters: pressure, rho_min; "
        "got ['nu', 'zeta']"),
    "euler-compressible-m-form-1d": (
        {"pressure": 5, "rho_min": -1.0},
        "euler-compressible-m-form-1d parameters: pressure, rho_min; "
        "got ['nu', 'zeta']"),
    "elastodynamics-1d": (
        {"stored_energy": 3, "w_min": None},
        "elastodynamics-1d parameters: stored_energy, w_min; "
        "got ['nu', 'zeta']"),
    "euler-incompressible-2d": (
        {}, "euler-incompressible-2d takes no parameters, got ['nu', 'zeta']"),
    "mhd-incompressible-1d": (
        {}, "mhd-incompressible-1d takes no parameters, got ['nu', 'zeta']"),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_make_builtin_names_unknown_keys_first(name):
    known, message = UNKNOWN_KEYS[name]
    with pytest.raises(ParameterError) as info:
        make_builtin(name, {"zeta": 1.0, **known, "nu": 0.1})
    assert str(info.value) == message


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_catalogue_box_lies_inside_the_domain(name):
    lower, upper = systems.BUILTIN_CATALOGUE[name].box
    assert len(lower) == len(upper) == make_builtin(name).n
    corners = np.array(list(itertools.product(*zip(lower, upper))))
    probes = np.vstack([corners, 0.5 * np.add(lower, upper)])
    assert np.all(make_builtin(name).domain.contains(probes))
    assert np.all(np.less(lower, upper))


def test_sampler_validation():
    with pytest.raises(ParameterError, match="empty"):
        uniform_box_sampler([1.0, 0.0], [0.5, 1.0])
    with pytest.raises(ParameterError, match="equal length"):
        uniform_box_sampler([0.0], [1.0, 2.0])


def test_check_compatibility_argument_validation(burgers):
    sampler = uniform_box_sampler([-1.0], [1.0])
    with pytest.raises(ParameterError, match="n_samples"):
        check_compatibility(burgers, sampler, 0)
    with pytest.raises(ParameterError, match="fd_step"):
        check_compatibility(burgers, sampler, 4, fd_step=0.0)
    with pytest.raises(ParameterError, match="unknown method"):
        check_compatibility(burgers, sampler, 4, method="adjoint")
    stripped = replace(burgers, DG=None, DQ=None)
    with pytest.raises(ParameterError, match="no analytic Jacobians"):
        check_compatibility(stripped, sampler, 4, method="analytic")
    # auto falls back to finite differences when Jacobians are missing
    report = check_compatibility(stripped, sampler, 16, rng=3)
    assert report.method == "finite-difference"
    assert report.max_residual <= 1e-4
    with pytest.raises(ParameterError, match="returned shape"):
        check_compatibility(burgers, lambda rng, count: np.zeros((count, 3)),
                            4)


# ---------------------------------------------------------------------------
# compact-range extension


BOX = ([1.0, -1.0], [2.0, 1.0])
DELTA = 0.2


@pytest.fixture(scope="module")
def extended():
    return extend_to_compact_range(make_builtin("elastodynamics-1d"), BOX,
                                   DELTA)


EVALUATORS = ("G", "B", "Q", "DG", "DB", "DQ")


def test_extension_is_identity_on_enlarged_box(elasto, extended, rng):
    lower = np.asarray(BOX[0]) - DELTA
    upper = np.asarray(BOX[1]) + DELTA
    U = rng.uniform(lower, upper, size=(40, 2))
    # every state inside the delta box: the cutoff is exactly 1, its
    # gradient exactly 0 and the clamp the identity, so the values are the
    # base's (assert_array_equal compares with ==: a zero Jacobian entry
    # may differ in sign)
    for key in EVALUATORS:
        np.testing.assert_array_equal(getattr(extended, key)(U),
                                      getattr(elasto, key)(U))


def test_extension_takes_the_cutoff_for_a_whole_mixed_array(elasto,
                                                            extended):
    # interior, transition-shell and outside states in one array, on both
    # faces and in both components
    lo, hi = np.asarray(BOX[0]), np.asarray(BOX[1])
    mid = 0.5 * (lo + hi)
    U = np.array([mid, lo - 0.5 * DELTA, hi + DELTA,
                  [2.0 + 1.5 * DELTA, 0.0], [1.5, -1.0 - 1.2 * DELTA],
                  [1.0 - 1.7 * DELTA, 0.4], [3.5, 0.0], [1.5, 1.0 + 5 * DELTA],
                  [1.9, 0.2]])
    shell = slice(3, 6)
    for key in EVALUATORS:
        got = getattr(extended, key)(U)
        rows = np.concatenate([getattr(extended, key)(U[i:i + 1])
                               for i in range(len(U))])
        raw = getattr(elasto, key)(U[:3])
        # array_equal compares with ==: a zero Jacobian entry may differ in
        # sign between the base and the cutoff, every other entry must
        # match bit for bit
        assert np.array_equal(got, rows), key
        assert np.array_equal(got[:3], raw), key
        assert not np.array_equal(got[shell],
                                  getattr(elasto, key)(U[shell])), key


def test_extension_vanishes_far_outside(extended):
    far = np.array([[-5.0, 0.0], [10.0, 0.0], [1.5, 7.0]])
    assert np.all(extended.G(far) == 0.0)
    assert np.all(extended.Q(far) == 0.0)
    assert np.all(extended.DG(far) == 0.0)


@pytest.mark.parametrize("key", EVALUATORS)
def test_extension_refuses_a_nan_state(extended, key):
    # one NaN among interior states sends the array through the cutoff,
    # which has no value for it
    U = np.array([[1.5, 0.0], [1.2, 0.5], [np.nan, 0.3], [1.8, -0.5]])
    with pytest.raises(ParameterError, match=r"\[nan 0\.3\] at index \(2,\)"):
        getattr(extended, key)(U)


@pytest.mark.parametrize("key", EVALUATORS)
def test_extension_is_zero_at_infinite_states(extended, key):
    U = np.array([[np.inf, 0.0], [-np.inf, 0.0], [1.5, np.inf],
                  [1.5, -np.inf]])
    assert np.all(getattr(extended, key)(U) == 0.0)


def test_extension_transition_shell_is_partial(extended, elasto):
    U = np.array([[2.0 + 1.5 * DELTA, 0.0]])  # between delta and 2*delta out
    ratio = extended.Q(U)[0, 0] / elasto.Q(np.array([[2.0 + 2 * DELTA,
                                                      0.0]]))[0, 0]
    assert 0.0 < extended.Q(U)[0, 0]
    assert extended.Q(U)[0, 0] < elasto.Q(U)[0, 0]
    del ratio


def test_extension_domain_and_annotations(extended):
    assert extended.domain == StateDomain.all_space()
    assert extended.affine_columns == frozenset()
    assert extended.affine_rows == frozenset()
    assert extended.name.endswith("-compact")
    # globally defined: arbitrary states evaluate without domain errors
    wild = np.array([[-3.0, 4.0], [0.0, 0.0], [100.0, -100.0]])
    assert np.all(np.isfinite(extended.G(wild)))


def test_extension_records_its_base_and_interior(extended):
    # the affine annotations stay empty; the agreement with the base is
    # recorded beside them, and replace() keeps it
    base, interior = extended.extension_of
    assert base.name == "elastodynamics-1d"
    assert base.affine_rows == frozenset({0})
    assert interior(np.array([[1.0, -1.0], [2.0 + 0.9 * DELTA, 0.5]]))
    assert not interior(np.array([[1.5, 0.0], [2.0 + 1.3 * DELTA, 0.0]]))
    assert not interior(np.array([[np.nan, 0.0]]))
    assert replace(extended, DB=None).extension_of \
        == extended.extension_of
    assert make_builtin("burgers").extension_of is None


def test_extension_jacobians_consistent_in_shell(extended):
    # product rule through cutoff and clamp; probe all three zones
    pts = np.array([[1.5, 0.0],            # chi = 1
                    [2.0 + 1.3 * DELTA, 0.3],   # transition shell
                    [1.0 - 1.3 * DELTA, -0.2],  # transition, lower face
                    [3.5, 0.0]])           # chi = 0
    fd = fd_jacobian(extended.G, pts, 1e-6)
    np.testing.assert_allclose(extended.DG(pts), fd, atol=2e-6)
    fdq = fd_jacobian(extended.Q, pts, 1e-6)
    np.testing.assert_allclose(extended.DQ(pts), fdq, atol=2e-6)


def test_extension_keeps_identity_on_original_box(extended):
    sampler = uniform_box_sampler(*BOX)
    report = check_compatibility(extended, sampler, 200, rng=1,
                                 method="analytic")
    assert report.max_residual <= 1e-12


def test_extension_geometry_validation(elasto):
    # strain domain is w > 0: a box whose 2*delta enlargement crosses it
    with pytest.raises(GeometryError, match="lower face"):
        extend_to_compact_range(elasto, ([0.3, -1.0], [2.0, 1.0]), 0.2)
    with pytest.raises(ParameterError, match="empty"):
        extend_to_compact_range(elasto, ([2.0, 0.0], [1.0, 1.0]), 0.1)
    with pytest.raises(ParameterError, match="shape"):
        extend_to_compact_range(elasto, ([1.0], [2.0]), 0.1)
    # NaN used to pass a delta <= 0 test and make every evaluator NaN
    for delta in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="delta must be positive"):
            extend_to_compact_range(elasto, BOX, delta)


def _old_extension(system, range_box, delta):
    """The broadcasting cutoff and wrappers the extension used before it
    worked one component at a time: the bitwise reference."""
    lower, upper = (np.asarray(b, dtype=float) for b in range_box)
    lo2, hi2 = lower - 2.0 * delta, upper + 2.0 * delta

    def cutoff(U):
        below = lower - U
        above = U - upper
        dist = np.maximum(np.maximum(below, above), 0.0)
        t = (dist - delta) / delta
        step, dstep = smoothstep_pair(t)
        factors = 1.0 - step
        chi = np.prod(factors, axis=-1)
        sign = np.where(below > 0, -1.0, np.where(above > 0, 1.0, 0.0))
        dfactors = -dstep / delta * sign
        grad = np.empty_like(factors)
        for m in range(factors.shape[-1]):
            others = np.prod(np.delete(factors, m, axis=-1), axis=-1)
            grad[..., m] = dfactors[..., m] * others
        return chi, grad

    def wrap_value(f, out_rank):
        def g(U):
            chi, _ = cutoff(U)
            return f(np.clip(U, lo2, hi2)) * chi.reshape(chi.shape
                                                         + (1,) * out_rank)
        return g

    def wrap_jacobian(f, df, out_rank):
        def g(U):
            chi, grad = cutoff(U)
            Uc = np.clip(U, lo2, hi2)
            inside = ((U >= lo2) & (U <= hi2)).astype(float)
            pad = (1,) * out_rank
            n = U.shape[-1]
            return (f(Uc)[..., None] * grad.reshape(grad.shape[:-1] + pad + (n,))
                    + chi.reshape(chi.shape + pad + (1,)) * df(Uc)
                    * inside.reshape(inside.shape[:-1] + pad + (n,)))
        return g

    return {"G": wrap_value(system.G, 2), "B": wrap_value(system.B, 1),
            "Q": wrap_value(system.Q, 1),
            "DG": wrap_jacobian(system.G, system.DG, 2),
            "DB": wrap_jacobian(system.B, system.DB, 1),
            "DQ": wrap_jacobian(system.Q, system.DQ, 1)}


@pytest.mark.parametrize("name", ["burgers", "elastodynamics-1d",
                                  "euler-incompressible-2d",
                                  "mhd-incompressible-1d"])
def test_extension_is_bitwise_the_broadcasting_one(name, rng):
    system, delta = make_builtin(name), 0.25
    n = system.n
    # component 0 in [1, 2] keeps the elastodynamics strain positive
    lower = np.array([1.0] + [-1.0] * (n - 1))
    upper = np.array([2.0] + [1.0] * (n - 1))
    box = (lower, upper)
    # each component independently inside the delta box, in the
    # delta..2*delta shell or beyond 2*delta, below or above the box
    zone = rng.integers(0, 3, size=(6, 9, n))
    depth = delta * np.choose(zone, [rng.uniform(-3.0, 1.0, zone.shape),
                                     rng.uniform(1.0, 2.0, zone.shape),
                                     rng.uniform(2.0, 4.0, zone.shape)])
    side = rng.integers(0, 2, size=zone.shape).astype(bool)
    U = np.where(side, upper + depth, lower - depth)
    U[0, 0] = 0.5 * (lower + upper)
    ext = extend_to_compact_range(system, box, delta)
    old = _old_extension(system, box, delta)
    for states in (U, U[2, 3]):
        for key, reference in old.items():
            got, want = getattr(ext, key)(states), reference(states)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), key


def test_extension_of_box_domain_checks_both_faces():
    system = make_builtin("euler-compressible-1d", {"rho_min": 0.5})
    assert system.domain == StateDomain.box([0.5, -np.inf], [np.inf, np.inf])
    with pytest.raises(GeometryError, match="component 0"):
        extend_to_compact_range(system, ([0.7, -1.0], [2.0, 1.0]), 0.2)
    ext = extend_to_compact_range(system, ([1.0, -1.0], [2.0, 1.0]), 0.2)
    assert ext.domain == StateDomain.all_space()
