"""Property tests on random inputs: the Burgers shock rate against its
closed form, the field container round trip, and the exact zeros of
affine flux rows in the commutator; and a table of bad inputs to exported
functions, each of which must end in a ConslabError."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STATE_BOXES
from conslab import (ConslabError, DiscreteField, Lattice, TensorBump,
                     TravelingField, aitken_limit, build_dissipation_report,
                     check_compatibility, commutator_field, estimate_besov,
                     good_set_measure,
                     kernel_table, lacunary_profile, lemma_bound_audit,
                     load_field, make_builtin, make_kernel,
                     make_lacunary_field, make_shock_field, mollify,
                     rankine_hugoniot_speed, residual_R, save_field,
                     shift_difference_norm, shock_dissipation_rate,
                     uniform_box_sampler, verify_estimates,
                     weak_residual_system)
from conslab import test_function_from_config as build_test_function
from conslab.mollifier import axis_derivative
from conslab.rates import fit_loglog

SETTINGS = settings(max_examples=30, deadline=None)

speeds = st.floats(-4.0, 4.0, allow_subnormal=False)


@SETTINGS
@given(speeds, speeds)
def test_burgers_rate_is_the_cubic_jump(u_l, u_r):
    if abs(u_l - u_r) < 1e-3:
        return
    burgers = make_builtin("burgers")
    rate = shock_dissipation_rate(burgers, [u_l], [u_r])
    jump = u_l - u_r
    # the rate is a difference of cubes in the states: rounding scales
    # with them, not with the jump
    tol = 1e-14 * max(1.0, abs(u_l), abs(u_r)) ** 3
    assert rate == pytest.approx(-jump ** 3 / 12.0, rel=0.0, abs=tol)
    # compressive shocks (u_l > u_r) dissipate, expansion shocks produce
    assert math.copysign(1.0, rate) == -math.copysign(1.0, jump)
    swapped = shock_dissipation_rate(burgers, [u_r], [u_l])
    assert swapped == pytest.approx(-rate, rel=0.0, abs=tol)


@st.composite
def state_fields(draw):
    """A DiscreteField (k = 1 or 2, either time flag) or a TravelingField
    (k = 1) of random finite states, values of any magnitude."""
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-300, 300))
    if draw(st.booleans()):
        k = draw(st.integers(1, 2))
        lattice = Lattice(k=k, n_time=draw(st.integers(8, 12)),
                          n_space=draw(st.integers(8, 12)),
                          extent_time=draw(st.floats(0.1, 10.0)),
                          extent_space=draw(st.floats(0.1, 10.0)))
        return DiscreteField(lattice=lattice,
                             values=scale * rng.normal(
                                 size=lattice.shape + (n,)),
                             periodic_time=draw(st.booleans()))
    q = draw(st.integers(1, 3))
    p = draw(st.integers(-3 * q, 3 * q).filter(lambda p: math.gcd(p, q) == 1))
    n_space = draw(st.sampled_from([8, 12, 16]))
    period = q * n_space // math.gcd(p, q * n_space)
    lattice = Lattice(k=1, n_time=period * -(-8 // period), n_space=n_space,
                      extent_time=1.0, extent_space=1.0)
    return TravelingField(lattice=lattice, shift=p, rows=q,
                          profile=scale * rng.normal(size=(q * n_space, n)))


@SETTINGS
@given(state_fields())
def test_save_load_roundtrip_is_lossless(field):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.bin"
        save_field(field, path)
        back = load_field(path)
    assert isinstance(back, DiscreteField)
    assert back.lattice == field.lattice
    assert back.periodic_time == field.periodic_time
    assert back.values.shape == field.values.shape
    assert np.array_equal(back.values.view(np.int64),
                          field.values.view(np.int64))


AFFINE_ROW_SYSTEMS = ["euler-compressible-m-form-1d", "elastodynamics-1d",
                      "mhd-incompressible-1d"]


@SETTINGS
@given(st.sampled_from(AFFINE_ROW_SYSTEMS), st.integers(0, 2 ** 16),
       st.integers(16, 24), st.floats(1.0, 1.9))
def test_affine_rows_commute_exactly(name, seed, n_space, widen):
    # random states inside the system's box: the declared affine rows of
    # the commutator are exact zeros, and evaluating those entries instead
    # leaves only rounding, since mollification commutes with affine maps
    system = make_builtin(name)
    lower, upper = STATE_BOXES[name]
    lattice = Lattice(k=1, n_time=16, n_space=n_space, extent_time=1.0,
                      extent_space=1.0)
    rng = np.random.default_rng(seed)
    U = rng.uniform(lower, upper, size=lattice.shape + (len(lower),))
    field = DiscreteField(lattice=lattice, values=U)
    kernel = make_kernel(4.0 * lattice.h_time * widen, lattice)
    W = commutator_field(system, field, kernel)
    rows = sorted(system.affine_rows)
    assert rows and np.all(W.values[..., rows, :] == 0.0)
    G = system.G(U)
    smoothed = mollify(DiscreteField(
        lattice=lattice, values=G[..., rows, :].reshape(lattice.shape + (-1,))),
        kernel).values
    direct = system.G(mollify(field, kernel).values)[..., rows, :]
    scale = max(1.0, float(np.max(np.abs(G[..., rows, :]))))
    assert np.max(np.abs(direct.reshape(smoothed.shape) - smoothed)) \
        <= 1e-12 * scale


def _wave():
    return make_lacunary_field(0.6, 3, 0, 1.0, Lattice(
        k=1, n_time=16, n_space=64, extent_time=1.0, extent_space=1.0))


class _OffLattice:
    """A user test function whose psi is not over the lattice it is given."""

    def evaluate(self, lattice, periodic_time=True):
        return np.zeros((32, 64)), np.zeros((32, 64, 2))


def _residual_off_lattice():
    lattice = Lattice(k=1, n_time=64, n_space=64, extent_time=1.0,
                      extent_space=1.0)
    field = DiscreteField(lattice=lattice, values=np.zeros((64, 64, 1)))
    return residual_R(make_builtin("burgers"), field,
                      [make_kernel(0.125, lattice)], _OffLattice())


def _residual_with_kernels(kernels):
    return residual_R(make_builtin("burgers"), _wave(), kernels,
                      TensorBump(center=(0.5, 0.5), radius=(0.35, 0.35)))


# one row per exported function and bad argument; later exports join here
BAD_CALLS = {
    "shift-fractional-nodes": lambda: shift_difference_norm(
        _wave(), 1, 1.5, 3.0),
    "shift-nearly-two-nodes": lambda: shift_difference_norm(
        _wave(), 1, 1.9999, 3.0),
    "shift-axis-out-of-range": lambda: shift_difference_norm(
        _wave(), 5, 1, 3.0),
    "besov-fractional-shifts": lambda: estimate_besov(
        _wave(), 3.0, n_shifts=3.5),
    "besov-text-exponent": lambda: estimate_besov(_wave(), "a"),
    "compatibility-fractional-samples": lambda: check_compatibility(
        make_builtin("burgers"), uniform_box_sampler([-1.0], [1.0]), 2.5),
    "lacunary-fractional-octaves": lambda: lacunary_profile(
        0.6, 2.5, 0, 1.0, 1.0, np.linspace(0.0, 1.0, 8)),
    "lacunary-negative-seed": lambda: lacunary_profile(
        0.6, 2, -1, 1.0, 1.0, np.linspace(0.0, 1.0, 8)),
    "fit-shape-mismatch": lambda: fit_loglog(np.ones(3), np.ones(4)),
    "kernel-text-epsilon": lambda: make_kernel("a", _wave().lattice),
    "lattice-text-extent": lambda: Lattice(
        k=1, n_time=16, n_space=64, extent_time="a", extent_space=1.0),
    "lacunary-text-alpha": lambda: make_lacunary_field(
        "a", 3, 0, 1.0, _wave().lattice),
    "shock-text-speed": lambda: make_shock_field(
        make_builtin("burgers"), [1.0], [0.0], "a", _wave().lattice),
    "good-set-text-delta": lambda: good_set_measure(
        _wave(), make_kernel(0.25, _wave().lattice), "x"),
    "test-function-spec-not-a-mapping": lambda: build_test_function(3),
    "lacunary-profile-text-alpha": lambda: lacunary_profile(
        "a", 3, 0, 1.0, 1.0, np.linspace(0.0, 1.0, 8)),
    "builtin-params-not-a-mapping": lambda: make_builtin("burgers", 3),
    "rankine-hugoniot-text-state": lambda: rankine_hugoniot_speed(
        make_builtin("burgers"), "a", [0.0]),
    "dissipation-rate-text-state": lambda: shock_dissipation_rate(
        make_builtin("burgers"), "a", [0.0]),
    "sampler-text-bound": lambda: uniform_box_sampler("a", [1.0]),
    "aitken-text-values": lambda: aitken_limit(["a", "b", "c"]),
    "mollify-text-kernel": lambda: mollify(_wave(), "a"),
    "kernel-table-text-kernel": lambda: kernel_table("a"),
    "residual-psi-off-lattice": _residual_off_lattice,
    "residual-kernel-not-a-list": lambda: _residual_with_kernels(
        make_kernel(0.25, _wave().lattice)),
    "residual-text-kernels": lambda: _residual_with_kernels(["a"]),
    "lemma-text-kernels": lambda: lemma_bound_audit(
        make_builtin("burgers"), _wave(), ["a"], 3.0),
    "good-set-text-kernel": lambda: good_set_measure(_wave(), "a", 0.1),
    "commutator-field-text-kernel": lambda: commutator_field(
        make_builtin("burgers"), _wave(), "a"),
    "estimates-text-alpha": lambda: verify_estimates(
        _wave(), 3.0, [0.25, 0.3, 0.35, 0.4], "a"),
    "estimates-scalar-epsilons": lambda: verify_estimates(
        _wave(), 3.0, 0.25, 0.5),
    "derivative-axis-out-of-range": lambda: axis_derivative(_wave(), 5),
    "residual-text-test-function": lambda: residual_R(
        make_builtin("burgers"), _wave(), [make_kernel(0.25, _wave().lattice)],
        "tf"),
    "weak-residual-text-test-functions": lambda: weak_residual_system(
        make_builtin("burgers"), _wave(), "ab"),
    "dissipation-report-text-test-functions": lambda: build_dissipation_report(
        make_builtin("burgers"), _wave(), [1.0], [0.0], "ab"),
    "field-text-values": lambda: DiscreteField(
        lattice=_wave().lattice, values="abc"),
    "wave-text-profile": lambda: TravelingField(
        lattice=_wave().lattice, profile="abc", shift=1),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_a_conslab_error(call):
    # a ConslabError, never a raw TypeError, ValueError or IndexError
    with pytest.raises(ConslabError):
        call()
