"""Conservation-law systems with companion laws.

A system is a space-time divergence form div_X G(U) = 0 for a state field
U with values in an open domain O of R^n, where G maps states to n x (k+1)
flux matrices and column 0 is the temporal flux.  A companion law is a
scalar conservation law div_X Q(U) = 0 that every classical solution
inherits; it exists exactly when a row-vector multiplier B satisfies the
per-column identity

    D_U Q_j(U) = B(U) . D_U G_j(U)      for j = 0, ..., k.

This module provides the system container, a numerical checker for the
identity, the built-in catalogue (Burgers, compressible Euler in velocity
and momentum variables, 1-d elastodynamics, incompressible Euler in 2-d,
and a 1-d incompressible MHD reduction), and the compact-range extension
that replaces a system by a globally defined, globally bounded one agreeing
with the original near a prescribed range box.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from ._bumps import smoothstep_pair
from .errors import (DomainViolationError, GeometryError, ParameterError,
                     _integer, _real, _reals)

Evaluator = Callable[[np.ndarray], np.ndarray]

# finite-difference step of check_compatibility, the CLI and residual_R's DB
FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# state domains


@dataclass(frozen=True)
class StateDomain:
    """Open set of admissible states with a pure membership test.

    Either the open box lower < U < upper, whose bounds may be infinite
    and broadcast over components (all_space() is (-inf,) / (inf,)), or
    the set where predicate holds.
    """

    lower: Optional[tuple] = None
    upper: Optional[tuple] = None
    predicate: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @staticmethod
    def all_space() -> "StateDomain":
        return StateDomain.box([-np.inf], [np.inf])

    @staticmethod
    def box(lower, upper) -> "StateDomain":
        lower = tuple(float(v) for v in lower)
        upper = tuple(float(v) for v in upper)
        if len(lower) != len(upper):
            raise ParameterError("box bounds must have equal length")
        for i, (lo, hi) in enumerate(zip(lower, upper)):
            if not lo < hi:
                raise ParameterError(f"box bound {i} empty: [{lo}, {hi}]")
        return StateDomain(lower=lower, upper=upper)

    @staticmethod
    def from_predicate(predicate) -> "StateDomain":
        return StateDomain(predicate=predicate)

    def contains(self, U: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Vectorized membership of states shaped (..., n).

        With margin > 0 the test is for distance > margin from the
        boundary along each coordinate (boxes only; for predicate domains
        the margin is ignored beyond plain membership).  Only finite box
        bounds are compared, so all of state space costs no comparison.
        """
        U = np.asarray(U, dtype=float)
        if self.predicate is not None:
            out = np.asarray(self.predicate(U))
            if out.shape != U.shape[:-1]:
                raise ParameterError(
                    "domain predicate must map (..., n) states to (...) booleans")
            return out
        lo = np.broadcast_to(self.lower, U.shape[-1:])
        hi = np.broadcast_to(self.upper, U.shape[-1:])
        ok = np.ones(U.shape[:-1], dtype=bool)
        for i in np.flatnonzero(np.isfinite(lo)):
            ok &= U[..., i] > lo[i] + margin
        for i in np.flatnonzero(np.isfinite(hi)):
            ok &= U[..., i] < hi[i] - margin
        return ok


def require_in_domain(domain: StateDomain, U: np.ndarray, what: str,
                      margin: float = 0.0) -> None:
    """Raise DomainViolationError naming the first offending state."""
    ok = domain.contains(U, margin=margin)
    if bool(np.all(ok)):
        return
    first = tuple(int(i) for i in np.argwhere(~ok)[0])
    state = np.asarray(U, dtype=float)[first]
    raise DomainViolationError(
        f"{what}: state {np.array2string(state, precision=6)} at index {first} "
        f"is outside the admissible domain"
        + (f" (margin {margin:g})" if margin else ""))


# ---------------------------------------------------------------------------
# system container


@dataclass(frozen=True)
class SystemSpec:
    """A conservation-law system together with its companion-law data.

    Evaluators are pure, vectorized over leading axes: G maps (..., n) to
    (..., n, k+1), B to (..., n), Q to (..., k+1).  Optional Jacobians:
    DG maps to (..., n, k+1, n), DB to (..., n, n), DQ to (..., k+1, n),
    each indexed [..., output..., state-component].  When a Jacobian is
    absent, consumers fall back to central finite differences.

    affine_columns (affine_rows) lists flux columns j (rows i) whose
    entries are affine functions of the state; mollification commutes with
    those entries exactly, which downstream code exploits.  Both state
    global facts: they hold at every state.

    extension_of is set by extend_to_compact_range alone: the pair (base,
    interior) of the system it extends and the predicate on state arrays
    under which the two evaluate alike.  The commutator sweep leaves out
    the base's affine entries, and calls the base's G, B and DB, wherever
    that predicate holds (see commutator); replace() carries the pair
    over, so a copy whose G, B or DB is swapped for one that differs must
    drop it.
    """

    name: str
    n: int
    k: int
    domain: StateDomain
    G: Evaluator
    B: Evaluator
    Q: Evaluator
    DG: Optional[Evaluator] = None
    DB: Optional[Evaluator] = None
    DQ: Optional[Evaluator] = None
    affine_columns: frozenset = frozenset()
    affine_rows: frozenset = frozenset()
    extension_of: Optional[tuple] = field(default=None, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ParameterError("state and space dimensions must be >= 1")
        for j in self.affine_columns:
            if not 0 <= j <= self.k:
                raise ParameterError(f"affine column index {j} out of range")
        for i in self.affine_rows:
            if not 0 <= i <= self.n - 1:
                raise ParameterError(f"affine row index {i} out of range")


def require_states(system: SystemSpec, field, what: str) -> None:
    """Raise ParameterError unless a field lives on a lattice of system.k
    space dimensions and holds system.n state components per node, then
    check its states against the system's domain."""
    if field.lattice.k != system.k:
        raise ParameterError(
            f"{what} lives on a lattice of k = {field.lattice.k} space "
            f"dimensions, but {system.name!r} has k = {system.k}")
    if field.value_shape != (system.n,):
        raise ParameterError(
            f"{what} has values of shape {field.value_shape} per node, but "
            f"{system.name!r} has {system.n} state components")
    require_in_domain(system.domain, field.nodes, what)


def jump_states(system: SystemSpec, U_left, U_right, what: str) -> list:
    """U_left and U_right as flat state vectors; raise unless both have
    system.n components, they differ, and both lie in the domain."""
    states = [_reals(U, f"{what} {side}").reshape(-1)
              for U, side in ((U_left, "U_left"), (U_right, "U_right"))]
    if any(U.shape != (system.n,) for U in states):
        raise ParameterError(f"states must have shape ({system.n},)")
    if np.array_equal(*states):
        raise ParameterError("U_left equals U_right: no jump")
    for U, side in zip(states, ("U_left", "U_right")):
        require_in_domain(system.domain, U[None, :], f"{what} {side}")
    return states


def fd_jacobian(f: Evaluator, U: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference Jacobian of a vectorized evaluator.

    Steps are scaled per sample by (1 + max|U_i|) to balance truncation
    against rounding for states of any magnitude.  Output shape is
    f(U).shape + (n,).
    """
    U = np.asarray(U, dtype=float)
    n = U.shape[-1]
    h = step * (1.0 + np.max(np.abs(U), axis=-1))
    base_shape = f(U).shape
    out = np.empty(base_shape + (n,))
    for m in range(n):
        Up = U.copy()
        Um = U.copy()
        Up[..., m] += h
        Um[..., m] -= h
        diff = f(Up) - f(Um)
        denom = (2.0 * h).reshape(h.shape + (1,) * (len(base_shape) - h.ndim))
        out[..., m] = diff / denom
    return out


# ---------------------------------------------------------------------------
# compatibility check


@dataclass(frozen=True)
class CompatibilityReport:
    """Result of sampling the companion-law identity D_U Q_j = B . D_U G_j."""

    max_residual: float
    worst_state: np.ndarray
    worst_column: int
    samples: int
    method: str
    system_name: str = ""


def uniform_box_sampler(lower, upper):
    """Sampler drawing states uniformly from a box; use with check_compatibility."""
    lower = _reals(lower, "sampler lower bound")
    upper = _reals(upper, "sampler upper bound")
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ParameterError("sampler bounds must be two 1-d arrays of equal length")
    if not np.all(lower < upper):
        raise ParameterError("sampler box is empty")

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(lower, upper, size=(count, lower.size))

    return sample


def check_compatibility(system: SystemSpec, sampler, n_samples: int,
                        fd_step: float = FD_STEP, *, rng=0,
                        method: str = "auto") -> CompatibilityReport:
    """Sample the identity D_U Q_j = B . D_U G_j over random interior states.

    The sampler is called as sampler(rng, n_samples) and must return states
    strictly inside the system domain at distance > fd_step (finite
    differences step outside otherwise).  method is "auto" (analytic
    Jacobians when the system supplies them), "analytic", or
    "finite-difference".  A residual that is not finite (an overflowing
    fd_step, say) raises ParameterError.
    """
    n_samples = _integer(n_samples, "n_samples", 1)
    if fd_step <= 0:
        raise ParameterError(f"fd_step must be positive, got {fd_step}")
    if method not in ("auto", "analytic", "finite-difference"):
        raise ParameterError(f"unknown method {method!r}")
    analytic = system.DG is not None and system.DQ is not None
    if method == "analytic" and not analytic:
        raise ParameterError(
            f"system {system.name!r} has no analytic Jacobians; "
            "use method='finite-difference'")
    if method == "auto":
        method = "analytic" if analytic else "finite-difference"

    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    U = np.asarray(sampler(rng, n_samples), dtype=float)
    if U.shape != (n_samples, system.n):
        raise ParameterError(
            f"sampler returned shape {U.shape}, expected {(n_samples, system.n)}")
    margin = fd_step if method == "finite-difference" else 0.0
    require_in_domain(system.domain, U, "check_compatibility sample", margin=margin)

    if method == "analytic":
        DG = system.DG(U)
        DQ = system.DQ(U)
    else:   # an overflowing step is reported below as a non-finite residual
        with np.errstate(over="ignore", invalid="ignore"):
            DG = fd_jacobian(system.G, U, fd_step)
            DQ = fd_jacobian(system.Q, U, fd_step)
    B = system.B(U)
    # residual[s, j, m] = DQ[s, j, m] - sum_i B[s, i] DG[s, i, j, m]
    resid = DQ - np.einsum("si,sijm->sjm", B, DG)
    bad = np.argwhere(~np.isfinite(resid))
    if len(bad):    # a NaN compares false with every tolerance
        s, j, _ = bad[0]
        step = f" with fd_step {fd_step!r}" \
            if method == "finite-difference" else ""
        raise ParameterError(
            f"compatibility residual of {system.name!r} is not finite at "
            f"state {U[s].tolist()}, column {j}{step}")
    worst = np.unravel_index(int(np.argmax(np.abs(resid))), resid.shape)
    return CompatibilityReport(
        max_residual=float(np.max(np.abs(resid))),
        worst_state=U[worst[0]].copy(),
        worst_column=int(worst[1]),
        samples=n_samples,
        method=method,
        system_name=system.name,
    )


# ---------------------------------------------------------------------------
# constitutive catalogues


@dataclass(frozen=True)
class PressureLaw:
    """Barotropic pressure p(rho) with the normalized primitive P.

    P solves P'(rho) = p(rho)/rho^2 with P(1) = 0; the pair (p, P) is what
    the Euler companion laws are built from.
    """

    p: Callable
    dp: Callable
    P: Callable
    dP: Callable
    d2P: Callable


def _law_params(spec, what: str, catalogue: str) -> dict:
    """Copy of a constitutive-law mapping, its catalogue name checked."""
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise ParameterError(f"{what} must be a mapping, got {spec!r}")
    spec = dict(spec)
    name = spec.pop("name", catalogue)
    if name != catalogue:
        raise ParameterError(
            f"unknown {what} {name!r}; catalogue: [{catalogue!r}]")
    return spec


def _number(params: dict, key: str, default: float, what: str) -> float:
    """Pop params[key] as a float, naming the parameter if it is not one."""
    value = params.pop(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParameterError(
            f"{what} parameter {key!r} must be a number, got {value!r}") \
            from None


def make_pressure_law(spec: Optional[dict]) -> PressureLaw:
    spec = _law_params(spec, "pressure law", "polytropic")
    kappa = _number(spec, "kappa", 1.0, "pressure-law")
    gamma = _number(spec, "gamma", 2.0, "pressure-law")
    if spec:
        raise ParameterError(f"unknown pressure-law parameters: {sorted(spec)}")
    if kappa <= 0:
        raise ParameterError(f"pressure-law kappa must be positive, got {kappa}")
    if gamma <= 0:
        raise ParameterError(f"pressure-law gamma must be positive, got {gamma}")

    def p(rho):
        return kappa * rho ** gamma

    def dp(rho):
        return kappa * gamma * rho ** (gamma - 1.0)

    if abs(gamma - 1.0) < 1e-12:
        def P(rho):
            return kappa * np.log(rho)
    else:
        def P(rho):
            return kappa * (rho ** (gamma - 1.0) - 1.0) / (gamma - 1.0)

    def dP(rho):
        return kappa * rho ** (gamma - 2.0)

    def d2P(rho):
        return kappa * (gamma - 2.0) * rho ** (gamma - 3.0)

    return PressureLaw(p=p, dp=dp, P=P, dP=dP, d2P=d2P)


@dataclass(frozen=True)
class StoredEnergy:
    """Hyperelastic stored energy W(w) with derivatives up to second order."""

    W: Callable
    dW: Callable
    d2W: Callable


def make_stored_energy(spec: Optional[dict]) -> StoredEnergy:
    spec = _law_params(spec, "stored energy", "power")
    amplitude = _number(spec, "amplitude", 1.0, "stored-energy")
    exponent = _number(spec, "exponent", 4.0, "stored-energy")
    if spec:
        raise ParameterError(f"unknown stored-energy parameters: {sorted(spec)}")
    if amplitude <= 0:
        raise ParameterError(f"stored-energy amplitude must be positive, got {amplitude}")
    if exponent < 3:
        raise ParameterError(
            f"stored-energy exponent must be >= 3 for a C^3 law on w > 0, got {exponent}")

    m = exponent

    def W(w):
        return amplitude * w ** m / m

    def dW(w):
        return amplitude * w ** (m - 1.0)

    def d2W(w):
        return amplitude * (m - 1.0) * w ** (m - 2.0)

    return StoredEnergy(W=W, dW=dW, d2W=d2W)


# ---------------------------------------------------------------------------
# built-in systems

def _density_domain(params: dict, n: int, what: str) -> StateDomain:
    # rho_min < 0 would let the admissible range touch rho = 0 where the
    # companion data is singular; rho_min = 0 keeps the open half space.
    rho_min = _number(params, "rho_min", 0.0, f"{what} range")
    if rho_min < 0:
        raise ParameterError(
            f"{what}: density range [{rho_min}, inf) includes 0 where the "
            "multiplier is singular; rho_min must be >= 0")
    return StateDomain.box([rho_min] + [-np.inf] * (n - 1), [np.inf] * n)


def _make_burgers(_params: dict) -> SystemSpec:
    def G(U):
        u = U[..., 0]
        out = np.empty(U.shape[:-1] + (1, 2))
        out[..., 0, 0] = u
        np.multiply(0.5, u, out=out[..., 0, 1])
        out[..., 0, 1] *= u
        return out

    def DG(U):
        u = U[..., 0]
        out = np.empty(U.shape[:-1] + (1, 2, 1))
        out[..., 0, 0, 0] = 1.0
        out[..., 0, 1, 0] = u
        return out

    def B(U):
        return U.copy()

    def DB(U):
        return np.ones(U.shape[:-1] + (1, 1))

    def Q(U):
        u = U[..., 0]
        return np.stack([0.5 * u * u, u ** 3 / 3.0], axis=-1)

    def DQ(U):
        u = U[..., 0]
        out = np.empty(U.shape[:-1] + (2, 1))
        out[..., 0, 0] = u
        out[..., 1, 0] = u * u
        return out

    return SystemSpec(name="burgers", n=1, k=1, domain=StateDomain.all_space(),
                      G=G, B=B, Q=Q, DG=DG, DB=DB, DQ=DQ,
                      affine_columns=frozenset({0}))


def _make_euler_velocity(params: dict) -> SystemSpec:
    law = make_pressure_law(params.pop("pressure", None))
    domain = _density_domain(params, 2, "density")
    p, dp, P, dP, d2P = law.p, law.dp, law.P, law.dP, law.d2P

    # states (rho, u); the enthalpy-like quantity P + rho P' carries the
    # pressure into the velocity equation.
    def G(U):
        rho, u = U[..., 0], U[..., 1]
        out = np.empty(U.shape[:-1] + (2, 2))
        out[..., 0, 0] = rho
        out[..., 0, 1] = rho * u
        out[..., 1, 0] = u
        out[..., 1, 1] = 0.5 * u * u + P(rho) + rho * dP(rho)
        return out

    def DG(U):
        rho, u = U[..., 0], U[..., 1]
        out = np.zeros(U.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = 1.0
        out[..., 0, 1, 0] = u
        out[..., 0, 1, 1] = rho
        out[..., 1, 0, 1] = 1.0
        out[..., 1, 1, 0] = 2.0 * dP(rho) + rho * d2P(rho)
        out[..., 1, 1, 1] = u
        return out

    def B(U):
        rho, u = U[..., 0], U[..., 1]
        return np.stack([0.5 * u * u + P(rho) + rho * dP(rho), rho * u], axis=-1)

    def DB(U):
        rho, u = U[..., 0], U[..., 1]
        out = np.empty(U.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 * dP(rho) + rho * d2P(rho)
        out[..., 0, 1] = u
        out[..., 1, 0] = u
        out[..., 1, 1] = rho
        return out

    def Q(U):
        rho, u = U[..., 0], U[..., 1]
        e = 0.5 * rho * u * u + rho * P(rho)
        return np.stack([e, (e + p(rho)) * u], axis=-1)

    def DQ(U):
        rho, u = U[..., 0], U[..., 1]
        out = np.empty(U.shape[:-1] + (2, 2))
        out[..., 0, 0] = 0.5 * u * u + P(rho) + rho * dP(rho)
        out[..., 0, 1] = rho * u
        out[..., 1, 0] = (0.5 * u * u + P(rho) + rho * dP(rho) + dp(rho)) * u
        out[..., 1, 1] = 1.5 * rho * u * u + rho * P(rho) + p(rho)
        return out

    return SystemSpec(name="euler-compressible-1d", n=2, k=1, domain=domain,
                      G=G, B=B, Q=Q, DG=DG, DB=DB, DQ=DQ,
                      affine_columns=frozenset({0}))


def _make_euler_m_form(params: dict) -> SystemSpec:
    law = make_pressure_law(params.pop("pressure", None))
    domain = _density_domain(params, 2, "density")
    p, dp, P, dP, d2P = law.p, law.dp, law.P, law.dP, law.d2P

    # states (rho, m) with m the momentum density; the continuity row and
    # the whole temporal column are affine.
    def G(U):
        rho, m = U[..., 0], U[..., 1]
        out = np.empty(U.shape[:-1] + (2, 2))
        out[..., 0, 0] = rho
        out[..., 0, 1] = m
        out[..., 1, 0] = m
        out[..., 1, 1] = m * m / rho + p(rho)
        return out

    def DG(U):
        rho, m = U[..., 0], U[..., 1]
        out = np.zeros(U.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = 1.0
        out[..., 0, 1, 1] = 1.0
        out[..., 1, 0, 1] = 1.0
        out[..., 1, 1, 0] = -(m / rho) ** 2 + dp(rho)
        out[..., 1, 1, 1] = 2.0 * m / rho
        return out

    def B(U):
        rho, m = U[..., 0], U[..., 1]
        return np.stack(
            [P(rho) + rho * dP(rho) - 0.5 * (m / rho) ** 2, m / rho], axis=-1)

    def DB(U):
        rho, m = U[..., 0], U[..., 1]
        out = np.empty(U.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 * dP(rho) + rho * d2P(rho) + m * m / rho ** 3
        out[..., 0, 1] = -m / rho ** 2
        out[..., 1, 0] = -m / rho ** 2
        out[..., 1, 1] = 1.0 / rho
        return out

    def Q(U):
        rho, m = U[..., 0], U[..., 1]
        e = 0.5 * m * m / rho + rho * P(rho)
        return np.stack([e, (e + p(rho)) * m / rho], axis=-1)

    def DQ(U):
        rho, m = U[..., 0], U[..., 1]
        out = np.empty(U.shape[:-1] + (2, 2))
        out[..., 0, 0] = -0.5 * (m / rho) ** 2 + P(rho) + rho * dP(rho)
        out[..., 0, 1] = m / rho
        out[..., 1, 0] = (-m ** 3 / rho ** 3 + m * dP(rho)
                          + m * dp(rho) / rho - m * p(rho) / rho ** 2)
        out[..., 1, 1] = 1.5 * (m / rho) ** 2 + P(rho) + p(rho) / rho
        return out

    return SystemSpec(name="euler-compressible-m-form-1d", n=2, k=1,
                      domain=domain, G=G, B=B, Q=Q, DG=DG, DB=DB, DQ=DQ,
                      affine_columns=frozenset({0}),
                      affine_rows=frozenset({0}))


def _make_elastodynamics(params: dict) -> SystemSpec:
    energy = make_stored_energy(params.pop("stored_energy", None))
    w_min = _number(params, "w_min", 0.0, "elastodynamics-1d")
    if w_min < 0:
        raise ParameterError(
            f"elastodynamics-1d strain range [{w_min}, inf) includes 0; "
            "w_min must be >= 0")
    # The physically meaningful strain domain (orientation-preserving
    # deformations) is not convex in general; the half line stands in for
    # it, and the extension path must be used whenever mollified states
    # could leave the range of the data.
    domain = StateDomain.box([w_min, -np.inf], [np.inf, np.inf])
    dW, d2W, Wfn = energy.dW, energy.d2W, energy.W

    # states (w, v): strain and velocity; the kinematic row w_t = v_x is affine.
    def G(U):
        w, v = U[..., 0], U[..., 1]
        out = np.empty(U.shape[:-1] + (2, 2))
        out[..., 0, 0] = w
        out[..., 0, 1] = -v
        out[..., 1, 0] = v
        out[..., 1, 1] = -dW(w)
        return out

    def DG(U):
        w = U[..., 0]
        out = np.zeros(U.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = 1.0
        out[..., 0, 1, 1] = -1.0
        out[..., 1, 0, 1] = 1.0
        out[..., 1, 1, 0] = -d2W(w)
        return out

    def B(U):
        w, v = U[..., 0], U[..., 1]
        return np.stack([dW(w), v], axis=-1)

    def DB(U):
        w = U[..., 0]
        out = np.zeros(U.shape[:-1] + (2, 2))
        out[..., 0, 0] = d2W(w)
        out[..., 1, 1] = 1.0
        return out

    def Q(U):
        w, v = U[..., 0], U[..., 1]
        return np.stack([0.5 * v * v + Wfn(w), -dW(w) * v], axis=-1)

    def DQ(U):
        w, v = U[..., 0], U[..., 1]
        out = np.empty(U.shape[:-1] + (2, 2))
        out[..., 0, 0] = dW(w)
        out[..., 0, 1] = v
        out[..., 1, 0] = -d2W(w) * v
        out[..., 1, 1] = -dW(w)
        return out

    return SystemSpec(name="elastodynamics-1d", n=2, k=1, domain=domain,
                      G=G, B=B, Q=Q, DG=DG, DB=DB, DQ=DQ,
                      affine_columns=frozenset({0}),
                      affine_rows=frozenset({0}))


def _make_euler_incompressible_2d(_params: dict) -> SystemSpec:
    # states (p, u1, u2); the divergence constraint occupies row 0 and has
    # no temporal flux, so the system is not hyperbolic and p acts as a
    # multiplier state.
    def G(U):
        p, u1, u2 = U[..., 0], U[..., 1], U[..., 2]
        out = np.empty(U.shape[:-1] + (3, 3))
        out[..., 0, 0] = 0.0
        out[..., 0, 1] = u1
        out[..., 0, 2] = u2
        out[..., 1, 0] = u1
        out[..., 1, 1] = u1 * u1 + p
        out[..., 1, 2] = u1 * u2
        out[..., 2, 0] = u2
        out[..., 2, 1] = u2 * u1
        out[..., 2, 2] = u2 * u2 + p
        return out

    def DG(U):
        u1, u2 = U[..., 1], U[..., 2]
        out = np.zeros(U.shape[:-1] + (3, 3, 3))
        out[..., 0, 1, 1] = 1.0
        out[..., 0, 2, 2] = 1.0
        out[..., 1, 0, 1] = 1.0
        out[..., 1, 1, 0] = 1.0
        out[..., 1, 1, 1] = 2.0 * u1
        out[..., 1, 2, 1] = u2
        out[..., 1, 2, 2] = u1
        out[..., 2, 0, 2] = 1.0
        out[..., 2, 1, 1] = u2
        out[..., 2, 1, 2] = u1
        out[..., 2, 2, 0] = 1.0
        out[..., 2, 2, 2] = 2.0 * u2
        return out

    def B(U):
        p, u1, u2 = U[..., 0], U[..., 1], U[..., 2]
        return np.stack([p - 0.5 * (u1 * u1 + u2 * u2), u1, u2], axis=-1)

    def DB(U):
        u1, u2 = U[..., 1], U[..., 2]
        out = np.zeros(U.shape[:-1] + (3, 3))
        out[..., 0, 0] = 1.0
        out[..., 0, 1] = -u1
        out[..., 0, 2] = -u2
        out[..., 1, 1] = 1.0
        out[..., 2, 2] = 1.0
        return out

    def Q(U):
        p, u1, u2 = U[..., 0], U[..., 1], U[..., 2]
        e = 0.5 * (u1 * u1 + u2 * u2)
        return np.stack([e, (e + p) * u1, (e + p) * u2], axis=-1)

    def DQ(U):
        p, u1, u2 = U[..., 0], U[..., 1], U[..., 2]
        e = 0.5 * (u1 * u1 + u2 * u2)
        out = np.zeros(U.shape[:-1] + (3, 3))
        out[..., 0, 1] = u1
        out[..., 0, 2] = u2
        out[..., 1, 0] = u1
        out[..., 1, 1] = e + p + u1 * u1
        out[..., 1, 2] = u2 * u1
        out[..., 2, 0] = u2
        out[..., 2, 1] = u1 * u2
        out[..., 2, 2] = e + p + u2 * u2
        return out

    return SystemSpec(name="euler-incompressible-2d", n=3, k=2,
                      domain=StateDomain.all_space(), G=G, B=B, Q=Q,
                      DG=DG, DB=DB, DQ=DQ,
                      affine_columns=frozenset({0}),
                      affine_rows=frozenset({0}))


def _make_mhd_incompressible_1d(_params: dict) -> SystemSpec:
    # 1-d reduction of incompressible ideal MHD: fields depend on (t, x1)
    # only.  States (p, q, u1, u2, h1, h2) where q is a spectator filling
    # the row freed by the magnetic divergence constraint; no flux entry
    # depends on q, which keeps the flux matrix square without affecting
    # the companion identity.
    def G(U):
        u1, u2 = U[..., 2], U[..., 3]
        h1, h2 = U[..., 4], U[..., 5]
        p = U[..., 0]
        out = np.zeros(U.shape[:-1] + (6, 2))
        out[..., 0, 1] = u1
        out[..., 1, 1] = h1
        out[..., 2, 0] = u1
        out[..., 2, 1] = u1 * u1 + p + 0.5 * (h2 * h2 - h1 * h1)
        out[..., 3, 0] = u2
        out[..., 3, 1] = u2 * u1 - h2 * h1
        out[..., 4, 0] = h1
        out[..., 5, 0] = h2
        out[..., 5, 1] = h2 * u1 - u2 * h1
        return out

    def DG(U):
        u1, u2 = U[..., 2], U[..., 3]
        h1, h2 = U[..., 4], U[..., 5]
        out = np.zeros(U.shape[:-1] + (6, 2, 6))
        out[..., 0, 1, 2] = 1.0
        out[..., 1, 1, 4] = 1.0
        out[..., 2, 0, 2] = 1.0
        out[..., 2, 1, 0] = 1.0
        out[..., 2, 1, 2] = 2.0 * u1
        out[..., 2, 1, 4] = -h1
        out[..., 2, 1, 5] = h2
        out[..., 3, 0, 3] = 1.0
        out[..., 3, 1, 2] = u2
        out[..., 3, 1, 3] = u1
        out[..., 3, 1, 4] = -h2
        out[..., 3, 1, 5] = -h1
        out[..., 4, 0, 4] = 1.0
        out[..., 5, 0, 5] = 1.0
        out[..., 5, 1, 2] = h2
        out[..., 5, 1, 3] = -h1
        out[..., 5, 1, 4] = -u2
        out[..., 5, 1, 5] = u1
        return out

    def B(U):
        p = U[..., 0]
        u1, u2 = U[..., 2], U[..., 3]
        h1, h2 = U[..., 4], U[..., 5]
        return np.stack([p - 0.5 * (u1 * u1 + u2 * u2),
                         u1 * h1 + u2 * h2, u1, u2, h1, h2], axis=-1)

    def DB(U):
        u1, u2 = U[..., 2], U[..., 3]
        h1, h2 = U[..., 4], U[..., 5]
        out = np.zeros(U.shape[:-1] + (6, 6))
        out[..., 0, 0] = 1.0
        out[..., 0, 2] = -u1
        out[..., 0, 3] = -u2
        out[..., 1, 2] = h1
        out[..., 1, 3] = h2
        out[..., 1, 4] = u1
        out[..., 1, 5] = u2
        for i in range(2, 6):
            out[..., i, i] = 1.0
        return out

    def Q(U):
        p = U[..., 0]
        u1, u2 = U[..., 2], U[..., 3]
        h1, h2 = U[..., 4], U[..., 5]
        eu = 0.5 * (u1 * u1 + u2 * u2)
        eh = 0.5 * (h1 * h1 + h2 * h2)
        flux = (eu + p + 2.0 * eh) * u1 - (u1 * h1 + u2 * h2) * h1
        return np.stack([eu + eh, flux], axis=-1)

    def DQ(U):
        p = U[..., 0]
        u1, u2 = U[..., 2], U[..., 3]
        h1, h2 = U[..., 4], U[..., 5]
        eu = 0.5 * (u1 * u1 + u2 * u2)
        out = np.zeros(U.shape[:-1] + (2, 6))
        out[..., 0, 2] = u1
        out[..., 0, 3] = u2
        out[..., 0, 4] = h1
        out[..., 0, 5] = h2
        out[..., 1, 0] = u1
        out[..., 1, 2] = eu + p + h1 * h1 + h2 * h2 + u1 * u1 - h1 * h1
        out[..., 1, 3] = u2 * u1 - h2 * h1
        out[..., 1, 4] = -u2 * h2
        out[..., 1, 5] = 2.0 * h2 * u1 - u2 * h1
        return out

    return SystemSpec(name="mhd-incompressible-1d", n=6, k=1,
                      domain=StateDomain.all_space(), G=G, B=B, Q=Q,
                      DG=DG, DB=DB, DQ=DQ,
                      affine_columns=frozenset({0}),
                      affine_rows=frozenset({0, 1, 4}))


@dataclass(frozen=True)
class Builtin:
    """One catalogue entry: the factory, the parameter keys it reads, and
    a sampling box (lower, upper) strictly inside the system's domain under
    the default laws, which check-companion samples when given no box."""

    factory: Callable[[dict], SystemSpec]
    keys: tuple
    box: tuple


BUILTIN_CATALOGUE = {
    "burgers": Builtin(_make_burgers, (), ((-2.0,), (2.0,))),
    "euler-compressible-1d": Builtin(
        _make_euler_velocity, ("pressure", "rho_min"),
        ((0.3, -2.0), (2.0, 2.0))),
    "euler-compressible-m-form-1d": Builtin(
        _make_euler_m_form, ("pressure", "rho_min"),
        ((0.3, -2.0), (2.0, 2.0))),
    "elastodynamics-1d": Builtin(
        _make_elastodynamics, ("stored_energy", "w_min"),
        ((0.3, -2.0), (2.0, 2.0))),
    "euler-incompressible-2d": Builtin(
        _make_euler_incompressible_2d, (), ((-2.0,) * 3, (2.0,) * 3)),
    "mhd-incompressible-1d": Builtin(
        _make_mhd_incompressible_1d, (), ((-2.0,) * 6, (2.0,) * 6)),
}
BUILTIN_NAMES = tuple(BUILTIN_CATALOGUE)


def make_builtin(name: str, params: Optional[dict] = None) -> SystemSpec:
    """Construct one of the built-in systems by name.

    params selects constitutive laws from fixed catalogues (pressure law
    for the Euler forms, stored energy for elastodynamics) plus optional
    range restrictions; a key the system's catalogue entry does not list
    is rejected before any value is read.
    """
    if name not in BUILTIN_CATALOGUE:
        raise ParameterError(
            f"unknown system {name!r}; available: {sorted(BUILTIN_CATALOGUE)}")
    if not isinstance(params or {}, Mapping):
        raise ParameterError(
            f"params of {name!r} must be a mapping, got {params!r}")
    params, entry = dict(params or {}), BUILTIN_CATALOGUE[name]
    unknown = sorted(key for key in params if key not in entry.keys)
    if unknown:
        raise ParameterError(
            f"{name} parameters: {', '.join(entry.keys)}; got {unknown}"
            if entry.keys else f"{name} takes no parameters, got {unknown}")
    return entry.factory(params)


# ---------------------------------------------------------------------------
# compact-range extension


def require_delta(delta: float) -> None:
    """Raise ParameterError unless the margin delta is positive and finite."""
    if not 0 < _real(delta, "delta") < np.inf:
        raise ParameterError(f"delta must be positive and finite, got {delta}")


def extend_to_compact_range(system: SystemSpec, range_box, delta: float) -> SystemSpec:
    """Replace a system by a globally defined one that agrees near a range box.

    range_box = (lower, upper) must satisfy: the 2*delta enlargement (in
    the per-component sense) lies inside the state domain.  The returned
    system multiplies each evaluator by a C-infinity cutoff that equals 1
    on the delta enlargement and 0 outside the 2*delta enlargement;
    arguments are clamped to the 2*delta box before the original
    evaluators are applied, so every evaluation is legal.  The returned
    domain is all of state space.  Its affine_columns and affine_rows are
    empty, because the cutoff destroys global affinity; its extension_of
    records the original system and the interior test below, and the
    commutator sweep alone reads it: on arguments that pass the test it
    calls the original system and leaves out its affine entries.

    The cutoff is a product of per-component factors, broadcast over the
    whole argument together with its gradient; DG, DB and DQ apply the
    product rule.  Every argument goes through the cutoff, which refuses
    NaN states with a ParameterError; +-inf states evaluate to 0.  On the
    delta enlargement the cutoff is exactly 1, its gradient exactly 0 and
    the clamp the identity, so the values there are the original
    evaluators' own, up to the sign of a zero Jacobian entry.
    """
    lower, upper = (np.asarray(b, dtype=float) for b in range_box)
    if lower.shape != (system.n,) or upper.shape != (system.n,):
        raise ParameterError(
            f"range_box bounds must have shape ({system.n},)")
    if not np.all(lower < upper):
        raise ParameterError("range_box is empty")
    require_delta(delta)

    lo2, hi2 = lower - 2.0 * delta, upper + 2.0 * delta
    _check_box_inside(system.domain, lo2, hi2)
    n = system.n

    def cutoff(U):
        """chi(U) in [0, 1], the product of per-component factors, and its
        gradient over the last axis; a NaN state has no cutoff and is
        refused."""
        nan = np.isnan(U).any(axis=-1)
        if nan.any():
            first = tuple(int(i) for i in np.argwhere(nan)[0])
            raise ParameterError(
                f"compact-range extension: state "
                f"{np.array2string(U[first], precision=6)} at index {first} "
                f"holds NaN")
        below = lower - U
        above = U - upper
        dist = np.maximum(np.maximum(below, above), 0.0)
        # s((d - delta)/delta): 0 until K^delta, 1 beyond K^{2 delta}
        step, dstep = smoothstep_pair((dist - delta) / delta)
        factors = 1.0 - step
        sign = np.where(below > 0, -1.0, np.where(above > 0, 1.0, 0.0))
        dfactors = -dstep / delta * sign
        # grad_m chi = dfactors_m * prod_{i != m} factors_i
        grad = np.stack([dfactors[..., m]
                         * np.prod(np.delete(factors, m, axis=-1), axis=-1)
                         for m in range(n)], axis=-1)
        return np.prod(factors, axis=-1), grad

    def interior(U):
        """Whether every state of U lies in the delta enlargement (and so
        in the 2*delta box), where every evaluator's values are the
        original's: the per-component extremes, compared as the cutoff
        compares each node; NaN fails."""
        for m in range(n):
            u = U[..., m]
            lo, hi = u.min(initial=np.inf), u.max(initial=-np.inf)
            if not (lower[m] - lo <= delta and hi - upper[m] <= delta
                    and lo2[m] <= lo and hi <= hi2[m]):
                return False
        return True

    def lift(a, U, rank, *tail):
        """a, shaped U.shape[:-1] + tail, with rank unit axes inserted
        before tail so that it broadcasts against an evaluator output."""
        return a.reshape(U.shape[:-1] + (1,) * rank + tail)

    def wrap_value(f):
        def g(U):
            U = np.asarray(U, dtype=float)
            chi, _ = cutoff(U)
            val = f(np.clip(U, lo2, hi2))
            return val * lift(chi, U, val.ndim - U.ndim + 1)
        return g

    def wrap_jacobian(f, df):
        def g(U):
            U = np.asarray(U, dtype=float)
            chi, grad = cutoff(U)
            Uc = np.clip(U, lo2, hi2)
            val = f(Uc)
            rank = val.ndim - U.ndim + 1
            inside = ((U >= lo2) & (U <= hi2)).astype(float)
            # product rule through the cutoff; the clamp is flat outside
            return (val[..., None] * lift(grad, U, rank, n)
                    + lift(chi, U, rank, 1) * df(Uc)
                    * lift(inside, U, rank, n))
        return g

    return replace(
        system,
        name=system.name + "-compact",
        domain=StateDomain.all_space(),
        G=wrap_value(system.G),
        B=wrap_value(system.B),
        Q=wrap_value(system.Q),
        DG=wrap_jacobian(system.G, system.DG) if system.DG else None,
        DB=wrap_jacobian(system.B, system.DB) if system.DB else None,
        DQ=wrap_jacobian(system.Q, system.DQ) if system.DQ else None,
        affine_columns=frozenset(),
        affine_rows=frozenset(),
        extension_of=(system, interior),
    )


def _check_box_inside(domain: StateDomain, lo2, hi2) -> None:
    n = lo2.size
    if domain.predicate is None:
        dlo = np.broadcast_to(domain.lower, (n,))
        dhi = np.broadcast_to(domain.upper, (n,))
        for i in range(n):
            if lo2[i] <= dlo[i]:
                raise GeometryError(
                    f"2*delta enlargement exits the domain at the lower face of "
                    f"component {i}: {lo2[i]:g} <= {dlo[i]:g}")
            if hi2[i] >= dhi[i]:
                raise GeometryError(
                    f"2*delta enlargement exits the domain at the upper face of "
                    f"component {i}: {hi2[i]:g} >= {dhi[i]:g}")
        return
    # predicate domains admit no exact geometric test; check the corners
    # and the center of the enlarged box.
    corners = np.array(np.meshgrid(*zip(lo2, hi2), indexing="ij"),
                       dtype=float).reshape(n, -1).T
    probes = np.vstack([corners, 0.5 * (lo2 + hi2)])
    ok = domain.contains(probes)
    if not bool(np.all(ok)):
        bad = probes[~ok][0]
        raise GeometryError(
            f"2*delta enlargement exits the predicate domain near state "
            f"{np.array2string(bad, precision=6)}")
