"""Self-verification: the independent oracles and every library-level invariant.

This module is the one home of what checks the production routes: the
classical fixed-step RK4 integrator of the Lyapunov equation (an oracle for
dynamics.propagate_lti and the analytic covariance, never on a command-line
data path), the random-state fixtures, and the checks of the suite. Each
check pins a tolerance and reports its worst measured residual and the
seconds it took; the suite uses fixed seeds, so repeated runs print identical
reports apart from those timings. The acceptance tests call these checks
rather than restating them, some with more samples. The heavier full-system
checks run on shortened horizons or sweeps by default to keep the suite
within seconds; the acceptance tests pass the full-length arguments.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .chain import ChainParams, EffectiveModel, classify_regime, effective_coupling, energy_shift
from .chain import reduce as reduce_chain
from .config import RunConfig, SweepAxis
from .dynamics import (
    DriftDiffusion,
    analytic_effective_cm,
    build_effective_drift_diffusion,
    characteristic_time,
    effective_resources,
    propagate_lti,
    squeeze_variances,
    steady_state,
)
from .gaussian import (
    CovarianceMatrix,
    Regime,
    gaussian_steering,
    local_phase_rotate,
    log_negativity,
    monogamy_residuals,
    partial_transpose,
    symplectic_eigenvalues,
    two_mode_resources,
)
from .stationary import (
    SteeringRegion,
    boundary_limits,
    stationary_entanglement,
    stationary_steering,
    steering_region,
)
from .sweep import Table, parse_csv, render, run_compare, run_region
from .systems import (
    COMM_FIG4,
    EOM_FIG3,
    CommParams,
    EomParams,
    chain_full_drift_diffusion,
    comm_to_chain,
    eom_full_drift_diffusion,
    eom_to_chain,
)

SEED = 20250613
STEPS_PER_PERIOD = 200
STEERING_FLOOR = 0.05


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name}: worst={self.worst:.3e} tol={self.tolerance:.1e}"
        if self.detail:
            text += f" ({self.detail})"
        return f"{text} [{self.seconds:.2f} s]"


def two_mode_squeeze_symplectic(r: float) -> np.ndarray:
    """Symplectic two-mode squeezer: correlates (X_a, X_c) and anti-correlates (Y_a, Y_c)."""
    ch, sh = np.cosh(r), np.sinh(r)
    return np.array(
        [
            [ch, 0.0, sh, 0.0],
            [0.0, ch, 0.0, -sh],
            [sh, 0.0, ch, 0.0],
            [0.0, -sh, 0.0, ch],
        ]
    )


def random_physical_cm(rng: np.random.Generator) -> tuple[CovarianceMatrix, np.ndarray]:
    """Random physical two-mode state with a known symplectic spectrum.

    Built as local rotations and a two-mode squeezer acting on a thermal
    state, so the spectrum is the thermal occupations by construction.
    """
    nu = np.sort(0.5 + rng.uniform(0.0, 2.0, size=2))
    v = np.diag([nu[0], nu[0], nu[1], nu[1]])
    s = two_mode_squeeze_symplectic(rng.uniform(0.0, 1.2))
    v = s @ v @ s.T
    state = CovarianceMatrix(v)
    for mode in (0, 1):
        state = local_phase_rotate(state, mode, rng.uniform(0.0, 2.0 * np.pi))
    return state, nu


def auto_step(a: np.ndarray) -> float:
    """RK4 step with STEPS_PER_PERIOD points per period of A's fastest rotation.

    The rate is the spectral radius floored at 1 (the reference frequency), so
    slow effective models are not over-resolved.
    """
    radius = float(np.max(np.abs(np.linalg.eigvals(np.asarray(a, dtype=float)))))
    return 2.0 * math.pi / (STEPS_PER_PERIOD * max(radius, 1.0))


def _lyapunov_rhs(a, d, x):
    k = a @ x
    return k + k.T + d


def _rk4_step(a, d, v, h):
    """One classical RK4 step of dv/dt = A v + v A^T + D."""
    k1 = _lyapunov_rhs(a, d, v)
    k2 = _lyapunov_rhs(a, d, v + 0.5 * h * k1)
    k3 = _lyapunov_rhs(a, d, v + 0.5 * h * k2)
    k4 = _lyapunov_rhs(a, d, v + h * k3)
    v = v + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return (v + v.T) / 2.0


def lyapunov_rk4(dd: DriftDiffusion, v0: CovarianceMatrix, grid: np.ndarray,
                 h: float | None = None) -> list[CovarianceMatrix]:
    """RK4 oracle: the states on a strictly ascending grid, v0 being the one at grid[0].

    On a grid from t = 0 it returns what propagate_lti(dd, v0, grid) does, up
    to its O(h^4) error: between grid points it substeps uniformly at (at
    most) h, by default auto_step(A), symmetrizing every substep. Past double
    range (deep unsteady regime) the list ends at the last finite state, so
    it is shorter than the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("grid must be a non-empty 1-d array of times")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly ascending")
    if v0.modes != dd.modes:
        raise ValueError("initial state and drift matrix disagree on mode count")
    h_target = float(h) if h is not None else auto_step(dd.a)
    if h_target <= 0:
        raise ValueError("step size must be positive")
    v = v0.data.copy()
    states = [CovarianceMatrix(v)]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends the list
        for t_prev, t_next in zip(grid[:-1], grid[1:]):
            span = float(t_next - t_prev)
            n_sub = max(1, math.ceil(span / h_target))
            h_sub = span / n_sub
            for _ in range(n_sub):
                v = _rk4_step(dd.a, dd.d, v, h_sub)
            if not np.all(np.isfinite(v)):
                break
            states.append(CovarianceMatrix(v))
    return states


def effective_parameter_sets() -> list[EffectiveModel]:
    """Parameter sets spanning both regimes with moderate covariance growth."""
    return [EffectiveModel(float(np.sqrt(ratio * ka * kc)), ka, kc)
            for ka, kc in ((1.0, 1.0), (0.5, 1.0), (1.0, 0.4), (0.7, 1.3))
            for ratio in (0.1, 0.5, 0.9, 1.5, 3.0, 4.0)]


def check_symplectic_oracle(n_samples: int = 1000) -> CheckResult:
    """General eigenvalue route vs the two-mode determinant closed forms.

    The symplectic spectrum is checked against the construction, and the
    entanglement and both raw steerings of the general route against one
    two_mode_resources call on the whole stack of states.
    """
    rng = np.random.default_rng(SEED)
    worst = 0.0
    states = []
    for _ in range(n_samples):
        state, nu = random_physical_cm(rng)
        states.append(state)
        spectrum = symplectic_eigenvalues(state)
        worst = max(worst, float(np.max(np.abs(spectrum - nu))))
    closed = two_mode_resources(np.stack([state.data for state in states]))
    for i, state in enumerate(states):
        general = (log_negativity(state, {0}, {1}), gaussian_steering(state, {0}, {1})[0],
                   gaussian_steering(state, {1}, {0})[0])
        worst = max(worst, max(abs(g - float(c[i])) for g, c in zip(general, closed)))
    return CheckResult("symplectic-eigenvalues-vs-closed-form", worst < 1e-10, worst, 1e-10,
                       f"{n_samples} random states, construction spectrum included")


def check_pt_involution(n_samples: int = 200) -> CheckResult:
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(n_samples):
        state, _ = random_physical_cm(rng)
        twice = partial_transpose(partial_transpose(state, {1}), {1})
        worst = max(worst, float(np.max(np.abs(twice.data - state.data))))
    return CheckResult("partial-transpose-involution", worst == 0.0, worst, 0.0,
                       "bit-exact double application")


def check_rotation_invariance(n_samples: int = 100) -> CheckResult:
    """Entanglement and both steering directions are blind to a local phase rotation."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(n_samples):
        state, _ = random_physical_cm(rng)
        rotated = local_phase_rotate(state, int(rng.integers(0, 2)), rng.uniform(0, 2 * np.pi))
        worst = max(worst, abs(log_negativity(rotated, {0}, {1})
                               - log_negativity(state, {0}, {1})))
        for direction in (({0}, {1}), ({1}, {0})):
            worst = max(worst, abs(gaussian_steering(rotated, *direction)[0]
                                   - gaussian_steering(state, *direction)[0]))
    return CheckResult("resources-invariant-under-phase-rotation", worst < 1e-10, worst, 1e-10)


def check_analytic_vs_rk4() -> CheckResult:
    """Closed-form covariance against RK4 on every element, both regimes.

    The vacuum sets are joined by a thermal model and one at the critical
    coupling g^2 = kappa_a kappa_c. Covariance elements grow a few orders of
    magnitude by 2 tau in the unsteady sets, so hitting 1e-8 absolutely needs
    ~4000 substeps over the window (still well under the runtime budget;
    effective trajectories span only tens of time units).
    """
    worst = 0.0
    models = [*effective_parameter_sets(), EffectiveModel(0.8, 1.0, 0.6, n_a=0.5, n_c=1.0),
              EffectiveModel(math.sqrt(0.5), 0.5, 1.0)]
    for m in models:
        dd = build_effective_drift_diffusion(m)
        tau = characteristic_time(m)
        grid = np.linspace(0.0, 2.0 * tau, 9)
        h = min(auto_step(dd.a), 2.0 * tau / 4000.0)
        states = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), grid, h=h)
        for t, state in zip(grid, states):
            exact = analytic_effective_cm(m, float(t))
            worst = max(worst, float(np.max(np.abs(exact.data - state.data))))
    return CheckResult("analytic-cm-vs-rk4", worst < 1e-8, worst, 1e-8,
                       f"{len(models)} parameter sets, thermal and critical among them, "
                       "t in [0, 2 tau]")


def check_rk4_convergence() -> CheckResult:
    """Halving the step shrinks the error by ~2^4."""
    m = EffectiveModel(0.9, 0.7, 1.0)
    dd = build_effective_drift_diffusion(m)
    grid = np.array([0.0, 2.0])

    def max_err(h: float) -> float:
        final = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), grid, h=h)[-1]
        exact = analytic_effective_cm(m, 2.0)
        return float(np.max(np.abs(final.data - exact.data)))

    ratio = max_err(0.08) / max_err(0.04)
    return CheckResult("rk4-fourth-order-convergence", 14.0 <= ratio <= 18.0, ratio, 16.0,
                       "error ratio on halving h, target 16 +- 2")


def check_physicality_under_evolution() -> CheckResult:
    """The closed-form covariance the product computes stays above the uncertainty bound."""
    worst = 1.0
    for m in (EffectiveModel(0.5, 1.0, 1.0), EffectiveModel(1.0, 0.5, 1.0),
              EffectiveModel(0.8, 1.0, 0.6, n_a=0.5, n_c=1.0)):
        grid = np.linspace(0, 2 * characteristic_time(m), 15)
        for state in analytic_effective_cm(m, grid):
            worst = min(worst, float(symplectic_eigenvalues(CovarianceMatrix(state))[0]))
    return CheckResult("physicality-under-evolution", worst >= 0.5 - 1e-9, worst, 0.5 - 1e-9,
                       "min symplectic eigenvalue along trajectories")


def check_steering_bounded_by_entanglement() -> CheckResult:
    """Wherever raw steering is positive the entanglement strictly exceeds it."""
    margin = np.inf
    points = 0
    for m in effective_parameter_sets():
        states = []
        if classify_regime(m) is Regime.STEADY:
            states.append(steady_state(build_effective_drift_diffusion(m)))
        else:
            tau = characteristic_time(m)
            states += [analytic_effective_cm(m, t) for t in (0.5 * tau, tau, 2.0 * tau)]
        for state in states:
            e = log_negativity(state, {0}, {1})
            for direction in (({0}, {1}), ({1}, {0})):
                raw, clamped = gaussian_steering(state, *direction)
                if raw > 0:
                    points += 1
                    margin = min(margin, e - clamped)
    return CheckResult("steering-strictly-below-entanglement", margin > 0.0, margin, 0.0,
                       f"{points} sampled states with positive raw steering")


def check_chain_specializations(n_draws: int = 10_000) -> CheckResult:
    """Chain coupling formula vs the two platform specializations.

    All draws go through one chain per platform with (n_draws,) fields; each
    draw takes six uniform variates in turn, as one draw at a time did.
    """
    rng = np.random.default_rng(SEED + 3)
    u = rng.random((n_draws, 6)).T
    wb, da, ga, gc, dm, gm = (low + (high - low) * x for (low, high), x in zip(
        ((0.5, 2.0), (2.5, 8.0), (0.01, 0.3), (0.01, 0.3), (0.5, 1.6), (0.01, 0.3)), u))
    chain = ChainParams(
        n=1, delta_a=da, delta_c=-da, omegas=(wb,),
        g_a=np.sqrt(2) * ga, g_c=np.sqrt(2) * gc, g_mid=(),
        theta=np.pi / 4, phi=np.pi / 4,
        kappa_a=1e-3, kappa_c=1e-3, kappa_mid=(1e-6,),
    )
    expected = 2.0 * ga * gc * wb / (da * da - wb * wb)
    worst = np.max(np.abs(effective_coupling(chain) - expected) / np.abs(expected))
    chain2 = ChainParams(
        n=2, delta_a=da, delta_c=-da, omegas=(dm, wb),
        g_a=ga, g_c=np.sqrt(2) * gc, g_mid=(gm,),
        theta=0.0, phi=np.pi / 4,
        kappa_a=1e-3, kappa_c=1e-3, kappa_mid=(1e-6, 1e-6),
    )
    expected2 = 2.0 * ga * gm * gc * wb / ((dm - da) * (wb * wb - da * da))
    worst = float(max(worst, np.max(np.abs(effective_coupling(chain2) - expected2)
                                    / np.abs(expected2))))
    return CheckResult("chain-platform-specializations", worst < 1e-12, worst, 1e-12,
                       f"{n_draws} random draws per platform")


def check_coupling_sign_irrelevant() -> CheckResult:
    """theta -> theta + pi flips g_eff; resources and dynamics are unaffected."""
    chain = ChainParams(
        n=1, delta_a=5.0, delta_c=-5.0, omegas=(1.0,),
        g_a=0.17, g_c=0.17, g_mid=(), theta=np.pi / 4, phi=np.pi / 4,
        kappa_a=5e-4, kappa_c=1e-3, kappa_mid=(1e-6,),
    )
    flipped = replace(chain, theta=chain.theta + np.pi)
    g1, g2 = effective_coupling(chain), effective_coupling(flipped)
    worst = abs(g1 + g2)
    m1, m2 = reduce_chain(chain), reduce_chain(flipped)
    worst = max(worst, abs(stationary_entanglement(m1) - stationary_entanglement(m2)))
    worst = max(worst, abs(stationary_steering(m1, "ac") - stationary_steering(m2, "ac")))
    tau = characteristic_time(m1)
    e1 = log_negativity(analytic_effective_cm(m1, tau), {0}, {1})
    e2 = log_negativity(analytic_effective_cm(m2, tau), {0}, {1})
    worst = max(worst, abs(e1 - e2))
    return CheckResult("coupling-sign-independence", worst < 1e-12, worst, 1e-12,
                       "g_eff odd under theta -> theta + pi, resources even")


def check_energy_shift_middle_modes() -> CheckResult:
    base = ChainParams(
        n=2, delta_a=3.0, delta_c=-3.0, omegas=(1.0, 1.0),
        g_a=0.12, g_c=0.17, g_mid=(0.1,), theta=0.0, phi=np.pi / 4,
        kappa_a=1e-4, kappa_c=2e-4, kappa_mid=(1e-3, 1e-6),
    )
    padded = ChainParams(
        n=4, delta_a=3.0, delta_c=-3.0, omegas=(1.0, 0.7, 1.3, 1.0),
        g_a=0.12, g_c=0.17, g_mid=(0.0, 0.0, 0.0), theta=0.0, phi=np.pi / 4,
        kappa_a=1e-4, kappa_c=2e-4, kappa_mid=(1e-3, 1e-3, 1e-3, 1e-6),
    )
    worst = abs(energy_shift(base) - energy_shift(padded))
    return CheckResult("energy-shift-endpoint-only", worst < 1e-15, worst, 1e-15,
                       "zero-coupling middle modes leave the shift unchanged")


def check_steady_state_residual() -> CheckResult:
    """Stationary solve residual on stable systems, the full EOM platform included.

    The Fig.-3 EOM couplings give an unstable drift, so the platform enters
    with weaker couplings g_a = g_c = 0.03, where it is Hurwitz stable.
    """
    worst = 0.0
    systems = [build_effective_drift_diffusion(EffectiveModel(0.5, 1.0, 1.0)),
               build_effective_drift_diffusion(EffectiveModel(0.3, 0.8, 1.2, n_a=1.0)),
               eom_full_drift_diffusion(EomParams(**dict(EOM_FIG3, g_a=0.03, g_c=0.03)))]
    for dd in systems:
        v = steady_state(dd)
        worst = max(worst, float(np.max(np.abs(dd.a @ v.data + v.data @ dd.a.T + dd.d))))
    return CheckResult("steady-state-residual", worst < 1e-10, worst, 1e-10,
                       f"{len(systems)} stable systems")


def check_zeta_vs_squeezed_variance() -> CheckResult:
    """In the growing regime the entanglement kernel approaches twice dX past tau."""
    worst = 0.0
    for m in (EffectiveModel(np.sqrt(2.0), 0.5, 1.0), EffectiveModel(2.0, 1.0, 1.0),
              EffectiveModel(1.5, 0.5, 1.0)):
        tau = characteristic_time(m)
        for t in (tau, 1.5 * tau, 2.0 * tau):
            eta = symplectic_eigenvalues(
                partial_transpose(analytic_effective_cm(m, t), {0}))[0]
            zeta = 2.0 * float(eta)
            dx = squeeze_variances(m, t)[0]
            worst = max(worst, abs(zeta - 2.0 * dx) / zeta)
    return CheckResult("zeta-approaches-2dX", worst < 0.01, worst, 0.01,
                       "relative gap for t >= tau, unsteady models")


def check_stationary_dual_route() -> CheckResult:
    """Closed forms vs functionals on the steady state / late-time covariance.

    Unsteady models are sampled at g^2/(ka kc) >= 4: the exact functionals
    carry a transient decaying only like the inverse of the growing
    quadrature, which stays above 1e-3 at 2 tau for weaker couplings (at
    g^2/(ka kc) = 2 it is still ~1.3e-3 for the entanglement and ~1e-2 for
    the suppressed steering direction).
    """
    worst = 0.0
    models = [EffectiveModel(np.sqrt(r * ka * kc), ka, kc)
              for ka, kc in ((1.0, 1.0), (0.5, 1.0), (1.2, 0.7))
              for r in (0.2, 0.6, 4.0, 6.0)]
    for m in models:
        e_closed = stationary_entanglement(m)
        s_ac_closed = stationary_steering(m, "ac")
        s_ca_closed = stationary_steering(m, "ca")
        if classify_regime(m) is Regime.STEADY:
            state = steady_state(build_effective_drift_diffusion(m))
        else:
            state = analytic_effective_cm(m, 2.0 * characteristic_time(m))
        worst = max(worst, abs(log_negativity(state, {0}, {1}) - max(0.0, e_closed)))
        worst = max(worst, abs(gaussian_steering(state, {0}, {1})[0] - s_ac_closed))
        worst = max(worst, abs(gaussian_steering(state, {1}, {0})[0] - s_ca_closed))
    return CheckResult("stationary-dual-route", worst < 1e-3, worst, 1e-3,
                       f"{len(models)} models, both regimes")


def check_late_time_stationary() -> CheckResult:
    """The closed-form evolve row at late time against the stationary closed forms.

    The headline claim at machine precision: the covariance of a divergent
    model grows without bound while its resources settle on the stationary
    values. Divergent models (g^2/(ka kc) = 1.05 to 1e4) are taken at t =
    600/mu, with mu = Omega - ka - kc the growth rate, so the covariance has
    grown by ~e^600; stable ones (0.2 to 0.95) at t = 1e4, past every
    transient. E, S_ac and S_ca of dynamics.effective_resources must equal
    stationary_entanglement and stationary_steering to 1e-12.
    """
    worst, models = 0.0, 0
    for ka, kc in ((1.0, 1.0), (0.5, 1.0), (1.2, 0.7)):
        for ratio in (0.2, 0.6, 0.95, 1.05, 1.5, 4.0, 30.0, 1e4):
            m = EffectiveModel(math.sqrt(ratio * ka * kc), ka, kc)
            growth = math.hypot(2.0 * m.g_eff, ka - kc) - ka - kc
            t = 600.0 / growth if classify_regime(m) is Regime.UNSTEADY else 1e4
            e, s_ac, s_ca = (float(x[0]) for x in effective_resources(m, t)[:3])
            worst = max(worst, abs(e - max(0.0, float(stationary_entanglement(m)))),
                        abs(s_ac - float(stationary_steering(m, "ac"))),
                        abs(s_ca - float(stationary_steering(m, "ca"))))
            models += 1
    return CheckResult("late-time-stationary", worst < 1e-12, worst, 1e-12,
                       f"{models} models: divergent at growth e^600, stable at t = 1e4")


def check_monotonicity_in_coupling() -> CheckResult:
    """E and positive raw steerings never decrease along a g^2 grid."""
    worst_drop = 0.0
    for ka, kc in ((0.5, 1.0), (1.0, 1.0), (1.3, 0.6)):
        gs = np.sqrt(np.linspace(1e-4, 4.0 * ka * kc, 100))
        e_prev = s_ac_prev = s_ca_prev = -np.inf
        for g in gs:
            m = EffectiveModel(float(g), ka, kc)
            e = stationary_entanglement(m)
            s_ac = stationary_steering(m, "ac")
            s_ca = stationary_steering(m, "ca")
            worst_drop = max(worst_drop, e_prev - e)
            if s_ac > 0 and s_ac_prev > 0:
                worst_drop = max(worst_drop, s_ac_prev - s_ac)
            if s_ca > 0 and s_ca_prev > 0:
                worst_drop = max(worst_drop, s_ca_prev - s_ca)
            e_prev, s_ac_prev, s_ca_prev = e, s_ac, s_ca
    return CheckResult("stationary-monotonicity-in-g2", worst_drop < 1e-12, worst_drop, 1e-12,
                       "100-point grids, three decay-rate pairs")


def check_boundary_continuity() -> CheckResult:
    """Both stationary branches meet the boundary limits at g^2 = ka kc."""
    worst = 0.0
    for ka, kc in ((1.0, 1.0), (0.5, 1.0), (1.4, 0.7), (1.7, 0.4), (0.9, 0.9)):
        e_lim, s_ac_lim, s_ca_lim = boundary_limits(ka, kc)
        for side in (1.0 - 1e-9, 1.0 + 1e-9):
            m = EffectiveModel(np.sqrt(side * ka * kc), ka, kc)
            worst = max(worst, abs(stationary_entanglement(m) - e_lim))
            worst = max(worst, abs(stationary_steering(m, "ac") - s_ac_lim))
            worst = max(worst, abs(stationary_steering(m, "ca") - s_ca_lim))
    sym = abs(boundary_limits(1.0, 1.0)[0] - np.log(2.0))
    passed = worst < 1e-6 and sym < 1e-12
    return CheckResult("boundary-continuity", passed, worst, 1e-6,
                       f"both branches at (1 +- 1e-9) ka kc; ln 2 check at {sym:.1e}")


def check_region_vs_sign_pattern() -> CheckResult:
    """Steering region labels equal the raw-sign pattern across a dense grid.

    The grid's cells are the (B,) fields of one model.
    """
    ka, kc, ratio = (x.ravel() for x in np.meshgrid(
        np.linspace(0.2, 2.0, 16), np.linspace(0.2, 2.0, 16), (0.3, 0.8, 1.5, 3.0, 6.0),
        indexing="ij"))
    m = EffectiveModel(np.sqrt(ratio * ka * kc), ka, kc)
    expected = {
        (True, True): SteeringRegion.TWO_WAY,
        (True, False): SteeringRegion.ONE_WAY_A_TO_C,
        (False, True): SteeringRegion.ONE_WAY_C_TO_A,
        (False, False): SteeringRegion.NONE,
    }
    cells = [(region, (ac, ca)) for regime, region, ac, ca in zip(
        classify_regime(m), steering_region(m), (stationary_steering(m, "ac") > 0).tolist(),
        (stationary_steering(m, "ca") > 0).tolist()) if regime is not Regime.CRITICAL]
    mismatches = sum(region is not expected[signs] for region, signs in cells)
    return CheckResult("steering-region-vs-raw-signs", mismatches == 0, float(mismatches), 0.0,
                       f"{len(cells)} grid cells")


def check_monogamy_on_trajectories(horizon_in_tau: float | None = None,
                                   samples: int = 7) -> CheckResult:
    """Residuals non-negative after t = 0 on both full-system trajectories from the vacuum.

    The full dynamics of each platform's chain (EOM Fig. 3, COMM Fig. 4) is
    sampled at `samples` equal steps to half the inverse of its drift's
    fastest rate (a shortened horizon), or to horizon_in_tau times the
    characteristic time of the chain's reduced model.
    """
    worst = np.inf
    for chain in (eom_to_chain(EomParams(**EOM_FIG3)), comm_to_chain(CommParams(**COMM_FIG4))):
        dd = chain_full_drift_diffusion(chain)
        if horizon_in_tau is None:
            rate = float(np.max(np.abs(np.real(np.linalg.eigvals(dd.a)))))
            horizon = 0.5 / rate if rate > 0 else 1.0
        else:
            horizon = horizon_in_tau * characteristic_time(reduce_chain(chain))
        grid = np.linspace(0.0, horizon, samples)
        for state in propagate_lti(dd, CovarianceMatrix.vacuum(dd.modes), grid)[1:]:
            ent_res, steer_res = monogamy_residuals(state, 0)
            worst = min(worst, ent_res, steer_res)
    detail = ("shortened horizons; acceptance runs full length" if horizon_in_tau is None
              else f"{samples} samples to {horizon_in_tau:g} tau")
    return CheckResult("monogamy-residuals-nonnegative", worst >= -1e-9, worst, -1e-9, detail)


def check_full_vs_effective(minimum: float = 0.08, maximum: float = 0.16,
                            points: int = 3) -> CheckResult:
    """Platform dynamics reproduce the closed forms where the reduction is valid.

    On each point of an EOM sweep of g_a that passes the validity report, E
    at tau, and S_ac where its closed form is at least STEERING_FLOOR, lie
    within 10% of the closed forms. A steering near zero has a relative
    deviation set by the mechanical bath, not by the reduction (0.0175 at
    g_a = 0.02, against >= 0.085 on the rest of the acceptance range).
    """
    cfg = RunConfig(
        system="eom",
        parameters=dict(EOM_FIG3),
        sweep=(SweepAxis(name="g_a", minimum=minimum, maximum=maximum, points=points),),
    )
    table = run_compare(cfg)
    worst = 0.0
    for row in table.rows:
        record = dict(zip(table.columns, row))
        if not record["validity_pass"]:
            continue
        worst = max(worst, record["rel_dev_E_tau"])
        if record["S_ac"] >= STEERING_FLOOR:
            worst = max(worst, record["rel_dev_S_ac_tau"])
    return CheckResult("full-vs-effective-agreement", worst <= 0.10, worst, 0.10,
                       f"{points}-point sweep; acceptance runs the full range")


def check_csv_round_trip() -> CheckResult:
    rng = np.random.default_rng(SEED + 4)
    values = rng.standard_normal(40) * 10.0 ** rng.integers(-12, 12, size=40)
    table = Table(columns=("x", "y"), rows=tuple(
        (float(a), float(b)) for a, b in values.reshape(20, 2)))
    back = parse_csv(render(table, "csv"))
    exact = all(a == b for ra, rb in zip(table.rows, back.rows) for a, b in zip(ra, rb))
    return CheckResult("csv-round-trip", exact, 0.0 if exact else 1.0, 0.0,
                       "emit/parse equality on 17-digit floats")


def check_region_row_order() -> CheckResult:
    """Region rows come in axis1-major order of the axis values; reruns render identically."""
    axis1, axis2 = SweepAxis("kappa_a", 0.4, 2.0, 6), SweepAxis("kappa_c", 0.4, 2.0, 5)
    cfg = RunConfig(
        system="effective",
        parameters={"g_eff": 1.0, "kappa_a": 1.0, "kappa_c": 1.0},
        sweep=(axis1, axis2),
    )
    table = run_region(cfg)
    expected = [(x1, x2) for x1 in axis1.values() for x2 in axis2.values()]
    misplaced = abs(len(table.rows) - len(expected)) + sum(
        1 for row, cell in zip(table.rows, expected) if row[:2] != cell)
    rerun_differs = render(table) != render(run_region(cfg))
    worst = float(misplaced + rerun_differs)
    return CheckResult("region-row-order", worst == 0.0, worst, 0.0,
                       f"{len(expected)} cells axis1-major; two runs render identically")


# The suite in report order; each check names itself in its CheckResult.
ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_symplectic_oracle, check_pt_involution, check_rotation_invariance,
    check_analytic_vs_rk4, check_rk4_convergence, check_physicality_under_evolution,
    check_steering_bounded_by_entanglement, check_chain_specializations,
    check_coupling_sign_irrelevant, check_energy_shift_middle_modes,
    check_steady_state_residual, check_zeta_vs_squeezed_variance, check_stationary_dual_route,
    check_late_time_stationary, check_monotonicity_in_coupling, check_boundary_continuity,
    check_region_vs_sign_pattern, check_monogamy_on_trajectories, check_full_vs_effective,
    check_csv_round_trip, check_region_row_order,
)


def run_verify() -> list[CheckResult]:
    """Run the whole suite in order, each result with the seconds its check took."""
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        result = check()
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results


def run_and_format() -> tuple[str, int]:
    """The suite's report, one line per check and a summary line, and its exit status."""
    start = time.time()
    results = run_verify()
    passed = sum(1 for r in results if r.passed)
    lines = [result.line() for result in results]
    lines.append(f"{passed}/{len(results)} checks passed in {time.time() - start:.1f} s")
    return "\n".join(lines), 0 if passed == len(results) else 1
