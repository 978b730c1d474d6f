"""Self-verification: the independent oracles and every library-level invariant.

This module is the one home of what checks the production routes: the
classical fixed-step RK4 integrator of the Lyapunov equation (an oracle for
dynamics.propagate_lti and the analytic covariance, never on a command-line
data path), the random-state fixtures, and the checks of the suite. Each
check runs at one fixed size and reports its worst measured value, the one
rule that value must satisfy to pass, and the seconds it took; the suite uses
fixed seeds, so repeated runs print identical reports apart from those
timings. The acceptance tests read these results rather than restating or
rerunning the checks.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

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
    eom_to_chain,
)

SEED = 20250613
STEPS_PER_PERIOD = 200
STEERING_FLOOR = 0.05


# Pass rules: worst compared with a float bound, or "in" a closed (low, high) range.
RULES: dict[str, Callable[[float, Any], bool]] = {
    "<": operator.lt, "<=": operator.le, "==": operator.eq, ">": operator.gt,
    ">=": operator.ge, "in": lambda worst, bound: bound[0] <= worst <= bound[1]}


@dataclass(frozen=True)
class CheckResult:
    """A check's worst measured value and the one rule that decides whether it passed."""

    name: str
    worst: float
    rule: str
    bound: float | tuple[float, float]
    detail: str = ""
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(RULES[self.rule](self.worst, self.bound))

    def line(self) -> str:
        """PASS/FAIL, the worst value and the rule with its bound written exactly."""
        bound = f"[{self.bound[0]!r}, {self.bound[1]!r}]" if self.rule == "in" else repr(self.bound)
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name}: worst={self.worst:.3e} {self.rule} {bound}"
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


def random_physical_cm(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random physical two-mode state (4 x 4) with a known symplectic spectrum.

    Built as local rotations and a two-mode squeezer acting on a thermal
    state, so the spectrum is the thermal occupations by construction.
    """
    nu = np.sort(0.5 + rng.uniform(0.0, 2.0, size=2))
    v = np.diag([nu[0], nu[0], nu[1], nu[1]])
    s = two_mode_squeeze_symplectic(rng.uniform(0.0, 1.2))
    state = s @ v @ s.T
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
    return k + np.swapaxes(k, -1, -2) + d


def _rk4_step(a, d, v, h):
    """One classical RK4 step of dv/dt = A v + v A^T + D (h = 0 leaves a finite v as it is)."""
    k1 = _lyapunov_rhs(a, d, v)
    k2 = _lyapunov_rhs(a, d, v + 0.5 * h * k1)
    k3 = _lyapunov_rhs(a, d, v + 0.5 * h * k2)
    k4 = _lyapunov_rhs(a, d, v + h * k3)
    v = v + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return (v + np.swapaxes(v, -1, -2)) / 2.0


def lyapunov_rk4(dd: DriftDiffusion, v0: np.ndarray, grid: np.ndarray,
                 h: float | np.ndarray | None = None) -> np.ndarray:
    """RK4 oracle: the states on a strictly ascending grid, the 2M x 2M v0 the one at grid[0].

    On a grid from t = 0 with v0 the vacuum it returns what
    propagate_lti(dd, grid) does, up to its O(h^4) error, in the same array
    shape: between grid points it substeps uniformly at (at most) h, by
    default auto_step(A), symmetrizing every substep. One pair gives the (T,
    2M, 2M) array of states. A stacked pair of B models takes a grid of
    shape (B, T), or (T,) shared by all, and h as one step or one per model,
    and returns the (B, T, 2M, 2M) array of states. Past double range (deep
    unsteady regime) a model's rows after its last finite state are nan.
    All models step in lockstep: over each grid interval every model
    takes its own substeps, and one that has finished them (or has left
    double range) pads with h = 0, an exact identity step on a finite
    symmetric state, so each model's rows are those of its own call up to
    rounding.
    """
    single = dd.a.ndim == 2
    a, d = (dd.a[None], dd.d[None]) if single else (dd.a, dd.d)
    models = len(a)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = np.broadcast_to(grid, (models, len(grid)))
    if grid.ndim != 2 or grid.shape[0] != models or grid.shape[1] < 1:
        raise ValueError("grid must be a non-empty 1-d array of times, or one row per model")
    if np.any(np.diff(grid, axis=1) <= 0):
        raise ValueError("grid must be strictly ascending")
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != a.shape[1:]:
        raise ValueError("initial state and drift matrix disagree on mode count")
    h_target = np.broadcast_to(np.asarray([auto_step(x) for x in a] if h is None else h,
                                          dtype=float), (models,))
    if np.any(~(h_target > 0)):
        raise ValueError("step size must be positive")
    spans = np.diff(grid, axis=1)
    substeps = np.maximum(1, np.ceil(spans / h_target[:, None]))
    h_sub = spans / substeps
    v = np.array(np.broadcast_to(v0, a.shape))
    states = np.full((*grid.shape, *a.shape[1:]), math.nan)
    states[:, 0] = v
    finite = np.ones(models, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends a model's rows
        for interval in range(spans.shape[1]):
            count = np.where(finite, substeps[:, interval], 0)  # a model past range stops
            for j in range(int(count.max())):
                v = _rk4_step(a, d, v, np.where(j < count, h_sub[:, interval], 0.0)[:, None, None])
            finite &= np.all(np.isfinite(v), axis=(1, 2))
            if not finite.any():
                break
            states[finite, interval + 1] = v[finite]
    return states[0] if single else states


def effective_parameter_sets() -> list[EffectiveModel]:
    """Parameter sets spanning both regimes with moderate covariance growth."""
    return [EffectiveModel(float(np.sqrt(ratio * ka * kc)), ka, kc)
            for ka, kc in ((1.0, 1.0), (0.5, 1.0), (1.0, 0.4), (0.7, 1.3))
            for ratio in (0.1, 0.5, 0.9, 1.5, 3.0, 4.0)]


def _random_states(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (count, 4, 4) stack of random_physical_cm states and their (count, 2) spectra."""
    states, spectra = zip(*(random_physical_cm(rng) for _ in range(count)))
    return np.stack(states), np.stack(spectra)


def _general_resources(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(E, S_ac_raw, S_ca_raw) of two-mode states by the general eigenvalue route."""
    return (log_negativity(v, {0}, {1}), gaussian_steering(v, {0}, {1})[0],
            gaussian_steering(v, {1}, {0})[0])


def check_symplectic_oracle() -> CheckResult:
    """General eigenvalue route vs the two-mode determinant closed forms.

    The symplectic spectrum is checked against the construction, and the
    entanglement and both raw steerings of the general route against the
    closed forms, each route taking the whole stack of states in one call.
    """
    states, spectra = _random_states(np.random.default_rng(SEED), 1000)
    worst = max(float(np.max(np.abs(symplectic_eigenvalues(states) - spectra))),
                *(float(np.max(np.abs(g - c))) for g, c in
                  zip(_general_resources(states), two_mode_resources(states))))
    return CheckResult("symplectic-eigenvalues-vs-closed-form", worst, "<", 1e-10,
                       f"{len(states)} random states, construction spectrum included")


def check_pt_involution() -> CheckResult:
    states = _random_states(np.random.default_rng(SEED + 1), 200)[0]
    twice = partial_transpose(partial_transpose(states, {1}), {1})
    return CheckResult("partial-transpose-involution", float(np.max(np.abs(twice - states))),
                       "==", 0.0, "bit-exact double application, 200 random states")


def check_rotation_invariance() -> CheckResult:
    """Entanglement and both steering directions are blind to a local phase rotation."""
    rng = np.random.default_rng(SEED + 2)
    draws = [(random_physical_cm(rng)[0], int(rng.integers(0, 2)), rng.uniform(0, 2 * np.pi))
             for _ in range(200)]
    states, modes, angles = (np.array(column) for column in zip(*draws))
    rotated = np.where((modes == 0)[:, None, None], local_phase_rotate(states, 0, angles),
                       local_phase_rotate(states, 1, angles))
    worst = max(float(np.max(np.abs(r - s))) for r, s in
                zip(_general_resources(rotated), _general_resources(states)))
    return CheckResult("resources-invariant-under-phase-rotation", worst, "<", 1e-10,
                       "200 random states, one random local rotation each")


def check_analytic_vs_rk4() -> CheckResult:
    """Closed-form covariance against RK4 on every element, both regimes.

    The vacuum sets are joined by a thermal model and one at the critical
    coupling g^2 = kappa_a kappa_c. Covariance elements grow a few orders of
    magnitude by 2 tau in the unsteady sets, so hitting 1e-8 absolutely needs
    ~4000 substeps over the window. All models are integrated by one stacked
    lyapunov_rk4 call, each with its own step, so the ~104 000 substeps of
    the 26 models run as ~4000 lockstep steps on one (26, 4, 4) stack.
    """
    models = [*effective_parameter_sets(), EffectiveModel(0.8, 1.0, 0.6, n_a=0.5, n_c=1.0),
              EffectiveModel(math.sqrt(0.5), 0.5, 1.0)]
    pairs = [build_effective_drift_diffusion(m) for m in models]
    taus = [characteristic_time(m) for m in models]
    grids = np.stack([np.linspace(0.0, 2.0 * tau, 9) for tau in taus])
    steps = [min(auto_step(dd.a), 2.0 * tau / 4000.0) for dd, tau in zip(pairs, taus)]
    states = lyapunov_rk4(DriftDiffusion(np.stack([dd.a for dd in pairs]),
                                         np.stack([dd.d for dd in pairs])),
                          np.eye(4) / 2.0, grids, h=np.array(steps))
    exact = np.stack([analytic_effective_cm(m, grid) for m, grid in zip(models, grids)])
    worst = float(np.max(np.abs(exact - states)))
    return CheckResult("analytic-cm-vs-rk4", worst, "<", 1e-8,
                       f"{len(models)} parameter sets, thermal and critical among them, "
                       "t in [0, 2 tau]")


def check_rk4_convergence() -> CheckResult:
    """Halving the step shrinks the error by ~2^4."""
    m = EffectiveModel(0.9, 0.7, 1.0)
    dd = build_effective_drift_diffusion(m)
    exact = analytic_effective_cm(m, 2.0)
    finals = (lyapunov_rk4(dd, np.eye(4) / 2.0, np.array([0.0, 2.0]), h=h)[-1]
              for h in (0.08, 0.04))
    coarse, fine = (float(np.max(np.abs(final - exact))) for final in finals)
    ratio = coarse / fine
    return CheckResult("rk4-fourth-order-convergence", ratio, "in", (14.0, 18.0),
                       "error ratio on halving h, 2^4 = 16 expected")


def check_physicality_under_evolution() -> CheckResult:
    """The closed-form covariance the product computes stays above the uncertainty bound."""
    worst = 1.0
    for m in (EffectiveModel(0.5, 1.0, 1.0), EffectiveModel(1.0, 0.5, 1.0),
              EffectiveModel(0.8, 1.0, 0.6, n_a=0.5, n_c=1.0)):
        grid = np.linspace(0, 2 * characteristic_time(m), 15)
        worst = min(worst, float(np.min(symplectic_eigenvalues(analytic_effective_cm(m, grid)))))
    return CheckResult("physicality-under-evolution", worst, ">=", 0.5 - 1e-9,
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
                    margin = min(margin, float(e - clamped))
    return CheckResult("steering-strictly-below-entanglement", margin, ">", 0.0,
                       f"{points} sampled states with positive raw steering")


def check_chain_specializations() -> CheckResult:
    """Chain coupling formula vs the two platform specializations.

    All 10^4 draws go through one chain per platform with (10^4,) fields; each
    draw takes six uniform variates in turn, as one draw at a time did.
    """
    rng = np.random.default_rng(SEED + 3)
    u = rng.random((10_000, 6)).T
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
    return CheckResult("chain-platform-specializations", worst, "<", 1e-12,
                       f"{len(wb)} random draws per platform")


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
    worst = max(worst, float(abs(e1 - e2)))
    return CheckResult("coupling-sign-independence", worst, "<", 1e-12,
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
    return CheckResult("energy-shift-endpoint-only", worst, "<", 1e-15,
                       "zero-coupling middle modes leave the shift unchanged")


def check_steady_state_residual() -> CheckResult:
    """Stationary solve residual on stable systems, the full EOM platform included.

    The Fig.-3 EOM couplings give an unstable drift, so the platform enters
    with weaker couplings g_a = g_c = 0.03, where it is Hurwitz stable.
    """
    worst = 0.0
    eom = EomParams(**dict(EOM_FIG3, g_a=0.03, g_c=0.03))
    systems = [build_effective_drift_diffusion(EffectiveModel(0.5, 1.0, 1.0)),
               build_effective_drift_diffusion(EffectiveModel(0.3, 0.8, 1.2, n_a=1.0)),
               chain_full_drift_diffusion(eom_to_chain(eom))]
    for dd in systems:
        v = steady_state(dd)
        worst = max(worst, float(np.max(np.abs(dd.a @ v + v @ dd.a.T + dd.d))))
    return CheckResult("steady-state-residual", worst, "<", 1e-10,
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
    return CheckResult("zeta-approaches-2dX", worst, "<", 0.01,
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
        if classify_regime(m) is Regime.STEADY:
            state = steady_state(build_effective_drift_diffusion(m))
        else:
            state = analytic_effective_cm(m, 2.0 * characteristic_time(m))
        closed = (max(0.0, stationary_entanglement(m)), stationary_steering(m, "ac"),
                  stationary_steering(m, "ca"))
        worst = max(worst, *(float(abs(g - c)) for g, c in zip(_general_resources(state), closed)))
    return CheckResult("stationary-dual-route", worst, "<", 1e-3,
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
    return CheckResult("late-time-stationary", worst, "<", 1e-12,
                       f"{models} models: divergent at growth e^600, stable at t = 1e4")


def check_monotonicity_in_coupling() -> CheckResult:
    """E and positive raw steerings never decrease along a g^2 grid."""
    worst_drop = 0.0
    for ka, kc in ((0.5, 1.0), (1.0, 1.0), (1.3, 0.6)):
        m = EffectiveModel(np.sqrt(np.linspace(1e-4, 4.0 * ka * kc, 100)), ka, kc)
        e = stationary_entanglement(m)
        worst_drop = max(worst_drop, float(np.max(e[:-1] - e[1:])))
        for s in (stationary_steering(m, "ac"), stationary_steering(m, "ca")):
            both_positive = (s[:-1] > 0) & (s[1:] > 0)
            worst_drop = max(worst_drop, float(np.max(s[:-1] - s[1:], where=both_positive,
                                                      initial=0.0)))
    return CheckResult("stationary-monotonicity-in-g2", worst_drop, "<", 1e-12,
                       "100-point grids, three decay-rate pairs")


def check_boundary_continuity() -> CheckResult:
    """Both stationary branches meet the boundary limits at g^2 = ka kc."""
    worst = 0.0
    for ka, kc in ((1.0, 1.0), (0.5, 1.0), (1.4, 0.7), (1.7, 0.4), (0.9, 0.9)):
        m = EffectiveModel(np.sqrt(np.array([1.0 - 1e-9, 1.0 + 1e-9]) * ka * kc), ka, kc)
        for value, limit in zip((stationary_entanglement(m), stationary_steering(m, "ac"),
                                 stationary_steering(m, "ca")), boundary_limits(ka, kc)):
            worst = max(worst, float(np.max(np.abs(value - limit))))
    return CheckResult("boundary-continuity", worst, "<", 1e-6,
                       "both branches at (1 +- 1e-9) ka kc, five decay-rate pairs")


def check_boundary_ln2() -> CheckResult:
    """At ka = kc the boundary limit of the entanglement is ln 2."""
    gap = abs(boundary_limits(1.0, 1.0)[0] - np.log(2.0))
    return CheckResult("boundary-entanglement-ln2", gap, "<", 1e-12,
                       "boundary E limit at ka = kc against ln 2")


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
    return CheckResult("steering-region-vs-raw-signs", float(mismatches), "==", 0.0,
                       f"{len(cells)} grid cells")


def check_monogamy_on_trajectories() -> CheckResult:
    """Residuals non-negative after t = 0 on both full-system trajectories from the vacuum.

    The full dynamics of each platform's chain (EOM Fig. 3, COMM Fig. 4) is
    sampled at 26 equal steps to 1.25 times the characteristic time of the
    chain's reduced model.
    """
    worst = np.inf
    for chain in (eom_to_chain(EomParams(**EOM_FIG3)), comm_to_chain(CommParams(**COMM_FIG4))):
        dd = chain_full_drift_diffusion(chain)
        grid = np.linspace(0.0, 1.25 * characteristic_time(reduce_chain(chain)), 26)
        residuals = monogamy_residuals(propagate_lti(dd, grid)[1:], 0)
        worst = min(worst, *(float(np.min(r)) for r in residuals))
    return CheckResult("monogamy-residuals-nonnegative", worst, ">=", -1e-9,
                       "26 samples to 1.25 tau on EOM Fig. 3 and COMM Fig. 4")


def check_full_vs_effective() -> CheckResult:
    """Platform dynamics reproduce the closed forms where the reduction is valid.

    On each point of the 8-point EOM sweep of g_a over [0.02, 0.2] that passes
    the validity report, E at tau, and S_ac where its closed form is at least
    STEERING_FLOOR, lie within 10% of the closed forms. A steering near zero
    has a relative deviation set by the mechanical bath, not by the reduction
    (0.0175 at g_a = 0.02, against >= 0.085 on the rest of the sweep).
    """
    cfg = RunConfig(
        system="eom",
        parameters=dict(EOM_FIG3),
        sweep=(SweepAxis(name="g_a", minimum=0.02, maximum=0.2, points=8),),
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
    return CheckResult("full-vs-effective-agreement", worst, "<=", 0.10,
                       f"{len(table.rows)}-point g_a sweep over [0.02, 0.2]")


def check_csv_round_trip() -> CheckResult:
    rng = np.random.default_rng(SEED + 4)
    values = rng.standard_normal(40) * 10.0 ** rng.integers(-12, 12, size=40)
    table = Table(columns=("x", "y"), rows=tuple(
        (float(a), float(b)) for a, b in values.reshape(20, 2)))
    back = parse_csv(render(table, "csv"))
    mismatches = sum(a != b for ra, rb in zip(table.rows, back.rows) for a, b in zip(ra, rb))
    return CheckResult("csv-round-trip", float(mismatches), "==", 0.0,
                       "emit/parse equality on 17-digit floats, 40 cells")


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
    return CheckResult("region-row-order", worst, "==", 0.0,
                       f"{len(expected)} cells axis1-major; two runs render identically")


# The suite in report order; each check names itself in its CheckResult.
ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_symplectic_oracle, check_pt_involution, check_rotation_invariance,
    check_analytic_vs_rk4, check_rk4_convergence, check_physicality_under_evolution,
    check_steering_bounded_by_entanglement, check_chain_specializations,
    check_coupling_sign_irrelevant, check_energy_shift_middle_modes,
    check_steady_state_residual, check_zeta_vs_squeezed_variance, check_stationary_dual_route,
    check_late_time_stationary, check_monotonicity_in_coupling, check_boundary_continuity,
    check_boundary_ln2, check_region_vs_sign_pattern, check_monogamy_on_trajectories,
    check_full_vs_effective, check_csv_round_trip, check_region_row_order,
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
