"""Time evolution of covariance matrices under Lyapunov dynamics.

Every drift/diffusion pair (the effective two-mode model and the 6x6 and 8x8
full platform systems) is propagated exactly by propagate_lti, which steps the
solution of dv/dt = A v + v A^T + D along a time grid with Van Loan's block
exponential. The effective model also has a fully analytic covariance from a
vacuum start, and stable systems can be solved directly for their stationary
covariance. A classical fixed-step RK4 integrator is kept as an independent
oracle for tests and the verification suite.

All rates are in units of the reference frequency; the RK4 auto step size
resolves the fastest rotation in the drift matrix (spectral radius, floored at
the reference frequency) with 200 points per period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import expm

from .chain import EffectiveModel, classify_regime
from .errors import CriticalPoleError, NumericError, RegimeError
from .gaussian import CovarianceMatrix, Regime

STEPS_PER_PERIOD = 200
LYAPUNOV_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift/diffusion pair (A, D) generating dv/dt = A v + v A^T + D."""

    a: NDArray[np.float64]
    d: NDArray[np.float64]

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
            raise ValueError(f"drift matrix must be 2M x 2M, got {a.shape}")
        if d.shape != a.shape:
            raise ValueError(f"diffusion shape {d.shape} does not match drift {a.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
            raise ValueError("drift/diffusion entries must be finite")
        if np.max(np.abs(d - d.T)) > 1e-12 * max(1.0, float(np.max(np.abs(d)))):
            raise ValueError("diffusion matrix must be symmetric")
        d = (d + d.T) / 2.0
        if float(np.linalg.eigvalsh(d)[0]) < -1e-12 * max(1.0, float(np.max(np.abs(d)))):
            raise ValueError("diffusion matrix must be positive semidefinite")
        a.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)

    @property
    def modes(self) -> int:
        return self.a.shape[0] // 2


@dataclass(frozen=True)
class Trajectory:
    """Covariance states on an ascending time grid.

    truncated is set when the integrator hit non-finite values (deep unsteady
    overflow); times/states then end at the last valid grid point.
    """

    times: NDArray[np.float64]
    states: list[CovarianceMatrix]
    truncated: bool = False

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or len(times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(times) > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly ascending")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)


@dataclass(frozen=True)
class AnalyticConstants:
    """Closed-form constants of the effective-model covariance evolution.

    Built from |g_eff| (the covariance elements are even in the coupling sign
    except the cross correlations, which the evaluator flips explicitly), with
    sin(varphi) = (kappa_a - kappa_c)/Omega and cos(varphi) = 2|g|/Omega so the
    varphi -> pi/2 limit at g -> 0 stays finite.
    """

    omega: float
    varphi: float
    sin_varphi: float
    cos_varphi: float
    c_plus: float
    c_minus: float
    c0: float
    c1: float
    c2: float
    c3: float
    g_sign: float = field(default=1.0)

    @classmethod
    def from_model(cls, m: EffectiveModel) -> "AnalyticConstants":
        g = abs(m.g_eff)
        ka, kc = m.kappa_a, m.kappa_c
        diff, total = ka - kc, ka + kc
        omega = math.hypot(2.0 * g, diff)
        if omega == 0.0:
            raise ValueError("constants undefined for g_eff = 0 with equal decay rates")
        sin_v = diff / omega
        cos_v = 2.0 * g / omega
        c_minus = (omega - diff * sin_v) / (4.0 * (omega + total))
        denom_plus = 4.0 * (omega - total)
        if denom_plus == 0.0:  # critical point: Omega = kappa_a + kappa_c
            raise CriticalPoleError("c_plus diverges at g_eff^2 = kappa_a kappa_c")
        c_plus = (omega - diff * sin_v) / denom_plus
        c0 = cos_v**2 * diff / (2.0 * total)
        c3 = g * ka * kc / (total * (g * g - ka * kc))
        c1 = 0.5 - g / ka * c3
        c2 = 0.5 - g / kc * c3
        return cls(
            omega=omega,
            varphi=math.atan2(diff, 2.0 * g),
            sin_varphi=sin_v,
            cos_varphi=cos_v,
            c_plus=c_plus,
            c_minus=c_minus,
            c0=c0,
            c1=c1,
            c2=c2,
            c3=c3,
            g_sign=math.copysign(1.0, m.g_eff) if m.g_eff else 1.0,
        )


def build_effective_drift_diffusion(m: EffectiveModel) -> DriftDiffusion:
    """Drift/diffusion of the effective two-mode squeezing model, ordering (a, c)."""
    g, ka, kc = m.g_eff, m.kappa_a, m.kappa_c
    a = -np.array(
        [
            [ka, 0.0, 0.0, g],
            [0.0, ka, g, 0.0],
            [0.0, g, kc, 0.0],
            [g, 0.0, 0.0, kc],
        ]
    )
    heat_a = ka * (2.0 * m.n_a + 1.0)
    heat_c = kc * (2.0 * m.n_c + 1.0)
    return DriftDiffusion(a, np.diag([heat_a, heat_a, heat_c, heat_c]))


def _require_vacuum_noise(m: EffectiveModel, what: str) -> None:
    if m.n_a != 0.0 or m.n_c != 0.0:
        raise ValueError(
            f"{what} is derived for vacuum input noise; "
            "use propagate_lti/steady_state for thermal occupations"
        )


def analytic_effective_cm(m: EffectiveModel, t: float) -> CovarianceMatrix:
    """Closed-form covariance of the effective model at time t, from v(0) = I/2.

    Only the (X_a, Y_c) and (Y_a, X_c) quadrature pairs correlate:
    v11 = v22, v33 = v44, v14 = v23, all other off-diagonal entries vanish.
    Not available at the critical point g_eff^2 = kappa_a kappa_c, where the
    stationary cross constant has a pole (use propagate_lti instead). At t = 0
    the start state is returned exactly: the closed form would leave a
    cancellation residue there.
    """
    _require_vacuum_noise(m, "the analytic covariance")
    if t < 0:
        raise ValueError("time must be non-negative")
    if m.g_eff == 0.0 or t == 0.0:
        return CovarianceMatrix.vacuum(2)
    if classify_regime(m) is Regime.CRITICAL:
        raise CriticalPoleError(
            "analytic covariance has a pole at g_eff^2 = kappa_a kappa_c; use propagate_lti"
        )
    k = AnalyticConstants.from_model(m)
    total = m.kappa_a + m.kappa_c
    grow_exponent = (k.omega - total) * t
    if grow_exponent > 700.0:
        raise OverflowError(
            f"unsteady covariance overflows double precision at t = {t:g}"
        )
    e_minus = math.exp(-(k.omega + total) * t)
    e_zero = math.exp(-total * t)
    e_plus = math.exp(grow_exponent)
    v11 = ((1.0 + k.sin_varphi) * k.c_minus * e_minus - k.c0 * e_zero
           + (1.0 - k.sin_varphi) * k.c_plus * e_plus + k.c1)
    v44 = ((1.0 - k.sin_varphi) * k.c_minus * e_minus + k.c0 * e_zero
           + (1.0 + k.sin_varphi) * k.c_plus * e_plus + k.c2)
    v14 = k.g_sign * (
        k.cos_varphi * k.c_minus * e_minus
        + k.c0 * k.sin_varphi / k.cos_varphi * e_zero
        - k.cos_varphi * k.c_plus * e_plus
        + k.c3
    )
    v = np.zeros((4, 4))
    v[0, 0] = v[1, 1] = v11
    v[2, 2] = v[3, 3] = v44
    v[0, 3] = v[3, 0] = v[1, 2] = v[2, 1] = v14
    return CovarianceMatrix(v)


def auto_step(a: NDArray[np.float64]) -> float:
    """Step resolving the fastest rotation of A with 200 points per period.

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


def lyapunov_rk4(
    dd: DriftDiffusion,
    v0: CovarianceMatrix,
    grid: NDArray[np.float64],
    h: float | None = None,
) -> Trajectory:
    """Integrate the matrix Lyapunov equation, returning states on the given grid.

    Between grid points the integrator substeps uniformly at (at most) h,
    defaulting to auto_step(A); every substep is symmetrized. Local truncation
    is O(h^5). If the state overflows (deep unsteady regime) the trajectory is
    truncated at the last finite grid point and flagged.
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
    times = [float(grid[0])]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow handled via truncation
        for t_prev, t_next in zip(grid[:-1], grid[1:]):
            span = float(t_next - t_prev)
            n_sub = max(1, math.ceil(span / h_target))
            h_sub = span / n_sub
            for _ in range(n_sub):
                v = _rk4_step(dd.a, dd.d, v, h_sub)
            if not np.all(np.isfinite(v)):
                return Trajectory(np.array(times), states, truncated=True)
            states.append(CovarianceMatrix(v))
            times.append(float(t_next))
    return Trajectory(np.array(times), states)


def _lyapunov_solve(a: NDArray[np.float64], d: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve A v + v A^T = -D through the Kronecker linearization."""
    n = a.shape[0]
    lin = np.kron(a, np.eye(n)) + np.kron(np.eye(n), a)
    v = np.linalg.solve(lin, -d.reshape(-1)).reshape(n, n)
    return (v + v.T) / 2.0


def steady_state(dd: DriftDiffusion) -> CovarianceMatrix:
    """Stationary covariance A v + v A^T + D = 0 of a Hurwitz-stable drift."""
    abscissa = float(np.max(np.real(np.linalg.eigvals(dd.a))))
    if abscissa >= 0.0:
        raise RegimeError(
            f"drift matrix is not stable (spectral abscissa {abscissa:.3e}); "
            "no steady state exists"
        )
    v = _lyapunov_solve(dd.a, dd.d)
    residual = float(np.max(np.abs(dd.a @ v + v @ dd.a.T + dd.d)))
    if residual > LYAPUNOV_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(dd.d)))):
        raise NumericError(f"steady-state residual {residual:.3e} exceeds tolerance")
    return CovarianceMatrix(v)


def _van_loan_pair(
    a: NDArray[np.float64], d: NDArray[np.float64], h: float
) -> tuple[NDArray[np.longdouble], NDArray[np.longdouble]]:
    """Phi = e^{Ah} and Q = int_0^h e^{As} D e^{A^T s} ds for one span h > 0.

    Van Loan's block M = [[-A, D], [0, A^T]] is exponentiated at h / 2^k, with
    k the smallest integer such that ||A||_1 h / 2^k <= 1, and the pair is then
    doubled k times in extended precision. Exponentiating M over the whole
    span instead cancels catastrophically in Q, because e^{-Ah} grows when A
    is stable.
    """
    n = a.shape[0]
    scaled = float(np.linalg.norm(a, 1)) * h
    k = math.ceil(math.log2(scaled)) if scaled > 1.0 else 0
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = d
    block[n:, n:] = a.T
    e = expm(block * (h / 2.0**k))
    phi = e[n:, n:].T.astype(np.longdouble)
    q = phi @ e[:n, n:]
    q = (q + q.T) / 2.0
    for _ in range(k):
        q = phi @ q @ phi.T + q
        phi = phi @ phi
    return phi, q


def propagate_lti(
    dd: DriftDiffusion, v0: CovarianceMatrix, times: NDArray[np.float64]
) -> list[CovarianceMatrix]:
    """Exact covariance at each requested time, starting from v(0) = v0.

    Steps v <- Phi v Phi^T + Q along the grid, where (Phi, Q) of each distinct
    interval length comes from Van Loan's block exponential (C. F. Van Loan,
    IEEE TAC 23(3):395-404, 1978) with scaling and squaring (N. J. Higham,
    SIAM J. Matrix Anal. Appl. 26(4), 2005). No fixed point is involved, so
    the critical coupling needs no special case. Times must be finite,
    non-negative and non-decreasing; a repeated time returns the same state.
    Raises OverflowError, naming the time, when the state leaves double range.

    The state is carried in extended precision (np.longdouble; plain double
    where the platform has no wider type). In the divergent regime the
    covariance grows to ~1e8 while the resources depend on its O(1) squeezed
    part, and double rounding at every step of a fine grid accumulates there:
    on a 401-point grid to 5 tau it moved the log-negativity by 1.2e-6.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a 1-d array of finite values")
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be non-negative and non-decreasing")
    if v0.modes != dd.modes:
        raise ValueError("initial state and drift matrix disagree on mode count")
    pairs: dict[float, tuple[NDArray[np.longdouble], NDArray[np.longdouble]]] = {}
    state, v, t_prev = v0, v0.data.astype(np.longdouble), 0.0
    states = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        for t in times.tolist():
            h = t - t_prev
            if h > 0.0:
                if h not in pairs:
                    pairs[h] = _van_loan_pair(dd.a, dd.d, h)
                phi, q = pairs[h]
                v = phi @ v @ phi.T + q
                data = v.astype(float)
                if not np.all(np.isfinite(data)):
                    raise OverflowError(
                        f"covariance overflows double precision at t = {t:g}"
                    )
                state = CovarianceMatrix(data)
            states.append(state)
            t_prev = t
    return states


def characteristic_time(m: EffectiveModel) -> float:
    """Timescale 4 pi / (Omega + kappa_a + kappa_c) after which resources are stationary."""
    omega = math.hypot(2.0 * m.g_eff, m.kappa_a - m.kappa_c)
    denom = omega + m.kappa_a + m.kappa_c
    if denom <= 0.0:
        raise ValueError("characteristic time undefined for all-zero rates")
    return 4.0 * math.pi / denom


def squeeze_variances(m: EffectiveModel, t: float) -> tuple[float, float, float]:
    """Variances (dX, dY) of the drift-eigenbasis quadratures and their cross term.

    dX decays at rate Omega + kappa_a + kappa_c and saturates at 1/2 - 2 c_-;
    in the unsteady regime 2*dX(t) approximates the entanglement kernel
    zeta(t) for t beyond the characteristic time. The cross term follows the
    stationary-limit expression (c0/cos varphi)(1 + e^{-(ka+kc)t}); note it is
    an asymptotic form only: the exact covariance route gives
    (c0/cos varphi)(1 - e^{-(ka+kc)t}), vanishing at t = 0 as a vacuum start
    requires. Both agree for t beyond a few 1/(kappa_a + kappa_c).
    """
    _require_vacuum_noise(m, "the quadrature-variance closed form")
    if m.g_eff == 0.0:
        raise ValueError("squeeze quadratures undefined for g_eff = 0")
    if classify_regime(m) is Regime.CRITICAL:
        raise CriticalPoleError("quadrature variances share the critical pole; use propagate_lti")
    k = AnalyticConstants.from_model(m)
    total = m.kappa_a + m.kappa_c
    dx = 0.5 + 2.0 * k.c_minus * (math.exp(-(k.omega + total) * t) - 1.0)
    grow_exponent = (k.omega - total) * t
    if grow_exponent > 700.0:  # the anti-squeezed variance exceeds double range
        dy = math.inf
    else:
        dy = 0.5 + 2.0 * k.c_plus * (math.exp(grow_exponent) - 1.0)
    xy = k.c0 / k.cos_varphi * (1.0 + math.exp(-total * t))
    return float(dx), float(dy), float(xy)
