"""Time evolution of covariance matrices under Lyapunov dynamics.

The effective two-mode model has a closed form for any thermal input and
coupling: in the eigenbasis of its drift every covariance entry solves a
scalar equation (C. W. Gardiner and P. Zoller, Quantum Noise, Springer 2004,
on the multivariate Ornstein-Uhlenbeck covariance), and its resources follow
from that basis without cancellation. Every drift/diffusion pair (the 6x6 and
8x8 full platform systems, and the effective model's for checks) is
propagated exactly by propagate_lti, which takes the state of dv/dt = A v +
v A^T + D at each time t straight from the vacuum v(0) = I/2 with one pair
(Phi(t), Q(t)) of Van Loan's block exponential, so every row depends only
on (A, D, t). The block is never formed: its Taylor polynomial is evaluated
on the n x n blocks by Paterson-Stockmeyer at a scale set by the drift
alone, then doubled, with matrix products only (no linear solve), so the
runtime needs numpy alone. It takes one DriftDiffusion, a single pair or a
stack of pairs (the cells of a sweep chunk), and returns one array of
states, each row bit-identical to its own single-time, single-pair call.
Stable systems can also be solved directly for their stationary
covariance. These are the production routes; the RK4 oracle that checks
them lives in mochain.verify and is never on a command-line data path. All
rates are in units of the reference frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .chain import EffectiveModel, Field, per_cell, reject_cells
from .errors import CovarianceOverflowError, NumericError, RegimeError
from .gaussian import CovarianceMatrix

LYAPUNOV_RESIDUAL_TOL = 1e-10
# 1/j! for j = 0..18: the Taylor coefficients of _van_loan_pair's block exponential.
TAYLOR18 = tuple(1.0 / math.factorial(j) for j in range(19))
# The longest reach ||A||_1 h of one Van Loan pair: its k <= 33 doublings amplify
# the start pair's rounding u = 2^-53 by ~||A||_1 h, to at most u ||A||_1 h = 2^-20.
MAX_REACH = 2.0**33
# Rows (cell, time) whose Van Loan pairs propagate_lti takes in one stack, each
# block's states built after its pairs: a long grid or a sweep chunk holds one
# block of pairs at a time. On 512-cell sweep chunks of 8 x 8 pairs, 256-row
# blocks raised region-comm's peak RSS by ~1.7 MB over 128-row ones at the
# same speed (2-core Xeon, numpy 2.4.6, one BLAS thread).
ROW_BLOCK = 128
# math.hypot, elementwise. numpy's hypot differs from it in the last bit on
# ~0.5% of inputs; tau keeps math.hypot's rounding because an evolve grid
# holds tau and 2 tau as rows, and a 1-ulp shift can add or merge one.
_hypot = np.frompyfunc(math.hypot, 2, 1)


def _first_bad(bad: NDArray[np.bool_], stacked: bool, what: str) -> None:
    """Raise ValueError(what) if any cell is bad, naming the first one of a stack."""
    if np.any(bad):
        where = f" (cell {int(np.flatnonzero(bad)[0])})" if stacked else ""
        raise ValueError(f"{what}{where}")


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift/diffusion pair (A, D) generating dv/dt = A v + v A^T + D.

    a and d have shape (2M, 2M) for one pair, or (B, 2M, 2M) for a stack of B
    pairs (the cells of a sweep chunk). The checks run once over the whole
    stack as array tests: every entry finite, D symmetric and positive
    semidefinite (to -1e-12 max(1, max|D|) per cell). A diagonal diffusion
    (every platform's) is checked by its diagonal; eigvalsh runs only on the
    cells whose D has off-diagonal entries. A failure in a stack names the
    first bad cell.
    """

    a: NDArray[np.float64]
    d: NDArray[np.float64]

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)  # a copy: the caller's array stays writeable
        d = np.asarray(self.d, dtype=float)
        if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] % 2:
            raise ValueError(f"drift matrix must be 2M x 2M or a stack of them, got {a.shape}")
        if d.shape != a.shape:
            raise ValueError(f"diffusion shape {d.shape} does not match drift {a.shape}")
        stacked = a.ndim == 3
        cells_a, cells_d = a.reshape(-1, *a.shape[-2:]), d.reshape(-1, *d.shape[-2:])
        _first_bad(~(np.all(np.isfinite(cells_a), axis=(1, 2))
                     & np.all(np.isfinite(cells_d), axis=(1, 2))),
                   stacked, "drift/diffusion entries must be finite")
        transpose = np.swapaxes(cells_d, 1, 2)
        bound = 1e-12 * np.maximum(1.0, np.max(np.abs(cells_d), axis=(1, 2)))
        _first_bad(np.max(np.abs(cells_d - transpose), axis=(1, 2)) > bound,
                   stacked, "diffusion matrix must be symmetric")
        cells_d = (cells_d + transpose) / 2.0
        # the eigenvalues of a diagonal diffusion are its entries
        diagonal = np.diagonal(cells_d, axis1=1, axis2=2)
        lowest = np.min(diagonal, axis=1)
        dense = np.count_nonzero(cells_d, axis=(1, 2)) != np.count_nonzero(diagonal, axis=1)
        if np.any(dense):
            lowest[dense] = np.linalg.eigvalsh(cells_d[dense])[:, 0]
        _first_bad(lowest < -bound, stacked, "diffusion matrix must be positive semidefinite")
        d = cells_d.reshape(d.shape)
        a.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)

    @property
    def modes(self) -> int:
        return self.a.shape[-1] // 2


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


def _eigenbasis(m: EffectiveModel, t: ArrayLike) -> tuple[NDArray[np.float64], list, tuple]:
    """Each correlated covariance block of the effective model in its drift eigenbasis.

    The (X_a, Y_c) and (Y_a, X_c) blocks share the drift -[[kappa_a, g], [g,
    kappa_c]] and, from v(0) = I/2, the same state W. With theta =
    atan2(2g, kappa_a - kappa_c)/2, the drift's eigenvectors are (cos theta,
    sin theta), decaying at (Omega + kappa_a + kappa_c)/2, and (sin theta,
    -cos theta), growing at (Omega - kappa_a - kappa_c)/2, where Omega =
    hypot(2g, kappa_a - kappa_c). In that basis each entry of W solves a
    scalar equation: w'(t) = w'(0) + (D' + mu w'(0)) expm1(mu t)/mu, with mu
    the sum of the two rates, -(Omega + kappa_a + kappa_c) for w'_--, Omega -
    kappa_a - kappa_c for w'_++ and -(kappa_a + kappa_c) for w'_+-. The
    vacuum part of the drive D' + mu w'(0) is -g sin 2theta, g sin 2theta
    and g cos 2theta, so t = 0, and g = 0 with vacuum input, come out exact,
    and expm1(mu t)/mu is t at mu = 0 (the critical coupling). A negative
    drive makes w'_-- fall from 1/2 by cancellation, so there the same
    solution is taken as w'(0) e^{mu t} + D' expm1(mu t)/mu, whose terms are
    non-negative (D' = e^T D e from the diffusion's own entries). Returns the
    times, [w'_--, w'_++, w'_+-] over them and (cos^2 theta, sin^2 theta,
    cos theta sin theta, cos 2theta).
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1 or not np.all(times >= 0.0):
        raise ValueError("time must be non-negative")
    g, ka, kc, total = m.g_eff, m.kappa_a, m.kappa_c, m.kappa_a + m.kappa_c
    omega, two_theta = math.hypot(2.0 * g, ka - kc), math.atan2(2.0 * g, ka - kc)
    cos2, sin2 = math.cos(two_theta), math.sin(two_theta)
    cc = (1.0 + cos2) / 2.0
    ss, cs = 1.0 - cc, sin2 / 2.0  # cc + ss is exactly 1
    heat_a, heat_c = 2.0 * ka * m.n_a, 2.0 * kc * m.n_c  # thermal excess over vacuum noise
    noise_a, noise_c = ka + heat_a, kc + heat_c  # the diffusion entries
    cross = cs * (heat_a - heat_c) + g * cos2
    w = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the callers' to report
        for start, mu, drive, diffusion in (
                (0.5, -(omega + total), cc * heat_a + ss * heat_c - g * sin2,
                 cc * noise_a + ss * noise_c),
                (0.5, omega - total, ss * heat_a + cc * heat_c + g * sin2,
                 ss * noise_a + cc * noise_c),
                (0.0, -total, cross, cross)):
            growth = np.expm1(mu * times) / mu if mu else times
            w.append(start * np.exp(mu * times) + diffusion * growth if drive < 0.0
                     else start + drive * growth)
    return times, w, (cc, ss, cs, cos2)


def _block_entries(m: EffectiveModel, t: ArrayLike) -> tuple[NDArray[np.float64], ...]:
    """v11, v44, v14 and the block's det, trace and eigenvalue spread, over times t.

    Raises CovarianceOverflowError naming the first time past double range.
    """
    times, (w_mm, w_pp, w_pm), (cc, ss, cs, cos2) = _eigenbasis(m, t)
    with np.errstate(over="ignore", invalid="ignore"):
        v11 = cc * w_mm + ss * w_pp + 2.0 * cs * w_pm
        v44 = ss * w_mm + cc * w_pp - 2.0 * cs * w_pm
        v14 = cs * (w_mm - w_pp) - cos2 * w_pm + 0.0  # + 0.0: no -0.0 at t = 0
        det = w_mm * w_pp - w_pm * w_pm
        trace, spread = w_mm + w_pp, np.hypot(w_pp - w_mm, 2.0 * w_pm)
        over = ~np.isfinite(v11 + v44 + v14 + det + trace + spread)
    if np.any(over):
        raise CovarianceOverflowError("unsteady covariance overflows double precision "
                                      f"at t = {times[np.argmax(over)]:g}")
    return v11, v44, v14, det, trace, spread


def analytic_effective_cm(m: EffectiveModel,
                          t: ArrayLike) -> CovarianceMatrix | NDArray[np.float64]:
    """Closed-form covariance of the effective model at time t, from v(0) = I/2.

    Any thermal input and coupling, the critical one included (_eigenbasis).
    Only the (X_a, Y_c) and (Y_a, X_c) pairs correlate: v11 = v22, v33 = v44,
    v14 = v23. A float t gives one CovarianceMatrix, an array of T times the
    (T, 4, 4) array of them, row for row bit-identical; CovarianceOverflowError
    names the first time past double range.
    """
    v11, v44, v14 = _block_entries(m, t)[:3]
    v = np.zeros((len(v11), 4, 4))
    v[:, 0, 0] = v[:, 1, 1] = v11
    v[:, 2, 2] = v[:, 3, 3] = v44
    v[:, 0, 3] = v[:, 3, 0] = v[:, 1, 2] = v[:, 2, 1] = v14
    return CovarianceMatrix(v[0]) if np.ndim(t) == 0 else v


def effective_resources(m: EffectiveModel, t: ArrayLike) -> tuple[NDArray[np.float64], ...]:
    """(E, S_ac_raw, S_ca_raw, v11, v44, v14) from v(0) = I/2: the evolve row at each time.

    With det, trace and eigenvalue spread of one correlated block in the drift
    eigenbasis, the smallest partial-transpose symplectic eigenvalue is
    2 det / (trace + spread) and det v = det^2, so E = max(0, -ln(4 det /
    (trace + spread))), S_ac = ln(v11 / (2 det)) and S_ca = ln(v44 / (2 det)).
    det is the growing variance times the squeezed one less a bounded cross
    term, so nothing cancels however large the covariance grows.
    CovarianceOverflowError names the first time past double range.
    """
    v11, v44, v14, det, trace, spread = _block_entries(m, t)
    e_raw = -np.log(4.0 * (det / (trace + spread)))
    return (np.where(e_raw > 0.0, e_raw, 0.0), np.log(v11 / det / 2.0), np.log(v44 / det / 2.0),
            v11, v44, v14)


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


def _norm1(m: NDArray[np.float64]) -> NDArray[np.float64]:
    """1-norm (largest absolute column sum) of each matrix of a stack."""
    return np.max(np.sum(np.abs(m), axis=-2), axis=-1)


def _halvings(x: NDArray[np.float64]) -> NDArray[np.int64]:
    """Smallest integer k >= 0 with x / 2^k <= 1, elementwise."""
    mantissa, exponent = np.frexp(x)
    return np.where(x > 1.0, exponent - (mantissa == 0.5), 0)


def _van_loan_pair(
    a: NDArray[np.float64], d: NDArray[np.float64], h: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Phi = e^{Ah} and Q = int_0^h e^{As} D e^{A^T s} ds for a stack of cells.

    a and d have shape (B, n, n) and h >= 0, each a row's time, shape (B,);
    h = 0 gives (I, 0) exactly. Each cell starts at h / 2^k, with k the
    smallest integer such that ||A||_1 h / 2^k <= 1, from X = A h / 2^k and
    Y = D h / 2^k: the degree-18 Taylor
    polynomial of Van Loan's block N = [[-X, Y], [0, X^T]] is evaluated on
    its n x n blocks by Paterson-Stockmeyer with s = 4 (M. S. Paterson and L.
    J. Stockmeyer, SIAM J. Comput. 2(1), 1973). Phi comes from the powers of
    X alone. The (1, 2) blocks of N^1..N^4 are Y, F_2 = (XY)^T - XY, F_3 =
    (X^2 Y)^T - X F_2 and F_4 = X^2 F_2 - (X^2 F_2)^T; a Horner step
    multiplies by N^4 from the left, so the (1, 2) block T <- X^4 T + F_4 S^T
    + ... reads the transpose of Phi's own Horner state S, and Q = Phi T. T
    is linear in Y, so the diffusion's size never sets the scaling. With
    ||X||_1 <= 1 the omitted terms are below 1/18! ~ 1.6e-16 relative (n
    times that in T, as ||X^T||_1 <= n ||X||_1; the platforms' drifts have
    ||A^T||_1 = ||A||_1). The pair is then doubled k times, (Phi, Q) <-
    (Phi^2, Phi Q Phi^T + Q), all cells in lockstep, a cell keeping its pair
    after its own k. Taking the block over a row's whole time instead cancels
    catastrophically in Q, because e^{-Ah} grows when A is stable.

    The doublings run in double: they amplify the error of the double
    precision start pair by ||A|| h ~ 2^k in any precision, so extended
    precision here buys no accuracy (on 28 cells of a 50 x 50 COMM region
    map, E and S were 3.8e-12 from a 40-digit reference with long-double
    doublings and 4.6e-12 with double ones) and costs ~25x, numpy having no
    BLAS for it. A pair that overflows means the state overflows too, which
    propagate_lti reports, so overflow here is silent.
    """
    k = _halvings(_norm1(a) * h)
    scale = np.ldexp(h, -k)[:, None, None]
    x, y, c, eye = a * scale, d * scale, TAYLOR18, np.eye(a.shape[-1])
    x2, xy = x @ x, x @ y
    x3, x4, f2 = x2 @ x, x2 @ x2, np.swapaxes(xy, -1, -2) - xy
    f3, x2f2 = np.swapaxes(x2 @ y, -1, -2) - x @ f2, x2 @ f2
    f4 = x2f2 - np.swapaxes(x2f2, -1, -2)
    phi, t = c[16] * eye + c[17] * x + c[18] * x2, c[17] * y + c[18] * f2
    for j in (12, 8, 4, 0):
        t = (x4 @ t + f4 @ np.ascontiguousarray(np.swapaxes(phi, -1, -2))
             + (c[j + 1] * y + c[j + 2] * f2 + c[j + 3] * f3))
        phi = x4 @ phi + (c[j] * eye + c[j + 1] * x + c[j + 2] * x2 + c[j + 3] * x3)
    q = phi @ t
    q = (q + np.swapaxes(q, -1, -2)) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(int(k.max(initial=0))):
            phi_t = np.ascontiguousarray(np.swapaxes(phi, -1, -2))
            if j < k.min():
                q, phi = phi @ q @ phi_t + q, phi @ phi
            else:  # every cell computes, a finished one keeps its pair: no gather or scatter
                doubling = (k > j)[:, None, None]
                q = np.where(doubling, phi @ q @ phi_t + q, q)
                phi = np.where(doubling, phi @ phi, phi)
    return phi, q


def propagate_lti(
    dd: DriftDiffusion,
    times: ArrayLike,
    modes: int | None = None,
) -> NDArray[np.float64]:
    """Exact covariance at each requested time, starting from the vacuum v(0) = I/2.

    Each row (cell, t) gets its own pair (Phi(t), Q(t)) of Van Loan's block
    exponential (C. F. Van Loan, IEEE TAC 23(3):395-404, 1978; C. Moler and
    C. Van Loan, SIAM Review 45(1), 2003), taken at t / 2^k and doubled k
    times (_van_loan_pair), and its state is Phi Phi^T / 2 + Q in one step.
    No fixed point is involved, so the critical coupling is no special case,
    and no row reads another: a row depends only on its cell's (A, D) and
    its time, so a repeated time gives the same state and t = 0 gives I/2.
    Times must be finite, non-negative and non-decreasing.

    The result is one array of symmetrized covariances. One drift/diffusion
    pair with times of shape (T,) gives shape (T, 2M, 2M) (times of shape
    (1, T) give (1, T, 2M, 2M)). A stacked pair of B cells with times of
    shape (B, T), or (T,) shared by every cell, gives (B, T, 2M, 2M); every
    row is bit-identical to a single-time call on that cell alone, and an
    empty grid gives an empty array of the same form. modes =
    m, an integer (not a bool) from 1 to M (default M), keeps the leading m
    modes: each state is then 2m x 2m, bit for bit the leading block of the
    full state, as only Phi's leading 2m rows and Q's leading block enter
    the combining step.
    Raises CovarianceOverflowError, naming the first time (and the first cell
    of a stack at that time) at which a state leaves double range, and
    NumericError, naming the first cell's shortest span t whose reach
    ||A||_1 t exceeds MAX_REACH = 2^33: its doublings would amplify the
    rounding u = 2^-53 of the start pair past u ||A||_1 t = 2^-20. The
    benchmark, demo and EOM rows to 40 tau reach less than 1e6.

    The combining step runs in extended precision (np.longdouble; plain
    double where the platform has no wider type), while (Phi, Q) are double;
    as numpy has no BLAS for long double, it runs only on the kept block, as
    the one product (Phi / 2) Phi^T per row (Phi / 2 is exact).
    Overflow is checked on the returned states alone: an inf or nan anywhere
    in an earlier doubling reaches the kept rows of Phi and Q as inf or nan.
    In the divergent regime the covariance grows to ~1e9 while the resources
    depend on its O(1) squeezed part, which Phi Phi^T / 2 + Q reaches only by
    cancellation: on a 401-point grid to 5 tau of a divergent thermal model,
    the squeezed variance is 5.4e-8 off (relative) at row 397 with the step
    in long double and 5.4e-7 with it in double.
    """
    if modes is None:
        modes = dd.modes
    if (isinstance(modes, bool) or not isinstance(modes, (int, np.integer))
            or not 1 <= modes <= dd.modes):
        raise ValueError(f"modes must be an integer from 1 to {dd.modes}, got {modes!r}")
    kept = 2 * int(modes)
    single = dd.a.ndim == 2
    a, d = (dd.a[None], dd.d[None]) if single else (dd.a, dd.d)
    cells = len(a)
    if not cells:
        raise ValueError("propagate_lti needs at least one drift/diffusion pair")
    times = np.asarray(times, dtype=float)
    shape = times.shape  # a single pair's result keeps it
    if times.ndim == 1:
        times = np.broadcast_to(times, (cells, len(times)))
    if times.ndim != 2 or times.shape[0] != cells or not np.all(np.isfinite(times)):
        raise ValueError("times must be finite, of shape (T,) or one row of T per cell")
    if np.any(np.diff(times, axis=1, prepend=0.0) < 0.0):
        raise ValueError("times must be non-negative and non-decreasing")

    # one row per (cell, time), cell-major; a row's time is its span from the vacuum
    cell_of, span = np.repeat(np.arange(cells), times.shape[1]), times.ravel()
    reach = _norm1(a)[cell_of] * span
    if np.any(reach > MAX_REACH):
        row = int(np.argmax(reach > MAX_REACH))  # the first cell's shortest such span
        where = f" in cell {cell_of[row]}" if cells > 1 else ""
        raise NumericError(f"span {span[row]:g}{where} is past the doubling bound "
                           f"u ||A||_1 h <= 2^-20 (||A||_1 h = {reach[row]:.3g})")
    data = np.empty((len(span), kept, kept))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below
        for start in range(0, len(span), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            phi, q = _van_loan_pair(a[cell_of[rows]], d[cell_of[rows]], span[rows])
            phi = phi[:, :kept].astype(np.longdouble)
            data[rows] = (phi * 0.5) @ np.swapaxes(phi, -1, -2) + q[:, :kept, :kept]
    data = data.reshape(*times.shape, kept, kept)
    bad = ~np.all(np.isfinite(data), axis=(-2, -1))
    if np.any(bad):
        column, cell = divmod(int(np.argmax(bad.T)), cells)  # first column, then first cell
        where = f" in cell {cell}" if cells > 1 else ""
        raise CovarianceOverflowError(
            f"covariance overflows double precision at t = {times[cell, column]:g}{where}")
    out = (data + np.swapaxes(data, -1, -2)) / 2.0
    return out.reshape(*shape, kept, kept) if single else out


def characteristic_time(m: EffectiveModel) -> Field:
    """Timescale 4 pi / (Omega + kappa_a + kappa_c) after which resources are stationary.

    A model with (B,) fields gives the (B,) times of its cells. ParameterError
    if a time is not finite and positive (rates so small that it overflows).
    """
    omega = np.asarray(_hypot(2.0 * m.g_eff, m.kappa_a - m.kappa_c), dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        tau = 4.0 * math.pi / (omega + m.kappa_a + m.kappa_c)
    reject_cells([~((0.0 < tau) & (tau < math.inf))], "characteristic time 4 pi / "
                 "(Omega + kappa_a + kappa_c) is not finite and positive")
    return per_cell(tau)


def squeeze_variances(m: EffectiveModel, t: float) -> tuple[float, float, float]:
    """Variances (dX, dY) of the drift-eigenbasis quadratures and their cross term.

    These are the entries w'_--, w'_++ and w'_+- of _eigenbasis at time t.
    dX decays at rate Omega + kappa_a + kappa_c and saturates; in the
    unsteady regime 2*dX(t) approximates the entanglement kernel zeta(t) for
    t beyond the characteristic time. dY is inf once it exceeds double range.
    """
    _, (dx, dy, xy), _ = _eigenbasis(m, t)
    return float(dx[0]), float(dy[0]), float(xy[0])
