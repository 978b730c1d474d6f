"""Gaussian states as stacked covariance arrays, and the resource functionals.

A state of M bosonic modes is the real symmetric 2M x 2M matrix of
symmetrized quadrature second moments, with mode k occupying rows/columns
(2k, 2k+1) as (X_k, Y_k), X = (o + o^dag)/sqrt(2), Y = (o - o^dag)/(i sqrt(2)).
The vacuum is np.eye(2M) / 2; a state is physical when every symplectic
eigenvalue is >= 1/2. Every functional takes one float array of shape
(..., 2M, 2M), one state or a stack, through _states (shape, finiteness,
symmetrize), and returns arrays of the leading shape (numpy scalars for one
state), bit for bit those of the states taken one at a time; an error in a
stack names its first offending state as "state i", and a MochainError also
as its index. No routine mutates its input.

Two routes compute the resources. two_mode_resources evaluates
entanglement and both steering directions of two-mode states from 2x2
determinant closed forms; every table row of the sweeps comes from it. The
general route (log_negativity, gaussian_steering, symplectic_eigenvalues)
diagonalizes Omega v and serves states of three or more modes (monogamy)
and, on two modes, the tests and the verify suite as an independent oracle.
Both of its resources measure one mode against a set of modes and take them
the same way, as (v, one_mode_set, other_modes): one helper checks the sides
and the states' physicality and reduces v to that mode followed by the
others in ascending order. Monogamy residuals and local phase rotations
build on them.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import MochainError, NumericError, UnphysicalStateError

PHYSICALITY_TOL = 1e-9
PAIRING_RTOL = 1e-9
PAIRING_ATOL = 1e-12


def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Block-diagonal symplectic form Omega = oplus_n [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def symmetrize(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """(v + v^T)/2 of each matrix of a stack, bit for bit, wherever that sum is finite.

    Where the sum of two finite entries overflows (both above DBL_MAX/2), the
    entry is v/2 + v^T/2 instead, which stays finite; a non-finite entry
    leaves its pair non-finite.
    """
    vt = np.swapaxes(v, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (v + vt) / 2.0
        if not np.all(np.isfinite(sym)):
            sym = np.where(np.isfinite(sym), sym, v / 2.0 + vt / 2.0)
    return sym


def _state_error(error: type[MochainError], bad: NDArray[np.bool_], values: NDArray,
                 template: str) -> MochainError:
    """error of the first state i flagged in bad, its {value} that of values; template's
    {state} ("state i: ") or {at} (" i") is "" in its body and for one state."""
    i = int(np.argmax(bad))
    body = template.format(value=np.ravel(values)[i], state="", at="")
    if not bad.ndim:
        return error(body)
    return error(template.format(value=np.ravel(values)[i], state=f"state {i}: ", at=f" {i}"),
                 i, body)


def _states(v: ArrayLike) -> NDArray[np.float64]:
    """v as float (..., 2M, 2M) states, symmetrized; ValueError for another shape or a
    non-finite entry (naming the first such state of a stack)."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2] or v.shape[-1] % 2:
        raise ValueError(f"covariance matrix must be 2M x 2M, got shape {v.shape}")
    sym = symmetrize(v)
    finite = np.isfinite(sym)
    if not finite.all():
        bad = ~np.all(finite, axis=(-2, -1))
        where = f"state {int(np.argmax(bad))}: " if bad.ndim else ""
        raise ValueError(f"{where}covariance matrix has non-finite entries")
    return sym


class Regime(Enum):
    """Dynamical classification of the effective two-mode model."""

    STEADY = "Steady"
    CRITICAL = "Critical"
    UNSTEADY = "Unsteady"


def _quadrature_indices(modes: Sequence[int], n_modes: int) -> list[int]:
    idx: list[int] = []
    for m in modes:
        if not 0 <= m < n_modes:
            raise IndexError(f"mode index {m} out of range for {n_modes} modes")
        idx.extend((2 * m, 2 * m + 1))
    return idx


def symplectic_eigenvalues(v: ArrayLike) -> NDArray[np.float64]:
    """Symplectic spectrum {nu_k} of each state, ascending: shape (..., M).

    Computed as the absolute values of the eigenvalues of Omega v, which for
    any symmetric v come in +/- pairs; the pairs are deduplicated to M values.
    Works unchanged for partial transposes (still symmetric positive definite).
    NumericError names the first state whose pairs differ by more than
    PAIRING_RTOL (relative).
    """
    v = _states(v)
    eigs = np.linalg.eigvals(symplectic_form(v.shape[-1] // 2) @ v)
    magnitudes = np.sort(np.abs(eigs), axis=-1)
    lo, hi = magnitudes[..., 0::2], magnitudes[..., 1::2]
    residual = np.max(np.abs(hi - lo) / np.maximum(PAIRING_ATOL / PAIRING_RTOL, hi), axis=-1)
    unpaired = residual > PAIRING_RTOL
    if np.any(unpaired):
        raise _state_error(NumericError, unpaired, residual, "{state}symplectic eigenvalue "
                           "pairing failed, relative residual {value:.3e}")
    return (lo + hi) / 2.0


def _require_physical(nu_min: NDArray[np.float64], unphysical: NDArray[np.bool_]) -> None:
    """UnphysicalStateError naming the first flagged state and its smallest eigenvalue nu_min."""
    if np.any(unphysical):
        raise _state_error(UnphysicalStateError, unphysical, nu_min, "state{at} violates the "
                           "uncertainty bound: min symplectic eigenvalue {value:.12g}")


def _require_conditioned(cond: NDArray[np.float64], block: str) -> None:
    """NumericError naming the first state whose steerer block has condition number above 1e12."""
    singular = ~(cond <= 1e12)
    if np.any(singular):
        raise _state_error(NumericError, singular, cond, "{state}" + block
                           + " is numerically singular (condition number {value:.3e})")


def partial_transpose(v: ArrayLike, flipped: Iterable[int]) -> NDArray[np.float64]:
    """P v P with P negating the Y quadrature of each flipped mode (an involution)."""
    v = _states(v)
    modes = sorted(set(int(m) for m in flipped))
    if not modes:
        raise ValueError("partial transpose needs a non-empty mode set")
    signs = np.ones(v.shape[-1])
    signs[_quadrature_indices(modes, v.shape[-1] // 2)[1::2]] = -1.0
    return v * np.outer(signs, signs)


def _det2(m: NDArray[np.float64]) -> NDArray[np.float64]:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _clamped(raw: NDArray[np.float64]) -> NDArray[np.float64]:
    """max(0, raw) per state, +0.0 at raw = -0.0 or nan."""
    return np.where(raw > 0.0, raw, 0.0)[()]


def _require_finite(*invariants: NDArray[np.float64]) -> None:
    """Raise NumericError naming the first state at which an invariant is not finite."""
    finite = functools.reduce(np.logical_and, map(np.isfinite, invariants))
    if not finite.all():
        raise _state_error(NumericError, ~finite, ~finite,
                           "{state}two-mode invariants left double range")


def two_mode_resources(
    v: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Entanglement and both raw steerings of a stack of two-mode states.

    v has shape (..., 4, 4), modes (a, c); the result is the arrays
    (E, S_ac_raw, S_ca_raw) of shape v.shape[:-2]. Everything comes from 2x2
    determinants (A. Serafini, Quantum Continuous Variables, CRC 2017; Vidal
    & Werner, PRA 65, 032314, 2002): det v = det v_a det(v_c - v_ac^T v_a^-1 v_ac),
    the smallest partial-transpose symplectic eigenvalue from the rationalized
    eta^2 = 2 det v / (Gamma + sqrt(Gamma^2 - 4 det v)) with
    Gamma = det v_a + det v_c - 2 det v_ac, which does not cancel when the
    covariance is large and the state strongly squeezed, and
    S_ij = ln(det v_i / (4 det v)) / 2.

    Raises NumericError when an invariant leaves double range (nu^2, Gamma^2,
    its counterpart for v itself and the blocks' squared norms are checked
    before anything reads them), det v is negative (a covariance whose
    precision is lost, so not positive definite) or a steerer block has a
    condition number above 1e12, UnphysicalStateError when a state's smallest
    symplectic eigenvalue is below 1/2 - PHYSICALITY_TOL, and ValueError on
    non-finite entries; each error names the flat position of the first
    offending state of a stack (of one 4 x 4 state, no position).
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-2:] != (4, 4):
        raise ValueError(f"two-mode states must be 4 x 4, got shape {v.shape}")
    v = _states(v)
    va, vc, vac = v[..., :2, :2], v[..., 2:, 2:], v[..., :2, 2:]
    adj_a = np.stack([np.stack([va[..., 1, 1], -va[..., 0, 1]], -1),
                      np.stack([-va[..., 1, 0], va[..., 0, 0]], -1)], -2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det_a, det_c, det_ac = _det2(va), _det2(vc), _det2(vac)
        inv_a = adj_a / det_a[..., None, None]
        det_v = det_a * _det2(vc - np.swapaxes(vac, -1, -2) @ inv_a @ vac)
        # smallest symplectic eigenvalue of v itself (Gamma with + det v_ac)
        delta, gamma = det_a + det_c + 2.0 * det_ac, det_a + det_c - 2.0 * det_ac
        delta2, gamma2 = delta * delta, gamma * gamma
        nu2 = 2.0 * det_v / (delta + np.sqrt(np.maximum(delta2 - 4.0 * det_v, 0.0)))
        frob2_a, frob2_c = (np.sum(block * block, axis=(-2, -1)) for block in (va, vc))
        _require_finite(nu2, delta2, gamma2, frob2_a, frob2_c)
        # a negative det v is lost precision, not a state below the uncertainty bound
        indefinite = det_v < 0.0
        if np.any(indefinite):
            raise _state_error(NumericError, indefinite, det_v, "{state}covariance is not "
                               "positive definite (det v = {value:.3e})")
        nu = np.sqrt(nu2)
        _require_physical(nu, ~(nu >= 0.5 - PHYSICALITY_TOL))
        for name, frob2, det in (("a", frob2_a, det_a), ("c", frob2_c, det_c)):
            # scale-free: x = 2 |det| / |block|_F^2 is at most 1 however large the block
            x = 2.0 * np.abs(det) / frob2
            _require_conditioned((1.0 + np.sqrt(np.maximum(1.0 - x * x, 0.0))) / x,
                                 f"steerer block {name}")
        eta2 = 2.0 * det_v / (gamma + np.sqrt(np.maximum(gamma2 - 4.0 * det_v, 0.0)))
        e_raw = -np.log(4.0 * eta2) / 2.0
        s_ac = np.log(det_a / (4.0 * det_v)) / 2.0
        s_ca = np.log(det_c / (4.0 * det_v)) / 2.0
    _require_finite(e_raw, s_ac, s_ca)
    return _clamped(e_raw), s_ac, s_ca


def _one_vs_rest(v: ArrayLike, one: Iterable[int], others: Iterable[int]) -> NDArray[np.float64]:
    """Sub-states of physical states v on their single mode `one`, then `others` ascending.

    Modes outside one + others are traced out. ValueError unless one names a
    single mode and others a non-empty set disjoint from it,
    UnphysicalStateError for a state below the uncertainty bound, IndexError
    for a mode out of range.
    """
    one, others = sorted(set(map(int, one))), sorted(set(map(int, others)))
    if len(one) != 1:
        raise ValueError("the first side must be a single mode")
    if not others or one[0] in others:
        raise ValueError("the second side must be non-empty and disjoint from the first")
    v = _states(v)
    nu_min = symplectic_eigenvalues(v)[..., 0]
    _require_physical(nu_min, nu_min < 0.5 - PHYSICALITY_TOL)
    idx = _quadrature_indices(one + others, v.shape[-1] // 2)
    return v[..., np.array(idx)[:, None], idx]


def log_negativity(v: ArrayLike, left: Iterable[int], right: Iterable[int]) -> NDArray[np.float64]:
    """Logarithmic negativity max[0, -ln(2 eta^-)] of the single mode left against right.

    Modes in neither set are traced out first (_one_vs_rest).
    """
    sub = _one_vs_rest(v, left, right)
    eta_min = symplectic_eigenvalues(partial_transpose(sub, {0}))[..., 0]
    return _clamped(-np.log(2.0 * eta_min))


def gaussian_steering(
    v: ArrayLike, steerer: Iterable[int], steered: Iterable[int]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Directional Gaussian steering of the single mode steerer -> steered, (raw, clamped).

    raw = -ln(2 mu) where mu is the minimum symplectic eigenvalue of the Schur
    complement of the steerer block, nu = v_B - v_aB^T v_a^{-1} v_aB. For a
    single steered mode this reduces to the determinant-ratio form
    ln[det v_a / (4 det v)]/2. Modes in neither set are traced out first
    (_one_vs_rest). NumericError names the first state whose steerer block
    has a condition number above 1e12.
    """
    sub = _one_vs_rest(v, steerer, steered)
    v_a, v_ab, v_b = sub[..., :2, :2], sub[..., :2, 2:], sub[..., 2:, 2:]
    _require_conditioned(np.linalg.cond(v_a), "steerer block")
    schur = v_b - np.swapaxes(v_ab, -1, -2) @ np.linalg.solve(v_a, v_ab)
    raw = (-np.log(2.0 * symplectic_eigenvalues(schur)[..., 0]))[()]
    return raw, _clamped(raw)


def monogamy_residuals(v: ArrayLike, focus: int) -> tuple[NDArray[np.float64], ...]:
    """Residuals of the squared-entanglement and steering monogamy inequalities.

    ent residual:   E^2(focus | rest) - sum_j E^2(focus, j)
    steer residual: S(focus -> rest)  - sum_j S(focus -> j)   (clamped values)

    Both are >= 0 (up to numerical noise) for every physical state.
    """
    v = _states(v)
    m = v.shape[-1] // 2
    if m < 3:
        raise ValueError("monogamy residuals need at least three modes")
    rest = [j for j in range(m) if j != focus]
    e_global = log_negativity(v, {focus}, rest)
    ent_residual = e_global * e_global
    steer_residual = gaussian_steering(v, {focus}, rest)[1]
    for j in rest:
        e_pair = log_negativity(v, {focus}, {j})
        ent_residual = ent_residual - e_pair * e_pair
        steer_residual = steer_residual - gaussian_steering(v, {focus}, {j})[1]
    return ent_residual, steer_residual


def local_phase_rotate(v: ArrayLike, mode: int, angle: ArrayLike) -> NDArray[np.float64]:
    """Conjugate one mode's quadratures by a rotation; all resource values are invariant.

    angle is one angle, or one per state of the stack v.
    """
    v = _states(v)
    x, y = _quadrature_indices([mode], v.shape[-1] // 2)
    c, s = np.cos(angle), np.sin(angle)
    g = np.broadcast_to(np.eye(v.shape[-1]), (*np.shape(angle), *v.shape[-2:])).copy()
    g[..., x, x], g[..., x, y], g[..., y, x], g[..., y, y] = c, s, -s, c
    return _states(g @ v @ np.swapaxes(g, -1, -2))
