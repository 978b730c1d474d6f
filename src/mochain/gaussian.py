"""Covariance-matrix representation of Gaussian states and the resource functionals.

A state of M bosonic modes is held as the real symmetric 2M x 2M matrix of
symmetrized quadrature second moments, with mode k occupying rows/columns
(2k, 2k+1) as (X_k, Y_k), X = (o + o^dag)/sqrt(2), Y = (o - o^dag)/(i sqrt(2)).
In this convention the vacuum is I/2 and a state is physical when every
symplectic eigenvalue is >= 1/2.

On top of that single representation the module provides logarithmic
negativity, directional Gaussian steering (Schur-complement form), monogamy
residuals, and local phase rotations. All functions are pure; no routine
mutates its input.

Two routes compute the resources. two_mode_resources evaluates entanglement
and both steering directions of a whole stack of two-mode states from 2x2
determinant closed forms; every table row of the sweeps comes from it. The
general route (log_negativity, gaussian_steering, symplectic_eigenvalues)
diagonalizes Omega v and serves states of three or more modes (monogamy)
and, on two modes, the tests and the verify suite as an independent oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import NumericError, UnphysicalStateError

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


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric quadrature covariance matrix of an M-mode Gaussian state.

    The constructor symmetrizes its input as (v + v^T)/2 (integration roundoff
    accumulates asymmetry at the 1e-13 level) and rejects non-finite entries
    and odd dimensions. Physicality is *not* enforced here: partial transposes
    of entangled states are legitimately unphysical.
    """

    data: NDArray[np.float64]

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
            raise ValueError(f"covariance matrix must be 2M x 2M, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("covariance matrix has non-finite entries")
        sym = (arr + arr.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "data", sym)

    @property
    def modes(self) -> int:
        return self.data.shape[0] // 2

    @classmethod
    def vacuum(cls, n_modes: int) -> "CovarianceMatrix":
        return cls(np.eye(2 * n_modes) / 2.0)

    def reduced(self, modes: Sequence[int]) -> "CovarianceMatrix":
        """Sub-state on the given modes, in the order listed."""
        idx = _quadrature_indices(modes, self.modes)
        return CovarianceMatrix(self.data[np.ix_(idx, idx)])


@dataclass(frozen=True)
class ModePartition:
    """Disjoint bipartition (left | right) of a subset of the modes."""

    left: frozenset[int]
    right: frozenset[int]

    def __init__(self, left: Iterable[int], right: Iterable[int]) -> None:
        object.__setattr__(self, "left", frozenset(int(m) for m in left))
        object.__setattr__(self, "right", frozenset(int(m) for m in right))
        if not self.left or not self.right:
            raise ValueError("both sides of a partition must be non-empty")
        if self.left & self.right:
            raise ValueError(f"partition sides overlap: {sorted(self.left & self.right)}")


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


def symplectic_eigenvalues(v: CovarianceMatrix) -> NDArray[np.float64]:
    """Symplectic spectrum {nu_k} of a covariance matrix, ascending.

    Computed as the absolute values of the eigenvalues of Omega v, which for
    any symmetric v come in +/- pairs; the pairs are deduplicated to M values.
    Works unchanged for partial transposes (still symmetric positive definite).
    """
    arr = v.data
    if not np.all(np.isfinite(arr)):
        raise ValueError("covariance matrix has non-finite entries")
    m = v.modes
    eigs = np.linalg.eigvals(symplectic_form(m) @ arr)
    magnitudes = np.sort(np.abs(eigs))
    lo, hi = magnitudes[0::2], magnitudes[1::2]
    residual = float(np.max(np.abs(hi - lo) / np.maximum(PAIRING_ATOL / PAIRING_RTOL, hi)))
    if residual > PAIRING_RTOL:
        raise NumericError(
            f"symplectic eigenvalue pairing failed, relative residual {residual:.3e}"
        )
    return (lo + hi) / 2.0


def _require_physical(v: CovarianceMatrix) -> None:
    nu_min = symplectic_eigenvalues(v)[0]
    if nu_min < 0.5 - PHYSICALITY_TOL:
        raise UnphysicalStateError(
            f"state violates the uncertainty bound: min symplectic eigenvalue {nu_min:.12g}"
        )


def partial_transpose(v: CovarianceMatrix, flipped: Iterable[int]) -> CovarianceMatrix:
    """P v P with P negating the Y quadrature of each flipped mode (an involution)."""
    modes = sorted(set(int(m) for m in flipped))
    if not modes:
        raise ValueError("partial transpose needs a non-empty mode set")
    signs = np.ones(2 * v.modes)
    for m in modes:
        if not 0 <= m < v.modes:
            raise IndexError(f"mode index {m} out of range for {v.modes} modes")
        signs[2 * m + 1] = -1.0
    return CovarianceMatrix(v.data * np.outer(signs, signs))


def _det2(m: NDArray[np.float64]) -> NDArray[np.float64]:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _first_index(bad: NDArray[np.bool_]) -> int:
    return int(np.flatnonzero(bad.reshape(-1))[0])


def _require_finite(*invariants: NDArray[np.float64]) -> None:
    """Raise NumericError naming the first state at which an invariant is not finite."""
    finite = functools.reduce(np.logical_and, map(np.isfinite, invariants))
    if not finite.all():
        raise NumericError(f"state {_first_index(~finite)}: two-mode invariants left double range")


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
    before anything reads them) or a steerer block has a condition number
    above 1e12, UnphysicalStateError when a state's smallest symplectic
    eigenvalue is below 1/2 - PHYSICALITY_TOL, and ValueError on non-finite
    entries; each error names the flat position of the first offending state.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-2:] != (4, 4):
        raise ValueError(f"two-mode states must be 4 x 4, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("covariance matrix has non-finite entries")
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
        unphysical = ~(np.sqrt(nu2) >= 0.5 - PHYSICALITY_TOL)
        if np.any(unphysical):
            i = _first_index(unphysical)
            raise UnphysicalStateError(
                f"state {i} violates the uncertainty bound: min symplectic eigenvalue "
                f"{np.sqrt(nu2.reshape(-1)[i]):.12g}")
        for name, frob2, det in (("a", frob2_a, det_a), ("c", frob2_c, det_c)):
            # scale-free: x = 2 |det| / |block|_F^2 is at most 1 however large the block
            x = 2.0 * np.abs(det) / frob2
            cond = (1.0 + np.sqrt(np.maximum(1.0 - x * x, 0.0))) / x
            singular = ~(cond <= 1e12)
            if np.any(singular):
                i = _first_index(singular)
                raise NumericError(
                    f"state {i}: steerer block {name} is numerically singular "
                    f"(condition number {cond.reshape(-1)[i]:.3e})")
        eta2 = 2.0 * det_v / (gamma + np.sqrt(np.maximum(gamma2 - 4.0 * det_v, 0.0)))
        e_raw = -np.log(4.0 * eta2) / 2.0
        s_ac = np.log(det_a / (4.0 * det_v)) / 2.0
        s_ca = np.log(det_c / (4.0 * det_v)) / 2.0
    _require_finite(e_raw, s_ac, s_ca)
    return np.where(e_raw > 0.0, e_raw, 0.0), s_ac, s_ca


def log_negativity(v: CovarianceMatrix, partition: ModePartition) -> float:
    """Logarithmic negativity max[0, -ln(2 eta^-)] across the given bipartition.

    The left side must be a single mode (only 1-vs-1 and 1-vs-rest splits are
    supported); modes outside the partition are traced out first.
    """
    if len(partition.left) != 1:
        raise ValueError("left side of the partition must be a single mode")
    _require_physical(v)
    all_modes = sorted(partition.left | partition.right)
    if len(all_modes) < v.modes:
        order = {m: i for i, m in enumerate(all_modes)}
        v = v.reduced(all_modes)
        left = {order[m] for m in partition.left}
    elif len(all_modes) > v.modes:
        raise ValueError("partition covers all modes on one side or references extra modes")
    else:
        left = set(partition.left)
    eta_min = float(symplectic_eigenvalues(partial_transpose(v, left))[0])
    return max(0.0, -float(np.log(2.0 * eta_min)))


def gaussian_steering(
    v: CovarianceMatrix, steerer: Iterable[int], steered: Iterable[int]
) -> tuple[float, float]:
    """Directional Gaussian steering steerer -> steered, (raw, clamped).

    raw = -ln(2 mu) where mu is the minimum symplectic eigenvalue of the Schur
    complement of the steerer block, nu = v_B - v_aB^T v_a^{-1} v_aB. For a
    single steered mode this reduces to the determinant-ratio form
    ln[det v_a / (4 det v)]/2. The steerer must be a single mode; modes outside
    steerer + steered are traced out first.
    """
    steerer_set = sorted(set(int(m) for m in steerer))
    steered_set = sorted(set(int(m) for m in steered))
    if len(steerer_set) != 1:
        raise ValueError("multi-mode steerers are not supported")
    if not steered_set or set(steerer_set) & set(steered_set):
        raise ValueError("steered set must be non-empty and disjoint from the steerer")
    _require_physical(v)
    sub = v.reduced(steerer_set + steered_set)
    n_b = len(steered_set)
    v_a = sub.data[:2, :2]
    v_ab = sub.data[:2, 2:]
    v_b = sub.data[2:, 2:]
    cond = float(np.linalg.cond(v_a))
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericError(f"steerer block is numerically singular (condition number {cond:.3e})")
    schur = v_b - v_ab.T @ np.linalg.solve(v_a, v_ab)
    mu = float(symplectic_eigenvalues(CovarianceMatrix(schur))[0])
    raw = -float(np.log(2.0 * mu))
    return raw, max(0.0, raw)


def monogamy_residuals(v: CovarianceMatrix, focus: int) -> tuple[float, float]:
    """Residuals of the squared-entanglement and steering monogamy inequalities.

    ent residual:   E^2(focus | rest) - sum_j E^2(focus, j)
    steer residual: S(focus -> rest)  - sum_j S(focus -> j)   (clamped values)

    Both are >= 0 (up to numerical noise) for every physical state.
    """
    m = v.modes
    if m < 3:
        raise ValueError("monogamy residuals need at least three modes")
    if not 0 <= focus < m:
        raise IndexError(f"mode index {focus} out of range for {m} modes")
    rest = [j for j in range(m) if j != focus]
    e_global = log_negativity(v, ModePartition({focus}, rest))
    s_global = gaussian_steering(v, {focus}, rest)[1]
    ent_residual = e_global**2
    steer_residual = s_global
    for j in rest:
        ent_residual -= log_negativity(v, ModePartition({focus}, {j})) ** 2
        steer_residual -= gaussian_steering(v, {focus}, {j})[1]
    return float(ent_residual), float(steer_residual)


def local_phase_rotate(v: CovarianceMatrix, mode: int, angle: float) -> CovarianceMatrix:
    """Conjugate one mode's quadratures by a rotation; all resource values are invariant."""
    if not 0 <= mode < v.modes:
        raise IndexError(f"mode index {mode} out of range for {v.modes} modes")
    g = np.eye(2 * v.modes)
    c, s = np.cos(angle), np.sin(angle)
    g[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = [[c, s], [-s, c]]
    return CovarianceMatrix(g @ v.data @ g.T)

