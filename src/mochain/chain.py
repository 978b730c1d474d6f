"""Chain-coupled hybrid system parameters and their reduction to the two-mode model.

A microwave mode a and an optical mode c sit at the ends of a chain of N
intermediary bosonic modes. Virtual transitions through the chain generate an
effective two-mode squeezing coupling between the end modes; this module holds
the full parameter set, evaluates the effective coupling and the second-order
energy shift in closed form, matches the end-mode detunings, and classifies
the resulting dynamical regime.

Every parameter field is a float or a (B,) array holding one value per cell
of a sweep chunk, and every function here evaluates all cells at once: a
float field is the B = 1 case, whose results come back as plain Python
scalars. A check that fails, or a resonant denominator, raises once for the
whole call, its index the first failing cell (first_cell).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np
from numpy.typing import NDArray

from .errors import ParameterError, SingularCouplingError
from .gaussian import Regime

RESONANCE_TOL = 1e-12
CRITICAL_REL_TOL = 1e-9
VALIDITY_THRESHOLD = 0.2

# One parameter value, or one value per cell of a sweep chunk.
Field = float | NDArray[np.float64]

_REGIMES = np.array([Regime.UNSTEADY, Regime.STEADY, Regime.CRITICAL], dtype=object)


def per_cell(value: Any) -> Any:
    """A result as a plain Python scalar when it is one value (the B = 1 case),
    else as the array of its cells."""
    value = np.asarray(value)
    return value.item() if value.ndim == 0 else value


def first_cell(bad: Any) -> int | None:
    """Flat index of the first set flag of a (B,) mask; None for one flag (one cell, or all)."""
    return int(np.argmax(bad)) if np.ndim(bad) else None


def reject_cells(flags: Iterable, message: str) -> None:
    """Raise ParameterError(message) if any flag is set in any cell, indexed by first_cell.

    flags holds one flag per checked value, each a bool or a (B,) mask over
    the cells of a chunk.
    """
    bad = functools.reduce(operator.or_, flags, False)
    if np.any(bad):
        raise ParameterError(message, first_cell(bad))


def check_rates(rates: Iterable[Field], occupations: Iterable[Field]) -> None:
    """Every decay rate positive and every thermal occupation non-negative,
    cell by cell; ParameterError otherwise. x != x flags nan, which is neither."""
    reject_cells(((k <= 0) | (k != k) for k in rates), "decay rates must be positive")
    reject_cells(((x < 0) | (x != x) for x in occupations),
                 "thermal occupations must be non-negative")


@dataclass(frozen=True)
class ChainParams:
    """Full parameter set of the chain Hamiltonian (end modes + N intermediaries).

    Frequencies and rates are in units of a reference frequency (the demos use
    the mechanical frequency). theta and phi set the rotating/counter-rotating
    mixture of the two end couplings; g_mid holds the N-1 intermediary-pair
    couplings. delta_c = None is resolved, after the field checks, to the
    matched optical detuning -delta_a + shift, the shift taken at delta_c =
    -delta_a and once more at that value (a contraction when perturbative).
    Any field, a tuple entry included, may hold the (B,) values of a chunk's
    cells; a failed check raises ParameterError.
    """

    n: int
    delta_a: Field
    delta_c: Field | None
    omegas: tuple[Field, ...]
    g_a: Field
    g_c: Field
    g_mid: tuple[Field, ...]
    theta: Field
    phi: Field
    kappa_a: Field
    kappa_c: Field
    kappa_mid: tuple[Field, ...]
    n_a: Field = 0.0
    n_c: Field = 0.0
    n_mid: tuple[Field, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError("chain needs at least one intermediary mode")
        for name in ("omegas", "g_mid", "kappa_mid", "n_mid"):
            values = tuple(per_cell(np.asarray(x, dtype=float)) for x in getattr(self, name))
            object.__setattr__(self, name, values)
        if not self.n_mid:
            object.__setattr__(self, "n_mid", (0.0,) * self.n)
        if len(self.omegas) != self.n:
            raise ParameterError(f"expected {self.n} intermediary frequencies, "
                                 f"got {len(self.omegas)}")
        if len(self.g_mid) != self.n - 1:
            raise ParameterError(f"expected {self.n - 1} intermediary couplings, "
                                 f"got {len(self.g_mid)}")
        if len(self.kappa_mid) != self.n or len(self.n_mid) != self.n:
            raise ParameterError("kappa_mid and n_mid must have one entry per intermediary mode")
        rates = (self.kappa_a, self.kappa_c, *self.kappa_mid)
        check_rates(rates, (self.n_a, self.n_c, *self.n_mid))
        values = (self.delta_a, self.theta, self.phi, self.g_a, self.g_c,
                  *self.omegas, *self.g_mid, *rates)
        reject_cells((~np.isfinite(v) for v in values), "chain parameters must be finite")
        if self.delta_c is None:
            object.__setattr__(self, "delta_c", _matched_delta_c(self))
        reject_cells((~np.isfinite(self.delta_c),), "chain parameters must be finite")


@dataclass(frozen=True)
class EffectiveModel:
    """Reduced microwave-optical description: squeezing coupling, decays, occupations.

    Each field is a float or the (B,) values of a chunk's cells.
    """

    g_eff: Field
    kappa_a: Field
    kappa_c: Field
    n_a: Field = 0.0
    n_c: Field = 0.0

    def __post_init__(self) -> None:
        check_rates((self.kappa_a, self.kappa_c), (self.n_a, self.n_c))
        with np.errstate(over="ignore", invalid="ignore"):
            overflow = ~np.isfinite(np.multiply(self.g_eff, self.g_eff))  # a non-finite g_eff too
        if np.any(overflow):
            g = float(np.ravel(self.g_eff)[np.argmax(overflow)])
            reject_cells((overflow,), f"effective coupling g_eff = {g!r} is not finite "
                                      "or its square overflows")


def _checked_gap(value: Field, scale: Field, label: str) -> Field:
    """value, a gap between terms of size at most scale; SingularCouplingError
    if it is zero or below RESONANCE_TOL relative to that scale."""
    resonant = (np.abs(value) < RESONANCE_TOL * scale) | (value == 0.0)
    if resonant.any():
        cell = first_cell(resonant)
        raise SingularCouplingError(
            f"resonant denominator {label} = {np.ravel(value)[cell or 0]:.3e}", cell)
    return value


def effective_coupling(p: ChainParams) -> Field:
    """Effective two-mode squeezing strength mediated by the chain.

    N = 1:   g_a g_c [cos(theta) sin(phi)/(D_a - w_1) - sin(theta) cos(phi)/(D_a + w_1)]
    N >= 2:  g_a g_1 g_c * prod_{s=2}^{N-1} [2 g_s w_s/(D_a^2 - w_s^2)]
             * [sin(theta)/(D_a + w_1) - cos(theta)/(D_a - w_1)]
             * [cos(phi)/(D_a + w_N) - sin(phi)/(D_a - w_N)]

    The sign is convention-dependent; every downstream resource value depends
    only on g_eff^2 (the dynamics consumes the signed value consistently).
    """
    da = p.delta_a
    with np.errstate(over="ignore", invalid="ignore"):  # EffectiveModel rejects a non-finite g
        for s, w in enumerate(p.omegas, start=1):
            scale = np.maximum(np.abs(da), np.abs(w))
            _checked_gap(da - w, scale, f"delta_a - omega_{s}")
            _checked_gap(da + w, scale, f"delta_a + omega_{s}")
        if p.n == 1:
            w1 = p.omegas[0]
            return per_cell(p.g_a * p.g_c * (
                np.cos(p.theta) * np.sin(p.phi) / (da - w1)
                - np.sin(p.theta) * np.cos(p.phi) / (da + w1)
            ))
        w1, wn = p.omegas[0], p.omegas[-1]
        middle = 1.0
        for s in range(2, p.n):  # intermediary couplings g_2 .. g_{N-1}
            w = p.omegas[s - 1]
            middle = middle * (2.0 * p.g_mid[s - 1] * w / (da * da - w * w))
        left = np.sin(p.theta) / (da + w1) - np.cos(p.theta) / (da - w1)
        right = np.cos(p.phi) / (da + wn) - np.sin(p.phi) / (da - wn)
        return per_cell(p.g_a * p.g_mid[0] * p.g_c * middle * left * right)


def _energy_shift_at(p: ChainParams, delta_c: Field) -> Field:
    # products, not **: a coupling past ~1e154 gives a non-finite shift, without
    # OverflowError or warning, which ChainParams rejects
    with np.errstate(over="ignore", invalid="ignore"):
        w1, wn = p.omegas[0], p.omegas[-1]
        w1_2, da_2, wn_2, dc_2 = w1 * w1, p.delta_a * p.delta_a, wn * wn, delta_c * delta_c
        den_a = _checked_gap(w1_2 - da_2, np.maximum(w1_2, da_2), "omega_1^2 - delta_a^2")
        den_c = _checked_gap(wn_2 - dc_2, np.maximum(wn_2, dc_2), "omega_N^2 - delta_c^2")
        term_a = p.g_a * p.g_a * (w1 + p.delta_a * np.cos(2.0 * p.theta)) / den_a
        term_c = p.g_c * p.g_c * (wn + delta_c * np.cos(2.0 * p.phi)) / den_c
        return per_cell(term_a + term_c)


def _matched_delta_c(p: ChainParams) -> Field:
    delta_c = -p.delta_a + _energy_shift_at(p, -p.delta_a)
    return -p.delta_a + _energy_shift_at(p, delta_c)


def energy_shift(p: ChainParams) -> Field:
    """Second-order energy shift of the end modes from their nearest chain neighbours.

    delta = g_a^2 [w_1 + D_a cos(2 theta)]/(w_1^2 - D_a^2)
          + g_c^2 [w_N + D_c cos(2 phi)]/(w_N^2 - D_c^2)
    """
    return _energy_shift_at(p, p.delta_c)


def validity_report(p: ChainParams) -> list[tuple[str, Any, Any]]:
    """Coupling/detuning-gap ratios behind the perturbative reduction (advisory).

    Each coupling is compared against each gap |delta_a -+ omega_s| and
    |delta_c -+ omega_s|; an entry passes when the ratio is below
    VALIDITY_THRESHOLD. Each entry is (name, ratio, passes): a float and a
    bool, or the (B,) arrays of a chunk's cells.
    """
    couplings = [("g_a", p.g_a), ("g_c", p.g_c)]
    couplings += [(f"g_{s}", g) for s, g in enumerate(p.g_mid, start=1)]
    rows: list[tuple[str, Any, Any]] = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, w in enumerate(p.omegas, start=1):
            for gap_name, gap in ((f"|delta_a - omega_{s}|", np.abs(p.delta_a - w)),
                                  (f"|delta_c - omega_{s}|", np.abs(p.delta_c - w))):
                for cname, g in couplings:
                    ratio = np.where(gap == 0, np.inf, np.abs(g) / gap)
                    rows.append((f"{cname}/{gap_name}", per_cell(ratio),
                                 per_cell(ratio < VALIDITY_THRESHOLD)))
    return rows


def reduce(p: ChainParams) -> EffectiveModel:
    """Collapse the chain to the effective two-mode model of its end modes."""
    return EffectiveModel(
        g_eff=effective_coupling(p),
        kappa_a=p.kappa_a,
        kappa_c=p.kappa_c,
        n_a=p.n_a,
        n_c=p.n_c,
    )


def classify_regime(m: EffectiveModel) -> Any:
    """Steady iff g_eff^2 < kappa_a kappa_c; the boundary itself is Critical.

    Formula dispatch treats Critical as Unsteady (the stationary closed forms
    are finite there); the label is reported separately. A model with (B,)
    fields gives the (B,) object array of its cells' labels.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        product = m.kappa_a * m.kappa_c
        gap = m.g_eff * m.g_eff - product
    critical = np.abs(gap) <= CRITICAL_REL_TOL * product
    return per_cell(_REGIMES[np.where(critical, 2, np.less(gap, 0))])
