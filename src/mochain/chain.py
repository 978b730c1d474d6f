"""Chain-coupled hybrid system parameters and their reduction to the two-mode model.

A microwave mode a and an optical mode c sit at the ends of a chain of N
intermediary bosonic modes. Virtual transitions through the chain generate an
effective two-mode squeezing coupling between the end modes; this module holds
the full parameter set, evaluates the effective coupling and the second-order
energy shift in closed form, matches the end-mode detunings, and classifies
the resulting dynamical regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularCouplingError
from .gaussian import Regime

RESONANCE_TOL = 1e-12
CRITICAL_REL_TOL = 1e-9
VALIDITY_THRESHOLD = 0.2


@dataclass(frozen=True)
class ChainParams:
    """Full parameter set of the chain Hamiltonian (end modes + N intermediaries).

    Frequencies and rates are in units of a reference frequency (the demos use
    the mechanical frequency). theta and phi set the rotating/counter-rotating
    mixture of the two end couplings; g_mid holds the N-1 intermediary-pair
    couplings. delta_c = None is resolved, after the field checks, to the
    matched optical detuning -delta_a + shift, the shift taken at delta_c =
    -delta_a and once more at that value (a contraction when perturbative).
    """

    n: int
    delta_a: float
    delta_c: float | None
    omegas: tuple[float, ...]
    g_a: float
    g_c: float
    g_mid: tuple[float, ...]
    theta: float
    phi: float
    kappa_a: float
    kappa_c: float
    kappa_mid: tuple[float, ...]
    n_a: float = 0.0
    n_c: float = 0.0
    n_mid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("chain needs at least one intermediary mode")
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))
        object.__setattr__(self, "g_mid", tuple(float(g) for g in self.g_mid))
        object.__setattr__(self, "kappa_mid", tuple(float(k) for k in self.kappa_mid))
        n_mid = tuple(float(x) for x in self.n_mid) if self.n_mid else (0.0,) * self.n
        object.__setattr__(self, "n_mid", n_mid)
        if len(self.omegas) != self.n:
            raise ValueError(f"expected {self.n} intermediary frequencies, got {len(self.omegas)}")
        if len(self.g_mid) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} intermediary couplings, got {len(self.g_mid)}")
        if len(self.kappa_mid) != self.n or len(self.n_mid) != self.n:
            raise ValueError("kappa_mid and n_mid must have one entry per intermediary mode")
        rates = (self.kappa_a, self.kappa_c, *self.kappa_mid)
        if any(k <= 0 for k in rates):
            raise ValueError("all decay rates must be positive")
        if any(x < 0 for x in (self.n_a, self.n_c, *self.n_mid)):
            raise ValueError("thermal occupations must be non-negative")
        values = (self.delta_a, self.theta, self.phi, self.g_a, self.g_c,
                  *self.omegas, *self.g_mid, *rates)
        if not all(map(math.isfinite, values)):
            raise ValueError("chain parameters must be finite")
        if self.delta_c is None:
            object.__setattr__(self, "delta_c", _matched_delta_c(self))
        if not math.isfinite(self.delta_c):
            raise ValueError("chain parameters must be finite")


@dataclass(frozen=True)
class EffectiveModel:
    """Reduced microwave-optical description: squeezing coupling, decays, occupations."""

    g_eff: float
    kappa_a: float
    kappa_c: float
    n_a: float = 0.0
    n_c: float = 0.0

    def __post_init__(self) -> None:
        if self.kappa_a <= 0 or self.kappa_c <= 0:
            raise ValueError("decay rates must be positive")
        if self.n_a < 0 or self.n_c < 0:
            raise ValueError("thermal occupations must be non-negative")
        if not math.isfinite(self.g_eff * self.g_eff):  # also rejects a non-finite g_eff
            raise ValueError(f"effective coupling g_eff = {self.g_eff!r} is not finite "
                             "or its square overflows")


def _checked_gap(value: float, label: str) -> float:
    if abs(value) < RESONANCE_TOL:
        raise SingularCouplingError(f"resonant denominator {label} = {value:.3e}")
    return value


def effective_coupling(p: ChainParams) -> float:
    """Effective two-mode squeezing strength mediated by the chain.

    N = 1:   g_a g_c [cos(theta) sin(phi)/(D_a - w_1) - sin(theta) cos(phi)/(D_a + w_1)]
    N >= 2:  g_a g_1 g_c * prod_{s=2}^{N-1} [2 g_s w_s/(D_a^2 - w_s^2)]
             * [sin(theta)/(D_a + w_1) - cos(theta)/(D_a - w_1)]
             * [cos(phi)/(D_a + w_N) - sin(phi)/(D_a - w_N)]

    The sign is convention-dependent; every downstream resource value depends
    only on g_eff^2 (the dynamics consumes the signed value consistently).
    """
    da = p.delta_a
    for s, w in enumerate(p.omegas, start=1):
        _checked_gap(da - w, f"delta_a - omega_{s}")
        _checked_gap(da + w, f"delta_a + omega_{s}")
    if p.n == 1:
        w1 = p.omegas[0]
        return p.g_a * p.g_c * (
            np.cos(p.theta) * np.sin(p.phi) / (da - w1)
            - np.sin(p.theta) * np.cos(p.phi) / (da + w1)
        )
    w1, wn = p.omegas[0], p.omegas[-1]
    middle = 1.0
    for s in range(2, p.n):  # intermediary couplings g_2 .. g_{N-1}
        w = p.omegas[s - 1]
        middle *= 2.0 * p.g_mid[s - 1] * w / (da * da - w * w)
    left = np.sin(p.theta) / (da + w1) - np.cos(p.theta) / (da - w1)
    right = np.cos(p.phi) / (da + wn) - np.sin(p.phi) / (da - wn)
    return p.g_a * p.g_mid[0] * p.g_c * middle * left * right


def _energy_shift_at(p: ChainParams, delta_c: float) -> float:
    w1, wn = p.omegas[0], p.omegas[-1]
    den_a = _checked_gap(w1 * w1 - p.delta_a * p.delta_a, "omega_1^2 - delta_a^2")
    den_c = _checked_gap(wn * wn - delta_c * delta_c, "omega_N^2 - delta_c^2")
    # float products, not ** or numpy scalars: a coupling past ~1e154 gives a
    # non-finite shift without OverflowError or warning, which ChainParams rejects
    term_a = p.g_a * p.g_a * (w1 + p.delta_a * float(np.cos(2.0 * p.theta))) / den_a
    term_c = p.g_c * p.g_c * (wn + delta_c * float(np.cos(2.0 * p.phi))) / den_c
    return float(term_a + term_c)


def _matched_delta_c(p: ChainParams) -> float:
    delta_c = -p.delta_a + _energy_shift_at(p, -p.delta_a)
    return float(-p.delta_a + _energy_shift_at(p, delta_c))


def energy_shift(p: ChainParams) -> float:
    """Second-order energy shift of the end modes from their nearest chain neighbours.

    delta = g_a^2 [w_1 + D_a cos(2 theta)]/(w_1^2 - D_a^2)
          + g_c^2 [w_N + D_c cos(2 phi)]/(w_N^2 - D_c^2)
    """
    return _energy_shift_at(p, p.delta_c)


def validity_report(p: ChainParams) -> list[tuple[str, float, bool]]:
    """Coupling/detuning-gap ratios behind the perturbative reduction (advisory).

    Each coupling is compared against each gap |delta_a -+ omega_s| and
    |delta_c -+ omega_s|; an entry passes when the ratio is below VALIDITY_THRESHOLD.
    """
    couplings = [("g_a", p.g_a), ("g_c", p.g_c)]
    couplings += [(f"g_{s}", g) for s, g in enumerate(p.g_mid, start=1)]
    rows: list[tuple[str, float, bool]] = []
    for s, w in enumerate(p.omegas, start=1):
        for gap_name, gap in ((f"|delta_a - omega_{s}|", abs(p.delta_a - w)),
                              (f"|delta_c - omega_{s}|", abs(p.delta_c - w))):
            for cname, g in couplings:
                ratio = np.inf if gap == 0 else abs(g) / gap
                rows.append((f"{cname}/{gap_name}", float(ratio), bool(ratio < VALIDITY_THRESHOLD)))
    return rows


def reduce(p: ChainParams) -> EffectiveModel:
    """Collapse the chain to the effective two-mode model of its end modes."""
    return EffectiveModel(
        g_eff=float(effective_coupling(p)),
        kappa_a=p.kappa_a,
        kappa_c=p.kappa_c,
        n_a=p.n_a,
        n_c=p.n_c,
    )


def classify_regime(m: EffectiveModel) -> Regime:
    """Steady iff g_eff^2 < kappa_a kappa_c; the boundary itself is Critical.

    Formula dispatch treats Critical as Unsteady (the stationary closed forms
    are finite there); the label is reported separately.
    """
    product = m.kappa_a * m.kappa_c
    gap = m.g_eff**2 - product
    if abs(gap) <= CRITICAL_REL_TOL * product:
        return Regime.CRITICAL
    return Regime.STEADY if gap < 0 else Regime.UNSTEADY
