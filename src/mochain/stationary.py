"""Stationary resource values of the effective model and their parameter regions.

The long-time entanglement and steering of the effective two-mode model have
piecewise closed forms: one branch where the drift is stable and the
covariance converges, one where the covariance diverges but the resource
measures still converge. Both branches meet continuously at
g_eff^2 = kappa_a kappa_c; the boundary itself dispatches to the divergent
branch, whose formulas stay finite there. A model whose fields are (B,)
arrays (the cells of a sweep chunk) is evaluated on all cells at once:
both branches are computed, with numpy's warnings silenced, and each cell
keeps the branch of its regime; a float model is the B = 1 case.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Any

import numpy as np

from .chain import EffectiveModel, Field, check_rates, classify_regime, per_cell
from .gaussian import Regime


class SteeringRegion(Enum):
    """Which steering directions survive in the long-time limit."""

    NONE = "None"
    ONE_WAY_A_TO_C = "OneWayAtoC"
    ONE_WAY_C_TO_A = "OneWayCtoA"
    TWO_WAY = "TwoWay"


# indexed by (a -> c present, c -> a present)
_REGIONS = np.array([[SteeringRegion.NONE, SteeringRegion.ONE_WAY_C_TO_A],
                     [SteeringRegion.ONE_WAY_A_TO_C, SteeringRegion.TWO_WAY]], dtype=object)


def _steady(m: EffectiveModel) -> Any:
    return classify_regime(m) == Regime.STEADY


def _divergent_entanglement(g2: Any, omega: Any, total: Any, spread: Any) -> Any:
    """ln[1 + 4 g^2 / (Omega (ka+kc) + (ka-kc)^2)]; either order of the rates gives it."""
    return np.log1p(4.0 * g2 / (omega * total + spread * spread))


def stationary_entanglement(m: EffectiveModel) -> Field:
    """Long-time entanglement between the two effective modes.

    Stable regime:   ln[(ka kc - g^2) / (ka kc - g^2 chi)],
                     chi = sqrt{1 + 4 ka kc (ka kc - g^2)/[g^2 (ka+kc)^2]}
    Divergent regime: ln[1 + 4 g^2 / chi~],
                     chi~ = Omega (ka+kc) + (ka-kc)^2

    Continuous and monotonically increasing in g^2; zero coupling gives zero.
    Both branches are evaluated on every cell of (B,) fields, and each cell
    takes the one of its regime.
    """
    g2 = np.square(m.g_eff)
    ka, kc = m.kappa_a, m.kappa_c
    product, total, spread = ka * kc, ka + kc, ka - kc
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        chi = np.sqrt(1.0 + 4.0 * product * (product - g2) / (g2 * (total * total)))
        stable = np.log((product - g2) / (product - g2 * chi))
        divergent = _divergent_entanglement(g2, np.hypot(2.0 * m.g_eff, spread), total, spread)
    return per_cell(np.where(g2 == 0.0, 0.0, np.where(_steady(m), stable, divergent)))


def stationary_steering(m: EffectiveModel, direction: str = "ac") -> Field:
    """Long-time raw steering quantity, 'ac' (a steers c) or 'ca'.

    Stable regime:    ln{[g^2 (kc^2 - ka^2) + Xi] / [g^2 (ka-kc)^2 + Xi]},
                      Xi = ka kc (ka+kc)^2
    Divergent regime: ln[(Omega - ka + kc)/(2 Omega)] + E_stationary

    The 'ca' direction interchanges the two decay rates. Values are returned
    unclamped: the sign decides which directions are present, and negative
    values carry meaning for the region classification. (B,) fields are
    evaluated on both branches, as for stationary_entanglement.
    """
    if direction == "ac":
        ka, kc = m.kappa_a, m.kappa_c
    elif direction == "ca":
        ka, kc = m.kappa_c, m.kappa_a
    else:
        raise ValueError(f"direction must be 'ac' or 'ca', got {direction!r}")
    g2 = np.square(m.g_eff)
    total, spread = ka + kc, ka - kc
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xi = ka * kc * (total * total)
        stable = np.log((g2 * (kc * kc - ka * ka) + xi) / (g2 * (spread * spread) + xi))
        omega = np.hypot(2.0 * m.g_eff, spread)
        divergent = (np.log((omega - ka + kc) / (2.0 * omega))
                     + _divergent_entanglement(g2, omega, total, spread))
    return per_cell(np.where(_steady(m), stable, divergent))


def steering_region(m: EffectiveModel) -> Any:
    """Classify which stationary steering directions are positive.

    Stable regime: one-way towards the lossier mode (none at equal decays).
    Divergent regime: direction a->c present iff g^2 + ka kc > 2 ka^2 and
    c->a iff g^2 + ka kc > 2 kc^2; both at once is the two-way region, which
    is unreachable in the stable regime. The classification matches the sign
    pattern of the raw stationary values. (B,) fields give the (B,) object
    array of the cells' regions.
    """
    ka, kc = m.kappa_a, m.kappa_c
    steady, coupled = _steady(m), np.not_equal(m.g_eff, 0.0)
    lhs = np.square(m.g_eff) + ka * kc
    a_to_c = coupled & np.where(steady, np.less(ka, kc), lhs > 2.0 * ka * ka)
    c_to_a = coupled & np.where(steady, np.greater(ka, kc), lhs > 2.0 * kc * kc)
    return per_cell(_REGIONS[a_to_c.astype(int), c_to_a.astype(int)])


def boundary_limits(kappa_a: float, kappa_c: float) -> tuple[float, float, float]:
    """Stationary resource values at the stability boundary g^2 -> ka kc.

    E  -> ln[(ka+kc)^2 / (ka^2+kc^2)]          (upper bound of the stable branch)
    S_ac -> ln[(ka kc + kc^2)/(ka^2+kc^2)],  S_ca -> ln[(ka^2 + ka kc)/(ka^2+kc^2)]

    ParameterError (a ValueError) unless both rates are positive.
    """
    check_rates((kappa_a, kappa_c), ())
    ka2, kc2 = kappa_a**2, kappa_c**2
    product = kappa_a * kappa_c
    e_lim = math.log((kappa_a + kappa_c) ** 2 / (ka2 + kc2))
    s_ac_lim = math.log((product + kc2) / (ka2 + kc2))
    s_ca_lim = math.log((ka2 + product) / (ka2 + kc2))
    return e_lim, s_ac_lim, s_ca_lim
