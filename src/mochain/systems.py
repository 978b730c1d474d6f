"""Concrete platforms hosting the microwave-optical chain, and the system registry.

Two builders are provided: the electro-optomechanical system (a mechanical
mode bridges the microwave and optical cavities, one intermediary) and the
cavity optomagnomechanical system (a magnon mode couples the microwave cavity
to the mechanics, which drives the optical cavity: two intermediaries). Each
maps onto the general chain parameters, and each exposes the full linearized
drift/diffusion pair for the numeric route that validates the reduction.

SYSTEMS names every system a run configuration can select (the effective
model, the general chain and the two platforms) and holds, for each, its
parameter dataclass, its chain mapping and its full dynamics. The config
schema and the sweep operations read everything system-specific from it, so
a new platform is one parameter dataclass, two functions and one entry.
EOM_FIG3 and COMM_FIG4 are the read-only reference parameter points of the
paper's figures 3 and 4, shared by the demos, the verify suite and the tests.

Mode ordering of the full systems is always (a, c, intermediaries), so the
microwave-optical sub-state is rows/columns 0..3 of the covariance matrix.
Thermal occupations default to the cryogenic values used throughout the
demos: zero everywhere except ten phonons in the mechanics.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable

import numpy as np

from .chain import ChainParams, EffectiveModel, matched_detunings
from .dynamics import DriftDiffusion

_SQRT2 = math.sqrt(2.0)

EOM_FIG3 = MappingProxyType(dict(omega_b=1.0, delta_a=5.0, g_a=0.12, g_c=0.12,
                                 kappa_a=5e-4, kappa_c=1e-3, kappa_b=1e-6, n_b=10.0))
COMM_FIG4 = MappingProxyType(dict(omega_b=1.0, delta_a=3.0, g_a=0.12, g_m=0.1, g_c=0.12,
                                  kappa_a=1e-4, kappa_c=2e-4, kappa_m=1e-3, kappa_b=1e-6,
                                  n_b=10.0))


@dataclass(frozen=True)
class EomParams:
    """Electro-optomechanical parameters (enhanced couplings, rates in units of omega_b)."""

    omega_b: float
    delta_a: float
    g_a: float
    g_c: float
    kappa_a: float
    kappa_c: float
    kappa_b: float
    n_a: float = 0.0
    n_c: float = 0.0
    n_b: float = 10.0

    def __post_init__(self) -> None:
        if self.omega_b <= 0:
            raise ValueError("mechanical frequency must be positive")
        if min(self.kappa_a, self.kappa_c, self.kappa_b) <= 0:
            raise ValueError("decay rates must be positive")
        if min(self.n_a, self.n_c, self.n_b) < 0:
            raise ValueError("thermal occupations must be non-negative")


@dataclass(frozen=True)
class CommParams:
    """Cavity optomagnomechanical parameters; delta_m defaults to omega_b."""

    omega_b: float
    delta_a: float
    g_a: float
    g_m: float
    g_c: float
    kappa_a: float
    kappa_m: float
    kappa_b: float
    kappa_c: float
    delta_m: float | None = None
    n_a: float = 0.0
    n_m: float = 0.0
    n_c: float = 0.0
    n_b: float = 10.0

    def __post_init__(self) -> None:
        if self.delta_m is None:
            object.__setattr__(self, "delta_m", self.omega_b)
        if self.omega_b <= 0:
            raise ValueError("mechanical frequency must be positive")
        if min(self.kappa_a, self.kappa_m, self.kappa_b, self.kappa_c) <= 0:
            raise ValueError("decay rates must be positive")
        if min(self.n_a, self.n_m, self.n_c, self.n_b) < 0:
            raise ValueError("thermal occupations must be non-negative")


def eom_to_chain(p: EomParams) -> ChainParams:
    """Chain mapping of the electro-optomechanical system.

    Position-position end couplings: equal rotating/counter-rotating mixture
    (both angles pi/4) with couplings scaled by sqrt(2); the single
    intermediary is the mechanical mode. The optical detuning is matched to
    -delta_a plus the energy shift.
    """
    base = ChainParams(
        n=1,
        delta_a=p.delta_a,
        delta_c=-p.delta_a,
        omegas=(p.omega_b,),
        g_a=_SQRT2 * p.g_a,
        g_c=_SQRT2 * p.g_c,
        g_mid=(),
        theta=math.pi / 4.0,
        phi=math.pi / 4.0,
        kappa_a=p.kappa_a,
        kappa_c=p.kappa_c,
        kappa_mid=(p.kappa_b,),
        n_a=p.n_a,
        n_c=p.n_c,
        n_mid=(p.n_b,),
    )
    _, delta_c = matched_detunings(base)
    return dataclasses.replace(base, delta_c=delta_c)


def comm_to_chain(p: CommParams) -> ChainParams:
    """Chain mapping of the cavity optomagnomechanical system.

    The microwave-magnon coupling is beam-splitter-like (theta = 0) with the
    magnon playing intermediary one at frequency delta_m; the mechanics is
    intermediary two at omega_b, and the optical end coupling is the
    position-position form (phi = pi/4, coupling scaled by sqrt(2)).
    """
    base = ChainParams(
        n=2,
        delta_a=p.delta_a,
        delta_c=-p.delta_a,
        omegas=(float(p.delta_m), p.omega_b),
        g_a=p.g_a,
        g_c=_SQRT2 * p.g_c,
        g_mid=(p.g_m,),
        theta=0.0,
        phi=math.pi / 4.0,
        kappa_a=p.kappa_a,
        kappa_c=p.kappa_c,
        kappa_mid=(p.kappa_m, p.kappa_b),
        n_a=p.n_a,
        n_c=p.n_c,
        n_mid=(p.n_m, p.n_b),
    )
    _, delta_c = matched_detunings(base)
    return dataclasses.replace(base, delta_c=delta_c)


def _thermal_diagonal(*pairs: tuple[float, float]) -> np.ndarray:
    entries: list[float] = []
    for kappa, occupation in pairs:
        heat = kappa * (2.0 * occupation + 1.0)
        entries.extend((heat, heat))
    return np.diag(entries)


def eom_full_drift_diffusion(p: EomParams) -> DriftDiffusion:
    """Linearized 6x6 dynamics of the full electro-optomechanical system, ordering (a, c, b).

    The optical detuning comes from the matched pair (figure captions quote
    only delta_a); pass an explicit ChainParams route to override.
    """
    delta_c = eom_to_chain(p).delta_c
    da, dc, wb = p.delta_a, delta_c, p.omega_b
    ka, kc, kb = p.kappa_a, p.kappa_c, p.kappa_b
    ga2, gc2 = 2.0 * p.g_a, 2.0 * p.g_c
    a = np.array(
        [
            [-ka, da, 0.0, 0.0, 0.0, 0.0],
            [-da, -ka, 0.0, 0.0, -ga2, 0.0],
            [0.0, 0.0, -kc, dc, 0.0, 0.0],
            [0.0, 0.0, -dc, -kc, -gc2, 0.0],
            [0.0, 0.0, 0.0, 0.0, -kb, wb],
            [-ga2, 0.0, -gc2, 0.0, -wb, -kb],
        ]
    )
    d = _thermal_diagonal((ka, p.n_a), (kc, p.n_c), (kb, p.n_b))
    return DriftDiffusion(a, d)


def comm_full_drift_diffusion(p: CommParams) -> DriftDiffusion:
    """Linearized 8x8 dynamics of the full optomagnomechanical system, ordering (a, c, m, b)."""
    delta_c = comm_to_chain(p).delta_c
    da, dc, dm, wb = p.delta_a, delta_c, float(p.delta_m), p.omega_b
    ka, kc, km, kb = p.kappa_a, p.kappa_c, p.kappa_m, p.kappa_b
    ga = p.g_a
    gm2, gc2 = 2.0 * p.g_m, 2.0 * p.g_c
    a = np.array(
        [
            [-ka, da, 0.0, 0.0, 0.0, ga, 0.0, 0.0],
            [-da, -ka, 0.0, 0.0, -ga, 0.0, 0.0, 0.0],
            [0.0, 0.0, -kc, dc, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -dc, -kc, 0.0, 0.0, -gc2, 0.0],
            [0.0, ga, 0.0, 0.0, -km, dm, 0.0, 0.0],
            [-ga, 0.0, 0.0, 0.0, -dm, -km, -gm2, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -kb, wb],
            [0.0, 0.0, -gc2, 0.0, -gm2, 0.0, -wb, -kb],
        ]
    )
    d = _thermal_diagonal((ka, p.n_a), (kc, p.n_c), (km, p.n_m), (kb, p.n_b))
    return DriftDiffusion(a, d)


@dataclass(frozen=True)
class System:
    """A selectable system: parameter type, chain mapping, full linearized dynamics.

    to_chain is None for the effective model, which is already reduced;
    full_drift_diffusion is None where the effective model is the whole dynamics.
    """

    params: type
    to_chain: Callable[[Any], ChainParams] | None = None
    full_drift_diffusion: Callable[[Any], DriftDiffusion] | None = None


# The platform entries look the module-level functions up at call time, so a
# rebinding of those names (the layer tracer in perfbench/ does this) reaches
# every dispatch through the registry.
SYSTEMS: dict[str, System] = {
    "effective": System(EffectiveModel),
    "chain": System(ChainParams, to_chain=lambda p: p),
    "eom": System(EomParams, lambda p: eom_to_chain(p), lambda p: eom_full_drift_diffusion(p)),
    "comm": System(CommParams, lambda p: comm_to_chain(p), lambda p: comm_full_drift_diffusion(p)),
}
