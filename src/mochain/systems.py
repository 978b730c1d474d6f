"""Concrete platforms hosting the microwave-optical chain, and the system registry.

Two builders are provided: the electro-optomechanical system (a mechanical
mode bridges the microwave and optical cavities, one intermediary) and the
cavity optomagnomechanical system (a magnon mode couples the microwave cavity
to the mechanics, which drives the optical cavity: two intermediaries). Each
maps onto the general chain parameters with one ChainParams construction
(delta_c = None, so the chain itself resolves the matched optical detuning),
and each exposes the full linearized drift/diffusion pair for the numeric
route that validates the reduction: one pair for one parameter object, or
one stacked pair for a sequence of them (the cells of a sweep chunk), built
by the same code.

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

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Sequence

import numpy as np

from .chain import ChainParams, EffectiveModel
from .dynamics import DriftDiffusion
from .errors import CovarianceOverflowError

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
    intermediary is the mechanical mode. The optical detuning is left to
    ChainParams to match (-delta_a plus the energy shift).
    """
    return ChainParams(
        n=1,
        delta_a=p.delta_a,
        delta_c=None,
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


def comm_to_chain(p: CommParams) -> ChainParams:
    """Chain mapping of the cavity optomagnomechanical system.

    The microwave-magnon coupling is beam-splitter-like (theta = 0) with the
    magnon playing intermediary one at frequency delta_m; the mechanics is
    intermediary two at omega_b, and the optical end coupling is the
    position-position form (phi = pi/4, coupling scaled by sqrt(2)). The
    optical detuning is matched by ChainParams, as for eom_to_chain.
    """
    return ChainParams(
        n=2,
        delta_a=p.delta_a,
        delta_c=None,
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


def _columns(p: Any, chain: Any, kind: type, to_chain: Callable[[Any], ChainParams],
             names: tuple[str, ...]) -> tuple[bool, np.ndarray]:
    """Whether p is one parameter object, and one (B,) row per named field of the
    B cells, followed by the matched delta_c of their chains (mapped when None)."""
    single = isinstance(p, kind)
    params = [p] if single else list(p)
    chains = [chain] if single and chain is not None else chain
    chains = [to_chain(q) for q in params] if chains is None else list(chains)
    if len(chains) != len(params):
        raise ValueError(f"{len(params)} parameter objects but {len(chains)} chains")
    return single, np.array([[getattr(q, name) for name in names] + [c.delta_c]
                             for q, c in zip(params, chains)], dtype=float).T


def _drift_diffusion(rows: list[list], thermal: tuple, single: bool) -> DriftDiffusion:
    """The pair of a drift written as rows of scalars and (B,) arrays, and of the
    diagonal diffusion kappa (2 n + 1) of both quadratures of each (kappa, n) mode.
    Finite parameters can give entries past double range (a doubled coupling, a
    heated rate); the first such cell raises CovarianceOverflowError.
    """
    with np.errstate(over="ignore"):
        heat = np.stack([kappa * (2.0 * n + 1.0) for kappa, n in thermal], axis=-1)
    a = np.empty((len(heat), len(rows), len(rows)))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            a[:, i, j] = entry
    d = np.zeros_like(a)
    d[:, range(len(rows)), range(len(rows))] = np.repeat(heat, 2, axis=-1)
    overflow = ~(np.all(np.isfinite(a), axis=(1, 2)) & np.all(np.isfinite(d), axis=(1, 2)))
    if np.any(overflow):
        raise CovarianceOverflowError("drift/diffusion overflows double precision",
                                      index=None if single else int(np.argmax(overflow)))
    return DriftDiffusion(a[0], d[0]) if single else DriftDiffusion(a, d)


def eom_full_drift_diffusion(p: EomParams | Sequence[EomParams],
                             chain: ChainParams | Sequence[ChainParams] | None = None
                             ) -> DriftDiffusion:
    """Linearized 6x6 dynamics of the full electro-optomechanical system, ordering (a, c, b).

    The optical detuning comes from the matched pair of the chain mapping
    (figure captions quote only delta_a); pass the already mapped
    eom_to_chain(p) as `chain` to reuse it instead of mapping again. One
    parameter object gives one 6x6 pair; a sequence of them (and of their
    chains) gives the stacked (B, 6, 6) pair of a sweep chunk, filled entry
    by entry from the field values of all cells at once.
    """
    single, (da, wb, ka, kc, kb, ga, gc, n_a, n_c, n_b, dc) = _columns(
        p, chain, EomParams, eom_to_chain,
        ("delta_a", "omega_b", "kappa_a", "kappa_c", "kappa_b", "g_a", "g_c", "n_a", "n_c", "n_b"))
    with np.errstate(over="ignore"):  # _drift_diffusion raises on a non-finite entry
        ga2, gc2 = 2.0 * ga, 2.0 * gc
    rows = [
        [-ka, da, 0.0, 0.0, 0.0, 0.0],
        [-da, -ka, 0.0, 0.0, -ga2, 0.0],
        [0.0, 0.0, -kc, dc, 0.0, 0.0],
        [0.0, 0.0, -dc, -kc, -gc2, 0.0],
        [0.0, 0.0, 0.0, 0.0, -kb, wb],
        [-ga2, 0.0, -gc2, 0.0, -wb, -kb],
    ]
    return _drift_diffusion(rows, ((ka, n_a), (kc, n_c), (kb, n_b)), single)


def comm_full_drift_diffusion(p: CommParams | Sequence[CommParams],
                              chain: ChainParams | Sequence[ChainParams] | None = None
                              ) -> DriftDiffusion:
    """Linearized 8x8 dynamics of the full optomagnomechanical system, ordering (a, c, m, b).

    The optical detuning is the matched one of comm_to_chain(p); pass that
    mapping as `chain` when it is already at hand. A sequence of parameter
    objects and chains gives the stacked (B, 8, 8) pair, as for
    eom_full_drift_diffusion.
    """
    single, (da, dm, wb, ka, kc, km, kb, ga, gm, gc, n_a, n_c, n_m, n_b, dc) = _columns(
        p, chain, CommParams, comm_to_chain,
        ("delta_a", "delta_m", "omega_b", "kappa_a", "kappa_c", "kappa_m", "kappa_b",
         "g_a", "g_m", "g_c", "n_a", "n_c", "n_m", "n_b"))
    with np.errstate(over="ignore"):  # _drift_diffusion raises on a non-finite entry
        gm2, gc2 = 2.0 * gm, 2.0 * gc
    rows = [
        [-ka, da, 0.0, 0.0, 0.0, ga, 0.0, 0.0],
        [-da, -ka, 0.0, 0.0, -ga, 0.0, 0.0, 0.0],
        [0.0, 0.0, -kc, dc, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -dc, -kc, 0.0, 0.0, -gc2, 0.0],
        [0.0, ga, 0.0, 0.0, -km, dm, 0.0, 0.0],
        [-ga, 0.0, 0.0, 0.0, -dm, -km, -gm2, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -kb, wb],
        [0.0, 0.0, -gc2, 0.0, -gm2, 0.0, -wb, -kb],
    ]
    return _drift_diffusion(rows, ((ka, n_a), (kc, n_c), (km, n_m), (kb, n_b)), single)


@dataclass(frozen=True)
class System:
    """A selectable system: parameter type, chain mapping, full linearized dynamics.

    to_chain is None for the effective model, which is already reduced;
    full_drift_diffusion is None where the effective model is the whole dynamics.
    full_drift_diffusion(params, chains) takes the chains that to_chain
    returned, so a cell is mapped onto the chain once; given sequences of
    both, it builds the stacked pair of all their cells in one call.
    """

    params: type
    to_chain: Callable[[Any], ChainParams] | None = None
    full_drift_diffusion: Callable[[Any, ChainParams], DriftDiffusion] | None = None


# The platform entries look the module-level functions up at call time, so a
# rebinding of those names (the layer tracer in perfbench/ does this) reaches
# every dispatch through the registry.
SYSTEMS: dict[str, System] = {
    "effective": System(EffectiveModel),
    "chain": System(ChainParams, to_chain=lambda p: p),
    "eom": System(EomParams, lambda p: eom_to_chain(p),
                  lambda p, chain: eom_full_drift_diffusion(p, chain)),
    "comm": System(CommParams, lambda p: comm_to_chain(p),
                   lambda p, chain: comm_full_drift_diffusion(p, chain)),
}
