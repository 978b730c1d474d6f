"""Concrete platforms hosting the microwave-optical chain, and the system registry.

Two builders are provided: the electro-optomechanical system (a mechanical
mode bridges the microwave and optical cavities, one intermediary) and the
cavity optomagnomechanical system (a magnon mode couples the microwave cavity
to the mechanics, which drives the optical cavity: two intermediaries). Each
maps onto the general chain parameters with one ChainParams construction
(delta_c = None, so the chain itself resolves the matched optical detuning),
and each exposes the full linearized drift/diffusion pair for the numeric
route that validates the reduction. Every parameter field may be a float or
a (B,) array over the cells of a sweep chunk: the checks, the chain mapping
and the builders then work on all cells at once, and a builder returns the
stacked (B, 2M, 2M) pair, one 2M x 2M pair being the all-float case.

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
from typing import Any, Callable

import numpy as np

from .chain import ChainParams, EffectiveModel, Field, reject_cells
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

    omega_b: Field
    delta_a: Field
    g_a: Field
    g_c: Field
    kappa_a: Field
    kappa_c: Field
    kappa_b: Field
    n_a: Field = 0.0
    n_c: Field = 0.0
    n_b: Field = 10.0

    def __post_init__(self) -> None:
        _check_platform(self.omega_b, (self.kappa_a, self.kappa_c, self.kappa_b),
                        (self.n_a, self.n_c, self.n_b))


@dataclass(frozen=True)
class CommParams:
    """Cavity optomagnomechanical parameters; delta_m defaults to omega_b."""

    omega_b: Field
    delta_a: Field
    g_a: Field
    g_m: Field
    g_c: Field
    kappa_a: Field
    kappa_m: Field
    kappa_b: Field
    kappa_c: Field
    delta_m: Field | None = None
    n_a: Field = 0.0
    n_m: Field = 0.0
    n_c: Field = 0.0
    n_b: Field = 10.0

    def __post_init__(self) -> None:
        if self.delta_m is None:
            object.__setattr__(self, "delta_m", self.omega_b)
        _check_platform(self.omega_b, (self.kappa_a, self.kappa_m, self.kappa_b, self.kappa_c),
                        (self.n_a, self.n_m, self.n_c, self.n_b))


def _check_platform(omega_b: Field, rates: tuple, occupations: tuple) -> None:
    """A platform's field checks, cell by cell (ParameterError names the first bad one)."""
    reject_cells((omega_b <= 0,), "mechanical frequency must be positive")
    reject_cells((k <= 0 for k in rates), "decay rates must be positive")
    reject_cells((x < 0 for x in occupations), "thermal occupations must be non-negative")


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
        omegas=(p.delta_m, p.omega_b),
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


def _drift_diffusion(rows: list[list], thermal: tuple) -> DriftDiffusion:
    """The pair of a drift written as rows of floats and (B,) arrays, and of the
    diagonal diffusion kappa (2 n + 1) of both quadratures of each (kappa, n) mode.

    The pair is stacked over B cells when any entry is a (B,) array, and a
    single 2M x 2M pair otherwise. Finite parameters can give entries past
    double range (a doubled coupling, a heated rate); any such cell raises
    CovarianceOverflowError.
    """
    with np.errstate(over="ignore"):
        heat = [kappa * (2.0 * n + 1.0) for kappa, n in thermal]
    entries = (*heat, *(entry for row in rows for entry in row))
    stack = np.broadcast_shapes(*(e.shape for e in entries if isinstance(e, np.ndarray)))
    size = len(rows)
    a = np.empty((*stack, size, size))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            a[..., i, j] = entry
    d = np.zeros_like(a)
    for mode, value in enumerate(heat):
        d[..., 2 * mode, 2 * mode] = d[..., 2 * mode + 1, 2 * mode + 1] = value
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
        raise CovarianceOverflowError("drift/diffusion overflows double precision")
    return DriftDiffusion(a, d)


def eom_full_drift_diffusion(p: EomParams, chain: ChainParams | None = None) -> DriftDiffusion:
    """Linearized 6x6 dynamics of the full electro-optomechanical system, ordering (a, c, b).

    The optical detuning comes from the matched pair of the chain mapping
    (figure captions quote only delta_a); pass the already mapped
    eom_to_chain(p) as `chain` to reuse it instead of mapping again. Float
    fields give one 6x6 pair; (B,) fields (and their chain) give the stacked
    (B, 6, 6) pair of a sweep chunk, filled entry by entry from all cells at once.
    """
    dc = (eom_to_chain(p) if chain is None else chain).delta_c
    da, wb, ka, kc, kb = p.delta_a, p.omega_b, p.kappa_a, p.kappa_c, p.kappa_b
    with np.errstate(over="ignore"):  # _drift_diffusion raises on a non-finite entry
        ga2, gc2 = 2.0 * p.g_a, 2.0 * p.g_c
    rows = [
        [-ka, da, 0.0, 0.0, 0.0, 0.0],
        [-da, -ka, 0.0, 0.0, -ga2, 0.0],
        [0.0, 0.0, -kc, dc, 0.0, 0.0],
        [0.0, 0.0, -dc, -kc, -gc2, 0.0],
        [0.0, 0.0, 0.0, 0.0, -kb, wb],
        [-ga2, 0.0, -gc2, 0.0, -wb, -kb],
    ]
    return _drift_diffusion(rows, ((ka, p.n_a), (kc, p.n_c), (kb, p.n_b)))


def comm_full_drift_diffusion(p: CommParams, chain: ChainParams | None = None) -> DriftDiffusion:
    """Linearized 8x8 dynamics of the full optomagnomechanical system, ordering (a, c, m, b).

    The optical detuning is the matched one of comm_to_chain(p); pass that
    mapping as `chain` when it is already at hand. (B,) fields give the
    stacked (B, 8, 8) pair, as for eom_full_drift_diffusion.
    """
    dc = (comm_to_chain(p) if chain is None else chain).delta_c
    da, dm, wb, ga = p.delta_a, p.delta_m, p.omega_b, p.g_a
    ka, kc, km, kb = p.kappa_a, p.kappa_c, p.kappa_m, p.kappa_b
    with np.errstate(over="ignore"):  # _drift_diffusion raises on a non-finite entry
        gm2, gc2 = 2.0 * p.g_m, 2.0 * p.g_c
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
    return _drift_diffusion(rows, ((ka, p.n_a), (kc, p.n_c), (km, p.n_m), (kb, p.n_b)))


@dataclass(frozen=True)
class System:
    """A selectable system: parameter type, chain mapping, full linearized dynamics.

    to_chain is None for the effective model, which is already reduced;
    full_drift_diffusion is None where the effective model is the whole dynamics.
    full_drift_diffusion(params, chain) takes the chain that to_chain
    returned, so a cell is mapped onto the chain once; given the (B,) fields
    of a chunk, both map and build all its cells in one call.
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
