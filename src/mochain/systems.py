"""Concrete platforms hosting the microwave-optical chain, and the system registry.

Two platforms are provided: the electro-optomechanical system (a mechanical
mode bridges the microwave and optical cavities, one intermediary) and the
cavity optomagnomechanical system (a magnon mode couples the microwave cavity
to the mechanics, which drives the optical cavity: two intermediaries). Each
maps onto the general chain parameters with one ChainParams construction
(delta_c = None, so the chain itself resolves the matched optical detuning),
and has no dynamics of its own: its full linearized drift/diffusion pair, for
the numeric route that validates the reduction, is that of its chain, e.g.
chain_full_drift_diffusion(eom_to_chain(p)), the one builder for any chain.
A platform checks only its mechanical frequency itself; its rates and
occupations go through chain.check_rates, as every parameter set's do. Every
parameter field may be a float or a (B,) array over the cells of a sweep
chunk: the checks, the chain mapping and the builder then work on all cells
at once, and the builder returns the stacked (B, 2M, 2M) pair, one 2M x 2M
pair being the all-float case.

SYSTEMS names every system a run configuration can select (the effective
model, the general chain and the two platforms) and holds, for each, its
parameter dataclass and its chain mapping. The rule is stated once: a system
has full dynamics iff it maps onto a chain, and that dynamics is
chain_full_drift_diffusion of its chain; only the effective model, already
reduced, has none. The config schema and the sweep operations read
everything system-specific from the registry, so a new platform is one
parameter dataclass, its chain mapping and one entry, with no drift to
write. EOM_FIG3 and COMM_FIG4 are the read-only reference parameter points
of the paper's figures 3 and 4, shared by the demos, the verify suite and
the tests.

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

from .chain import ChainParams, EffectiveModel, Field, check_rates, first_cell, reject_cells
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
    """A platform's field checks, cell by cell (ParameterError indexes the first bad cell)."""
    reject_cells((omega_b <= 0,), "mechanical frequency must be positive")
    check_rates(rates, occupations)


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


def chain_full_drift_diffusion(c: ChainParams) -> DriftDiffusion:
    """Linearized dynamics of the full chain, modes ordered (a, c, b_1 .. b_N).

    Each mode of detuning (or frequency) Delta and decay kappa contributes
    the block [[-kappa, Delta], [-Delta, -kappa]] and the diffusion
    kappa (2 n + 1) on both its quadratures. An end coupling g at angle theta
    puts -g (cos theta + sin theta) in both its Y-X entries and
    g (cos theta - sin theta) in both its X-Y entries; an intermediary-pair
    coupling g_s puts -2 g_s in both its Y-X entries. The X-Y factor is
    evaluated as sqrt(2) sin(pi/4 - theta), which is exactly 1 at theta = 0
    and exactly 0 at pi/4. (B,) fields give the stacked (B, 2M, 2M) pair.
    Finite parameters can give entries past double range (a doubled
    coupling, a heated rate); CovarianceOverflowError indexes the first such cell.
    """
    detunings = (c.delta_a, c.delta_c, *c.omegas)
    kappas = (c.kappa_a, c.kappa_c, *c.kappa_mid)
    drift, diffusion = [], []  # (row, column, value) entries
    with np.errstate(over="ignore"):  # a non-finite entry raises below
        for m, (delta, kappa, n) in enumerate(zip(detunings, kappas, (c.n_a, c.n_c, *c.n_mid))):
            x, y = 2 * m, 2 * m + 1
            drift += [(x, x, -kappa), (y, y, -kappa), (x, y, delta), (y, x, -delta)]
            heat = kappa * (2.0 * n + 1.0)
            diffusion += [(x, x, heat), (y, y, heat)]
        # (mode i, mode j, Y-X entry, X-Y entry): a and c to their chain neighbours, then the pairs
        couplings = [(i, j, -(g * (np.cos(angle) + np.sin(angle))),
                      g * (_SQRT2 * np.sin(math.pi / 4.0 - angle)))
                     for i, j, g, angle in ((0, 2, c.g_a, c.theta), (1, c.n + 1, c.g_c, c.phi))]
        couplings += [(s + 2, s + 3, -2.0 * g, 0.0) for s, g in enumerate(c.g_mid)]
    for i, j, yx, xy in couplings:
        drift += [(2 * i + 1, 2 * j, yx), (2 * j + 1, 2 * i, yx),
                  (2 * i, 2 * j + 1, xy), (2 * j, 2 * i + 1, xy)]
    size = 2 * len(detunings)
    stack = np.broadcast_shapes(*(v.shape for _, _, v in (*drift, *diffusion)
                                  if isinstance(v, np.ndarray)))
    a, d = np.zeros((*stack, size, size)), np.zeros((*stack, size, size))
    for matrix, entries in ((a, drift), (d, diffusion)):
        for i, j, value in entries:
            matrix[..., i, j] = value
    bad = ~(np.isfinite(a).all(axis=(-2, -1)) & np.isfinite(d).all(axis=(-2, -1)))
    if bad.any():
        raise CovarianceOverflowError("drift/diffusion overflows double precision", first_cell(bad))
    return DriftDiffusion(a, d)


@dataclass(frozen=True)
class System:
    """A selectable system: its parameter type and its chain mapping.

    to_chain is None for the effective model, which is already reduced. Every
    other system has full dynamics, chain_full_drift_diffusion of its chain;
    given the (B,) fields of a chunk, to_chain maps all its cells in one call.
    """

    params: type
    to_chain: Callable[[Any], ChainParams] | None = None


# The platform entries look the module-level mappings up at call time, so a
# rebinding of those names (the layer tracer in perfbench/ does this) reaches
# every dispatch through the registry.
SYSTEMS: dict[str, System] = {
    "effective": System(EffectiveModel),
    "chain": System(ChainParams, lambda p: p),
    "eom": System(EomParams, lambda p: eom_to_chain(p)),
    "comm": System(CommParams, lambda p: comm_to_chain(p)),
}
