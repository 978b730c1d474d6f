"""Platform builders: chain mappings, specialized couplings, full drift matrices."""

import math
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from mochain.chain import ChainParams, effective_coupling, reduce
from mochain.dynamics import DriftDiffusion, steady_state
from mochain.errors import CovarianceOverflowError
from mochain.gaussian import CovarianceMatrix, log_negativity, symplectic_form
from mochain.systems import (
    COMM_FIG4,
    EOM_FIG3,
    CommParams,
    EomParams,
    chain_full_drift_diffusion,
    comm_to_chain,
    eom_to_chain,
)
from mochain.verify import lyapunov_rk4

FIG3_EOM = EomParams(**EOM_FIG3)
FIG4_COMM = CommParams(**COMM_FIG4)


def stacked(cells):
    """One parameter object whose fields hold the values of the cells as (B,) arrays."""
    kind = type(cells[0])
    return kind(**{f.name: np.array([getattr(c, f.name) for c in cells], dtype=float)
                   for f in fields(kind)})


class TestEomMapping:
    def test_specialized_coupling_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            p = EomParams(
                omega_b=float(rng.uniform(0.5, 2.0)),
                delta_a=float(rng.uniform(2.5, 8.0)),
                g_a=float(rng.uniform(0.01, 0.3)),
                g_c=float(rng.uniform(0.01, 0.3)),
                kappa_a=1e-3, kappa_c=1e-3, kappa_b=1e-6,
            )
            expected = 2.0 * p.g_a * p.g_c * p.omega_b / (p.delta_a**2 - p.omega_b**2)
            g = effective_coupling(eom_to_chain(p))
            assert abs(g - expected) < 1e-12 * abs(expected)

    def test_reference_parameters(self):
        model = reduce(eom_to_chain(FIG3_EOM))
        assert abs(model.g_eff - 0.0012) < 1e-15
        assert model.kappa_a == 5e-4 and model.kappa_c == 1e-3

    def test_zero_coupling(self):
        assert reduce(eom_to_chain(replace(FIG3_EOM, g_a=0.0))).g_eff == 0.0

    def test_matched_optical_detuning(self):
        chain = eom_to_chain(FIG3_EOM)
        assert abs(chain.delta_c - (-5.0024)) < 5e-6

    def test_mechanical_bath_carried_over(self):
        chain = eom_to_chain(FIG3_EOM)
        assert chain.kappa_mid == (1e-6,)
        assert chain.n_mid == (10.0,)


class TestCommMapping:
    def test_specialized_coupling_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            p = CommParams(
                omega_b=float(rng.uniform(0.5, 2.0)),
                delta_a=float(rng.uniform(2.5, 8.0)),
                delta_m=float(rng.uniform(0.5, 1.8)),
                g_a=float(rng.uniform(0.01, 0.3)),
                g_m=float(rng.uniform(0.01, 0.3)),
                g_c=float(rng.uniform(0.01, 0.3)),
                kappa_a=1e-4, kappa_m=1e-3, kappa_b=1e-6, kappa_c=2e-4,
            )
            expected = (2.0 * p.g_a * p.g_m * p.g_c * p.omega_b
                        / ((p.delta_m - p.delta_a) * (p.omega_b**2 - p.delta_a**2)))
            g = effective_coupling(comm_to_chain(p))
            assert abs(g - expected) < 1e-12 * abs(expected)

    def test_reference_parameters(self):
        assert abs(reduce(comm_to_chain(FIG4_COMM)).g_eff - 1.8e-4) < 1e-18

    def test_zero_magnomechanical_coupling(self):
        assert reduce(comm_to_chain(replace(FIG4_COMM, g_m=0.0))).g_eff == 0.0

    def test_magnon_detuning_defaults_to_mechanical_frequency(self):
        assert FIG4_COMM.delta_m == FIG4_COMM.omega_b
        assert CommParams(**dict(COMM_FIG4, delta_m=1.4)).delta_m == 1.4


class TestEomDriftDiffusion:
    def test_printed_entries(self):
        dd = chain_full_drift_diffusion(eom_to_chain(FIG3_EOM))
        a = dd.a
        assert a[0, 1] == FIG3_EOM.delta_a
        assert a[1, 0] == -FIG3_EOM.delta_a
        assert a[1, 4] == -2 * FIG3_EOM.g_a
        assert a[3, 4] == -2 * FIG3_EOM.g_c
        assert a[5, 0] == -2 * FIG3_EOM.g_a
        assert a[5, 2] == -2 * FIG3_EOM.g_c
        assert a[4, 5] == FIG3_EOM.omega_b
        assert a[5, 4] == -FIG3_EOM.omega_b
        assert abs(np.trace(a) + 2 * (5e-4 + 1e-3 + 1e-6)) < 1e-15

    def test_thermal_diffusion(self):
        dd = chain_full_drift_diffusion(eom_to_chain(FIG3_EOM))
        assert dd.d[0, 0] == 5e-4
        assert dd.d[4, 4] == 1e-6 * 21.0  # ten phonons

    def test_decoupled_steady_state(self):
        p = replace(FIG3_EOM, g_a=0.0, g_c=0.0, kappa_a=1e-3, kappa_b=1e-4, n_b=2.0)
        v = steady_state(chain_full_drift_diffusion(eom_to_chain(p))).data
        expected = np.diag([0.5, 0.5, 0.5, 0.5, 2.5, 2.5])
        assert np.max(np.abs(v - expected)) < 1e-10


class TestCommDriftDiffusion:
    def test_printed_entries(self):
        dd = chain_full_drift_diffusion(comm_to_chain(FIG4_COMM))
        a = dd.a
        assert a[0, 5] == FIG4_COMM.g_a
        assert a[1, 4] == -FIG4_COMM.g_a
        assert a[4, 1] == FIG4_COMM.g_a
        assert a[5, 0] == -FIG4_COMM.g_a
        assert a[3, 6] == -2 * FIG4_COMM.g_c
        assert a[7, 2] == -2 * FIG4_COMM.g_c
        assert a[5, 6] == -2 * FIG4_COMM.g_m
        assert a[7, 4] == -2 * FIG4_COMM.g_m
        assert a[4, 5] == FIG4_COMM.delta_m
        assert a[6, 7] == FIG4_COMM.omega_b
        assert abs(np.trace(a) + 2 * (1e-4 + 2e-4 + 1e-3 + 1e-6)) < 1e-15

    def test_decoupled_microwave_stays_vacuum(self):
        dd = chain_full_drift_diffusion(comm_to_chain(replace(FIG4_COMM, g_a=0.0)))
        final = CovarianceMatrix(lyapunov_rk4(dd, CovarianceMatrix.vacuum(4), [0.0, 50.0])[-1])
        assert np.max(np.abs(final.reduced([0]).data - np.eye(2) / 2)) < 1e-8
        assert log_negativity(final, {0}, {1}) == 0.0


class TestStackedBuilders:
    """(B,) parameter fields give the stack of the single-cell pairs."""

    @pytest.mark.parametrize("to_chain, cells", [
        (eom_to_chain,
         [FIG3_EOM, replace(FIG3_EOM, g_a=0.2, n_a=0.5), replace(FIG3_EOM, kappa_c=3e-3)]),
        (comm_to_chain,
         [FIG4_COMM, replace(FIG4_COMM, delta_m=1.2, n_m=1.0), replace(FIG4_COMM, g_m=0.0)]),
    ], ids=["eom", "comm"])
    def test_stack_is_bit_identical_to_single_cells(self, to_chain, cells):
        stack = chain_full_drift_diffusion(to_chain(stacked(cells)))
        for cell, p in enumerate(cells):
            single = chain_full_drift_diffusion(to_chain(p))
            assert stack.a.shape == (len(cells), *single.a.shape)
            assert np.array_equal(stack.a[cell], single.a)
            assert np.array_equal(stack.d[cell], single.d)


def reference_pair(rows, thermal):
    """The pair of a drift written as rows and the diffusion kappa (2 n + 1) of
    each (kappa, n) mode: the hand-written platform dynamics that the chain
    builder replaced, kept here as its reference."""
    heat = [kappa * (2.0 * n + 1.0) for kappa, n in thermal]
    stack = np.broadcast_shapes(*(np.shape(e) for e in (*heat, *(e for row in rows for e in row))))
    size = len(rows)
    a = np.empty((*stack, size, size))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            a[..., i, j] = entry
    d = np.zeros_like(a)
    for mode, value in enumerate(heat):
        d[..., 2 * mode, 2 * mode] = d[..., 2 * mode + 1, 2 * mode + 1] = value
    return a, d


def eom_reference(p):
    dc = eom_to_chain(p).delta_c
    da, wb, ka, kc, kb = p.delta_a, p.omega_b, p.kappa_a, p.kappa_c, p.kappa_b
    ga2, gc2 = 2.0 * p.g_a, 2.0 * p.g_c
    rows = [
        [-ka, da, 0.0, 0.0, 0.0, 0.0],
        [-da, -ka, 0.0, 0.0, -ga2, 0.0],
        [0.0, 0.0, -kc, dc, 0.0, 0.0],
        [0.0, 0.0, -dc, -kc, -gc2, 0.0],
        [0.0, 0.0, 0.0, 0.0, -kb, wb],
        [-ga2, 0.0, -gc2, 0.0, -wb, -kb],
    ]
    return reference_pair(rows, ((ka, p.n_a), (kc, p.n_c), (kb, p.n_b)))


def comm_reference(p):
    dc = comm_to_chain(p).delta_c
    da, dm, wb, ga = p.delta_a, p.delta_m, p.omega_b, p.g_a
    ka, kc, km, kb = p.kappa_a, p.kappa_c, p.kappa_m, p.kappa_b
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
    return reference_pair(rows, ((ka, p.n_a), (kc, p.n_c), (km, p.n_m), (kb, p.n_b)))


def random_eom(rng, size):
    u = partial(rng.uniform, size=size)
    return EomParams(omega_b=u(0.5, 2.0), delta_a=u(2.5, 8.0), g_a=u(0.01, 0.5), g_c=u(0.01, 0.5),
                     kappa_a=u(1e-4, 1e-2), kappa_c=u(1e-4, 1e-2), kappa_b=u(1e-7, 1e-5),
                     n_a=u(0.0, 2.0), n_c=u(0.0, 2.0), n_b=u(0.0, 20.0))


def random_comm(rng, size):
    u = partial(rng.uniform, size=size)
    return CommParams(omega_b=u(0.5, 2.0), delta_a=u(2.5, 8.0), delta_m=u(0.5, 1.8),
                      g_a=u(0.01, 0.5), g_m=u(0.01, 0.5), g_c=u(0.01, 0.5),
                      kappa_a=u(1e-4, 1e-2), kappa_m=u(1e-4, 1e-2), kappa_b=u(1e-7, 1e-5),
                      kappa_c=u(1e-4, 1e-2), n_a=u(0.0, 2.0), n_m=u(0.0, 2.0),
                      n_c=u(0.0, 2.0), n_b=u(0.0, 20.0))


# the kappa_a x kappa_c grid of the Fig-4 region map, one cell per grid point
_REGION_KAPPAS = np.meshgrid(np.geomspace(1e-4, 1e-3, 20), np.geomspace(1e-4, 1e-3, 20))
REGION_COMM = replace(FIG4_COMM, kappa_a=_REGION_KAPPAS[0].ravel(),
                      kappa_c=_REGION_KAPPAS[1].ravel())


class TestChainBuilderReference:
    """The platform dynamics derived from the chain mapping match the hand-written ones."""

    @pytest.mark.parametrize("to_chain, reference, draw", [
        (eom_to_chain, eom_reference, random_eom),
        (comm_to_chain, comm_reference, random_comm),
    ], ids=["eom", "comm"])
    def test_random_stack_within_one_ulp(self, to_chain, reference, draw):
        p = draw(np.random.default_rng(53), 400)
        dd, (a, d) = chain_full_drift_diffusion(to_chain(p)), reference(p)
        assert np.array_equal(dd.d, d)
        zero = a == 0.0
        assert np.all(dd.a[zero] == 0.0)
        assert np.all(np.abs(dd.a - a)[~zero] <= np.spacing(np.abs(a[~zero])))

    @pytest.mark.parametrize("to_chain, reference, p", [
        (eom_to_chain, eom_reference, FIG3_EOM),
        (comm_to_chain, comm_reference, FIG4_COMM),
        (comm_to_chain, comm_reference, REGION_COMM),
    ], ids=["fig3", "fig4", "region-comm"])
    def test_figure_points_are_bit_identical(self, to_chain, reference, p):
        dd, (a, d) = chain_full_drift_diffusion(to_chain(p)), reference(p)
        assert np.array_equal(dd.a, a) and np.array_equal(dd.d, d)


def random_chain(rng, n, size=None):
    """A chain of n intermediaries at random angles and rates; (size,) fields if size."""
    u = partial(rng.uniform, size=size)
    return ChainParams(
        n=n, delta_a=u(2.5, 4.0), delta_c=None, omegas=tuple(u(0.5, 1.5) for _ in range(n)),
        g_a=u(0.01, 0.3), g_c=u(0.01, 0.3), g_mid=tuple(u(0.01, 0.3) for _ in range(n - 1)),
        theta=u(0.0, 2.0 * math.pi), phi=u(0.0, 2.0 * math.pi),
        kappa_a=u(1e-4, 1e-2), kappa_c=u(1e-4, 1e-2),
        kappa_mid=tuple(u(1e-7, 1e-3) for _ in range(n)),
        n_a=u(0.0, 1.0), n_c=u(0.0, 1.0), n_mid=tuple(u(0.0, 20.0) for _ in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_drift_is_hamiltonian_plus_decay(n):
    # -Omega (A + K) symmetric: the coherent part of the drift comes from a
    # quadratic Hamiltonian, and K = diag(kappa) on each quadrature is the decay
    rng = np.random.default_rng(60 + n)
    for _ in range(25):
        c = random_chain(rng, n)
        dd = chain_full_drift_diffusion(c)
        assert dd.a.shape == dd.d.shape == (2 * n + 4, 2 * n + 4)
        kappas = np.repeat([c.kappa_a, c.kappa_c, *c.kappa_mid], 2)
        occupations = np.repeat([c.n_a, c.n_c, *c.n_mid], 2)
        h = -symplectic_form(n + 2) @ (dd.a + np.diag(kappas))
        assert np.array_equal(h, h.T)
        assert np.array_equal(dd.d, np.diag(kappas * (2.0 * occupations + 1.0)))


def test_chain_stack_is_bit_identical_to_single_cells():
    c = random_chain(np.random.default_rng(71), 3, size=6)
    stack = chain_full_drift_diffusion(c)
    assert stack.a.shape == (6, 10, 10)
    for cell in range(6):
        single = ChainParams(n=3, **{
            f.name: tuple(float(x[cell]) for x in v) if isinstance(v, tuple) else float(v[cell])
            for f in fields(c) if f.name != "n" for v in [getattr(c, f.name)]})
        dd = chain_full_drift_diffusion(single)
        assert np.array_equal(stack.a[cell], dd.a) and np.array_equal(stack.d[cell], dd.d)


@pytest.mark.filterwarnings("error")
def test_overflowing_diffusion_raises():
    cells = [FIG4_COMM, replace(FIG4_COMM, n_m=1e308), replace(FIG4_COMM, n_b=1e308)]
    with pytest.raises(CovarianceOverflowError, match="diffusion overflows"):
        chain_full_drift_diffusion(comm_to_chain(stacked(cells)))
    with pytest.raises(CovarianceOverflowError):
        chain_full_drift_diffusion(eom_to_chain(replace(FIG3_EOM, n_b=1e308)))


@pytest.mark.filterwarnings("error")
def test_overflowing_drift_raises():
    # g_m is finite and mapped as it is, but its doubled drift entry leaves double range
    cells = [FIG4_COMM, FIG4_COMM, replace(FIG4_COMM, g_m=1e308)]
    with pytest.raises(CovarianceOverflowError, match="drift/diffusion overflows"):
        chain_full_drift_diffusion(comm_to_chain(stacked(cells)))
    with pytest.raises(ValueError, match="must be finite"):  # a pair built directly
        DriftDiffusion(np.full((2, 2), np.inf), np.eye(2))


def test_parameter_validation():
    with pytest.raises(ValueError):
        EomParams(**dict(EOM_FIG3, omega_b=0.0))
    with pytest.raises(ValueError):
        CommParams(**dict(COMM_FIG4, kappa_a=0.0))
    with pytest.raises(ValueError):
        EomParams(**dict(EOM_FIG3, n_b=-1.0))
