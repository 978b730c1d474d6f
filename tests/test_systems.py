"""Platform builders: chain mappings, specialized couplings, full drift matrices."""

from dataclasses import fields, replace

import numpy as np
import pytest

from mochain.chain import effective_coupling, reduce
from mochain.dynamics import DriftDiffusion, steady_state
from mochain.errors import CovarianceOverflowError
from mochain.gaussian import CovarianceMatrix, ModePartition, log_negativity
from mochain.systems import (
    COMM_FIG4,
    EOM_FIG3,
    CommParams,
    EomParams,
    comm_full_drift_diffusion,
    comm_to_chain,
    eom_full_drift_diffusion,
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
        dd = eom_full_drift_diffusion(FIG3_EOM)
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
        dd = eom_full_drift_diffusion(FIG3_EOM)
        assert dd.d[0, 0] == 5e-4
        assert dd.d[4, 4] == 1e-6 * 21.0  # ten phonons

    def test_decoupled_steady_state(self):
        p = replace(FIG3_EOM, g_a=0.0, g_c=0.0, kappa_a=1e-3, kappa_b=1e-4, n_b=2.0)
        v = steady_state(eom_full_drift_diffusion(p)).data
        expected = np.diag([0.5, 0.5, 0.5, 0.5, 2.5, 2.5])
        assert np.max(np.abs(v - expected)) < 1e-10


class TestCommDriftDiffusion:
    def test_printed_entries(self):
        dd = comm_full_drift_diffusion(FIG4_COMM)
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
        dd = comm_full_drift_diffusion(replace(FIG4_COMM, g_a=0.0))
        final = lyapunov_rk4(dd, CovarianceMatrix.vacuum(4), [0.0, 50.0])[-1]
        assert np.max(np.abs(final.reduced([0]).data - np.eye(2) / 2)) < 1e-8
        assert log_negativity(final, ModePartition({0}, {1})) == 0.0


class TestStackedBuilders:
    """(B,) parameter fields give the stack of the single-cell pairs."""

    @pytest.mark.parametrize("builder, to_chain, cells", [
        (eom_full_drift_diffusion, eom_to_chain,
         [FIG3_EOM, replace(FIG3_EOM, g_a=0.2, n_a=0.5), replace(FIG3_EOM, kappa_c=3e-3)]),
        (comm_full_drift_diffusion, comm_to_chain,
         [FIG4_COMM, replace(FIG4_COMM, delta_m=1.2, n_m=1.0), replace(FIG4_COMM, g_m=0.0)]),
    ], ids=["eom", "comm"])
    def test_stack_is_bit_identical_to_single_cells(self, builder, to_chain, cells):
        params = stacked(cells)
        stack = builder(params, to_chain(params))
        assert stack.a.shape == (len(cells), *builder(cells[0]).a.shape)
        assert np.array_equal(builder(params).a, stack.a)  # chain mapped here
        for cell, p in enumerate(cells):
            single = builder(p, to_chain(p))
            assert np.array_equal(stack.a[cell], single.a)
            assert np.array_equal(stack.d[cell], single.d)
        with pytest.raises(ValueError, match="broadcast"):
            builder(params, to_chain(stacked(cells[:2])))


@pytest.mark.filterwarnings("error")
def test_overflowing_diffusion_raises():
    cells = [FIG4_COMM, replace(FIG4_COMM, n_m=1e308), replace(FIG4_COMM, n_b=1e308)]
    with pytest.raises(CovarianceOverflowError, match="diffusion overflows"):
        comm_full_drift_diffusion(stacked(cells))
    with pytest.raises(CovarianceOverflowError):
        eom_full_drift_diffusion(replace(FIG3_EOM, n_b=1e308))


@pytest.mark.filterwarnings("error")
def test_overflowing_drift_raises():
    # every coupling is finite, but its doubled drift entry leaves double range
    cells = [FIG4_COMM, FIG4_COMM, replace(FIG4_COMM, g_m=1e308), replace(FIG4_COMM, g_c=1e308)]
    with pytest.raises(CovarianceOverflowError, match="drift/diffusion overflows"):
        comm_full_drift_diffusion(stacked(cells), comm_to_chain(FIG4_COMM))
    with pytest.raises(CovarianceOverflowError):
        eom_full_drift_diffusion(replace(FIG3_EOM, g_c=1e308), eom_to_chain(FIG3_EOM))
    with pytest.raises(ValueError, match="must be finite"):  # a pair built directly
        DriftDiffusion(np.full((2, 2), np.inf), np.eye(2))


def test_parameter_validation():
    with pytest.raises(ValueError):
        EomParams(**dict(EOM_FIG3, omega_b=0.0))
    with pytest.raises(ValueError):
        CommParams(**dict(COMM_FIG4, kappa_a=0.0))
    with pytest.raises(ValueError):
        EomParams(**dict(EOM_FIG3, n_b=-1.0))
