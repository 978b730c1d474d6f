"""Covariance evolution: analytic form, exact propagation against the RK4 oracle, steady states, variances."""

import math

import numpy as np
import pytest

from mochain.chain import ChainParams, EffectiveModel, reduce
from mochain import dynamics
from mochain.dynamics import (
    DriftDiffusion,
    analytic_effective_cm,
    build_effective_drift_diffusion,
    characteristic_time,
    effective_resources,
    propagate_lti,
    squeeze_variances,
    steady_state,
)
from mochain import sweep
from mochain.config import RunConfig, SweepAxis
from mochain.errors import CovarianceOverflowError, NumericError, RegimeError
from mochain.gaussian import CovarianceMatrix, two_mode_resources
from mochain.systems import (
    COMM_FIG4,
    EOM_FIG3,
    CommParams,
    EomParams,
    chain_full_drift_diffusion,
    comm_to_chain,
    eom_to_chain,
)
from mochain.verify import auto_step, lyapunov_rk4

STEADY = EffectiveModel(0.5, 1.0, 1.0)
UNSTEADY = EffectiveModel(1.0, 0.5, 1.0)


def stack(dds) -> DriftDiffusion:
    """One stacked pair holding the given single pairs as its cells, in order."""
    return DriftDiffusion(np.stack([dd.a for dd in dds]), np.stack([dd.d for dd in dds]))


def van_loan_resources(mp, dd, t, dps=40):
    """(E, S_ac, S_ca) at t from the vacuum by a dps-digit Van Loan reference."""
    n = dd.a.shape[0]
    k = max(0, math.ceil(math.log2(float(dynamics._norm1(dd.a)) * t)))
    with mp.workdps(dps):
        block = mp.zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                block[i, j] = -dd.a[i, j]
                block[i, n + j] = dd.d[i, j]
                block[n + i, n + j] = dd.a[j, i]
        e = mp.expm(block * (mp.mpf(t) / 2**k))
        phi = e[n:2 * n, n:2 * n].T
        q = phi * e[0:n, n:2 * n]
        for _ in range(k):
            q = phi * q * phi.T + q
            phi = phi * phi
        v = phi * phi.T / 2 + q
        v = (v + v.T) / 2

        def det2(m):
            return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

        det_a, det_c, det_v = det2(v[0:2, 0:2]), det2(v[2:4, 2:4]), mp.det(v[0:4, 0:4])
        gamma = det_a + det_c - 2 * det2(v[0:2, 2:4])
        eta2 = 2 * det_v / (gamma + mp.sqrt(gamma * gamma - 4 * det_v))
        return [float(max(0, -mp.log(4 * eta2) / 2)),
                float(mp.log(det_a / (4 * det_v)) / 2), float(mp.log(det_c / (4 * det_v)) / 2)]


class TestDriftDiffusionBuilder:
    def test_decoupled_vacuum(self):
        dd = build_effective_drift_diffusion(EffectiveModel(0.0, 1.0, 1.0))
        assert np.array_equal(dd.a, -np.eye(4))
        assert np.array_equal(dd.d, np.eye(4))
        assert np.allclose(steady_state(dd).data, np.eye(4) / 2, atol=1e-14)

    def test_unsteady_spectral_abscissa(self):
        dd = build_effective_drift_diffusion(UNSTEADY)
        top = float(np.max(np.real(np.linalg.eigvals(dd.a))))
        omega = math.hypot(2.0, 0.5)
        assert abs(top - (omega - 1.5) / 2) < 1e-12
        assert abs(top - 0.2808) < 1e-4

    def test_thermal_diffusion(self):
        dd = build_effective_drift_diffusion(EffectiveModel(0.1, 1.0, 1.0, n_a=1.0))
        assert dd.d[0, 0] == 3.0 and dd.d[1, 1] == 3.0 and dd.d[2, 2] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftDiffusion(np.eye(4), np.eye(3))
        with pytest.raises(ValueError):
            DriftDiffusion(np.eye(4), -np.eye(4))  # negative diffusion

    def test_caller_drift_stays_writeable(self):
        drift = -np.eye(4)
        dd = DriftDiffusion(drift, np.eye(4))
        drift[0, 0] = -2.0
        assert dd.a[0, 0] == -1.0 and not dd.a.flags.writeable

    def test_indefinite_diffusion_rejected(self):
        # one negative diagonal entry; a non-diagonal d with a positive
        # diagonal and eigenvalues (3, -1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            DriftDiffusion(-np.eye(4), np.diag([1.0, 1.0, -1e-6, 1.0]))
        indefinite = np.eye(4)
        indefinite[0, 1] = indefinite[1, 0] = 2.0
        with pytest.raises(ValueError, match="positive semidefinite"):
            DriftDiffusion(-np.eye(4), indefinite)
        DriftDiffusion(-np.eye(4), np.diag([1.0, 1.0, -1e-13, 0.0]))  # within the bound


class TestStackedDriftDiffusion:
    """A (B, 2M, 2M) stack is checked once, with the verdicts of its cells' own checks."""

    @staticmethod
    def cells():
        return [build_effective_drift_diffusion(m) for m in (STEADY, UNSTEADY, STEADY, UNSTEADY)]

    def test_valid_stack_is_accepted(self):
        dds = self.cells()
        dense = np.eye(4)
        dense[0, 1] = dense[1, 0] = 0.5  # positive definite, checked by eigvalsh
        dds[3] = DriftDiffusion(dds[3].a, dense)
        stacked = stack(dds)
        assert stacked.a.shape == stacked.d.shape == (4, 4, 4) and stacked.modes == 2
        for cell, dd in enumerate(dds):
            assert np.array_equal(stacked.a[cell], dd.a)
            assert np.array_equal(stacked.d[cell], dd.d)

    @pytest.mark.parametrize("cell", [0, 2])
    @pytest.mark.parametrize("defect, message", [
        ("nan-drift", "finite"), ("inf-diffusion", "finite"),
        ("asymmetric", "symmetric"), ("negative-diagonal", "positive semidefinite"),
        ("indefinite", "positive semidefinite"),
    ])
    def test_bad_cell_is_named(self, cell, defect, message):
        # the defect is put into the given cell and into the last one
        a = np.stack([dd.a for dd in self.cells()])
        d = np.stack([dd.d for dd in self.cells()])
        for bad in (cell, 3):
            if defect == "nan-drift":
                a[bad, 1, 2] = np.nan
            elif defect == "inf-diffusion":
                d[bad, 3, 3] = np.inf
            elif defect == "asymmetric":
                d[bad, 0, 1] = 1e-6
            elif defect == "negative-diagonal":
                d[bad, 2, 2] = -1e-6
            else:
                d[bad, 0, 1] = d[bad, 1, 0] = 2.0  # eigenvalues (3, -1)
        with pytest.raises(ValueError, match=f"{message} \\(cell {cell}\\)"):
            DriftDiffusion(a, d)

    def test_single_pair_names_no_cell(self):
        with pytest.raises(ValueError, match="positive semidefinite$"):
            DriftDiffusion(-np.eye(4), -np.eye(4))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DriftDiffusion(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            DriftDiffusion(np.zeros((2, 2, 4, 4)), np.zeros((2, 2, 4, 4)))


class TestAnalyticCovariance:
    def test_initial_condition_exact(self):
        for m in (STEADY, UNSTEADY, EffectiveModel(0.3, 1.4, 0.2)):
            v = analytic_effective_cm(m, 0.0)
            assert np.max(np.abs(v.data - np.eye(4) / 2)) < 1e-15

    def test_steady_long_time_constants(self):
        v = analytic_effective_cm(STEADY, 40.0)
        assert abs(v.data[0, 0] - 2.0 / 3.0) < 1e-10
        assert abs(v.data[3, 3] - 2.0 / 3.0) < 1e-10
        assert abs(v.data[0, 3] - (-1.0 / 3.0)) < 1e-10

    def test_sparsity_pattern(self):
        v = analytic_effective_cm(UNSTEADY, 1.0).data
        assert v[0, 1] == 0.0 and v[0, 2] == 0.0 and v[1, 3] == 0.0
        assert v[0, 0] == v[1, 1] and v[2, 2] == v[3, 3] and v[0, 3] == v[1, 2]

    def test_zero_coupling_stays_vacuum(self):
        v = analytic_effective_cm(EffectiveModel(0.0, 0.5, 1.0), 7.0)
        assert np.array_equal(v.data, np.eye(4) / 2)

    @pytest.mark.parametrize("m", [EffectiveModel(math.sqrt(0.5), 0.5, 1.0),
                                   EffectiveModel(math.sqrt(0.5), 0.5, 1.0, n_a=0.5, n_c=1.0)],
                             ids=["vacuum", "thermal"])
    def test_critical_coupling_matches_propagator(self, m):
        grid = np.linspace(0.0, 2.0 * characteristic_time(m), 9)
        exact = propagate_lti(build_effective_drift_diffusion(m), grid)
        closed = analytic_effective_cm(m, grid)
        for state, v in zip(exact, closed):
            assert np.max(np.abs(v - state)) < 1e-12 * np.max(np.abs(v))

    @pytest.mark.parametrize("m", [EffectiveModel(0.5, 1.0, 1.0, n_a=0.2),
                                   EffectiveModel(1.3, 0.7, 1.2, n_a=0.4, n_c=2.0),
                                   EffectiveModel(0.0, 0.5, 1.0, n_a=1.0, n_c=0.3)],
                             ids=["steady", "unsteady", "uncoupled"])
    def test_thermal_input_matches_propagator(self, m):
        grid = np.linspace(0.0, characteristic_time(m), 6)
        exact = propagate_lti(build_effective_drift_diffusion(m), grid)
        closed = analytic_effective_cm(m, grid)
        for state, v in zip(exact, closed):
            assert np.max(np.abs(v - state)) < 1e-12 * np.max(np.abs(v))

    def test_sign_symmetry_of_coupling(self):
        plus = analytic_effective_cm(UNSTEADY, 2.0).data
        minus = analytic_effective_cm(EffectiveModel(-1.0, 0.5, 1.0), 2.0).data
        flip = np.diag([1.0, -1.0, 1.0, -1.0])
        assert np.max(np.abs(minus - flip @ plus @ flip)) == 0.0

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            analytic_effective_cm(EffectiveModel(10.0, 0.01, 0.01), 100.0)


class TestAnalyticCovarianceOnGrid:
    """An array of times gives the (T, 4, 4) stack of the float calls."""

    @staticmethod
    def evolve_grid(m: EffectiveModel) -> np.ndarray:
        tau = characteristic_time(m)
        return np.unique(np.concatenate([np.linspace(0.0, 5.0 * tau, 401), [tau, 2.0 * tau]]))

    @pytest.mark.parametrize("m", [STEADY, UNSTEADY, EffectiveModel(-0.3, 1.4, 0.2),
                                   EffectiveModel(1.9923732904068676, 1.0, 1.0)])
    def test_rows_are_the_float_calls(self, m):
        grid = self.evolve_grid(m)
        states = analytic_effective_cm(m, grid)
        assert isinstance(states, np.ndarray) and states.shape == (len(grid), 4, 4)
        assert np.array_equal(states, np.stack([analytic_effective_cm(m, t).data
                                                for t in grid.tolist()]))

    def test_start_and_zero_coupling_are_exact_vacuum(self):
        states = analytic_effective_cm(UNSTEADY, [0.0, 0.0, 1.0])
        assert np.array_equal(states[:2], np.broadcast_to(np.eye(4) / 2, (2, 4, 4)))
        assert not np.array_equal(states[2], np.eye(4) / 2)
        free = analytic_effective_cm(EffectiveModel(0.0, 0.5, 1.0), [0.0, 3.0, 7.0])
        assert np.array_equal(free, np.broadcast_to(np.eye(4) / 2, (3, 4, 4)))

    @pytest.mark.filterwarnings("error")
    def test_invalid_grids_raise(self):
        with pytest.raises(ValueError, match="non-negative"):
            analytic_effective_cm(STEADY, [0.0, -1.0, 2.0])
        with pytest.raises(ValueError, match="time must be"):
            analytic_effective_cm(STEADY, [0.0, math.nan])
        # (Omega - kappa_a - kappa_c) t passes 700 between t = 35 and t = 40
        with pytest.raises(CovarianceOverflowError, match="at t = 40$"):
            analytic_effective_cm(EffectiveModel(10.0, 0.01, 0.01), [0.0, 35.0, 40.0, 45.0])


class TestClosedFormAgainstMpmath:
    """E and S of the closed form against a Van Loan reference whose digits grow with t."""

    @pytest.mark.parametrize("m, t_end_in_tau", [
        (EffectiveModel(3.0, 0.5, 1.0), 90.0),
        (EffectiveModel(3.0, 0.5, 1.0, n_a=0.1), 60.0),
        (EffectiveModel(math.sqrt(0.998 * 0.5), 0.5, 1.0), 40.0),
        (EffectiveModel(math.sqrt(0.5), 0.5, 1.0), 40.0),
        (EffectiveModel(math.sqrt(1.002 * 0.5), 0.5, 1.0), 40.0),
        (EffectiveModel(1.3, 0.7, 1.2, n_a=0.4, n_c=2.0), 30.0),
    ], ids=["vacuum-probe", "thermal-probe", "ratio-0.998", "critical", "ratio-1.002",
            "thermal-n_c"])
    def test_resources_to_1e_12(self, m, t_end_in_tau):
        mp = pytest.importorskip("mpmath")
        tau = characteristic_time(m)
        times = np.array([0.5, 3.0, t_end_in_tau]) * tau
        got = np.stack(effective_resources(m, times)[:3], axis=1)
        rates = math.hypot(2.0 * m.g_eff, m.kappa_a - m.kappa_c) + m.kappa_a + m.kappa_c
        dd = build_effective_drift_diffusion(m)
        for t, row in zip(times, got):
            # the block exponential holds e^{(Omega + ka + kc) t / 2} next to the
            # O(1) squeezed variance, so the digits grow with t
            want = van_loan_resources(mp, dd, t, dps=30 + math.ceil(rates * t / math.log(10)))
            assert np.max(np.abs(row - want)) < 1e-12

    @pytest.mark.parametrize("ratio", [1e2, 1e4, 1e6, 1e8])
    def test_strong_coupling_to_1e_14(self, ratio):
        # at g^2 = ratio ka kc the squeezed entry w'_-- falls from 1/2 to ~1/(4g)
        # by tau; written as 1/2 plus a negative drive term it cancelled, and E
        # and S_ac were 1.1e-13 off at ratio 1e6 and 7.1e-13 at 1e8 (now <= 8.9e-16)
        mp = pytest.importorskip("mpmath")
        m = EffectiveModel(math.sqrt(ratio * 0.5), 0.5, 1.0)
        tau = characteristic_time(m)
        e, s_ac = (float(values[0]) for values in effective_resources(m, tau)[:2])
        want = van_loan_resources(mp, build_effective_drift_diffusion(m), tau)
        assert abs(e - want[0]) < 1e-14 and abs(s_ac - want[1]) < 1e-14


class TestLyapunovRk4:
    def test_pure_decay_oracle(self):
        # g = 0: v(t) = I/2 + (I/2) e^{-2 kappa t}
        dd = build_effective_drift_diffusion(EffectiveModel(0.0, 1.0, 1.0))
        grid = np.linspace(0.0, 3.0, 7)
        states = lyapunov_rk4(dd, CovarianceMatrix(np.eye(4)), grid, h=0.005)
        assert len(states) == len(grid)
        for t, state in zip(grid, states):
            expected = np.eye(4) * (0.5 + 0.5 * math.exp(-2.0 * t))
            assert np.max(np.abs(state - expected)) < 1e-10

    def test_matches_analytic_covariance(self):
        dd = build_effective_drift_diffusion(STEADY)
        tau = characteristic_time(STEADY)
        grid = np.linspace(0, 2 * tau, 11)
        states = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), grid)
        worst = max(
            float(np.max(np.abs(analytic_effective_cm(STEADY, t).data - s)))
            for t, s in zip(grid, states)
        )
        assert worst < 1e-8

    def test_fourth_order_convergence(self):
        dd = build_effective_drift_diffusion(EffectiveModel(0.9, 0.7, 1.0))
        exact = analytic_effective_cm(EffectiveModel(0.9, 0.7, 1.0), 2.0).data

        def err(h):
            final = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), [0.0, 2.0], h=h)[-1]
            return float(np.max(np.abs(final - exact)))

        ratio = err(0.05) / err(0.025)
        assert 14.0 <= ratio <= 18.0

    def test_truncation_on_overflow(self):
        dd = build_effective_drift_diffusion(EffectiveModel(10.0, 0.01, 0.01))
        # overflow ends the finite rows at the last finite grid point; the rest are nan
        states = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), np.linspace(0.0, 200.0, 21))
        assert states.shape == (21, 4, 4)
        finite = int(np.sum(np.all(np.isfinite(states), axis=(1, 2))))
        assert 1 < finite < 21
        assert np.all(np.isfinite(states[:finite])) and np.all(np.isnan(states[finite:]))

    def test_stack_equals_per_model_calls(self):
        # per-model grids and steps: the three models take 16, 32 and 48
        # substeps on their own, so the first two pad with h = 0
        models = (STEADY, UNSTEADY, EffectiveModel(0.8, 1.0, 0.6, n_a=0.5, n_c=1.0))
        dds = [build_effective_drift_diffusion(m) for m in models]
        grids = np.stack([np.linspace(0.0, 2.0 * characteristic_time(m), 5) for m in models])
        steps = grids[:, -1] / np.array([64.0, 128.0, 192.0])
        vacuum = CovarianceMatrix.vacuum(2)
        states = lyapunov_rk4(stack(dds), vacuum, grids, h=steps)
        assert states.shape == (3, 5, 4, 4)
        for dd, grid, h, rows in zip(dds, grids, steps, states):
            alone = lyapunov_rk4(dd, vacuum, grid, h=float(h))
            assert np.max(np.abs(rows - alone)) <= 1e-12 * np.max(np.abs(alone))
        # a shared grid and the default step per model
        shared = lyapunov_rk4(stack(dds[:2]), vacuum, grids[0])
        for dd, rows in zip(dds[:2], shared):
            alone = lyapunov_rk4(dd, vacuum, grids[0])
            assert np.max(np.abs(rows - alone)) <= 1e-12 * np.max(np.abs(alone))

    def test_stack_rows_past_double_range_are_nan(self):
        # the second model overflows: its rows after the last finite state
        # (where its own call's finite rows end) are nan, the first model's all finite
        dds = [build_effective_drift_diffusion(STEADY),
               build_effective_drift_diffusion(EffectiveModel(10.0, 0.01, 0.01))]
        grid = np.linspace(0.0, 50.0, 11)
        vacuum = CovarianceMatrix.vacuum(2)
        alone = lyapunov_rk4(dds[1], vacuum, grid, h=0.02)
        finite = int(np.sum(np.all(np.isfinite(alone), axis=(1, 2))))
        states = lyapunov_rk4(stack(dds), vacuum, grid, h=0.02)
        assert states.shape == (2, 11, 4, 4) and 1 < finite < 11
        assert np.all(np.isfinite(states[0]))
        assert np.all(np.isfinite(states[1, :finite]))
        assert np.all(np.isnan(states[1, finite:]))

    def test_stack_validation(self):
        dds = stack([build_effective_drift_diffusion(STEADY)] * 2)
        with pytest.raises(ValueError):
            lyapunov_rk4(dds, CovarianceMatrix.vacuum(2), [[0.0, 1.0]])
        with pytest.raises(ValueError):
            lyapunov_rk4(dds, CovarianceMatrix.vacuum(2), [[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            lyapunov_rk4(dds, CovarianceMatrix.vacuum(2), [0.0, 1.0], h=[0.1, 0.0])

    def test_grid_validation(self):
        dd = build_effective_drift_diffusion(STEADY)
        with pytest.raises(ValueError):
            lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), [1.0, 0.5])
        with pytest.raises(ValueError):
            lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), [0.0, 0.0])
        with pytest.raises(ValueError):
            lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), [])
        with pytest.raises(ValueError):
            lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), [0.0, 1.0], h=0.0)
        with pytest.raises(ValueError):
            lyapunov_rk4(dd, CovarianceMatrix.vacuum(3), [0.0, 1.0])


class TestSteadyState:
    def test_vacuum_bath(self):
        dd = build_effective_drift_diffusion(EffectiveModel(0.0, 0.7, 1.3))
        assert np.allclose(steady_state(dd).data, np.eye(4) / 2, atol=1e-13)

    def test_effective_constants(self):
        v = steady_state(build_effective_drift_diffusion(STEADY)).data
        assert abs(v[0, 0] - 2.0 / 3.0) < 1e-12
        assert abs(abs(v[0, 3]) - 1.0 / 3.0) < 1e-12

    def test_unstable_rejected(self):
        with pytest.raises(RegimeError):
            steady_state(build_effective_drift_diffusion(UNSTEADY))

    def test_residual_bound(self):
        dd = build_effective_drift_diffusion(EffectiveModel(0.4, 0.9, 1.1, n_a=2.0, n_c=0.3))
        v = steady_state(dd).data
        assert np.max(np.abs(dd.a @ v + v @ dd.a.T + dd.d)) < 1e-10


class TestPropagateLti:
    def test_empty_grid(self):
        # an empty grid gives an empty array of the usual form, as the closed form does
        dd = build_effective_drift_diffusion(STEADY)
        assert propagate_lti(dd, []).shape == (0, 4, 4)
        assert analytic_effective_cm(STEADY, []).shape == (0, 4, 4)
        stack = chain_full_drift_diffusion(eom_to_chain(EomParams(**{
            name: np.full(3, value) for name, value in EOM_FIG3.items()})))
        assert propagate_lti(stack, []).shape == (3, 0, 6, 6)
        assert propagate_lti(stack, np.zeros((3, 0)), modes=2).shape == (3, 0, 4, 4)

    def test_matches_rk4(self):
        dd = build_effective_drift_diffusion(UNSTEADY)
        tau = characteristic_time(UNSTEADY)
        times = [0.5 * tau, tau, 2.0 * tau]
        exact = propagate_lti(dd, times)
        for t, state in zip(times, exact):
            assert np.max(np.abs(state - analytic_effective_cm(UNSTEADY, t).data)) < 1e-10

    def test_critical_coupling_matches_rk4(self):
        # g^2 = ka kc has no fixed point; the covariance grows without bound
        m = EffectiveModel(math.sqrt(0.5), 0.5, 1.0)
        dd = build_effective_drift_diffusion(m)
        grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        exact = propagate_lti(dd, grid)
        oracle = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), grid, h=0.01)
        assert oracle.shape == exact.shape == (len(grid), 4, 4)
        for state, reference in zip(exact, oracle):
            scale = float(np.max(np.abs(reference)))
            assert np.max(np.abs(state - reference)) < 1e-8 * scale

    @pytest.mark.parametrize("dd, modes", [
        (chain_full_drift_diffusion(eom_to_chain(EomParams(**EOM_FIG3))), 3),
        (chain_full_drift_diffusion(comm_to_chain(CommParams(**COMM_FIG4))), 4),
    ], ids=["eom-fig3", "comm-fig4"])
    def test_full_platform_matches_rk4(self, dd, modes):
        # RK4 at its auto step is off by ~3e-8 here and converges at fourth
        # order onto the exact states (entries of order 0.5)
        grid = np.linspace(0.0, 20.0, 5)
        exact = propagate_lti(dd, grid)
        oracle = lyapunov_rk4(dd, CovarianceMatrix.vacuum(modes), grid)
        assert oracle.shape == exact.shape == (len(grid), 2 * modes, 2 * modes)
        assert np.max(np.abs(exact - oracle)) < 1e-7

    def test_fine_grid_keeps_squeezed_quadrature(self):
        # divergent thermal model over 5 tau: entries reach ~1e9 while the
        # squeezed variance is 0.18; each row's one combining step in extended
        # precision leaves 5.4e-8 (row 397) and 1.08e-7 (row 400) relative
        # error there, the same step in double 5.4e-7 (row 397), and a long-double fold
        # over the grid 1.08e-7 and 2.17e-7
        mp = pytest.importorskip("mpmath")
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("no extended precision type on this platform")
        m = EffectiveModel(1.9923732904068676, 1.0, 1.0, n_a=0.1)
        dd = build_effective_drift_diffusion(m)
        tau = characteristic_time(m)
        grid = np.linspace(0.0, 5.0 * tau, 401)
        states = propagate_lti(dd, grid)
        with mp.workdps(40):
            block = mp.zeros(8, 8)
            for i in range(4):
                for j in range(4):
                    block[i, j] = -dd.a[i, j]
                    block[i, 4 + j] = dd.d[i, j]
                    block[4 + i, 4 + j] = dd.a[j, i]
            for index in (397, 400):
                e = mp.expm(block * mp.mpf(float(grid[index])))
                phi = e[4:8, 4:8].T
                exact = phi * phi.T / 2 + phi * e[0:4, 4:8]
                variances, directions = mp.eigsy((exact + exact.T) / 2)
                u = directions[:, 0]
                error = (u.T * (mp.matrix(states[index].tolist()) - exact) * u)[0]
                assert abs(error) < 2e-7 * variances[0]

    def test_repeated_time_returns_same_state(self):
        dd = build_effective_drift_diffusion(UNSTEADY)
        states = propagate_lti(dd, [0.0, 1.5, 1.5])
        assert np.array_equal(states[0], np.eye(4) / 2)
        assert np.array_equal(states[2], states[1])

    def test_overflow_raises_with_time(self):
        dd = build_effective_drift_diffusion(EffectiveModel(10.0, 0.01, 0.01))
        with pytest.raises(OverflowError, match="t = 40"):
            propagate_lti(dd, np.linspace(0.0, 200.0, 21))

    def test_grid_validation(self):
        dd = build_effective_drift_diffusion(STEADY)
        for times in ([1.0, 0.5], [-1.0, 0.5], [0.0, math.inf]):
            with pytest.raises(ValueError):
                propagate_lti(dd, times)


def stepped(dd: DriftDiffusion, times) -> np.ndarray:
    """States from stepping v <- Phi v Phi^T + Q from the vacuum along the grid in
    extended precision, one Van Loan pair per interval, each taken alone: an oracle
    that composes the grid's intervals instead of spanning each time from the vacuum."""
    v, previous, states = np.eye(dd.a.shape[-1], dtype=np.longdouble) / 2, 0.0, []
    for t in times:
        if t > previous:
            phi, q = dynamics._van_loan_pair(dd.a[None], dd.d[None], np.array([t - previous]))
            v = phi[0] @ v @ phi[0].T + q[0]
        states.append(v.astype(float))
        previous = t
    states = np.array(states)
    return (states + np.swapaxes(states, -1, -2)) / 2.0


def assert_near_stepped(states, dd, times):
    """Each state within 1e-10 relative (max norm) of the stepping oracle's."""
    oracle = stepped(dd, times)
    error = np.max(np.abs(states - oracle), axis=(-2, -1))
    assert np.all(error <= 1e-10 * np.max(np.abs(oracle), axis=(-2, -1)))


def single_calls(dd: DriftDiffusion, times) -> np.ndarray:
    """Each time's state from its own single-time call."""
    return np.stack([propagate_lti(dd, [t])[0] for t in times])


class TestRowIndependence:
    """Every row of propagate_lti depends only on its cell's (A, D) and its time."""

    MODELS = (EffectiveModel(1.9923732904068676, 1.0, 1.0, n_a=0.1),
              EffectiveModel(0.5, 1.0, 0.4, n_a=1.0),
              EffectiveModel(math.sqrt(0.5), 0.5, 1.0))

    @staticmethod
    def grid(tau: float) -> np.ndarray:
        # 37 non-uniform times up to 5 tau, the 20th one repeated
        times = np.sort(np.random.default_rng(5).uniform(0.0, 5.0 * tau, 36))
        return np.insert(times, 20, times[19])

    @pytest.mark.parametrize("system", ["effective", "comm-fig4"])
    def test_single_pair(self, system):
        if system == "effective":
            model = self.MODELS[0]
            dd = build_effective_drift_diffusion(model)
        else:
            chain = comm_to_chain(CommParams(**COMM_FIG4))
            dd, model = chain_full_drift_diffusion(chain), reduce(chain)
        times = self.grid(characteristic_time(model))
        states = propagate_lti(dd, times)
        assert isinstance(states, np.ndarray) and states.shape == (37, *dd.a.shape)
        assert np.array_equal(states, single_calls(dd, times))
        assert np.array_equal(states[20], states[19])
        assert_near_stepped(states, dd, times)

    def test_three_cell_stack(self):
        dds = [build_effective_drift_diffusion(m) for m in self.MODELS]
        times = np.stack([self.grid(characteristic_time(m)) for m in self.MODELS])
        batch = propagate_lti(stack(dds), times)
        assert batch.shape == (3, 37, 4, 4)
        for dd, row, states in zip(dds, times, batch):
            assert np.array_equal(states, single_calls(dd, row))
            assert np.array_equal(states[20], states[19])
            assert_near_stepped(states, dd, row)

    def test_eom_fig3_uniform_grid(self):
        # the platform evolve grid: 401 uniform samples to 5 tau; a row taken
        # from the grid's earlier rows would differ from its own call in the
        # last bits (the stepping oracle is 3.3e-11 away)
        chain = eom_to_chain(EomParams(**EOM_FIG3))
        dd = chain_full_drift_diffusion(chain)
        times = np.linspace(0.0, 5.0 * characteristic_time(reduce(chain)), 401)
        states = propagate_lti(dd, times)
        assert np.array_equal(states, single_calls(dd, times))
        assert_near_stepped(states, dd, times)

    def test_row_blocks_straddle_cells(self, monkeypatch):
        # 10 rows in blocks of 3: blocks cross the cell boundary, one row is left over
        dds = stack([build_effective_drift_diffusion(m) for m in self.MODELS[:2]])
        times = np.array([[0.0, 0.7, 1.5, 1.5, 4.0], [0.2, 0.9, 2.5, 3.0, 6.0]])
        default = propagate_lti(dds, times)
        monkeypatch.setattr(dynamics, "ROW_BLOCK", 3)
        assert np.array_equal(propagate_lti(dds, times), default)


class TestDiagonalStart:
    """The vacuum combines as the column scaling Phi / 2: the bits of Phi (I/2) Phi^T."""

    @staticmethod
    def two_products(dd: DriftDiffusion, v0: CovarianceMatrix, times: np.ndarray,
                     kept: int) -> np.ndarray:
        """propagate_lti's states with the combining step written as two long-double products."""
        cell_of = np.repeat(np.arange(len(dd.a)), times.shape[1])
        phi, q = dynamics._van_loan_pair(dd.a[cell_of], dd.d[cell_of], times.ravel())
        phi = phi[:, :kept].astype(np.longdouble)
        state = (phi @ v0.data.astype(np.longdouble) @ np.swapaxes(phi, -1, -2)
                 + q[:, :kept, :kept]).astype(float)
        state = (state + np.swapaxes(state, -1, -2)) / 2.0
        return state.reshape(*times.shape, kept, kept)

    @pytest.mark.parametrize("diagonal", [[0.5] * 4], ids=["vacuum"])
    @pytest.mark.parametrize("modes", [1, 2])
    def test_effective_stack(self, diagonal, modes):
        dds = stack([build_effective_drift_diffusion(m) for m in TestRowIndependence.MODELS])
        times = np.stack([TestRowIndependence.grid(characteristic_time(m))
                          for m in TestRowIndependence.MODELS])
        v0 = CovarianceMatrix(np.diag(diagonal))
        assert np.array_equal(propagate_lti(dds, times, modes=modes),
                              self.two_products(dds, v0, times, 2 * modes))

    def test_comm_region_block(self):
        _, _, dds, taus = TestBatchedPropagation.comm_grid()
        times = np.array(taus)[:, None]
        vacuum = CovarianceMatrix.vacuum(4)
        assert np.array_equal(propagate_lti(stack(dds), times, modes=2),
                              self.two_products(stack(dds), vacuum, times, 4))


class TestBatchedPropagation:
    """A stack of cells through propagate_lti equals each cell propagated alone."""

    @staticmethod
    def comm_grid():
        axes = (SweepAxis("kappa_a", 5e-5, 2e-4, 7), SweepAxis("kappa_c", 1e-4, 4e-4, 5))
        cells = [(x1, x2) for x1 in axes[0].values() for x2 in axes[1].values()]
        dds, taus = [], []
        for x1, x2 in cells:
            chain = comm_to_chain(CommParams(**dict(COMM_FIG4, kappa_a=x1, kappa_c=x2)))
            dds.append(chain_full_drift_diffusion(chain))
            taus.append(characteristic_time(reduce(chain)))
        return axes, cells, dds, taus

    def test_stack_is_bit_identical_to_single_cells(self):
        _, _, dds, taus = self.comm_grid()
        times = np.array([[tau, 2.0 * tau] for tau in taus])
        batch = propagate_lti(stack(dds), times)
        assert batch.shape == (35, 2, 8, 8)
        for dd, row, states in zip(dds, times, batch):
            assert np.array_equal(propagate_lti(dd, row), states)

    def test_chunked_region_rows_match_single_cells(self, monkeypatch):
        # 35 cells in chunks of 8: four full chunks and a remainder of three
        monkeypatch.setattr(sweep, "SWEEP_CELLS", 8)
        axes, cells, dds, taus = self.comm_grid()
        table = sweep.run_region(RunConfig("comm", dict(COMM_FIG4), sweep=axes))
        assert [row[:2] for row in table.rows] == cells
        single = np.stack([propagate_lti(dd, [tau])[0][:4, :4]
                           for dd, tau in zip(dds, taus)])
        expected = np.stack(two_mode_resources(single), axis=1)
        columns = [table.column(name) for name in ("E_full", "S_ac_full", "S_ca_full")]
        assert np.array_equal(np.array(columns).T, expected)

    def test_shared_time_grid_and_validation(self):
        dds = [build_effective_drift_diffusion(STEADY), build_effective_drift_diffusion(UNSTEADY)]
        batch = propagate_lti(stack(dds), [0.0, 1.0])
        assert batch.shape == (2, 2, 4, 4)
        assert np.array_equal(batch[1, 1], propagate_lti(dds[1], [0.0, 1.0])[1])
        with pytest.raises(ValueError):
            propagate_lti(stack(dds), [[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError):
            propagate_lti(stack(dds), [[1.0, 0.5], [1.0, 2.0]])

    @pytest.mark.filterwarnings("error")
    def test_overflow_names_the_cell(self):
        # the (Phi, Q) pair of the 90-unit span overflows double in its
        # doublings; that is reported as the state's overflow, with no warning
        dds = [build_effective_drift_diffusion(STEADY),
               build_effective_drift_diffusion(EffectiveModel(10.0, 0.01, 0.01))]
        with pytest.raises(CovarianceOverflowError, match="t = 100 in cell 1"):
            propagate_lti(stack(dds), [10.0, 100.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("modes", [1, 2])
    def test_overflow_names_the_cell_with_modes(self, modes):
        # the overflow reaches the kept block too, so it is named the same
        # whichever modes the states keep
        dds = [build_effective_drift_diffusion(STEADY),
               build_effective_drift_diffusion(EffectiveModel(10.0, 0.01, 0.01))]
        with pytest.raises(CovarianceOverflowError, match="t = 100 in cell 1"):
            propagate_lti(stack(dds), [10.0, 100.0], modes=modes)

    def test_span_past_the_doubling_bound_is_named(self):
        # ||A||_1 h = 1.00001e10 > 2^33: 34 doublings would amplify the start
        # pair's rounding past 2^-20
        dds = [build_effective_drift_diffusion(STEADY),
               build_effective_drift_diffusion(EffectiveModel(1e10, 0.01, 0.01))]
        with pytest.raises(NumericError, match=r"^span 1 in cell 1 is past the doubling bound"):
            propagate_lti(stack(dds), [1.0])


class TestKeptModes:
    """modes = m gives each state's leading 2m x 2m block, bit for bit."""

    def test_single_eom_pair_on_a_long_grid(self):
        chain = eom_to_chain(EomParams(**EOM_FIG3))
        dd = chain_full_drift_diffusion(chain)
        times = np.linspace(0.0, 5.0 * characteristic_time(reduce(chain)), 401)
        full = propagate_lti(dd, times)
        kept = propagate_lti(dd, times, modes=2)
        assert kept.shape == (401, 4, 4) and full.shape == (401, 6, 6)
        assert np.array_equal(kept, full[:, :4, :4])

    def test_comm_stack_with_times_per_cell(self):
        _, _, dds, taus = TestBatchedPropagation.comm_grid()
        times = np.array([[0.0, tau, 2.0 * tau] for tau in taus])
        full = propagate_lti(stack(dds), times)
        for modes in (1, 2, 3):
            kept = propagate_lti(stack(dds), times, modes=modes)
            assert kept.shape == (35, 3, 2 * modes, 2 * modes)
            assert np.array_equal(kept, full[..., :2 * modes, :2 * modes])

    def test_every_mode_of_an_effective_pair_is_the_full_state(self):
        dd = build_effective_drift_diffusion(UNSTEADY)
        times = [0.0, 0.7, 1.5, 4.0]
        assert np.array_equal(propagate_lti(dd, times, modes=2), propagate_lti(dd, times))

    @pytest.mark.parametrize("modes", [0, 3, -1, 2.0, "2", True, False])
    def test_modes_out_of_range_or_not_an_integer(self, modes):
        dd = build_effective_drift_diffusion(STEADY)
        with pytest.raises(ValueError, match="modes must be an integer from 1 to 2"):
            propagate_lti(dd, [1.0], modes=modes)


def scipy_pair(a, d, h):
    """(Phi, Q) over one span from scipy's expm of Van Loan's full 2n x 2n block."""
    expm = pytest.importorskip("scipy.linalg").expm
    n = a.shape[-1]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n], block[:n, n:], block[n:, n:] = -a, d, a.T
    e = expm(block * h)
    phi = e[n:, n:].T
    q = phi @ e[:n, n:]
    return phi, (q + q.T) / 2.0


def reference_pair(a, d, h):
    """(Phi, Q) over h: scipy's pair at h / 2^k, ||A||_1 h / 2^k <= 1, doubled k times
    in long double."""
    k = int(dynamics._halvings(dynamics._norm1(a) * h))
    phi, q = (m.astype(np.longdouble) for m in scipy_pair(a, d, math.ldexp(h, -k)))
    for _ in range(k):
        q, phi = phi @ q @ phi.T + q, phi @ phi
    return phi, q


class TestVanLoanPair:
    """The solve-free pair against scipy's expm of the full block, an independent oracle."""

    @staticmethod
    def start_pairs(dds, spans):
        """Each cell's span scaled to ||A||_1 h <= 1, where the pair takes no doubling."""
        a, d = np.stack([dd.a for dd in dds]), np.stack([dd.d for dd in dds])
        h = np.array(spans, dtype=float)
        h = np.ldexp(h, -dynamics._halvings(dynamics._norm1(a) * h))
        return a, d, h

    @staticmethod
    def assert_matches_scipy(a, d, h):
        phi, q = dynamics._van_loan_pair(a, d, h)
        for cell in range(len(h)):
            want_phi, want_q = scipy_pair(a[cell], d[cell], h[cell])
            for got, want in ((phi[cell], want_phi), (q[cell], want_q)):
                assert np.linalg.norm(got - want, 1) <= 1e-14 * np.linalg.norm(want, 1)

    def test_region_compare_and_effective_cells(self):
        dds, spans = [], []
        for kappa_a in (1e-4, 3e-4, 1e-3):
            for kappa_c in (1e-4, 1e-3):
                chain = comm_to_chain(CommParams(**dict(COMM_FIG4, kappa_a=kappa_a,
                                                        kappa_c=kappa_c)))
                dds.append(chain_full_drift_diffusion(chain))
                spans.append(characteristic_time(reduce(chain)))
        eom = [chain_full_drift_diffusion(eom_to_chain(EomParams(**dict(EOM_FIG3, g_a=g_a))))
               for g_a in (0.1, 0.12, 0.2)]
        effective = [build_effective_drift_diffusion(m) for m in (
            STEADY, UNSTEADY, EffectiveModel(0.5, 1.0, 0.4, n_a=50.0))]
        platform = self.start_pairs(dds, spans)
        assert np.all(platform[2] * dynamics._norm1(platform[0]) <= 1.0)
        self.assert_matches_scipy(*platform)
        self.assert_matches_scipy(*self.start_pairs(eom, [1e3] * 3))
        self.assert_matches_scipy(*self.start_pairs(effective, [0.3, 2.0, 5.0]))

    def test_large_diffusion_does_not_set_the_scaling(self):
        # n_a = 1e12 adds s E to D, with E the unit heating of mode a: Phi stays
        # bit for bit, and Q(D + s E) = Q(D) + s Q(E) to rounding
        plain = build_effective_drift_diffusion(EffectiveModel(0.5, 1.0, 0.4))
        hot = build_effective_drift_diffusion(EffectiveModel(0.5, 1.0, 0.4, n_a=1e12))
        a, d, h = self.start_pairs([plain, hot], [0.7, 0.7])
        phi, q = dynamics._van_loan_pair(a, d, h)
        assert np.array_equal(phi[0], phi[1])
        heat = np.diag([1.0, 1.0, 0.0, 0.0])
        _, q_heat = dynamics._van_loan_pair(a[:1], heat[None], h[:1])
        scale = hot.d[0, 0] - plain.d[0, 0]
        assert np.max(np.abs(q[1] - q[0] - scale * q_heat[0])) <= 1e-15 * scale * np.max(q_heat)

    def test_zero_cell_is_exact(self):
        zero = DriftDiffusion(np.zeros((4, 4)), np.zeros((4, 4)))
        phi, q = dynamics._van_loan_pair(zero.a[None], zero.d[None], np.array([1.0]))
        assert np.array_equal(phi[0], np.eye(4)) and not np.any(q)


class TestAffineInDiffusion:
    """A bath occupation enters D alone, so the state is exactly affine in it."""

    @pytest.mark.parametrize("n_b", [1e12, 1e14, 1e16, 1e18, 1e20, 1e77])
    def test_eom_fig3_is_affine_in_n_b(self, n_b):
        # when the block exponential was scaled by the 1-norm of [[-A, D], [0, A^T]],
        # D's size leaked into Phi: 2 tau was off by 4.2e-7 at n_b = 1e12 and by a
        # factor 180 at 1e20. The reference takes Q by linearity, from the vacuum
        # diffusion and the unit heating of the mechanical mode, each through scipy.
        chain = eom_to_chain(EomParams(**dict(EOM_FIG3, n_b=n_b)))
        dd = chain_full_drift_diffusion(chain)
        vacuum = chain_full_drift_diffusion(eom_to_chain(EomParams(**dict(EOM_FIG3, n_b=0.0))))
        tau = characteristic_time(reduce(chain))
        heat = dd.d - vacuum.d
        scale = np.max(heat)
        phi, q = reference_pair(dd.a, vacuum.d, tau)
        q = q + scale * reference_pair(dd.a, heat / scale, tau)[1]
        v = CovarianceMatrix.vacuum(3).data.astype(np.longdouble)
        for state in propagate_lti(dd, [tau, 2.0 * tau]):
            v = phi @ v @ phi.T + q
            assert np.max(np.abs(state - v)) <= 1e-10 * np.max(np.abs(v))


class TestDoublingPrecision:
    """Doubling (Phi, Q) in double keeps region cells at the accuracy of their start pair."""

    @pytest.mark.parametrize("kappa_a, kappa_c", [(1e-4, 1e-4), (1e-4, 1e-3), (1e-3, 1e-3)])
    def test_region_corner_against_mpmath(self, kappa_a, kappa_c):
        # tau is 5e3-2.2e4 here, so k = 16-18 doublings amplify the start
        # pair's rounding; measured 7e-13-2.5e-12
        mp = pytest.importorskip("mpmath")
        chain = comm_to_chain(CommParams(**dict(COMM_FIG4, kappa_a=kappa_a, kappa_c=kappa_c)))
        dd = chain_full_drift_diffusion(chain)
        tau = characteristic_time(reduce(chain))
        state = propagate_lti(dd, [tau])[0][:4, :4]
        got = [float(r[0]) for r in two_mode_resources(state[None])]
        want = van_loan_resources(mp, dd, tau)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-11


class TestOneConstructionPerCell:
    """region and compare build one ChainParams and one DriftDiffusion per chunk.

    Each has (B,) fields, or a (B, 2M, 2M) stack, for the chunk's cells, and
    runs its checks once for all of them.
    """

    @staticmethod
    def count_constructions(monkeypatch, cls: type = ChainParams) -> list:
        calls = []
        original = cls.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
        return calls

    def test_region(self, monkeypatch):
        calls = self.count_constructions(monkeypatch)
        axes = (SweepAxis("kappa_a", 1e-4, 2e-4, 3), SweepAxis("kappa_c", 2e-4, 4e-4, 2))
        table = sweep.run_region(RunConfig("comm", dict(COMM_FIG4), sweep=axes))
        assert len(table.rows) == 6 and len(calls) == 1

    def test_compare(self, monkeypatch):
        calls = self.count_constructions(monkeypatch)
        axes = (SweepAxis("g_a", 0.1, 0.2, 3),)
        table = sweep.run_compare(RunConfig("eom", dict(EOM_FIG3), sweep=axes))
        assert len(table.rows) == 3 and len(calls) == 1

    def test_region_wider_than_a_row_block(self, monkeypatch):
        # 225 cells are one chunk but two row blocks of propagate_lti: the
        # chunk's checked chain and pair are not built again per block
        chains = self.count_constructions(monkeypatch)
        pairs = self.count_constructions(monkeypatch, DriftDiffusion)
        axes = (SweepAxis("kappa_a", 1e-4, 1e-3, 15, scale="log"),
                SweepAxis("kappa_c", 1e-4, 1e-3, 15, scale="log"))
        table = sweep.run_region(RunConfig("comm", dict(COMM_FIG4), sweep=axes))
        assert len(table.rows) == 225 and len(chains) == 1 and len(pairs) == 1

    def test_platform_evolve(self, monkeypatch):
        # a platform evolve propagates its one (6, 6) pair as it is, not rewrapped as a stack
        pairs = self.count_constructions(monkeypatch, DriftDiffusion)
        table = sweep.run_evolve(RunConfig("eom", dict(EOM_FIG3), samples=41))
        assert len(table.rows) >= 41
        assert [pair.a.shape for pair in pairs] == [(6, 6)]


class TestCharacteristicTime:
    def test_reference_value(self):
        assert abs(characteristic_time(UNSTEADY) - 3.5284) < 1e-4

    def test_zero_coupling_limit(self):
        m = EffectiveModel(0.0, 0.5, 1.0)
        assert abs(characteristic_time(m) - 2.0 * math.pi) < 1e-14

    def test_rate_scaling(self):
        m = EffectiveModel(1.0, 0.5, 1.0)
        scaled = EffectiveModel(10.0, 5.0, 10.0)
        assert abs(characteristic_time(scaled) - characteristic_time(m) / 10.0) < 1e-14


class TestSqueezeVariances:
    def test_initial_values(self):
        m = EffectiveModel(math.sqrt(2.0), 0.5, 1.0)
        assert squeeze_variances(m, 0.0) == (0.5, 0.5, 0.0)

    def test_saturation_value(self):
        m = EffectiveModel(math.sqrt(2.0), 0.5, 1.0)
        dx, _, _ = squeeze_variances(m, 1e3)
        assert abs(2.0 * dx - 0.3630) < 1e-3

    def test_growing_quadrature_monotone(self):
        m = EffectiveModel(math.sqrt(2.0), 0.5, 1.0)
        values = [squeeze_variances(m, t)[1] for t in (0.0, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @staticmethod
    def eigenbasis_of(m: EffectiveModel, t: float) -> tuple[float, float, float]:
        """(dX, dY, cross) of the analytic covariance, along the drift eigenvectors
        (cos theta, sin theta) and (sin theta, -cos theta), theta = atan2(2g, ka - kc)/2."""
        theta = math.atan2(2.0 * m.g_eff, m.kappa_a - m.kappa_c) / 2.0
        x = np.array([math.cos(theta), math.sin(theta)])
        y = np.array([math.sin(theta), -math.cos(theta)])
        v = analytic_effective_cm(m, t).data[np.ix_([0, 3], [0, 3])]
        return float(x @ v @ x), float(y @ v @ y), float(x @ v @ y)

    def test_variances_match_rotated_covariance(self):
        m = EffectiveModel(math.sqrt(2.0), 0.5, 1.0)
        for t in (0.0, 0.7, 2.0, 5.0):
            dx, dy, _ = squeeze_variances(m, t)
            dx_cm, dy_cm, _ = self.eigenbasis_of(m, t)
            assert abs(dx - dx_cm) < 1e-12
            assert abs(dy - dy_cm) < 1e-12

    def test_cross_term_reconciliation(self):
        # the reported cross term is the covariance route's, and for vacuum
        # input it is g (ka - kc) / (Omega (ka + kc)) (1 - e^{-(ka+kc)t}):
        # zero at t = 0, as a vacuum start requires
        m = EffectiveModel(math.sqrt(2.0), 0.5, 1.0)
        omega = math.hypot(2.0 * m.g_eff, m.kappa_a - m.kappa_c)
        total = m.kappa_a + m.kappa_c
        for t in (0.0, 0.5, 2.0, 8.0):
            reported = squeeze_variances(m, t)[2]
            closed = m.g_eff * (m.kappa_a - m.kappa_c) / (omega * total) * -math.expm1(-total * t)
            assert abs(reported - closed) < 1e-15
            # the covariance route cancels growing elements, so allow roundoff
            # at the scale of the largest entry
            tol = 1e-15 * float(np.max(np.abs(analytic_effective_cm(m, t).data)))
            assert abs(reported - self.eigenbasis_of(m, t)[2]) < max(tol, 1e-15)

    def test_critical_coupling_grows_linearly(self):
        # at g^2 = ka kc the growth rate Omega - ka - kc vanishes, and dY is
        # 1/2 + (2 ka kc / (ka + kc)) t
        m = EffectiveModel(math.sqrt(0.5), 0.5, 1.0)
        for t in (0.5, 3.0, 40.0):
            assert abs(squeeze_variances(m, t)[1] - (0.5 + 2.0 / 3.0 * t)) < 1e-13 * t


class TestAutoStep:
    def test_fast_rotation_resolved(self):
        a = np.array([[0.0, 5.0, 0, 0], [-5.0, 0.0, 0, 0],
                      [0, 0, 0.0, 1.0], [0, 0, -1.0, 0.0]])
        assert abs(auto_step(a) - 2 * math.pi / (200 * 5.0)) < 1e-12

    def test_reference_floor(self):
        dd = build_effective_drift_diffusion(EffectiveModel(1e-3, 1e-3, 1e-3))
        assert abs(auto_step(dd.a) - 2 * math.pi / 200) < 1e-12
