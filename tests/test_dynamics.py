"""Covariance evolution: analytic form, exact propagation, RK4 oracle, steady states, variances."""

import math

import numpy as np
import pytest

from mochain.chain import ChainParams, EffectiveModel, reduce
from mochain import dynamics
from mochain.dynamics import (
    THETA9,
    AnalyticConstants,
    DriftDiffusion,
    Trajectory,
    analytic_effective_cm,
    auto_step,
    build_effective_drift_diffusion,
    characteristic_time,
    lyapunov_rk4,
    propagate_lti,
    squeeze_variances,
    steady_state,
)
from mochain import sweep
from mochain.config import RunConfig, SweepAxis
from mochain.errors import CovarianceOverflowError, CriticalPoleError, RegimeError
from mochain.gaussian import CovarianceMatrix, two_mode_resources
from mochain.systems import (
    COMM_FIG4,
    EOM_FIG3,
    CommParams,
    EomParams,
    comm_full_drift_diffusion,
    comm_to_chain,
    eom_full_drift_diffusion,
)

STEADY = EffectiveModel(0.5, 1.0, 1.0)
UNSTEADY = EffectiveModel(1.0, 0.5, 1.0)


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

    def test_critical_pole_raises(self):
        m = EffectiveModel(math.sqrt(0.5), 0.5, 1.0)
        with pytest.raises(CriticalPoleError):
            analytic_effective_cm(m, 1.0)

    def test_thermal_unsupported(self):
        with pytest.raises(ValueError):
            analytic_effective_cm(EffectiveModel(0.5, 1.0, 1.0, n_a=0.2), 1.0)

    def test_sign_symmetry_of_coupling(self):
        plus = analytic_effective_cm(UNSTEADY, 2.0).data
        minus = analytic_effective_cm(EffectiveModel(-1.0, 0.5, 1.0), 2.0).data
        flip = np.diag([1.0, -1.0, 1.0, -1.0])
        assert np.max(np.abs(minus - flip @ plus @ flip)) == 0.0

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            analytic_effective_cm(EffectiveModel(10.0, 0.01, 0.01), 100.0)


class TestLyapunovRk4:
    def test_pure_decay_oracle(self):
        # g = 0: v(t) = I/2 + (I/2) e^{-2 kappa t}
        dd = build_effective_drift_diffusion(EffectiveModel(0.0, 1.0, 1.0))
        grid = np.linspace(0.0, 3.0, 7)
        traj = lyapunov_rk4(dd, CovarianceMatrix(np.eye(4)), grid, h=0.005)
        for t, state in zip(traj.times, traj.states):
            expected = np.eye(4) * (0.5 + 0.5 * math.exp(-2.0 * t))
            assert np.max(np.abs(state.data - expected)) < 1e-10

    def test_matches_analytic_covariance(self):
        dd = build_effective_drift_diffusion(STEADY)
        tau = characteristic_time(STEADY)
        traj = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), np.linspace(0, 2 * tau, 11))
        worst = max(
            float(np.max(np.abs(analytic_effective_cm(STEADY, t).data - s.data)))
            for t, s in zip(traj.times, traj.states)
        )
        assert worst < 1e-8

    def test_fourth_order_convergence(self):
        dd = build_effective_drift_diffusion(EffectiveModel(0.9, 0.7, 1.0))
        exact = analytic_effective_cm(EffectiveModel(0.9, 0.7, 1.0), 2.0).data

        def err(h):
            traj = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), [0.0, 2.0], h=h)
            return float(np.max(np.abs(traj.states[-1].data - exact)))

        ratio = err(0.05) / err(0.025)
        assert 14.0 <= ratio <= 18.0

    def test_truncation_on_overflow(self):
        dd = build_effective_drift_diffusion(EffectiveModel(10.0, 0.01, 0.01))
        traj = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), np.linspace(0.0, 200.0, 21))
        assert traj.truncated
        assert traj.times[-1] < 200.0
        assert all(np.all(np.isfinite(s.data)) for s in traj.states)

    def test_grid_validation(self):
        dd = build_effective_drift_diffusion(STEADY)
        with pytest.raises(ValueError):
            lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), [1.0, 0.5])
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
    def test_matches_rk4(self):
        dd = build_effective_drift_diffusion(UNSTEADY)
        tau = characteristic_time(UNSTEADY)
        times = [0.5 * tau, tau, 2.0 * tau]
        exact = propagate_lti(dd, CovarianceMatrix.vacuum(2), times)
        for t, state in zip(times, exact):
            assert np.max(np.abs(state.data - analytic_effective_cm(UNSTEADY, t).data)) < 1e-10

    def test_critical_coupling_matches_rk4(self):
        # g^2 = ka kc has no fixed point; the covariance grows without bound
        m = EffectiveModel(math.sqrt(0.5), 0.5, 1.0)
        dd = build_effective_drift_diffusion(m)
        grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        exact = propagate_lti(dd, CovarianceMatrix.vacuum(2), grid)
        oracle = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), grid, h=0.01)
        for state, reference in zip(exact, oracle.states):
            scale = float(np.max(np.abs(reference.data)))
            assert np.max(np.abs(state.data - reference.data)) < 1e-8 * scale

    @pytest.mark.parametrize("dd, modes", [
        (eom_full_drift_diffusion(EomParams(**EOM_FIG3)), 3),
        (comm_full_drift_diffusion(CommParams(**COMM_FIG4)), 4),
    ], ids=["eom-fig3", "comm-fig4"])
    def test_full_platform_matches_rk4(self, dd, modes):
        # RK4 at its auto step is off by ~3e-8 here and converges at fourth
        # order onto the exact states (entries of order 0.5)
        grid = np.linspace(0.0, 20.0, 5)
        exact = propagate_lti(dd, CovarianceMatrix.vacuum(modes), grid)
        oracle = lyapunov_rk4(dd, CovarianceMatrix.vacuum(modes), grid)
        for state, reference in zip(exact, oracle.states):
            assert np.max(np.abs(state.data - reference.data)) < 1e-7

    def test_fine_grid_keeps_squeezed_quadrature(self):
        # divergent thermal model over 5 tau: entries reach ~1e9 while the
        # squeezed variance is 0.18; double rounding at each of the 400 steps
        # leaves ~9e-7 relative error there, extended precision ~1e-7
        mp = pytest.importorskip("mpmath")
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("no extended precision type on this platform")
        m = EffectiveModel(1.9923732904068676, 1.0, 1.0, n_a=0.1)
        dd = build_effective_drift_diffusion(m)
        tau = characteristic_time(m)
        grid = np.linspace(0.0, 5.0 * tau, 401)
        states = propagate_lti(dd, CovarianceMatrix.vacuum(2), grid)
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
                error = (u.T * (mp.matrix(states[index].data.tolist()) - exact) * u)[0]
                assert abs(error) < 3e-7 * variances[0]

    def test_repeated_time_returns_same_state(self):
        dd = build_effective_drift_diffusion(UNSTEADY)
        v0 = CovarianceMatrix(np.eye(4))
        states = propagate_lti(dd, v0, [0.0, 1.5, 1.5])
        assert np.array_equal(states[0].data, v0.data)
        assert np.array_equal(states[2].data, states[1].data)

    def test_overflow_raises_with_time(self):
        dd = build_effective_drift_diffusion(EffectiveModel(10.0, 0.01, 0.01))
        with pytest.raises(OverflowError, match="t = 40"):
            propagate_lti(dd, CovarianceMatrix.vacuum(2), np.linspace(0.0, 200.0, 21))

    def test_grid_validation(self):
        dd = build_effective_drift_diffusion(STEADY)
        for times in ([1.0, 0.5], [-1.0, 0.5], [0.0, math.inf]):
            with pytest.raises(ValueError):
                propagate_lti(dd, CovarianceMatrix.vacuum(2), times)
        with pytest.raises(ValueError):
            propagate_lti(dd, CovarianceMatrix.vacuum(3), [1.0])


class TestBatchedPropagation:
    """A stack of cells through propagate_lti equals each cell propagated alone."""

    @staticmethod
    def comm_grid():
        axes = (SweepAxis("kappa_a", 5e-5, 2e-4, 7), SweepAxis("kappa_c", 1e-4, 4e-4, 5))
        cells = [(x1, x2) for x1 in axes[0].values() for x2 in axes[1].values()]
        dds, taus = [], []
        for x1, x2 in cells:
            params = CommParams(**dict(COMM_FIG4, kappa_a=x1, kappa_c=x2))
            chain = comm_to_chain(params)
            dds.append(comm_full_drift_diffusion(params, chain))
            taus.append(characteristic_time(reduce(chain)))
        return axes, cells, dds, taus

    def test_stack_is_bit_identical_to_single_cells(self):
        _, _, dds, taus = self.comm_grid()
        vacuum = CovarianceMatrix.vacuum(4)
        times = np.array([[tau, 2.0 * tau] for tau in taus])
        batch = propagate_lti(dds, vacuum, times)
        assert batch.shape == (35, 2, 8, 8)
        for dd, row, states in zip(dds, times, batch):
            single = propagate_lti(dd, vacuum, row)
            for state, data in zip(single, states):
                assert np.array_equal(state.data, data)

    def test_chunked_region_rows_match_single_cells(self, monkeypatch):
        # 35 cells in chunks of 8: four full chunks and a remainder of three
        monkeypatch.setattr(sweep, "CHUNK_CELLS", 8)
        axes, cells, dds, taus = self.comm_grid()
        table = sweep.run_region(RunConfig("comm", dict(COMM_FIG4), sweep=axes))
        assert [row[:2] for row in table.rows] == cells
        vacuum = CovarianceMatrix.vacuum(4)
        single = np.stack([propagate_lti(dd, vacuum, [tau])[0].data[:4, :4]
                           for dd, tau in zip(dds, taus)])
        expected = np.stack(two_mode_resources(single), axis=1)
        columns = [table.column(name) for name in ("E_full", "S_ac_full", "S_ca_full")]
        assert np.array_equal(np.array(columns).T, expected)

    def test_shared_time_grid_and_validation(self):
        dds = [build_effective_drift_diffusion(STEADY), build_effective_drift_diffusion(UNSTEADY)]
        batch = propagate_lti(dds, CovarianceMatrix.vacuum(2), [0.0, 1.0])
        assert batch.shape == (2, 2, 4, 4)
        assert np.array_equal(batch[1, 1], propagate_lti(dds[1], CovarianceMatrix.vacuum(2),
                                                         [0.0, 1.0])[1].data)
        with pytest.raises(ValueError):
            propagate_lti(dds, CovarianceMatrix.vacuum(2), [[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError):
            propagate_lti(dds, CovarianceMatrix.vacuum(2), [[1.0, 0.5], [1.0, 2.0]])
        with pytest.raises(ValueError):
            propagate_lti([dds[0], eom_full_drift_diffusion(EomParams(**EOM_FIG3))],
                          CovarianceMatrix.vacuum(2), [1.0])

    def test_overflow_names_the_cell(self):
        dds = [build_effective_drift_diffusion(STEADY),
               build_effective_drift_diffusion(EffectiveModel(10.0, 0.01, 0.01))]
        with pytest.raises(CovarianceOverflowError, match="t = 100 in cell 1") as info:
            propagate_lti(dds, CovarianceMatrix.vacuum(2), [10.0, 100.0])
        assert info.value.index == 1


class TestPadeExponential:
    """The in-package exponential against scipy's expm, an independent oracle."""

    @staticmethod
    def captured_blocks(monkeypatch, dds, times) -> np.ndarray:
        blocks = []
        original = dynamics._expm

        def capturing(m):
            blocks.append(m.copy())
            return original(m)

        monkeypatch.setattr(dynamics, "_expm", capturing)
        propagate_lti(dds, CovarianceMatrix.vacuum(dds[0].modes), times)
        return np.concatenate(blocks)

    @staticmethod
    def assert_matches_scipy(blocks):
        expm = pytest.importorskip("scipy.linalg").expm
        for block, ours in zip(blocks, dynamics._expm(blocks)):
            reference = expm(block)
            assert np.linalg.norm(ours - reference, 1) <= 1e-14 * np.linalg.norm(reference, 1)

    def test_region_blocks(self, monkeypatch):
        # the COMM region map's grid: ||A h||_1 <= 1 keeps every scaled block
        # (1-norm at most 1.00002 over the 50 x 50 map) well inside THETA9
        dds, taus = [], []
        for kappa_a in (1e-4, 3e-4, 1e-3):
            for kappa_c in (1e-4, 3e-4, 1e-3):
                params = CommParams(**dict(COMM_FIG4, kappa_a=kappa_a, kappa_c=kappa_c))
                chain = comm_to_chain(params)
                dds.append(comm_full_drift_diffusion(params, chain))
                taus.append([characteristic_time(reduce(chain))])
        blocks = self.captured_blocks(monkeypatch, dds, taus)
        assert len(blocks) == 9 and np.all(dynamics._norm1(blocks) < 1.0001)
        self.assert_matches_scipy(blocks)

    def test_large_diffusion_blocks_are_squared(self, monkeypatch):
        # ||A h||_1 sets the scaling; the n_a = 50 diffusion alone puts the
        # block's 1-norm past THETA9, so the exponential scales it again
        dd = build_effective_drift_diffusion(EffectiveModel(0.5, 1.0, 0.4, n_a=50.0))
        blocks = self.captured_blocks(monkeypatch, [dd], np.linspace(0.0, 5.0, 7))
        assert np.all(dynamics._norm1(blocks) > THETA9)
        self.assert_matches_scipy(blocks)

    def test_zero_and_dense_blocks(self):
        # one stack, squared 0 and 4 times: unscaled, the degree-9 approximant
        # of the dense block (1-norm 20) is off by ~1e-6
        dense = np.random.default_rng(1).standard_normal((1, 8, 8))
        blocks = np.concatenate([np.zeros((1, 8, 8)), dense * 20.0 / dynamics._norm1(dense)])
        assert np.array_equal(dynamics._expm(blocks)[0], np.eye(8))
        self.assert_matches_scipy(blocks)


class TestOneConstructionPerCell:
    """region and compare build each cell's ChainParams exactly once."""

    @staticmethod
    def count_constructions(monkeypatch) -> list:
        calls = []
        original = ChainParams.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(ChainParams, "__post_init__", counting)
        return calls

    def test_region(self, monkeypatch):
        calls = self.count_constructions(monkeypatch)
        axes = (SweepAxis("kappa_a", 1e-4, 2e-4, 3), SweepAxis("kappa_c", 2e-4, 4e-4, 2))
        table = sweep.run_region(RunConfig("comm", dict(COMM_FIG4), sweep=axes))
        assert len(table.rows) == 6 and len(calls) == 6

    def test_compare(self, monkeypatch):
        calls = self.count_constructions(monkeypatch)
        axes = (SweepAxis("g_a", 0.1, 0.2, 3),)
        table = sweep.run_compare(RunConfig("eom", dict(EOM_FIG3), sweep=axes))
        assert len(table.rows) == 3 and len(calls) == 3


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
        k = AnalyticConstants.from_model(m)
        dx, dy, xy = squeeze_variances(m, 0.0)
        assert abs(dx - 0.5) < 1e-15
        assert abs(dy - 0.5) < 1e-15
        # the stationary-limit cross term does not vanish at t = 0; the exact
        # covariance route does (see test_cross_term_reconciliation)
        assert abs(xy - 2.0 * k.c0 / k.cos_varphi) < 1e-15

    def test_saturation_value(self):
        m = EffectiveModel(math.sqrt(2.0), 0.5, 1.0)
        dx, _, _ = squeeze_variances(m, 1e3)
        assert abs(2.0 * dx - 0.3630) < 1e-3

    def test_growing_quadrature_monotone(self):
        m = EffectiveModel(math.sqrt(2.0), 0.5, 1.0)
        values = [squeeze_variances(m, t)[1] for t in (0.0, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_variances_match_rotated_covariance(self):
        # dX and dY are the variances of the drift-eigenbasis quadratures at
        # angle pi/4 + varphi/2, taken from the analytic covariance
        m = EffectiveModel(math.sqrt(2.0), 0.5, 1.0)
        k = AnalyticConstants.from_model(m)
        alpha = math.pi / 4 + k.varphi / 2
        sin_a, cos_a = math.sin(alpha), math.cos(alpha)
        for t in (0.0, 0.7, 2.0, 5.0):
            v = analytic_effective_cm(m, t).data
            dx_cm = sin_a**2 * v[0, 0] + cos_a**2 * v[3, 3] + 2 * sin_a * cos_a * v[0, 3]
            dy_cm = cos_a**2 * v[0, 0] + sin_a**2 * v[3, 3] - 2 * sin_a * cos_a * v[0, 3]
            dx, dy, _ = squeeze_variances(m, t)
            assert abs(dx - dx_cm) < 1e-12
            assert abs(dy - dy_cm) < 1e-12

    def test_cross_term_reconciliation(self):
        # the exact covariance route gives (c0/cos)(1 - e^{-(ka+kc)t}): zero at
        # t = 0 and agreeing with the reported stationary-limit form only at
        # late times
        m = EffectiveModel(math.sqrt(2.0), 0.5, 1.0)
        k = AnalyticConstants.from_model(m)
        alpha = math.pi / 4 + k.varphi / 2
        sin_a, cos_a = math.sin(alpha), math.cos(alpha)
        total = m.kappa_a + m.kappa_c
        for t in (0.0, 0.5, 2.0, 8.0):
            v = analytic_effective_cm(m, t).data
            xy_cm = sin_a * cos_a * (v[0, 0] - v[3, 3]) + (cos_a**2 - sin_a**2) * v[0, 3]
            exact = k.c0 / k.cos_varphi * (1.0 - math.exp(-total * t))
            # the covariance route cancels growing elements, so allow roundoff
            # at the scale of the largest entry
            tol = 1e-12 + 1e-15 * float(np.max(np.abs(v)))
            assert abs(xy_cm - exact) < tol
            reported = squeeze_variances(m, t)[2]
            assert abs(reported - xy_cm - 2.0 * k.c0 / k.cos_varphi * math.exp(-total * t)) < tol

    def test_critical_pole(self):
        with pytest.raises(CriticalPoleError):
            squeeze_variances(EffectiveModel(math.sqrt(0.5), 0.5, 1.0), 1.0)


class TestAutoStep:
    def test_fast_rotation_resolved(self):
        a = np.array([[0.0, 5.0, 0, 0], [-5.0, 0.0, 0, 0],
                      [0, 0, 0.0, 1.0], [0, 0, -1.0, 0.0]])
        assert abs(auto_step(a) - 2 * math.pi / (200 * 5.0)) < 1e-12

    def test_reference_floor(self):
        dd = build_effective_drift_diffusion(EffectiveModel(1e-3, 1e-3, 1e-3))
        assert abs(auto_step(dd.a) - 2 * math.pi / 200) < 1e-12


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), [CovarianceMatrix.vacuum(2)])
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]),
                   [CovarianceMatrix.vacuum(2), CovarianceMatrix.vacuum(2)])
