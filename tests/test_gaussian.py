"""Covariance representation and resource functionals, including frozen worked examples.

The two-mode state reached by the symmetric-decay model at g = 0.5,
kappa_a = kappa_c = 1 (elements 2/3 on the diagonal, -1/3 on the squeezing
cross terms) is used throughout: its partial-transpose spectrum {1/3, 1} and
entanglement ln(3/2) are exact.
"""

import numpy as np
import pytest

from mochain.chain import EffectiveModel
from mochain.dynamics import (
    analytic_effective_cm,
    build_effective_drift_diffusion,
    characteristic_time,
    propagate_lti,
    steady_state,
)
from mochain.errors import NumericError, UnphysicalStateError
from mochain.gaussian import (
    CovarianceMatrix,
    gaussian_steering,
    local_phase_rotate,
    log_negativity,
    monogamy_residuals,
    partial_transpose,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_resources,
)
from mochain.verify import random_physical_cm, two_mode_squeeze_symplectic



def symmetric_steady_cm() -> CovarianceMatrix:
    return steady_state(build_effective_drift_diffusion(EffectiveModel(0.5, 1.0, 1.0)))


class TestCovarianceMatrix:
    def test_constructor_symmetrizes(self):
        raw = np.eye(4) / 2
        raw[0, 3] = 1e-13
        v = CovarianceMatrix(raw)
        assert np.array_equal(v.data, v.data.T)
        assert v.data[0, 3] == v.data[3, 0] == 5e-14

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(3))
        with pytest.raises(ValueError):
            CovarianceMatrix(np.full((4, 4), np.nan))

    def test_vacuum_and_reduction(self):
        v = CovarianceMatrix.vacuum(3)
        assert v.modes == 3
        sub = v.reduced([0, 2])
        assert sub.modes == 2
        assert np.array_equal(sub.data, np.eye(4) / 2)

    def test_data_is_read_only(self):
        v = CovarianceMatrix.vacuum(2)
        with pytest.raises(ValueError):
            v.data[0, 0] = 3.0


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert np.allclose(symplectic_eigenvalues(CovarianceMatrix.vacuum(2)), [0.5, 0.5])

    def test_thermal_product(self):
        v = CovarianceMatrix(np.diag([1.0, 1.0, 2.0, 2.0]))
        assert np.allclose(symplectic_eigenvalues(v), [1.0, 2.0], atol=1e-12)

    def test_squeezing_preserves_spectrum(self):
        s = two_mode_squeeze_symplectic(0.7)
        omega = symplectic_form(2)
        assert np.allclose(s @ omega @ s.T, omega, atol=1e-12)
        v = CovarianceMatrix(s @ np.diag([0.8, 0.8, 1.7, 1.7]) @ s.T)
        assert np.allclose(symplectic_eigenvalues(v), [0.8, 1.7], atol=1e-12)

    def test_steady_cm_spectrum_before_and_after_transpose(self):
        v = symmetric_steady_cm()
        # the bare spectrum is doubly degenerate at 1/sqrt(3), not {1/3, 1}
        assert np.allclose(symplectic_eigenvalues(v), [3**-0.5, 3**-0.5], atol=1e-10)
        flipped = symplectic_eigenvalues(partial_transpose(v, {0}))
        assert np.allclose(flipped, [1.0 / 3.0, 1.0], atol=1e-10)

    def test_closed_form_oracle(self):
        rng = np.random.default_rng(7)
        states = [random_physical_cm(rng)[0] for _ in range(50)]
        closed = two_mode_resources(np.stack([state.data for state in states]))[0]
        for state, e in zip(states, closed):
            eta = symplectic_eigenvalues(partial_transpose(state, {0}))[0]
            assert abs(max(0.0, -np.log(2 * eta)) - e) < 1e-10

    def test_nonfinite_rejected(self):
        v = CovarianceMatrix.vacuum(2)
        bad = v.data.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            CovarianceMatrix(bad)


class TestPartialTranspose:
    def test_vacuum_invariant(self):
        v = CovarianceMatrix.vacuum(2)
        assert np.array_equal(partial_transpose(v, {0}).data, v.data)

    def test_involution_is_exact(self):
        rng = np.random.default_rng(11)
        state, _ = random_physical_cm(rng)
        assert np.array_equal(partial_transpose(partial_transpose(state, {1}), {1}).data,
                              state.data)

    def test_validates_mode_set(self):
        v = CovarianceMatrix.vacuum(2)
        with pytest.raises(ValueError):
            partial_transpose(v, set())
        with pytest.raises(IndexError):
            partial_transpose(v, {5})


class TestLogNegativity:
    def test_product_state_unentangled(self):
        v = CovarianceMatrix(np.diag([0.7, 0.7, 1.1, 1.1]))
        assert log_negativity(v, {0}, {1}) == 0.0

    def test_symmetric_steady_value(self):
        assert abs(log_negativity(symmetric_steady_cm(), {0}, {1}) - np.log(1.5)) < 1e-12

    def test_late_time_unsteady_value(self):
        # frozen from two independent routes (closed-form CM + RK4 trajectory,
        # both through the PT-eigenvalue functional); the stationary formula
        # gives 0.786988, approached to 2e-4 only by t = 3 tau
        from mochain.dynamics import characteristic_time

        m = EffectiveModel(1.0, 0.5, 1.0)
        tau = characteristic_time(m)
        e_2tau = log_negativity(analytic_effective_cm(m, 2 * tau), {0}, {1})
        assert abs(e_2tau - 0.7882735556584425) < 1e-9
        e_3tau = log_negativity(analytic_effective_cm(m, 3 * tau), {0}, {1})
        assert abs(e_3tau - 0.786988) < 2e-4

    def test_two_mode_closed_form_agreement(self):
        # the batched determinant kernel against the general eigenvalue route
        rng = np.random.default_rng(13)
        states = [random_physical_cm(rng)[0] for _ in range(100)]
        stack = np.stack([state.data for state in states]).reshape(10, 10, 4, 4)
        e, s_ac, s_ca = two_mode_resources(stack)
        assert e.shape == s_ac.shape == s_ca.shape == (10, 10)
        for state, closed in zip(states, zip(e.ravel(), s_ac.ravel(), s_ca.ravel())):
            general = (log_negativity(state, {0}, {1}), gaussian_steering(state, {0}, {1})[0],
                       gaussian_steering(state, {1}, {0})[0])
            assert np.max(np.abs(np.subtract(general, closed))) < 1e-10

    def test_one_vs_rest_and_reduction(self):
        v = CovarianceMatrix(np.kron(np.eye(3), np.eye(2)) * 0.5)
        assert log_negativity(v, {0}, {1, 2}) == 0.0
        assert log_negativity(v, {0}, {2}) == 0.0

    def test_rejects_unphysical_and_bad_partitions(self):
        with pytest.raises(UnphysicalStateError):
            log_negativity(CovarianceMatrix(np.eye(4) * 0.1), {0}, {1})
        v = CovarianceMatrix.vacuum(2)
        with pytest.raises(ValueError):
            log_negativity(v, {0, 1}, {0})  # overlapping sides
        with pytest.raises(IndexError):
            log_negativity(v, {0}, {1, 2})  # references a mode the state lacks


class TestOneVsRest:
    """log_negativity and gaussian_steering take and reduce their modes the same way."""

    @pytest.mark.parametrize("one, others, error", [
        ({0, 1}, {2}, ValueError),   # first side is not a single mode
        (set(), {2}, ValueError),
        ({0}, set(), ValueError),    # empty second side
        ({0}, {0, 1}, ValueError),   # overlapping sides
        ({0}, {1, 3}, IndexError),   # a mode the state lacks
        ({-1}, {0}, IndexError),
    ])
    def test_same_error_for_the_same_modes(self, one, others, error):
        v = CovarianceMatrix.vacuum(3)
        for functional in (log_negativity, gaussian_steering):
            with pytest.raises(error):
                functional(v, one, others)

    def test_unphysical_state_is_rejected_by_both(self):
        v = CovarianceMatrix(np.eye(6) * 0.2)
        for functional in (log_negativity, gaussian_steering):
            with pytest.raises(UnphysicalStateError):
                functional(v, {0}, {1})

    def test_sides_are_the_mode_then_the_others_in_ascending_order(self):
        # a random three-mode state: mode 2 against (1, 0) listed in any order
        # is mode 0 against (1, 2) of the state with modes reordered as (2, 0, 1)
        rng = np.random.default_rng(5)
        pair, _ = random_physical_cm(rng)
        v = np.eye(6) * 0.5
        v[2:, 2:] = pair.data
        v = local_phase_rotate(CovarianceMatrix(v), 0, 0.3)
        s = two_mode_squeeze_symplectic(0.4)
        full = np.eye(6)
        full[np.ix_([0, 1, 2, 3], [0, 1, 2, 3])] = s
        v = CovarianceMatrix(full @ v.data @ full.T)
        permuted = v.reduced([2, 0, 1])
        for functional in (log_negativity, gaussian_steering):
            assert functional(v, {2}, [1, 0]) == functional(permuted, {0}, {1, 2})
            assert functional(v, {2}, {1}) == functional(permuted, {0}, {2})


class TestTwoModeResources:
    def test_worked_example_and_vacuum(self):
        e, s_ac, s_ca = two_mode_resources(np.stack([symmetric_steady_cm().data, np.eye(4) / 2]))
        assert abs(e[0] - np.log(1.5)) < 1e-12 and abs(s_ac[0]) < 1e-12
        assert e[1] == 0.0 and not np.signbit(e[1]) and s_ac[1] == s_ca[1] == 0.0

    def test_divergent_state_against_mpmath(self):
        # evolve-effective seed 5, job 15 at 5 tau: entries ~6e8, while E
        # depends on the O(0.1) squeezed part. Rounding the exact covariance to
        # double alone moves E by ~1e-7, so which route lands closer to the
        # exact E is luck; against the E of the double state each route is
        # given, the determinant route is exact to ~2.5e-10 and the eigenvalue
        # route is off by ~1.8e-7. Against the exact E, the kernel is bounded
        # on the correctly rounded exact covariance (~1.08e-7 off), so the
        # bound measures the kernel, not how a propagator rounded its state.
        mp = pytest.importorskip("mpmath")
        m = EffectiveModel(1.9923732904068676, 1.0, 1.0, n_a=0.1)
        dd = build_effective_drift_diffusion(m)
        t = 5.0 * characteristic_time(m)
        state = CovarianceMatrix(propagate_lti(dd, [t])[0])
        assert np.max(np.abs(state.data)) > 5e8

        def entanglement(v):
            det_v = mp.det(v)
            gamma = mp.det(v[0:2, 0:2]) + mp.det(v[2:4, 2:4]) - 2 * mp.det(v[0:2, 2:4])
            return float(-mp.log(8 * det_v / (gamma + mp.sqrt(gamma**2 - 4 * det_v))) / 2)

        with mp.workdps(40):
            block = mp.zeros(8, 8)
            for i in range(4):
                for j in range(4):
                    block[i, j] = -dd.a[i, j]
                    block[i, 4 + j] = dd.d[i, j]
                    block[4 + i, 4 + j] = dd.a[j, i]
            e = mp.expm(block * mp.mpf(t))
            phi = e[4:8, 4:8].T
            v = phi * phi.T / 2 + phi * e[0:4, 4:8]
            v = (v + v.T) / 2
            exact, rounded = entanglement(v), np.array(v.tolist(), dtype=float)
        with mp.workdps(60):
            of_input = entanglement(mp.matrix(state.data.tolist()))
        kernel = float(two_mode_resources(state.data)[0])
        general = log_negativity(state, {0}, {1})
        assert abs(kernel - of_input) <= abs(general - of_input)
        assert abs(kernel - of_input) < 1e-8
        assert abs(float(two_mode_resources(rounded)[0]) - exact) < 3e-7

    def test_unphysical_state_in_batch_is_named(self):
        stack = np.stack([np.eye(4) / 2, np.eye(4) / 2, np.eye(4) * 0.1])
        with pytest.raises(UnphysicalStateError, match="state 2"):
            two_mode_resources(stack)

    def test_indefinite_state_in_batch_is_a_numeric_failure(self):
        # det v < 0: precision lost upstream, not a state below the uncertainty bound
        stack = np.stack([np.eye(4) / 2, np.diag([0.5, 0.5, 0.5, -0.5])])
        with pytest.raises(NumericError,
                           match=r"^state 1: covariance is not positive definite \(det v = -"):
            two_mode_resources(stack)

    def test_singular_steerer_in_batch_is_named(self):
        # physical (det v_a = 1) but the a block has condition number 1e14
        stack = np.stack([np.eye(4) / 2, np.diag([1e7, 1e-7, 0.5, 0.5])])
        with pytest.raises(NumericError, match="state 1"):
            two_mode_resources(stack)
        with pytest.raises(NumericError):
            gaussian_steering(CovarianceMatrix(stack[1]), {0}, {1})

    @pytest.mark.filterwarnings("error")
    def test_invariants_past_double_range_are_named(self):
        # finite entries whose determinants overflow: neither unphysical nor singular
        stack = np.stack([np.eye(4) / 2, np.eye(4) * 1e200])
        with pytest.raises(NumericError, match="^state 1: two-mode invariants left double range$"):
            two_mode_resources(stack)
        # a thermal mode at n ~ 1e80 next to vacuum: nu^2 = 2 det v / (Gamma +
        # sqrt(Gamma^2 - 4 det v)) reads 0 once Gamma^2 overflows, a range
        # failure, not a violation of the uncertainty bound
        stack = np.stack([np.eye(4) / 2, np.diag([1e80, 1e80, 0.5, 0.5])])
        with pytest.raises(NumericError, match="^state 1: two-mode invariants left double range$"):
            two_mode_resources(stack)

    def test_two_mode_dominance(self):
        # states with positive raw steering carry strictly more entanglement
        for g, ka, kc in ((0.5, 0.5, 1.0), (0.8, 0.6, 1.2)):
            v = steady_state(build_effective_drift_diffusion(EffectiveModel(g, ka, kc)))
            (e,), (s_ac,), (s_ca,) = two_mode_resources(v.data[None])
            assert e > max(0.0, s_ac, s_ca)

    def test_one_state_is_not_numbered(self):
        # a single 4 x 4 state has no position in a stack to name
        with pytest.raises(NumericError,
                           match=r"^covariance is not positive definite \(det v = -"):
            two_mode_resources(np.diag([0.5, 0.5, 0.5, -0.5]))
        with pytest.raises(NumericError, match="^two-mode invariants left double range$"):
            two_mode_resources(np.eye(4) * 1e200)
        with pytest.raises(NumericError, match="^steerer block a is numerically singular"):
            two_mode_resources(np.diag([1e7, 1e-7, 0.5, 0.5]))
        with pytest.raises(UnphysicalStateError,
                           match="^state violates the uncertainty bound: min symplectic "):
            two_mode_resources(np.eye(4) * 0.1)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            two_mode_resources(np.eye(6) / 2)
        with pytest.raises(ValueError):
            two_mode_resources(np.full((4, 4), np.nan))


class TestGaussianSteering:
    def test_no_cross_correlations_means_no_steering(self):
        v = CovarianceMatrix(np.diag([0.9, 0.9, 1.3, 1.3]))
        raw, clamped = gaussian_steering(v, {0}, {1})
        assert raw < 0 and clamped == 0.0

    def test_symmetric_decay_has_zero_raw_steering(self):
        raw, _ = gaussian_steering(symmetric_steady_cm(), {0}, {1})
        assert abs(raw) < 1e-12

    def test_asymmetric_steady_value(self):
        v = steady_state(build_effective_drift_diffusion(EffectiveModel(0.5, 0.5, 1.0)))
        raw, clamped = gaussian_steering(v, {0}, {1})
        assert abs(raw - np.log(1.3125 / 1.1875)) < 1e-10
        assert clamped == raw

    def test_schur_route_matches_determinant_route(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            state, _ = random_physical_cm(rng)
            v_a = state.data[:2, :2]
            det_route = 0.5 * np.log(np.linalg.det(v_a) / (4 * np.linalg.det(state.data)))
            raw, _ = gaussian_steering(state, {0}, {1})
            assert abs(raw - det_route) < 1e-10

    def test_multimode_steered_set(self):
        v = CovarianceMatrix(np.eye(6) * 0.5)
        raw, clamped = gaussian_steering(v, {0}, {1, 2})
        assert clamped == 0.0

    def test_multimode_steerer_rejected(self):
        v = CovarianceMatrix(np.eye(6) * 0.5)
        with pytest.raises(ValueError):
            gaussian_steering(v, {0, 1}, {2})

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalStateError):
            gaussian_steering(CovarianceMatrix(np.eye(4) * 0.2), {0}, {1})


class TestMonogamy:
    def test_product_vacuum_residuals_vanish(self):
        v = CovarianceMatrix(np.eye(6) * 0.5)
        ent, steer = monogamy_residuals(v, 0)
        assert ent == 0.0 and steer == 0.0

    def test_needs_three_modes(self):
        with pytest.raises(ValueError):
            monogamy_residuals(CovarianceMatrix.vacuum(2), 0)

    def test_focus_index_validated(self):
        with pytest.raises(IndexError):
            monogamy_residuals(CovarianceMatrix.vacuum(3), 5)


class TestLocalPhaseRotate:
    def test_zero_angle_identity(self):
        v = symmetric_steady_cm()
        assert np.allclose(local_phase_rotate(v, 0, 0.0).data, v.data, atol=0)

    def test_full_turn_returns(self):
        v = symmetric_steady_cm()
        assert np.allclose(local_phase_rotate(v, 1, 2 * np.pi).data, v.data, atol=1e-12)

    def test_resource_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            state, _ = random_physical_cm(rng)
            angle = rng.uniform(0, 2 * np.pi)
            mode = int(rng.integers(0, 2))
            rotated = local_phase_rotate(state, mode, angle)
            assert abs(log_negativity(rotated, {0}, {1}) - log_negativity(state, {0}, {1})) < 1e-10
            assert np.allclose(symplectic_eigenvalues(rotated),
                               symplectic_eigenvalues(state), atol=1e-10)
