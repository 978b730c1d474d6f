"""Chain parameterization, effective coupling, energy shift, regime labels."""

import dataclasses
import math

import numpy as np
import pytest

from mochain.chain import (
    ChainParams,
    EffectiveModel,
    classify_regime,
    effective_coupling,
    energy_shift,
    matched_detunings,
    reduce,
    validity_report,
)
from mochain.errors import SingularCouplingError
from mochain.gaussian import Regime


def single_mode_chain(**overrides) -> ChainParams:
    base = dict(
        n=1, delta_a=5.0, delta_c=-5.0, omegas=(1.0,),
        g_a=0.12 * math.sqrt(2), g_c=0.12 * math.sqrt(2), g_mid=(),
        theta=math.pi / 4, phi=math.pi / 4,
        kappa_a=5e-4, kappa_c=1e-3, kappa_mid=(1e-6,),
    )
    base.update(overrides)
    return ChainParams(**base)


def two_mode_chain(**overrides) -> ChainParams:
    base = dict(
        n=2, delta_a=3.0, delta_c=-3.0, omegas=(1.0, 1.0),
        g_a=0.12, g_c=0.12 * math.sqrt(2), g_mid=(0.1,),
        theta=0.0, phi=math.pi / 4,
        kappa_a=1e-4, kappa_c=2e-4, kappa_mid=(1e-3, 1e-6),
    )
    base.update(overrides)
    return ChainParams(**base)


class TestChainParamsValidation:
    def test_length_mismatches(self):
        with pytest.raises(ValueError):
            single_mode_chain(omegas=(1.0, 2.0))
        with pytest.raises(ValueError):
            two_mode_chain(g_mid=())
        with pytest.raises(ValueError):
            single_mode_chain(kappa_mid=())

    def test_positive_rates(self):
        with pytest.raises(ValueError):
            single_mode_chain(kappa_a=0.0)

    def test_nonnegative_occupations(self):
        with pytest.raises(ValueError):
            single_mode_chain(n_a=-0.5)

    def test_default_mid_occupations(self):
        assert single_mode_chain().n_mid == (0.0,)


class TestEffectiveCoupling:
    def test_zero_angles_vanish(self):
        assert effective_coupling(single_mode_chain(theta=0.0, phi=0.0)) == 0.0

    def test_single_intermediary_value(self):
        # 2 * 0.12^2 * omega / (delta^2 - omega^2) = 0.0012
        assert abs(effective_coupling(single_mode_chain()) - 0.0012) < 1e-15

    def test_two_intermediaries_value(self):
        assert abs(effective_coupling(two_mode_chain()) - 1.8e-4) < 1e-18

    def test_three_intermediaries_against_inline_formula(self):
        chain = ChainParams(
            n=3, delta_a=4.0, delta_c=-4.0, omegas=(1.0, 1.5, 1.0),
            g_a=0.1, g_c=0.2, g_mid=(0.1, 0.2), theta=0.0, phi=math.pi / 4,
            kappa_a=1e-3, kappa_c=1e-3, kappa_mid=(1e-4, 1e-4, 1e-4),
        )
        da = 4.0
        middle = 2.0 * 0.2 * 1.5 / (da**2 - 1.5**2)
        left = math.sin(0.0) / (da + 1.0) - math.cos(0.0) / (da - 1.0)
        right = math.cos(math.pi / 4) / (da + 1.0) - math.sin(math.pi / 4) / (da - 1.0)
        expected = 0.1 * 0.1 * 0.2 * middle * left * right
        assert abs(effective_coupling(chain) - expected) < 1e-18

    def test_resonance_rejected(self):
        with pytest.raises(SingularCouplingError):
            effective_coupling(single_mode_chain(delta_a=1.0))

    def test_odd_under_theta_shift(self):
        chain = single_mode_chain()
        flipped = single_mode_chain(theta=chain.theta + math.pi)
        assert abs(effective_coupling(chain) + effective_coupling(flipped)) < 1e-18


class TestEnergyShift:
    def test_zero_couplings(self):
        assert energy_shift(single_mode_chain(g_a=0.0, g_c=0.0)) == 0.0

    def test_symmetric_position_coupling_value(self):
        chain = single_mode_chain(
            g_a=0.12 * math.sqrt(2), g_c=0.12 * math.sqrt(2), delta_a=5.0, delta_c=-5.0)
        # 2 (g_a^2 + g_c^2) omega / (omega^2 - delta^2) with bare g = 0.12
        assert abs(energy_shift(chain) - (-0.0024)) < 1e-15

    def test_beam_splitter_first_term(self):
        chain = two_mode_chain(g_c=0.0, omegas=(1.0, 1.0), delta_a=3.0)
        assert abs(energy_shift(chain) - 0.0144 / (1.0 - 3.0)) < 1e-15

    def test_resonant_denominator(self):
        with pytest.raises(SingularCouplingError):
            energy_shift(single_mode_chain(delta_c=-1.0))


class TestMatchedDetunings:
    def test_free_chain_is_opposite(self):
        da, dc = matched_detunings(single_mode_chain(g_a=0.0, g_c=0.0))
        assert dc == -da

    def test_first_pass_value(self):
        _, dc = matched_detunings(single_mode_chain())
        assert abs(dc - (-5.0024)) < 5e-6

    def test_refinement_is_contraction(self):
        chain = single_mode_chain()
        guess = dataclasses.replace(chain, delta_c=-chain.delta_a)
        first = -chain.delta_a + energy_shift(guess)
        second = -chain.delta_a + energy_shift(dataclasses.replace(chain, delta_c=first))
        assert abs(second - first) < 1e-6 * abs(chain.delta_a)
        assert matched_detunings(chain)[1] == second


class TestMatchedChainParams:
    """delta_c = None resolves, inside ChainParams, to the matched optical detuning."""

    @pytest.mark.parametrize("chain", [
        single_mode_chain(),
        two_mode_chain(),
        ChainParams(n=3, delta_a=4.0, delta_c=-4.0, omegas=(1.0, 1.5, 1.0),
                    g_a=0.1, g_c=0.2, g_mid=(0.1, 0.2), theta=0.0, phi=math.pi / 4,
                    kappa_a=1e-3, kappa_c=1e-3, kappa_mid=(1e-4, 1e-4, 1e-4)),
    ], ids=["n1", "n2", "n3"])
    def test_none_is_the_matched_value(self, chain):
        matched = dataclasses.replace(chain, delta_c=None)
        assert matched.delta_c == matched_detunings(chain)[1]
        assert matched == dataclasses.replace(chain, delta_c=matched_detunings(chain)[1])

    def test_explicit_value_is_kept(self):
        assert single_mode_chain(delta_c=-4.5).delta_c == -4.5

    @pytest.mark.parametrize("overrides", [
        dict(delta_a=1.0),                                 # omega_1^2 - delta_a^2 = 0
        dict(n=2, omegas=(1.0, 2.0), delta_a=2.0, g_mid=(0.1,),
             kappa_mid=(1e-3, 1e-6)),                      # omega_N^2 - delta_c^2 = 0
    ], ids=["delta_a", "delta_c"])
    def test_resonant_matched_denominator_raises(self, overrides):
        with pytest.raises(SingularCouplingError):
            single_mode_chain(**{**overrides, "delta_c": None})


class TestValidityReport:
    def test_typical_ratio(self):
        chain = single_mode_chain(g_a=0.12, g_c=0.12)
        rows = {name: (value, ok) for name, value, ok in validity_report(chain)}
        value, ok = rows["g_a/|delta_a - omega_1|"]
        assert abs(value - 0.03) < 1e-15 and ok

    def test_strong_coupling_fails(self):
        chain = single_mode_chain(g_a=1.0, delta_a=1.5, delta_c=-1.5)
        rows = {name: (value, ok) for name, value, ok in validity_report(chain)}
        value, ok = rows["g_a/|delta_a - omega_1|"]
        assert abs(value - 2.0) < 1e-15 and not ok

    def test_zero_couplings_pass(self):
        chain = single_mode_chain(g_a=0.0, g_c=0.0)
        assert all(ok for _, _, ok in validity_report(chain))
        assert all(value == 0.0 for _, value, _ in validity_report(chain))


class TestReduce:
    def test_copies_rates_and_occupations(self):
        chain = single_mode_chain(n_a=0.5, n_c=1.5)
        model = reduce(chain)
        assert abs(model.g_eff - 0.0012) < 1e-15
        assert model.kappa_a == 5e-4 and model.kappa_c == 1e-3
        assert model.n_a == 0.5 and model.n_c == 1.5

    def test_zero_coupling_chain(self):
        assert reduce(single_mode_chain(g_a=0.0)).g_eff == 0.0


class TestClassifyRegime:
    def test_steady(self):
        assert classify_regime(EffectiveModel(0.5, 1.0, 1.0)) is Regime.STEADY

    def test_unsteady(self):
        assert classify_regime(EffectiveModel(1.0, 0.5, 1.0)) is Regime.UNSTEADY

    def test_critical_boundary(self):
        m = EffectiveModel(math.sqrt(0.5 * 1.0), 0.5, 1.0)
        assert classify_regime(m) is Regime.CRITICAL

    def test_model_validation(self):
        with pytest.raises(ValueError):
            EffectiveModel(0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            EffectiveModel(0.1, 1.0, 1.0, n_a=-1.0)
