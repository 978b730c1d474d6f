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
    reduce,
    validity_report,
)
from mochain.errors import ParameterError, SingularCouplingError
from mochain.gaussian import Regime
from mochain.stationary import boundary_limits
from mochain.systems import COMM_FIG4, EOM_FIG3, CommParams, EomParams


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


class TestCheckRates:
    """Every parameter set checks its rates and occupations through one rule."""

    @pytest.mark.parametrize("build, message", [
        (lambda: single_mode_chain(kappa_mid=(0.0,)), "decay rates must be positive"),
        (lambda: EffectiveModel(0.1, 1.0, -1.0), "decay rates must be positive"),
        (lambda: EomParams(**dict(EOM_FIG3, kappa_b=0.0)), "decay rates must be positive"),
        (lambda: CommParams(**dict(COMM_FIG4, kappa_m=-1.0)), "decay rates must be positive"),
        (lambda: boundary_limits(1.0, 0.0), "decay rates must be positive"),
        (lambda: single_mode_chain(n_mid=(-1.0,)), "thermal occupations must be non-negative"),
        (lambda: EffectiveModel(0.1, 1.0, 1.0, n_c=-1.0),
         "thermal occupations must be non-negative"),
        (lambda: CommParams(**dict(COMM_FIG4, n_m=-1.0)),
         "thermal occupations must be non-negative"),
    ], ids=["chain", "effective", "eom", "comm", "boundary", "chain-n", "effective-n", "comm-n"])
    def test_one_message_per_rule(self, build, message):
        with pytest.raises(ParameterError) as info:
            build()
        assert str(info.value) == message


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

    def test_resonance_bound_is_relative(self):
        # every rate and frequency times 2^-30: each gap is as far from
        # resonance as at unit scale, and g_eff scales exactly
        s = 2.0**-30
        unit, small = single_mode_chain(), single_mode_chain(**{
            k: (tuple(x * s for x in v) if isinstance(v, tuple) else v * s)
            for k, v in dict(delta_a=5.0, delta_c=-5.0, omegas=(1.0,), g_a=0.12 * math.sqrt(2),
                             g_c=0.12 * math.sqrt(2), kappa_a=5e-4, kappa_c=1e-3,
                             kappa_mid=(1e-6,)).items()})
        assert effective_coupling(small) == effective_coupling(unit) * s
        assert energy_shift(small) == energy_shift(unit) * s
        # an exact resonance between two zero terms is still refused
        with pytest.raises(SingularCouplingError, match="delta_a - omega_1 = 0.000e"):
            effective_coupling(single_mode_chain(delta_a=0.0, omegas=(0.0,)))

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


def matched(chain: ChainParams) -> float:
    """The optical detuning ChainParams resolves delta_c = None to."""
    return dataclasses.replace(chain, delta_c=None).delta_c


def two_passes(chain: ChainParams) -> tuple[float, float]:
    """-delta_a + shift, with the shift at delta_c = -delta_a, then at that first value."""
    first = -chain.delta_a + energy_shift(dataclasses.replace(chain, delta_c=-chain.delta_a))
    return first, -chain.delta_a + energy_shift(dataclasses.replace(chain, delta_c=first))


class TestMatchedDetunings:
    def test_free_chain_is_opposite(self):
        chain = single_mode_chain(g_a=0.0, g_c=0.0)
        assert matched(chain) == -chain.delta_a

    def test_first_pass_value(self):
        assert abs(matched(single_mode_chain()) - (-5.0024)) < 5e-6

    def test_refinement_is_contraction(self):
        chain = single_mode_chain()
        first, second = two_passes(chain)
        assert abs(second - first) < 1e-6 * abs(chain.delta_a)
        assert matched(chain) == second


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
        _, second = two_passes(chain)
        assert dataclasses.replace(chain, delta_c=None) == dataclasses.replace(chain, delta_c=second)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g_a, g_c", [(1e200, 0.17), (1e200, -1e200)])
    def test_overflowing_shift_is_not_finite(self, g_a, g_c):
        # finite couplings whose squares leave double range: a ValueError, not
        # an OverflowError or a numpy warning
        with pytest.raises(ValueError, match="chain parameters must be finite"):
            single_mode_chain(g_a=g_a, g_c=g_c, delta_c=None)

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
