"""Config schema validation, sweep operations, CSV/JSON output, CLI wiring, package surface."""

import argparse
import ast
import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mochain.chain import EffectiveModel, classify_regime, reduce
import mochain
from mochain import cli, config, dynamics, sweep, verify
from mochain.cli import main
from mochain.config import RunConfig, SweepAxis, load_config, parse_config, reduce_point
from mochain.dynamics import characteristic_time
from mochain.errors import ConfigError, NumericError, SingularCouplingError
from mochain.stationary import stationary_entanglement, stationary_steering, steering_region
from mochain.sweep import Table, parse_csv, render, run_compare, run_evolve, run_region
from mochain.systems import (
    COMM_FIG4,
    EOM_FIG3,
    EomParams,
    chain_full_drift_diffusion,
    eom_to_chain,
)

EFFECTIVE = {
    "system": "effective",
    "parameters": {"g_eff": 1.0, "kappa_a": 0.5, "kappa_c": 1.0},
}
CHAIN = {
    "system": "chain",
    "parameters": {
        "n": 2, "delta_a": 3.0, "theta": 0.0, "phi": math.pi / 4,
        "g_a": 0.12, "g_c": 0.17, "g_mid_1": 0.1,
        "kappa_a": 1e-4, "kappa_c": 2e-4,
        "omega_1": 1.0, "omega_2": 1.0,
        "kappa_mid_1": 1e-3, "kappa_mid_2": 1e-6,
    },
}


def config_with(**extra) -> dict:
    raw = {k: (dict(v) if isinstance(v, dict) else v) for k, v in EFFECTIVE.items()}
    raw.update(extra)
    return raw


class TestSchema:
    def test_happy_path_defaults(self):
        cfg = parse_config(config_with())
        assert cfg.system == "effective"
        assert cfg.t_end_in_tau == 2.0 and cfg.samples == 201
        assert cfg.outputs.format == "csv" and cfg.outputs.path is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(config_with(extra_stuff=1))

    def test_unit_key_is_documentation_only(self):
        cfg = parse_config(config_with(unit="mechanical frequency"))
        assert cfg.system == "effective"

    def test_unknown_parameter(self):
        raw = config_with()
        raw["parameters"]["bogus"] = 1.0
        with pytest.raises(ConfigError, match="parameters"):
            parse_config(raw)

    def test_missing_required_parameter(self):
        raw = config_with()
        del raw["parameters"]["g_eff"]
        with pytest.raises(ConfigError, match="g_eff"):
            parse_config(raw)

    def test_bad_system(self):
        with pytest.raises(ConfigError, match="system"):
            parse_config(config_with(system="quantum"))

    def test_parameter_type_checked(self):
        raw = config_with()
        raw["parameters"]["g_eff"] = "large"
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config(raw)

    def test_axis_validation(self):
        with pytest.raises(ConfigError, match="points"):
            parse_config(config_with(sweep={"axis1": {
                "name": "g_eff", "min": 0.1, "max": 1.0, "points": 1}}))
        with pytest.raises(ConfigError, match="max must exceed"):
            parse_config(config_with(sweep={"axis1": {
                "name": "g_eff", "min": 1.0, "max": 0.1, "points": 5}}))
        with pytest.raises(ConfigError, match="log scale"):
            parse_config(config_with(sweep={"axis1": {
                "name": "g_eff", "min": -1.0, "max": 1.0, "points": 5, "scale": "log"}}))
        with pytest.raises(ConfigError, match="not a parameter"):
            parse_config(config_with(sweep={"axis1": {
                "name": "delta_m", "min": 0.1, "max": 1.0, "points": 5}}))

    def test_duplicate_axes_rejected(self):
        axis = {"name": "g_eff", "min": 0.1, "max": 1.0, "points": 3}
        with pytest.raises(ConfigError, match="both axes"):
            parse_config(config_with(sweep={"axis1": axis, "axis2": dict(axis)}))

    def test_times_validation(self):
        with pytest.raises(ConfigError, match="t_end_in_tau"):
            parse_config(config_with(times={"t_end_in_tau": -1.0}))
        with pytest.raises(ConfigError, match="samples"):
            parse_config(config_with(times={"samples": 1}))

    def test_outputs_validation(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config(config_with(outputs={"format": "yaml"}))

    def test_outputs_null_path_is_stdout(self):
        cfg = parse_config(config_with(outputs={"path": None, "format": "json"}))
        assert cfg.outputs.path is None and cfg.outputs.format == "json"

    @pytest.mark.parametrize("extra, path", [
        ({"sweep": [1]}, "sweep"), ({"sweep": {"axis1": None}}, "sweep.axis1"),
        ({"times": [1]}, "times"), ({"outputs": "out.csv"}, "outputs"),
    ], ids=["sweep", "axis", "times", "outputs"])
    def test_section_must_be_an_object(self, extra, path):
        with pytest.raises(ConfigError) as info:
            parse_config(config_with(**extra))
        assert str(info.value) == f"config.{path}: expected an object"

    def test_chain_indexed_parameters(self):
        cfg = parse_config(CHAIN)
        from mochain.config import build_chain_params

        chain = build_chain_params(cfg.parameters)
        assert chain.n == 2 and chain.g_mid == (0.1,)
        assert chain.delta_c != -3.0  # matched, not the bare opposite

    def test_chain_missing_indexed_parameter(self):
        params = {k: v for k, v in CHAIN["parameters"].items() if k != "g_mid_1"}
        with pytest.raises(ConfigError, match="g_mid_1"):
            parse_config({**CHAIN, "parameters": params})

    def test_chain_length_past_the_map_is_refused_briefly(self):
        # n = 1e5 needs 300007 parameters: refused before any of their names is built
        raw = {"system": "chain", "parameters": {"n": 10**5, "delta_a": 1.0}}
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == ("config.parameters.n: 100000 intermediaries need "
                                   "300007 parameters, 2 given")
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("n", range(1, 7))
    def test_chain_length_guard_counts_the_schema(self, n):
        # the guard's count and the schema's required names come from one table
        required, _ = config._flat_schema("chain", n)
        assert config._chain_required_count(n) == len(required) == 3 * n + 7

    def test_chain_length_guard_builds_no_name(self, monkeypatch):
        monkeypatch.setattr(config, "_flat_schema", lambda *args: pytest.fail("names built"))
        with pytest.raises(ConfigError, match="6 intermediaries need 25 parameters, 2 given"):
            parse_config({"system": "chain", "parameters": {"n": 6, "delta_a": 1.0}})

    def test_invalid_axis_end_point_is_config_error(self):
        with pytest.raises(ConfigError, match="at n_a = -0.5"):
            parse_config(config_with(sweep={"axis1": {
                "name": "n_a", "min": -0.5, "max": 1.0, "points": 3}}))

    def test_chain_length_cannot_be_swept(self):
        sweep = {"axis1": {"name": "n", "min": 1, "max": 3, "points": 3}}
        with pytest.raises(ConfigError, match="'n' cannot be swept"):
            parse_config({**CHAIN, "sweep": sweep})

    def test_json_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "system": "effective",\n  oops\n}\n')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path)


class TestRunEvolve:
    def test_sweep_rejected(self):
        cfg = parse_config(config_with(sweep={"axis1": {
            "name": "g_eff", "min": 0.1, "max": 1.0, "points": 3}}))
        with pytest.raises(ConfigError, match="no sweep"):
            run_evolve(cfg)

    def test_columns_and_special_times(self):
        cfg = parse_config(config_with(times={"t_end_in_tau": 2.0, "samples": 7}))
        table = run_evolve(cfg)
        assert table.columns == ("t", "E", "S_ac_raw", "S_ca_raw", "regime",
                                 "v11", "v44", "v14")
        tau = characteristic_time(EffectiveModel(1.0, 0.5, 1.0))
        times = table.column("t")
        assert tau in times and 2.0 * tau in times

    def test_zero_coupling_no_entanglement(self):
        raw = config_with(times={"samples": 5})
        raw["parameters"]["g_eff"] = 0.0
        table = run_evolve(parse_config(raw))
        assert all(e == 0.0 for e in table.column("E"))

    def test_unsteady_late_time_value(self):
        cfg = parse_config(config_with(times={"t_end_in_tau": 2.0, "samples": 5}))
        table = run_evolve(cfg)
        tau = characteristic_time(EffectiveModel(1.0, 0.5, 1.0))
        at_2tau = dict(zip(table.column("t"), table.column("E")))[2.0 * tau]
        assert abs(at_2tau - 0.788274) < 1e-5

    def test_initial_row_is_exact_vacuum(self):
        # near-critical coupling: the closed form at t = 0 used to leave a
        # cancellation residue on which the symplectic spectrum did not converge
        raw = config_with(times={"t_end_in_tau": 2.0, "samples": 401})
        raw["parameters"].update(g_eff=0.9714405130972477, kappa_a=1.0, kappa_c=1.0, n_a=0.0)
        table = run_evolve(parse_config(raw))
        first = dict(zip(table.columns, table.rows[0]))
        assert first["t"] == 0.0 and first["E"] == 0.0 and first["v11"] == 0.5

    def test_critical_point_is_labelled_and_finite(self):
        raw = config_with(times={"samples": 5})
        raw["parameters"].update(g_eff=math.sqrt(0.5), kappa_a=0.5, kappa_c=1.0)
        table = run_evolve(parse_config(raw))
        assert all(r == "Critical" for r in table.column("regime"))
        assert all(np.isfinite(v) for v in table.column("E"))

    def test_platform_system_has_no_element_columns(self):
        raw = {"system": "eom", "parameters": dict(EOM_FIG3),
               "times": {"t_end_in_tau": 0.02, "samples": 3}}
        table = run_evolve(parse_config(raw))
        assert table.columns == ("t", "E", "S_ac_raw", "S_ca_raw", "regime")
        assert len(table.rows) >= 3


class TestRunRegion:
    def test_requires_two_axes(self):
        with pytest.raises(ConfigError, match="axis1 and"):
            run_region(parse_config(config_with()))

    def test_effective_grid_labels(self):
        cfg = parse_config(config_with(sweep={
            "axis1": {"name": "kappa_a", "min": 0.4, "max": 2.0, "points": 5},
            "axis2": {"name": "kappa_c", "min": 0.4, "max": 2.0, "points": 5},
        }))
        table = run_region(cfg)
        assert len(table.rows) == 25
        assert "E_full" not in table.columns
        record = dict(zip(table.columns, table.rows[0]))
        assert record["regime"] in ("Steady", "Critical", "Unsteady")

    def test_schema_is_computed_once_per_sweep(self, monkeypatch):
        calls = []
        original = config._flat_schema
        monkeypatch.setattr(config, "_flat_schema",
                            lambda *args: calls.append(args) or original(*args))
        raw = {**CHAIN, "sweep": {
            "axis1": {"name": "kappa_a", "min": 1e-4, "max": 2e-4, "points": 3},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 3},
        }}
        assert len(run_region(parse_config(raw)).rows) == 9
        assert calls == [("chain", 2)]


class TestChunkMapping:
    """One mapping of a chunk's (B,) columns equals the B = 1 mapping of each cell."""

    @pytest.mark.parametrize("system, base, columns", [
        ("eom", EOM_FIG3, {"g_a": [0.1, 0.12, 0.2, 0.3], "delta_a": [5.0, 4.0, 6.5, 3.3],
                           "n_a": [0.0, 0.5, 0.0, 2.0]}),
        ("comm", COMM_FIG4, {"kappa_a": [1e-4, 3e-4, 5e-5, 1e-3], "g_c": [0.12, 0.0, 0.2, 0.05],
                             "n_m": [0.0, 1.0, 3.0, 0.0]}),
        ("chain", CHAIN["parameters"], {"delta_a": [3.0, 2.0, 4.5, 2.5],
                                        "g_mid_1": [0.1, 0.3, 0.05, 0.2],
                                        "n_c": [0.0, 0.0, 1.5, 0.2]}),
        ("effective", EFFECTIVE["parameters"], {"g_eff": [0.2, 0.7, 1.0, 3.0],
                                                "kappa_c": [1.0, 0.4, 2.0, 1.3],
                                                "n_a": [0.0, 0.1, 0.0, 1.0]}),
    ], ids=["eom", "comm", "chain", "effective"])
    def test_chunk_is_bit_identical_to_single_cells(self, system, base, columns):
        chain, model = config.reduce_point(
            system, {**base, **{name: np.array(values) for name, values in columns.items()}})
        stack = None if chain is None else chain_full_drift_diffusion(chain)
        taus, regimes, regions = (characteristic_time(model), classify_regime(model),
                                  steering_region(model))
        closed = [stationary_entanglement(model), stationary_steering(model, "ac"),
                  stationary_steering(model, "ca")]
        for cell in range(4):
            one_chain, one = config.reduce_point(
                system, {**base, **{name: values[cell] for name, values in columns.items()}})
            assert one.g_eff == model.g_eff[cell]
            if chain is not None:
                assert one_chain.delta_c == chain.delta_c[cell]
                single = chain_full_drift_diffusion(one_chain)
                assert np.array_equal(stack.a[cell], single.a)
                assert np.array_equal(stack.d[cell], single.d)
            tau = characteristic_time(one)
            assert abs(taus[cell] - tau) <= np.spacing(tau)
            assert classify_regime(one) is regimes[cell]
            assert steering_region(one) is regions[cell]
            assert [stationary_entanglement(one), stationary_steering(one, "ac"),
                    stationary_steering(one, "ca")] == [values[cell] for values in closed]

    def test_invalid_value_inside_a_chunk_names_its_cell(self):
        # a RunConfig built directly skips parse_config's end-point checks:
        # kappa_a turns negative at its fifth value, cell 32 of the 64-cell chunk
        axes = (SweepAxis("kappa_a", 4e-4, -3.5e-4, 8), SweepAxis("kappa_c", 1e-4, 2e-4, 8))
        with pytest.raises(ConfigError) as info:
            run_region(RunConfig("comm", dict(COMM_FIG4), sweep=axes))
        x1, x2 = axes[0].values()[4], axes[1].values()[0]
        assert axes[0].values()[3] > 0.0 >= x1
        assert str(info.value) == f"decay rates must be positive at kappa_a = {x1!r}, kappa_c = {x2!r}"

    def test_interior_resonance_inside_a_chunk_names_its_cell(self, tmp_path, capsys):
        # delta_a meets omega_b = 1 at its fourth value: cells 24-31 of the 64-cell chunk
        raw = {"system": "eom", "parameters": dict(EOM_FIG3), "sweep": {
            "axis1": {"name": "delta_a", "min": 0.25, "max": 2.0, "points": 8},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 8}}}
        config_path = tmp_path / "resonant.json"
        config_path.write_text(json.dumps(raw))
        assert main(["region", "--config", str(config_path)]) == 3
        assert capsys.readouterr().err == ("error: resonant denominator omega_1^2 - delta_a^2 = "
                                           "0.000e+00 at delta_a = 1.0, kappa_c = 0.0001\n")

    def test_first_cell_failing_alone_is_named_across_stages(self):
        # cell 1 (delta_a = omega_1) is resonant, cells 3-5 have a negative
        # kappa_a; the chunk fails at the rate check first, cell 1 alone at
        # the resonance, and the first cell that fails alone is named
        params = {"n": 1, "delta_a": 0.5, "theta": math.pi / 4, "phi": math.pi / 4,
                  "g_a": 0.1, "g_c": 0.1, "kappa_a": 1e-3, "kappa_c": 1e-3,
                  "omega_1": 1.0, "kappa_mid_1": 1e-6}
        axes = (SweepAxis("kappa_a", 1e-3, -1e-3, 2), SweepAxis("delta_a", 0.5, 1.5, 3))
        with pytest.raises(SingularCouplingError) as info:
            run_region(RunConfig("chain", params, sweep=axes))
        assert str(info.value) == ("resonant denominator omega_1^2 - delta_a^2 = 0.000e+00 "
                                   "at kappa_a = 0.001, delta_a = 1.0")


class TestSweepBlocking:
    """Tables and the named failing cell do not depend on the chunk and row-block sizes.

    A chunk of SWEEP_CELLS cells runs both stages once; propagate_lti takes
    its rows in blocks of dynamics.ROW_BLOCK. With (7, 3) the cells of a
    sweep split into chunks of 7 and each chunk's rows into blocks of 3, so
    a compare chunk's blocks (two rows per cell) straddle its cells.
    """

    CASES = {
        "comm-region": ("region", RunConfig("comm", dict(COMM_FIG4), sweep=(
            SweepAxis("kappa_a", 5e-5, 2e-4, 7), SweepAxis("kappa_c", 1e-4, 4e-4, 5)))),
        "eom-compare": ("compare", RunConfig("eom", dict(EOM_FIG3), sweep=(
            SweepAxis("g_a", 0.08, 0.16, 9),))),
        "chain-region": ("region", RunConfig("chain", dict(CHAIN["parameters"]), sweep=(
            SweepAxis("delta_a", 2.5, 3.5, 4), SweepAxis("kappa_c", 1e-4, 3e-4, 4)))),
    }

    @staticmethod
    def small_blocks(monkeypatch) -> None:
        monkeypatch.setattr(sweep, "SWEEP_CELLS", 7)
        monkeypatch.setattr(dynamics, "ROW_BLOCK", 3)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_table_is_byte_identical(self, monkeypatch, case):
        command, cfg = self.CASES[case]
        run = run_region if command == "region" else run_compare
        default = render(run(cfg))
        self.small_blocks(monkeypatch)
        assert render(run(cfg)) == default

    def test_first_failing_cell_is_found_cell_by_cell(self, monkeypatch):
        # n_b = 1e80 is the first value whose two-mode invariants leave double
        # range: cell 13 of 21, the last cell of the second chunk
        axis = SweepAxis("n_b", 1e67, 1e87, 21, scale="log")
        values = axis.values()
        run_compare(RunConfig("eom", dict(EOM_FIG3, n_b=values[12])))
        with pytest.raises(NumericError) as alone:
            run_compare(RunConfig("eom", dict(EOM_FIG3, n_b=values[13])))
        self.small_blocks(monkeypatch)
        calls = []

        def spy(*args):
            calls.append(args)
            return reduce_point(*args)

        monkeypatch.setattr(sweep, "reduce_point", spy)
        with pytest.raises(NumericError) as info:
            run_compare(RunConfig("eom", dict(EOM_FIG3), sweep=(axis,)))
        assert str(info.value) == f"{alone.value} at n_b = {values[13]!r}"
        # two chunks, then the failing chunk's seven cells one at a time
        assert len(calls) == 9


# The platforms' reference points spelled as general chains, mapping written out
# by hand: the EOM couples position to position at both ends (theta = phi =
# pi/4, couplings times sqrt(2)) through the mechanics; the COMM couples the
# microwave cavity to the magnon as a beam splitter (theta = 0), the magnon to
# the mechanics, and the mechanics to the optical cavity position to position.
EOM_AS_CHAIN = {
    "n": 1, "delta_a": EOM_FIG3["delta_a"], "theta": math.pi / 4, "phi": math.pi / 4,
    "g_a": math.sqrt(2.0) * EOM_FIG3["g_a"], "g_c": math.sqrt(2.0) * EOM_FIG3["g_c"],
    "kappa_a": EOM_FIG3["kappa_a"], "kappa_c": EOM_FIG3["kappa_c"],
    "omega_1": EOM_FIG3["omega_b"], "kappa_mid_1": EOM_FIG3["kappa_b"], "n_mid_1": EOM_FIG3["n_b"],
}
COMM_AS_CHAIN = {
    "n": 2, "delta_a": COMM_FIG4["delta_a"], "theta": 0.0, "phi": math.pi / 4,
    "g_a": COMM_FIG4["g_a"], "g_mid_1": COMM_FIG4["g_m"], "g_c": math.sqrt(2.0) * COMM_FIG4["g_c"],
    "kappa_a": COMM_FIG4["kappa_a"], "kappa_c": COMM_FIG4["kappa_c"],
    "omega_1": COMM_FIG4["omega_b"], "omega_2": COMM_FIG4["omega_b"],
    "kappa_mid_1": COMM_FIG4["kappa_m"], "kappa_mid_2": COMM_FIG4["kappa_b"],
    "n_mid_2": COMM_FIG4["n_b"],
}


@pytest.mark.parametrize("system, platform, chain, delta_a", [
    ("eom", EOM_FIG3, EOM_AS_CHAIN, (4.0, 6.0)),
    ("comm", COMM_FIG4, COMM_AS_CHAIN, (2.5, 3.5)),
], ids=["eom", "comm"])
class TestChainIsPlatform:
    """A chain config mapped from a platform renders the platform's tables byte for byte."""

    @staticmethod
    def assert_same_text(run, system, platform, chain, **extra):
        as_platform = parse_config({"system": system, "parameters": dict(platform), **extra})
        as_chain = parse_config({"system": "chain", "parameters": chain, **extra})
        assert render(run(as_chain)) == render(run(as_platform))

    def test_region(self, system, platform, chain, delta_a):
        self.assert_same_text(run_region, system, platform, chain, sweep={
            "axis1": {"name": "kappa_a", "min": 1e-4, "max": 1e-3, "points": 6, "scale": "log"},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 1e-3, "points": 5, "scale": "log"}})

    def test_compare(self, system, platform, chain, delta_a):
        lo, hi = delta_a
        self.assert_same_text(run_compare, system, platform, chain, sweep={
            "axis1": {"name": "delta_a", "min": lo, "max": hi, "points": 3}})

    def test_evolve(self, system, platform, chain, delta_a):
        self.assert_same_text(run_evolve, system, platform, chain,
                              times={"t_end_in_tau": 2.0, "samples": 21})


class TestRunCompare:
    def test_platform_only(self):
        with pytest.raises(ConfigError, match="platform"):
            run_compare(parse_config(config_with()))

    def test_single_point_report(self):
        # raised decay rates keep tau short for the test
        raw = {"system": "comm", "parameters": dict(COMM_FIG4, kappa_a=5e-3, kappa_c=1e-2)}
        table = run_compare(parse_config(raw))
        assert len(table.rows) == 1
        record = dict(zip(table.columns, table.rows[0]))
        assert math.isnan(record["point"])
        assert abs(record["g_eff"] - 1.8e-4) < 1e-18
        assert record["validity_pass"] is True

    def test_single_point_json_is_valid(self):
        raw = {"system": "comm", "parameters": dict(COMM_FIG4, kappa_a=5e-3, kappa_c=1e-2)}
        text = render(run_compare(parse_config(raw)), "json")

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        (record,) = json.loads(text, parse_constant=reject)
        assert record["point"] is None


class TestSerialization:
    def test_csv_round_trip_exact(self):
        cfg = parse_config(config_with(times={"samples": 5}))
        table = run_evolve(cfg)
        back = parse_csv(render(table, "csv"))
        assert back.columns == table.columns
        for row, parsed in zip(table.rows, back.rows):
            for value, recovered in zip(row, parsed):
                if isinstance(value, float):
                    assert recovered == value or (math.isnan(value) and math.isnan(recovered))

    def test_lf_endings(self):
        cfg = parse_config(config_with(times={"samples": 3}))
        text = render(run_evolve(cfg), "csv")
        assert "\r" not in text and text.endswith("\n")

    def test_numpy_scalar_is_a_plain_float(self):
        table = Table(("x",), ((np.float64(0.1),),))
        assert render(table, "csv") == "x\n0.1\n"

    def test_column_writer_keeps_the_cell_rules(self):
        # repr(float) for Python and numpy floats, str for anything else, in
        # columns that mix them or not
        rows = ((0.1, np.float64(1e-300), "Steady", True, 3, 0.5),
                (math.nan, np.float32(0.25), "TwoWay", False, 4, np.float64(2.0)),
                (-math.inf, np.float64(-0.0), "None", True, 5, 7))
        expected = "".join(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                                    else str(v) for v in row) + "\n" for row in rows)
        assert render(Table(tuple("abcdef"), rows), "csv") == "a,b,c,d,e,f\n" + expected
        assert render(Table(("t", "E"), ()), "csv") == "t,E\n"

    def test_json_records(self):
        cfg = parse_config(config_with(times={"samples": 3}))
        records = json.loads(render(run_evolve(cfg), "json"))
        assert isinstance(records, list)
        assert set(records[0]) == {"t", "E", "S_ac_raw", "S_ca_raw", "regime",
                                   "v11", "v44", "v14"}

    def test_one_writer_per_config_format(self):
        assert tuple(sweep.WRITERS) == config.FORMATS

    @pytest.mark.parametrize("fmt", ["xml", "CSV", "Json", ""])
    def test_unknown_format_is_refused(self, fmt, tmp_path, capsys):
        table = Table(("x",), ((0.1,),))
        with pytest.raises(ValueError, match=r"unknown output format .*'csv', 'json'"):
            render(table, fmt)
        with pytest.raises(ValueError, match=r"unknown output format .*'csv', 'json'"):
            sweep.write_output(table, None, fmt)
        out_path = tmp_path / "out.txt"
        with pytest.raises(ValueError):
            sweep.write_output(table, str(out_path), fmt)
        assert not out_path.exists()
        assert capsys.readouterr().out == ""


class TestCli:
    def test_evolve_to_file(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config_with(times={"samples": 5})))
        out_path = tmp_path / "out.csv"
        status = main(["evolve", "--config", str(config_path), "--out", str(out_path)])
        assert status == 0
        table = parse_csv(out_path.read_text())
        assert table.columns[0] == "t"

    def test_stdout_default(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config_with(times={"samples": 3})))
        assert main(["evolve", "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("t,E,S_ac_raw")

    def test_json_format_flag(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config_with(times={"samples": 3})))
        out_path = tmp_path / "out.json"
        main(["evolve", "--config", str(config_path), "--out", str(out_path),
              "--format", "json"])
        assert isinstance(json.loads(out_path.read_text()), list)

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"system": "effective", "parameters": {}}))
        assert main(["evolve", "--config", str(config_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [EFFECTIVE, {"system": "eom", "parameters": EOM_FIG3}],
                             ids=["effective", "eom"])
    def test_invalid_value_exit_code(self, tmp_path, capsys, raw):
        raw = {**raw, "parameters": {**raw["parameters"], "kappa_a": -1.0}}
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(raw))
        assert main(["evolve", "--config", str(config_path)]) == 2
        assert "decay rates must be positive" in capsys.readouterr().err

    def test_library_error_is_one_line(self, tmp_path, capsys):
        # divergent thermal model far past double range: no traceback, exit 3
        raw = {"system": "effective",
               "parameters": {"g_eff": 3.0, "kappa_a": 0.5, "kappa_c": 1.0, "n_a": 0.1},
               "times": {"t_end_in_tau": 100.0}}
        config_path = tmp_path / "divergent.json"
        config_path.write_text(json.dumps(raw))
        assert main(["evolve", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows double precision at t = " in err

    @pytest.mark.parametrize("command", ["region", "compare"])
    def test_sweep_error_names_the_cell(self, tmp_path, capsys, command):
        # the middle delta_a cell sits on the chain resonance omega_1 = delta_a
        if command == "region":
            params = {"n": 1, "delta_a": 0.5, "theta": math.pi / 4, "phi": math.pi / 4,
                      "g_a": 0.1, "g_c": 0.1, "kappa_a": 1e-3, "kappa_c": 1e-3,
                      "omega_1": 1.0, "kappa_mid_1": 1e-6}
            raw = {"system": "chain", "parameters": params, "sweep": {
                "axis1": {"name": "delta_a", "min": 0.5, "max": 1.5, "points": 3},
                "axis2": {"name": "g_a", "min": 0.1, "max": 0.2, "points": 2}}}
        else:
            raw = {"system": "eom", "parameters": dict(EOM_FIG3), "sweep": {
                "axis1": {"name": "delta_a", "min": 0.5, "max": 1.5, "points": 3}}}
        config_path = tmp_path / "resonant.json"
        config_path.write_text(json.dumps(raw))
        assert main([command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at delta_a = 1.0" in err

    @pytest.mark.parametrize("command, point, sweep", [
        ("evolve", {"delta_a": 1.0}, None),
        ("region", {}, {
            "axis1": {"name": "delta_a", "min": 0.5, "max": 1.0, "points": 2},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 2}}),
        ("region", {}, {
            "axis1": {"name": "delta_a", "min": 0.5, "max": 1.5, "points": 3},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 2}}),
    ], ids=["evolve", "region-end", "region-interior"])
    def test_resonance_is_one_error_whatever_the_spelling(self, tmp_path, capsys,
                                                          command, point, sweep):
        # delta_a = omega_1 = 1: a library error (exit 3) for eom and for the
        # same point spelled as a chain, with the same message and cell
        results = []
        for system, params in (("eom", EOM_FIG3), ("chain", EOM_AS_CHAIN)):
            raw = {"system": system, "parameters": {**params, **point}}
            if sweep:
                raw["sweep"] = sweep
            config_path = tmp_path / "resonant.json"
            config_path.write_text(json.dumps(raw))
            results.append((main([command, "--config", str(config_path)]),
                            capsys.readouterr().err))
        assert results[0] == results[1]
        code, err = results[0]
        assert code == 3
        assert err.startswith("error: resonant denominator omega_1^2 - delta_a^2 = 0.000e+00")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_swept_diffusion_names_the_cell(self, tmp_path, capsys):
        # every n_m is finite, but kappa_m (2 n_m + 1) leaves double range at 1e308
        raw = {"system": "comm", "parameters": dict(COMM_FIG4), "sweep": {
            "axis1": {"name": "n_m", "min": 1e308, "max": 1.5e308, "points": 3},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 2}}}
        config_path = tmp_path / "overflow.json"
        config_path.write_text(json.dumps(raw))
        assert main(["region", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        self.assert_one_line(err, "error: ")
        assert "diffusion overflows double precision at n_m = 1e+308, kappa_c = 0.0001" in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_swept_drift_names_the_cell(self, tmp_path, capsys):
        # every g_m is finite, but the drift entry 2 g_m leaves double range at
        # 1e308; the end couplings are tiny, so g_eff and its square stay finite
        raw = {"system": "comm", "parameters": dict(COMM_FIG4, g_a=1e-160, g_c=1e-160), "sweep": {
            "axis1": {"name": "g_m", "min": 1e308, "max": 1.5e308, "points": 3},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 2}}}
        config_path = tmp_path / "overflow.json"
        config_path.write_text(json.dumps(raw))
        assert main(["region", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        self.assert_one_line(err, "error: ")
        assert "drift/diffusion overflows double precision at g_m = 1e+308, kappa_c = 0.0001" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, raw, where", [
        ("evolve", {**CHAIN, "parameters": {**CHAIN["parameters"], "g_a": 1e200}}, ""),
        ("evolve", {"system": "eom", "parameters": {**EOM_FIG3, "g_a": 1e308}}, ""),
        ("region", {"system": "eom", "parameters": dict(EOM_FIG3), "sweep": {
            "axis1": {"name": "g_a", "min": 1e200, "max": 1e300, "points": 3, "scale": "log"},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 2}}},
         " at g_a = 1e+200, kappa_c = 0.0001"),
    ], ids=["chain-evolve", "eom-evolve", "eom-region"])
    def test_overflowing_end_coupling_is_a_config_error(self, tmp_path, capsys,
                                                         command, raw, where):
        # finite end couplings whose squares in the energy shift leave double range
        config_path = tmp_path / "coupling.json"
        config_path.write_text(json.dumps(raw))
        assert main([command, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        self.assert_one_line(err, "config error: ")
        assert err.endswith(f"chain parameters must be finite{where}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, raw, where", [
        ("evolve", {"system": "effective",
                    "parameters": {"g_eff": 1e200, "kappa_a": 1.0, "kappa_c": 1.0}}, ""),
        ("evolve", {**CHAIN, "parameters": {**CHAIN["parameters"],
                                            "g_a": 1e60, "g_c": 1e60, "g_mid_1": 1e60}}, ""),
        ("region", {**CHAIN, "sweep": {
            "axis1": {"name": "g_mid_1", "min": 0.1, "max": 1e300, "points": 3, "scale": "log"},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 2}}},
         " at g_mid_1 = 1e+300, kappa_c = 0.0001"),
    ], ids=["effective-evolve", "chain-evolve", "chain-region"])
    def test_coupling_with_overflowing_square_is_a_config_error(self, tmp_path, capsys,
                                                                command, raw, where):
        # a finite effective coupling whose square leaves double range
        config_path = tmp_path / "coupling.json"
        config_path.write_text(json.dumps(raw))
        assert main([command, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        self.assert_one_line(err, "config error: ")
        assert err.endswith(f"is not finite or its square overflows{where}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, raw, message", [
        # invariants past double range are reported as such, not as unphysical or
        # singular, with the time of the first failing state: tau, then 2 tau
        ("compare", {"system": "comm", "parameters": dict(COMM_FIG4, n_m=1e300)},
         "two-mode invariants left double range at t = 18654.68441019048"),
        ("compare", {"system": "eom", "parameters": dict(EOM_FIG3, n_b=1e80)},
         "two-mode invariants left double range at t = 6360.255489325155"),
        # two resonance kinds in one chunk: omega_N = omega_b meets delta_c at cell 1,
        # omega_1 = delta_m meets delta_a at cell 3
        ("compare", {"system": "comm", "parameters": dict(COMM_FIG4, delta_m=2.0), "sweep": {
            "axis1": {"name": "delta_a", "min": 0.5, "max": 2.5, "points": 5}}},
         "resonant denominator omega_N^2 - delta_c^2 = 0.000e+00 at delta_a = 1.0"),
        # a failing state is named by its time, then its cell by the axis values
        ("compare", {"system": "eom", "parameters": dict(EOM_FIG3), "sweep": {
            "axis1": {"name": "n_b", "min": 1e79, "max": 1e81, "points": 3, "scale": "log"}}},
         "two-mode invariants left double range at t = 6360.255489325155 at n_b = 1e+80"),
        ("compare", {"system": "eom", "parameters": dict(EOM_FIG3), "sweep": {
            "axis1": {"name": "n_b", "min": 1e79, "max": 1e93, "points": 8, "scale": "log"}}},
         "two-mode invariants left double range at t = 6360.255489325155 at n_b = 1e+81"),
        # the first cell fails before the stage that overflows in the last one
        ("region", {"system": "comm", "parameters": dict(COMM_FIG4), "sweep": {
            "axis1": {"name": "n_m", "min": 1e300, "max": 1e308, "points": 3, "scale": "log"},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 2}}},
         "two-mode invariants left double range at t = 22439.947525641383 "
         "at n_m = 1e+300, kappa_c = 0.0001"),
        ("region", {"system": "comm", "parameters": dict(COMM_FIG4, g_a=1e-160, g_c=1e-160),
                    "sweep": {
            "axis1": {"name": "g_m", "min": 1e300, "max": 1e308, "points": 3, "scale": "log"},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 2}}},
         "span 62831.9 is past the doubling bound u ||A||_1 h <= 2^-20 "
         "(||A||_1 h = 1.26e+305) at g_m = 1e+300, kappa_c = 0.0001"),
        ("region", {"system": "eom", "parameters": dict(EOM_FIG3), "sweep": {
            "axis1": {"name": "g_a", "min": 1e100, "max": 1e300, "points": 3, "scale": "log"},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 2e-4, "points": 2}}},
         "span 6.28319e-98 is past the doubling bound u ||A||_1 h <= 2^-20 "
         "(||A||_1 h = 5.24e+101) at g_a = 1e+100, kappa_c = 0.0001"),
    ], ids=["comm-point", "eom-point", "two-resonances", "n_b-3", "n_b-8", "n_m-region",
            "g_m-region", "g_a-region"])
    def test_error_names_the_first_cell_failing_alone(self, tmp_path, capsys, command, raw,
                                                      message):
        config_path = tmp_path / "failing.json"
        config_path.write_text(json.dumps(raw))
        assert main([command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        self.assert_one_line(err, "error: ")
        assert err == f"error: {message}\n"

    def test_sweep_error_is_the_one_point_error_of_its_cell(self, tmp_path, capsys):
        point = {"system": "comm", "parameters": dict(COMM_FIG4, delta_m=2.0, delta_a=1.0)}
        swept = {"system": "comm", "parameters": dict(COMM_FIG4, delta_m=2.0), "sweep": {
            "axis1": {"name": "delta_a", "min": 0.5, "max": 2.5, "points": 5}}}
        errors = []
        for raw in (point, swept):
            config_path = tmp_path / "resonant.json"
            config_path.write_text(json.dumps(raw))
            assert main(["compare", "--config", str(config_path)]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[1] == errors[0][:-1] + " at delta_a = 1.0\n"

    @pytest.mark.parametrize("n_a, t_end_in_tau, e_inf, s_ac_inf", [
        (0.0, 5.0, 1.5849014348, 0.9715312157),
        (0.1, 7.0, 1.5271197356, 0.9137495165),
    ], ids=["vacuum", "thermal"])
    def test_divergent_evolve_stays_on_its_stationary_resources(self, tmp_path, n_a,
                                                                t_end_in_tau, e_inf, s_ac_inf):
        # g^2 = 18 kappa_a kappa_c: the covariance grows like e^{4.5 t} while E
        # and S_ac settle on their stationary values by ~4 tau
        raw = {"system": "effective",
               "parameters": {"g_eff": 3.0, "kappa_a": 0.5, "kappa_c": 1.0, "n_a": n_a},
               "times": {"t_end_in_tau": t_end_in_tau, "samples": 8}}
        config_path, out_path = tmp_path / "probe.json", tmp_path / "probe.csv"
        config_path.write_text(json.dumps(raw))
        assert main(["evolve", "--config", str(config_path), "--out", str(out_path)]) == 0
        table = parse_csv(out_path.read_text())
        tau = characteristic_time(EffectiveModel(3.0, 0.5, 1.0))
        late = [i for i, t in enumerate(table.column("t")) if t >= 4.0 * tau]
        assert len(late) >= 2 and late[-1] == len(table.rows) - 1
        for i in late:
            assert abs(table.column("E")[i] - e_inf) < 1e-9
            assert abs(table.column("S_ac_raw")[i] - s_ac_inf) < 1e-9

    def test_lost_precision_is_a_numeric_failure(self, tmp_path, capsys):
        # EOM Fig-3 at 12 tau: the microwave-optical block comes out with
        # det v ~ -1.9e26, a covariance that lost its precision, not a state
        # below the uncertainty bound; the row is named by its time
        raw = {"system": "eom", "parameters": dict(EOM_FIG3),
               "times": {"t_end_in_tau": 40.0, "samples": 41}}
        config_path = tmp_path / "eom40.json"
        config_path.write_text(json.dumps(raw))
        assert main(["evolve", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        self.assert_one_line(err, "error: ")
        assert err.startswith("error: covariance is not positive definite (det v = -")
        tau = characteristic_time(reduce(eom_to_chain(EomParams(**EOM_FIG3))))
        assert float(err.rsplit(") at t = ", 1)[1]) == pytest.approx(12.0 * tau, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("system", ["effective", "eom"])
    def test_non_finite_time_grid_is_a_config_error(self, tmp_path, capsys, system):
        # t_end_in_tau * tau overflows to inf
        params = {"g_eff": 0.5, "kappa_a": 1.0, "kappa_c": 1.0} if system == "effective" \
            else dict(EOM_FIG3)
        raw = {"system": system, "parameters": params,
               "times": {"t_end_in_tau": 1e308, "samples": 5}}
        config_path = tmp_path / "inf.json"
        config_path.write_text(json.dumps(raw))
        assert main(["evolve", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        self.assert_one_line(err, "config error: times.t_end_in_tau = 1e+308 times tau = ")
        assert err.endswith(" is not a finite time\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, sweep, where", [
        ("compare", None, ""),
        ("compare", {"axis1": {"name": "n_b", "min": 1.0, "max": 10.0, "points": 2}},
         " at n_b = 1.0"),
        ("region", {"axis1": {"name": "delta_a", "min": 4.0, "max": 5.0, "points": 2},
                    "axis2": {"name": "n_b", "min": 1.0, "max": 10.0, "points": 2}},
         " at delta_a = 4.0, n_b = 1.0"),
    ], ids=["compare-point", "compare-sweep", "region"])
    def test_non_finite_tau_is_a_parameter_error(self, tmp_path, capsys, command, sweep, where):
        # g_eff = 0 and subnormal rates: 4 pi / (Omega + kappa_a + kappa_c) overflows
        raw = {"system": "eom",
               "parameters": dict(EOM_FIG3, g_a=0.0, kappa_a=1e-320, kappa_c=1e-320)}
        if sweep:
            raw["sweep"] = sweep
        config_path = tmp_path / "tau.json"
        config_path.write_text(json.dumps(raw))
        assert main([command, "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        self.assert_one_line(err, "error: ")
        assert err == ("error: characteristic time 4 pi / (Omega + kappa_a + kappa_c) "
                       f"is not finite and positive{where}\n")

    @staticmethod
    def assert_one_line(err: str, prefix: str) -> None:
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_config_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["evolve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        self.assert_one_line(err, "config error: ")
        assert str(path) in err

    def test_non_utf8_config_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(EFFECTIVE).encode() + b" \xff")
        assert main(["evolve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        self.assert_one_line(err, "config error: ")
        assert str(path) in err

    def test_unwritable_output_is_one_line(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config_with(times={"samples": 3})))
        out_path = tmp_path / "missing" / "out.csv"
        assert main(["evolve", "--config", str(config_path), "--out", str(out_path)]) == 3
        err = capsys.readouterr().err
        self.assert_one_line(err, f"error: cannot write {out_path}: ")

    def test_unwritable_verify_report_is_one_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_and_format", lambda: ("PASS stub", 0))
        out_path = tmp_path / "missing" / "report.txt"
        assert main(["verify", "--out", str(out_path)]) == 3
        err = capsys.readouterr().err
        self.assert_one_line(err, f"error: cannot write {out_path}: ")

    def test_region_to_file(self, tmp_path):
        raw = config_with(sweep={
            "axis1": {"name": "kappa_a", "min": 0.4, "max": 2.0, "points": 3},
            "axis2": {"name": "kappa_c", "min": 0.4, "max": 2.0, "points": 3},
        })
        config_path = tmp_path / "region.json"
        config_path.write_text(json.dumps(raw))
        out_path = tmp_path / "region.csv"
        assert main(["region", "--config", str(config_path), "--out", str(out_path)]) == 0
        assert len(parse_csv(out_path.read_text()).rows) == 9

    def test_import_needs_no_scipy(self):
        # a fresh interpreter, so that modules the tests loaded do not count
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import mochain.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-E", "-c", probe, src],
                             capture_output=True, text=True, timeout=120, check=True)
        assert run.stdout.strip() == "[]"

    def test_output_path_from_config(self, tmp_path):
        out_path = tmp_path / "from_config.csv"
        raw = config_with(times={"samples": 3}, outputs={"path": str(out_path)})
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(raw))
        assert main(["evolve", "--config", str(config_path)]) == 0
        assert out_path.exists()


class TestParsesAreIndependent:
    """main parses with one parser per process, and no call's arguments reach the next."""

    def test_format_and_out_do_not_carry_over(self, tmp_path):
        csv_path = tmp_path / "from_config.csv"
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config_with(times={"samples": 3},
                                                      outputs={"path": str(csv_path)})))
        json_path = tmp_path / "flagged.json"
        assert main(["evolve", "--config", str(config_path), "--out", str(json_path),
                     "--format", "json"]) == 0
        assert main(["evolve", "--config", str(config_path)]) == 0
        assert isinstance(json.loads(json_path.read_text()), list)
        assert csv_path.read_text().startswith("t,E,S_ac_raw")
        assert len(parse_csv(csv_path.read_text()).rows) == 3

    def test_failed_parse_does_not_carry_over(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as failed:
            main(["bogus"])
        assert failed.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config_with(times={"samples": 3})))
        assert main(["evolve", "--config", str(config_path),
                     "--out", str(tmp_path / "out.csv")]) == 0

    def test_parser_is_built_at_most_once(self, tmp_path, monkeypatch):
        built, construct = [], argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            if kwargs.get("prog") == "mochain":  # the top-level parser, not a subcommand's
                built.append(parser)
            construct(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config_with(times={"samples": 3})))
        for i in range(4):
            assert main(["evolve", "--config", str(config_path),
                         "--out", str(tmp_path / f"out{i}.csv")]) == 0
        assert len(built) <= 1

    def test_data_job_leaves_no_cyclic_garbage(self, tmp_path):
        raw = {"system": "eom", "parameters": dict(EOM_FIG3), "sweep": {
            "axis1": {"name": "g_a", "min": 0.08, "max": 0.16, "points": 2}}}
        config_path = tmp_path / "compare.json"
        config_path.write_text(json.dumps(raw))
        argv = ["compare", "--config", str(config_path), "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 0  # warm-up: lazily built state is not garbage
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestOracleStaysOut:
    """The RK4 oracle lives in verify and no data command runs it."""

    @pytest.mark.parametrize("command, raw", [
        ("evolve", config_with(times={"samples": 5})),
        ("evolve", {**EFFECTIVE, "parameters": {**EFFECTIVE["parameters"], "n_a": 0.1},
                    "times": {"samples": 5}}),
        ("evolve", {"system": "eom", "parameters": dict(EOM_FIG3), "times": {"samples": 5}}),
        ("region", {"system": "comm", "parameters": dict(COMM_FIG4), "sweep": {
            "axis1": {"name": "kappa_a", "min": 1e-4, "max": 1e-3, "points": 3},
            "axis2": {"name": "kappa_c", "min": 1e-4, "max": 1e-3, "points": 3}}}),
        ("compare", {"system": "eom", "parameters": dict(EOM_FIG3), "sweep": {
            "axis1": {"name": "g_a", "min": 0.08, "max": 0.16, "points": 2}}}),
    ], ids=["evolve-vacuum", "evolve-thermal", "evolve-eom", "region-comm", "compare-eom"])
    def test_data_commands_never_step_rk4(self, tmp_path, monkeypatch, command, raw):
        def forbidden(*args):
            raise AssertionError("a data command ran the RK4 oracle")

        monkeypatch.setattr(verify, "_rk4_step", forbidden)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(raw))
        out_path = tmp_path / "out.csv"
        assert main([command, "--config", str(config_path), "--out", str(out_path)]) == 0
        assert parse_csv(out_path.read_text()).rows

    def test_production_module_has_no_oracle(self):
        assert not hasattr(dynamics, "lyapunov_rk4")
        assert not hasattr(dynamics, "_rk4_step")


def test_public_surface():
    tree = ast.parse(Path(mochain.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(mochain.__all__) == sorted(n for n in imported if not n.startswith("_"))
    for name in mochain.__all__:
        getattr(mochain, name)
    wrappers = [f"{platform}_full_drift_diffusion" for platform in ("eom", "comm")]
    for name in ("lyapunov_rk4", "Trajectory", "matched_detunings", "ModePartition", *wrappers):
        assert name not in mochain.__all__ and not hasattr(mochain, name)
        assert not hasattr(mochain.systems, name)
    # a platform has no dynamics function: its dynamics is that of its chain
    assert mochain.chain_full_drift_diffusion is mochain.systems.chain_full_drift_diffusion
    assert "chain_full_drift_diffusion" in mochain.__all__
    assert not hasattr(mochain.gaussian, "ModePartition")


def test_sweep_axis_values():
    linear = SweepAxis("x", 0.0, 1.0, 5)
    assert linear.values() == [0.0, 0.25, 0.5, 0.75, 1.0]
    log = SweepAxis("x", 1e-2, 1.0, 3, scale="log")
    assert np.allclose(log.values(), [1e-2, 1e-1, 1.0])
