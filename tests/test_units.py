"""Unit rescaling is exact: every rate and frequency times a power of two.

Every number mochain writes is a function of rates and times in arbitrary
units, and multiplying a double by a power of two is exact (far from the ends
of double range). Scaling every rate, frequency and sweep-axis end by s must
therefore leave every resource, label and flag bit-identical, divide every
time by exactly s and multiply g_eff and the axis values by exactly s. Any
absolute tolerance hidden in the code breaks this at some s. Log axes stay
out: their values go through log10 and 10**x, which are not exact under the
scaling.
"""

import math

import pytest

from mochain.config import parse_config
from mochain.sweep import run_compare, run_evolve, run_region
from mochain.systems import COMM_FIG4, EOM_FIG3

SCALES = {"2^-40": 2.0**-40, "2^-3": 2.0**-3, "2^30": 2.0**30}
TIMES = {"t_end_in_tau": 2.0, "samples": 41}

CHAIN_N3 = {
    "n": 3, "delta_a": 3.0, "theta": 0.3, "phi": math.pi / 4, "g_a": 0.12, "g_c": 0.12,
    "g_mid_1": 0.1, "g_mid_2": 0.08, "omega_1": 1.0, "omega_2": 1.2, "omega_3": 0.9,
    "kappa_a": 1e-4, "kappa_c": 2e-4, "kappa_mid_1": 1e-3, "kappa_mid_2": 1e-4,
    "kappa_mid_3": 1e-6, "n_mid_3": 10.0,
}

CASES = {
    "evolve-effective": (run_evolve, {
        "system": "effective", "times": TIMES,
        "parameters": {"g_eff": 0.6, "kappa_a": 0.5, "kappa_c": 1.0, "n_a": 0.3, "n_c": 0.1}}),
    "evolve-eom": (run_evolve, {"system": "eom", "parameters": dict(EOM_FIG3), "times": TIMES}),
    "evolve-chain3": (run_evolve, {"system": "chain", "parameters": CHAIN_N3, "times": TIMES}),
    "compare-eom": (run_compare, {
        "system": "eom", "parameters": dict(EOM_FIG3),
        "sweep": {"axis1": {"name": "g_a", "min": 0.02, "max": 0.2, "points": 4}}}),
    "region-comm": (run_region, {
        "system": "comm", "parameters": dict(COMM_FIG4),
        "sweep": {"axis1": {"name": "kappa_a", "min": 1e-4, "max": 1e-3, "points": 4},
                  "axis2": {"name": "kappa_c", "min": 1e-4, "max": 1e-3, "points": 3}}}),
}


def rescaled(raw: dict, s: float) -> dict:
    """raw with every rate, frequency and axis end times s; n, the angles and
    the occupations n_* are dimensionless and stay."""
    params = {name: value if name in ("n", "theta", "phi") or name.startswith("n_")
              else value * s for name, value in raw["parameters"].items()}
    sweep = {key: {**axis, "min": axis["min"] * s, "max": axis["max"] * s}
             for key, axis in raw.get("sweep", {}).items()}
    return {**raw, "parameters": params, "sweep": sweep}


@pytest.mark.parametrize("s", SCALES.values(), ids=SCALES.keys())
@pytest.mark.parametrize("case", CASES)
def test_rescaling_is_exact(case, s):
    run, raw = CASES[case]
    base, scaled = run(parse_config(raw)), run(parse_config(rescaled(raw, s)))
    assert scaled.columns == base.columns and len(scaled.rows) == len(base.rows)
    axes = {axis["name"] for axis in raw.get("sweep", {}).values()}
    for column in base.columns:
        factor = 1.0 / s if column == "t" else s if column == "g_eff" or column in axes else None
        expected = [repr(v if factor is None else v * factor) for v in base.column(column)]
        assert [repr(v) for v in scaled.column(column)] == expected, column
