"""Parameter sweeps and trajectory tables behind the command-line surface.

Three operations cover the reproduction pipelines: run_evolve emits a resource
time series for one parameter set, run_region rasterizes the closed-form
regime/steering maps over a two-axis grid (with an optional full-system
numeric pass for the platform systems), and run_compare sweeps one axis and
tabulates closed-form stationary values against the full dynamics at the
characteristic time and twice it.

Every numeric covariance comes from the exact propagator
dynamics.propagate_lti, except for effective models with vacuum input away
from the critical coupling, where the analytic covariance is used. All tables
serialize to CSV (LF line endings, shortest round-trip float representation)
or JSON.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .chain import classify_regime, validity_report
from .config import (
    RunConfig,
    build_chain_params,
    build_comm_params,
    build_eom_params,
    effective_model,
)
from .dynamics import (
    DriftDiffusion,
    analytic_effective_cm,
    build_effective_drift_diffusion,
    characteristic_time,
    propagate_lti,
)
from .errors import ConfigError
from .gaussian import CovarianceMatrix, ModePartition, Regime, gaussian_steering, log_negativity
from .stationary import stationary_entanglement, stationary_steering, steering_region
from .systems import (
    comm_full_drift_diffusion,
    comm_to_chain,
    eom_full_drift_diffusion,
    eom_to_chain,
)

_MO_PARTITION = ModePartition({0}, {1})


@dataclass(frozen=True)
class Table:
    """Column-named result rows; the exchange format of every sweep operation."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def write_csv(table: Table, stream) -> None:
    """Emit with LF endings and shortest round-trip float formatting."""
    stream.write(",".join(table.columns) + "\n")
    for row in table.rows:
        stream.write(",".join(_format_cell(v) for v in row) + "\n")


def write_json(table: Table, stream) -> None:
    records = [dict(zip(table.columns, row)) for row in table.rows]
    json.dump(records, stream, indent=1)
    stream.write("\n")


def render(table: Table, fmt: str = "csv") -> str:
    buf = io.StringIO()
    (write_csv if fmt == "csv" else write_json)(table, buf)
    return buf.getvalue()


def write_output(table: Table, path: str | None, fmt: str = "csv") -> None:
    if path is None:
        write_csv(table, sys.stdout) if fmt == "csv" else write_json(table, sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        (write_csv if fmt == "csv" else write_json)(table, handle)


def parse_csv(text: str) -> Table:
    """Inverse of write_csv for numeric tables (strings stay strings)."""
    lines = [line for line in text.split("\n") if line]
    columns = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(tuple(row))
    return Table(columns=columns, rows=tuple(rows))


def _mo_resources(v: CovarianceMatrix) -> tuple[float, float, float]:
    sub = v.reduced([0, 1]) if v.modes > 2 else v
    e = log_negativity(sub, _MO_PARTITION)
    s_ac = gaussian_steering(sub, {0}, {1})[0]
    s_ca = gaussian_steering(sub, {1}, {0})[0]
    return e, s_ac, s_ca


def _sample_grid(cfg: RunConfig, tau: float) -> np.ndarray:
    """Requested samples on [0, t_end], always containing tau and 2*tau exactly."""
    t_end = cfg.t_end_in_tau * tau
    grid = set(np.linspace(0.0, t_end, cfg.samples).tolist())
    for special in (tau, 2.0 * tau):
        if special <= t_end * (1.0 + 1e-12):
            grid.add(special)
    return np.array(sorted(grid))


def _full_drift_diffusion(cfg: RunConfig) -> DriftDiffusion:
    if cfg.system == "eom":
        return eom_full_drift_diffusion(build_eom_params(cfg.parameters))
    if cfg.system == "comm":
        return comm_full_drift_diffusion(build_comm_params(cfg.parameters))
    raise ConfigError(f"system {cfg.system!r} has no full-system dynamics")


def run_evolve(cfg: RunConfig) -> Table:
    """Resource time series for a single parameter set.

    Effective (and chain-reduced) systems use the analytic covariance when it
    exists and the exact propagator at the critical coupling or for thermal
    end modes; the platform systems propagate their full linearized dynamics
    exactly and reduce to the microwave-optical sub-state.
    """
    model = effective_model(cfg.system, cfg.parameters)
    regime = classify_regime(model)
    tau = characteristic_time(model)
    grid = _sample_grid(cfg, tau)

    effective_route = cfg.system in ("effective", "chain")
    columns = ["t", "E", "S_ac_raw", "S_ca_raw", "regime"]
    if effective_route:
        columns += ["v11", "v44", "v14"]

    if (effective_route and regime is not Regime.CRITICAL
            and model.n_a == 0.0 and model.n_c == 0.0):
        states = [analytic_effective_cm(model, t) for t in grid]
    else:
        dd = (build_effective_drift_diffusion(model) if effective_route
              else _full_drift_diffusion(cfg))
        states = propagate_lti(dd, CovarianceMatrix.vacuum(dd.modes), grid)

    rows = []
    for t, state in zip(grid, states):
        e, s_ac, s_ca = _mo_resources(state)
        row: list = [float(t), e, s_ac, s_ca, regime.value]
        if effective_route:
            row += [float(state.data[0, 0]), float(state.data[3, 3]), float(state.data[0, 3])]
        rows.append(tuple(row))
    return Table(columns=tuple(columns), rows=tuple(rows))


def run_region(cfg: RunConfig) -> Table:
    """Closed-form regime/steering map over a two-axis grid, one row per cell.

    Rows come in axis1-major order of the axis values. For the platform
    systems the table carries a full-system numeric pass: the covariance at
    the cell's characteristic time (exact propagation) and a flag recording
    whether the numeric steering signs agree with the closed-form directions.
    """
    if len(cfg.sweep) != 2:
        raise ConfigError("run_region needs sweep.axis1 and sweep.axis2")
    axis1, axis2 = cfg.sweep
    values1, values2 = axis1.values(), axis2.values()
    numeric = cfg.system in ("eom", "comm")

    columns = [axis1.name, axis2.name, "regime", "region", "E", "S_ac", "S_ca"]
    if numeric:
        columns += ["E_full", "S_ac_full", "S_ca_full", "agree"]

    rows = []
    for x1, x2 in itertools.product(values1, values2):
        params = dict(cfg.parameters)
        params[axis1.name] = x1
        params[axis2.name] = x2
        model = effective_model(cfg.system, params)
        regime = classify_regime(model)
        e = stationary_entanglement(model)
        s_ac = stationary_steering(model, "ac")
        s_ca = stationary_steering(model, "ca")
        region = steering_region(model)
        row: list = [x1, x2, regime.value, region.value, e, s_ac, s_ca]
        if numeric:
            sub_cfg = RunConfig(system=cfg.system, parameters=params)
            dd = _full_drift_diffusion(sub_cfg)
            tau = characteristic_time(model)
            state = propagate_lti(dd, CovarianceMatrix.vacuum(dd.modes), [tau])[0]
            e_full, s_ac_full, s_ca_full = _mo_resources(state)
            agree = ((s_ac_full > 0) == (s_ac > 0)) and ((s_ca_full > 0) == (s_ca > 0))
            row += [e_full, s_ac_full, s_ca_full, agree]
        rows.append(tuple(row))
    return Table(columns=tuple(columns), rows=tuple(rows))


def _positive_dev(full_value: float, closed_value: float) -> float:
    """Relative deviation where the closed-form value is positive, else nan."""
    if closed_value <= 0.0:
        return math.nan
    return abs(full_value - closed_value) / closed_value


def run_compare(cfg: RunConfig) -> Table:
    """Closed-form vs full-dynamics stationary resources along one swept axis.

    Each cell's full system is propagated exactly to its own characteristic
    time and to twice it; deviations are reported relative to the closed
    forms (for steering only where the closed-form direction is present),
    together with the worst coupling-to-gap validity ratio of the
    perturbative reduction.
    """
    if cfg.system not in ("eom", "comm"):
        raise ConfigError("run_compare needs a platform system ('eom' or 'comm')")
    if len(cfg.sweep) > 1:
        raise ConfigError("run_compare sweeps at most one axis")
    if cfg.sweep:
        axis = cfg.sweep[0]
        axis_name, axis_values = axis.name, axis.values()
    else:
        axis_name, axis_values = "point", [math.nan]

    builder = build_eom_params if cfg.system == "eom" else build_comm_params
    to_chain = eom_to_chain if cfg.system == "eom" else comm_to_chain
    rows = []
    for value in axis_values:
        params = dict(cfg.parameters)
        if cfg.sweep:
            params[axis_name] = value
        model = effective_model(cfg.system, params)
        tau = characteristic_time(model)
        dd = _full_drift_diffusion(RunConfig(system=cfg.system, parameters=params))
        v_tau, v_2tau = propagate_lti(dd, CovarianceMatrix.vacuum(dd.modes), [tau, 2.0 * tau])
        at_tau, at_2tau = _mo_resources(v_tau), _mo_resources(v_2tau)
        e = stationary_entanglement(model)
        s_ac = stationary_steering(model, "ac")
        s_ca = stationary_steering(model, "ca")
        report = validity_report(to_chain(builder(params)))
        rows.append(
            (
                params.get(axis_name, math.nan),
                model.g_eff,
                classify_regime(model).value,
                e,
                s_ac,
                s_ca,
                at_tau[0],
                at_tau[1],
                at_tau[2],
                at_2tau[0],
                at_2tau[1],
                at_2tau[2],
                _positive_dev(at_tau[0], e),
                _positive_dev(at_2tau[0], e),
                _positive_dev(at_tau[1], s_ac),
                _positive_dev(at_tau[2], s_ca),
                max(ratio for _, ratio, _ in report),
                all(ok for _, _, ok in report),
            )
        )
    columns = (
        axis_name, "g_eff", "regime", "E", "S_ac", "S_ca",
        "E_full_tau", "S_ac_full_tau", "S_ca_full_tau",
        "E_full_2tau", "S_ac_full_2tau", "S_ca_full_2tau",
        "rel_dev_E_tau", "rel_dev_E_2tau", "rel_dev_S_ac_tau", "rel_dev_S_ca_tau",
        "validity_max_ratio", "validity_pass",
    )
    return Table(columns=columns, rows=tuple(rows))
