"""Parameter sweeps and trajectory tables behind the command-line surface.

Three operations cover the reproduction pipelines: run_evolve emits a resource
time series for one parameter set, run_region rasterizes the closed-form
regime/steering maps over a two-axis grid (with an optional full-system
numeric pass for the platform systems), and run_compare sweeps one axis and
tabulates closed-form stationary values against the full dynamics at the
characteristic time and twice it.

Everything system-specific comes from the registry systems.SYSTEMS: a system
with full dynamics gets the numeric columns and is propagated in full, any
other system is propagated as its effective two-mode model. Every numeric
covariance comes from the exact propagator dynamics.propagate_lti, except for
effective models with vacuum input away from the critical coupling, where the
analytic covariance is used. region and compare share one cell loop that
maps each cell onto the chain once and propagates chunks of CHUNK_CELLS cells
through one propagate_lti call, at tau (region) or tau and 2 tau (compare);
the two only assemble rows. Every table's resource columns come from the
batched two-mode kernel gaussian.two_mode_resources. A library error raised
for a sweep cell names the cell's axis values. All tables serialize to CSV
(LF line endings, shortest round-trip float representation) or JSON (a
non-finite float as null).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from .chain import classify_regime, validity_report
from .config import RunConfig, reduce_point, system_entry
from .dynamics import (
    analytic_effective_cm,
    build_effective_drift_diffusion,
    characteristic_time,
    propagate_lti,
)
from .errors import ConfigError, MochainError
from .gaussian import CovarianceMatrix, Regime, two_mode_resources
from .stationary import stationary_entanglement, stationary_steering, steering_region

# Cells propagated and evaluated together: large enough that the per-call
# overhead of the stacked linear algebra is spread thin, small enough that a
# chunk's drift and state stacks stay a few hundred kB (the whole 50 x 50
# region grid stacked at once raised the peak RSS by ~30 MB).
CHUNK_CELLS = 64


@dataclass(frozen=True)
class Table:
    """Column-named result rows; the exchange format of every sweep operation."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _format_cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(table: Table, stream) -> None:
    """Emit with LF endings and shortest round-trip float formatting."""
    stream.write(",".join(table.columns) + "\n")
    for row in table.rows:
        stream.write(",".join(_format_cell(v) for v in row) + "\n")


def write_json(table: Table, stream) -> None:
    """Emit a list of records; a non-finite float (nan, inf) is written as null."""
    records = [{name: None if isinstance(v, float) and not math.isfinite(v) else v
                for name, v in zip(table.columns, row)} for row in table.rows]
    json.dump(records, stream, indent=1, allow_nan=False)
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


def _sample_grid(cfg: RunConfig, tau: float) -> np.ndarray:
    """Requested samples on [0, t_end], always containing tau and 2*tau exactly."""
    t_end = cfg.t_end_in_tau * tau
    grid = set(np.linspace(0.0, t_end, cfg.samples).tolist())
    for special in (tau, 2.0 * tau):
        if special <= t_end * (1.0 + 1e-12):
            grid.add(special)
    return np.array(sorted(grid))


def _mo_block(states: np.ndarray) -> np.ndarray:
    """The microwave-optical (modes 0 and 1) sub-states of a covariance stack."""
    return states[..., :4, :4]


@contextlib.contextmanager
def _naming_cell(names: tuple[str, ...], cells: list[tuple]) -> Iterator[None]:
    """Re-raise a library error with the axis values of the cell it concerns.

    cells are the axis values of the cells the block works on; an error from
    a call on a stack of cells tells which one through its index.
    """
    try:
        yield
    except MochainError as exc:
        index = 0 if len(cells) == 1 else exc.index
        if not names or index is None:
            raise
        where = ", ".join(f"{name} = {value!r}" for name, value in zip(names, cells[index]))
        raise type(exc)(f"{exc} at {where}") from exc


def _swept_cells(cfg: RunConfig, names: tuple[str, ...], cells: list[tuple],
                 multiples: tuple[float, ...]) -> Iterator[tuple]:
    """(params, chain, model, full) of each cell, in order; params is its flat map.

    full is None for a system without full dynamics, else (E, S_ac, S_ca) of
    the full system propagated exactly from the vacuum, each a list over the
    multiples of the cell's characteristic time. Each chunk of CHUNK_CELLS
    cells is mapped cell by cell, then propagated and evaluated in one call.
    """
    full_drift_diffusion = system_entry(cfg.system).full_drift_diffusion
    for start in range(0, len(cells), CHUNK_CELLS):
        chunk = cells[start:start + CHUNK_CELLS]
        points, dds, taus = [], [], []
        for cell in chunk:
            params = {**cfg.parameters, **dict(zip(names, cell))}
            with _naming_cell(names, [cell]):
                platform, chain, model = reduce_point(cfg.system, params)
                if full_drift_diffusion is not None:
                    dds.append(full_drift_diffusion(platform, chain))
                    taus.append(characteristic_time(model))
            points.append((params, chain, model))
        if full_drift_diffusion is None:
            yield from ((*point, None) for point in points)
            continue
        with _naming_cell(names, chunk):
            states = propagate_lti(dds, CovarianceMatrix.vacuum(dds[0].modes),
                                   np.outer(taus, multiples))
            full = two_mode_resources(_mo_block(states))
        yield from ((*point, resources)
                    for point, *resources in zip(points, *(r.tolist() for r in full)))


def run_evolve(cfg: RunConfig) -> Table:
    """Resource time series for a single parameter set.

    Effective (and chain-reduced) systems use the analytic covariance when it
    exists and the exact propagator at the critical coupling or for thermal
    end modes; the platform systems propagate their full linearized dynamics
    exactly and reduce to the microwave-optical sub-state. The resources of
    all rows come from one two_mode_resources call.
    """
    if cfg.sweep:
        raise ConfigError("run_evolve takes no sweep axes (use region or compare)")
    platform, chain, model = reduce_point(cfg.system, cfg.parameters)
    regime = classify_regime(model)
    tau = characteristic_time(model)
    grid = _sample_grid(cfg, tau)

    full_drift_diffusion = system_entry(cfg.system).full_drift_diffusion
    effective_route = full_drift_diffusion is None
    columns = ["t", "E", "S_ac_raw", "S_ca_raw", "regime"]
    if effective_route:
        columns += ["v11", "v44", "v14"]

    if (effective_route and regime is not Regime.CRITICAL
            and model.n_a == 0.0 and model.n_c == 0.0):
        states = [analytic_effective_cm(model, t) for t in grid]
    else:
        dd = (build_effective_drift_diffusion(model) if effective_route
              else full_drift_diffusion(platform, chain))
        states = propagate_lti(dd, CovarianceMatrix.vacuum(dd.modes), grid)

    data = np.stack([state.data for state in states])
    resources = zip(*(r.tolist() for r in two_mode_resources(_mo_block(data))))
    rows = []
    for t, v, (e, s_ac, s_ca) in zip(grid.tolist(), data, resources):
        row: list = [t, e, s_ac, s_ca, regime.value]
        if effective_route:
            row += [float(v[0, 0]), float(v[3, 3]), float(v[0, 3])]
        rows.append(tuple(row))
    return Table(columns=tuple(columns), rows=tuple(rows))


def run_region(cfg: RunConfig) -> Table:
    """Closed-form regime/steering map over a two-axis grid, one row per cell.

    Rows come in axis1-major order of the axis values. For the platform
    systems the table carries a full-system numeric pass: the covariance at
    the cell's characteristic time (exact propagation) and a flag recording
    whether the numeric steering signs agree with the closed-form directions.
    The cells come from _swept_cells (chunks of CHUNK_CELLS); a library error
    raised for a cell names the cell's axis values.
    """
    if len(cfg.sweep) != 2:
        raise ConfigError("run_region needs sweep.axis1 and sweep.axis2")
    axis1, axis2 = cfg.sweep
    names = (axis1.name, axis2.name)
    numeric = system_entry(cfg.system).full_drift_diffusion is not None

    columns = [axis1.name, axis2.name, "regime", "region", "E", "S_ac", "S_ca"]
    if numeric:
        columns += ["E_full", "S_ac_full", "S_ca_full", "agree"]

    rows = []
    cells = list(itertools.product(axis1.values(), axis2.values()))
    for cell, (_, _, model, full) in zip(cells, _swept_cells(cfg, names, cells, (1.0,))):
        s_ac, s_ca = stationary_steering(model, "ac"), stationary_steering(model, "ca")
        row = [*cell, classify_regime(model).value, steering_region(model).value,
               stationary_entanglement(model), s_ac, s_ca]
        if numeric:
            (e_full,), (s_ac_full,), (s_ca_full,) = full
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
    perturbative reduction. The cells come from _swept_cells, as for
    run_region, and a library error raised for a cell names its axis value.
    """
    full_drift_diffusion = system_entry(cfg.system).full_drift_diffusion
    if full_drift_diffusion is None:
        raise ConfigError(f"run_compare needs a platform system (one with full dynamics), "
                          f"got {cfg.system!r}")
    if len(cfg.sweep) > 1:
        raise ConfigError("run_compare sweeps at most one axis")
    if cfg.sweep:
        names, axis_values = (cfg.sweep[0].name,), cfg.sweep[0].values()
    else:
        names, axis_values = (), [math.nan]
    axis_name = names[0] if names else "point"

    rows = []
    for params, chain, model, full in _swept_cells(cfg, names, [(value,) for value in axis_values],
                                                   (1.0, 2.0)):
        e, s_ac, s_ca = (stationary_entanglement(model), stationary_steering(model, "ac"),
                         stationary_steering(model, "ca"))
        (e_tau, e_2tau), (s_ac_tau, s_ac_2tau), (s_ca_tau, s_ca_2tau) = full
        report = validity_report(chain)
        rows.append((
            params.get(axis_name, math.nan), model.g_eff, classify_regime(model).value,
            e, s_ac, s_ca, e_tau, s_ac_tau, s_ca_tau, e_2tau, s_ac_2tau, s_ca_2tau,
            _positive_dev(e_tau, e), _positive_dev(e_2tau, e),
            _positive_dev(s_ac_tau, s_ac), _positive_dev(s_ca_tau, s_ca),
            max(ratio for _, ratio, _ in report), all(ok for _, _, ok in report),
        ))
    columns = (
        axis_name, "g_eff", "regime", "E", "S_ac", "S_ca",
        "E_full_tau", "S_ac_full_tau", "S_ca_full_tau",
        "E_full_2tau", "S_ac_full_2tau", "S_ca_full_2tau",
        "rel_dev_E_tau", "rel_dev_E_2tau", "rel_dev_S_ac_tau", "rel_dev_S_ca_tau",
        "validity_max_ratio", "validity_pass",
    )
    return Table(columns=columns, rows=tuple(rows))
