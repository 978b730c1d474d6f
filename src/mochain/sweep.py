"""Parameter sweeps and trajectory tables behind the command-line surface.

Three operations cover the reproduction pipelines: run_evolve emits a resource
time series for one parameter set, run_region rasterizes the closed-form
regime/steering maps over a two-axis grid (with a full-system numeric pass
for every system with a chain), and run_compare sweeps one axis and
tabulates closed-form stationary values against the full dynamics at the
characteristic time and twice it.

A system either is the effective model or maps onto a chain (its registry
entry in systems.SYSTEMS has a to_chain), and the sweeps branch on that
alone: a chain's full dynamics is chain_full_drift_diffusion of it, so the
platforms and the general chain get the numeric columns and are propagated
in full, while the effective model's rows come from the drift-eigenbasis
closed form of dynamics, for any thermal input and coupling. Every full
covariance comes from the exact propagator dynamics.propagate_lti. region
and compare share one chunk loop, and a chunk of up to SWEEP_CELLS cells
runs every stage once. Its cell-vector stage builds the flat parameter map
with a (B,) column per swept axis, maps it onto the chain and reduces it
with one construction of each parameter object, and evaluates tau, the
stationary closed forms, regime and region labels, deviations and validity
ratios on the chunk's (B,) fields. For a chain, its matrix stage makes one
chain_full_drift_diffusion call (one stacked pair) on that checked chain
and one propagate_lti call, at tau (region) or tau and 2 tau (compare),
which takes the chunk's rows in blocks of dynamics.ROW_BLOCK. Every
full-system resource column comes from one call of the batched two-mode
kernel gaussian.two_mode_resources per chunk, and rows are zipped from the
columns. A library error of a sweep names the axis values of the first cell
that fails on its own, and a failing full-system state its time. All tables
serialize to CSV (LF line endings, shortest round-trip float representation;
formatted column by column) or JSON (a non-finite float as null), the formats
of config.FORMATS; any other format name raises ValueError.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .chain import ChainParams, classify_regime, validity_report
from .config import FORMATS, RunConfig, reduce_point, system_entry
from .dynamics import characteristic_time, effective_resources, propagate_lti
from .errors import ConfigError, MochainError
from .gaussian import two_mode_resources
from .stationary import stationary_entanglement, stationary_steering, steering_region
from .systems import chain_full_drift_diffusion

# Cells whose stages run together: the cell-vector stage (the flat parameter
# map, the chain mapping and reduction, tau, the closed forms, labels,
# validity ratios, one two_mode_resources call and the row zip, ~200 small
# numpy calls) and the matrix stage (one stacked drift/diffusion pair and one
# propagate_lti call, whose ROW_BLOCK bounds its Van Loan stacks). Larger
# chunks spread the ~200 calls thinner but hold a larger pair and states:
# the 2500 cells of region-comm (a 50 x 50 COMM map) peaked at 63.3-63.7 MB
# RSS in 512-cell chunks, 64.8-64.9 MB in 1024-cell and 68.4 MB in 4096-cell
# ones, and took 9% longer in 256-cell ones (2-core Xeon, numpy 2.4.6, one
# BLAS thread).
SWEEP_CELLS = 512
# Rows formatted and written together by write_csv: enough to spread its
# per-column pass thin, few enough that a block's text stays ~100 kB however
# large the table (the whole text of a 200 x 200 region map is ~12 MB).
WRITE_BLOCK_ROWS = 256


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


def _format_column(values: tuple) -> list[str]:
    """The CSV text of one column by _format_cell's rules, in one pass over it."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map(repr, values))
    if kinds <= {str, bool}:  # labels and flags
        return list(map(str, values))
    return list(map(_format_cell, values))


def write_csv(table: Table, stream) -> None:
    """Emit with LF endings and shortest round-trip float formatting.

    Rows go out in blocks of WRITE_BLOCK_ROWS: each column of a block is
    formatted in one pass, and the block's lines are joined and written once.
    """
    stream.write(",".join(table.columns) + "\n")
    for start in range(0, len(table.rows), WRITE_BLOCK_ROWS):
        block = table.rows[start:start + WRITE_BLOCK_ROWS]
        stream.write("\n".join(map(",".join, zip(*map(_format_column, zip(*block))))) + "\n")


def write_json(table: Table, stream) -> None:
    """Emit a list of records; a non-finite float (nan, inf) is written as null."""
    records = [{name: None if isinstance(v, float) and not math.isfinite(v) else v
                for name, v in zip(table.columns, row)} for row in table.rows]
    json.dump(records, stream, indent=1, allow_nan=False)
    stream.write("\n")


# The writer of each output format; its keys are config.FORMATS.
WRITERS: dict[str, Callable[[Table, Any], None]] = {"csv": write_csv, "json": write_json}


def _writer(fmt: str) -> Callable[[Table, Any], None]:
    if fmt not in WRITERS:
        raise ValueError(f"unknown output format {fmt!r}: must be one of {FORMATS}")
    return WRITERS[fmt]


def render(table: Table, fmt: str = "csv") -> str:
    buf = io.StringIO()
    _writer(fmt)(table, buf)
    return buf.getvalue()


def write_output(table: Table, path: str | None, fmt: str = "csv") -> None:
    """Write the table to path, or to stdout when path is None; an unknown format raises first."""
    write = _writer(fmt)
    if path is None:
        write(table, sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        write(table, handle)


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
    if not math.isfinite(t_end):
        raise ConfigError(f"times.t_end_in_tau = {cfg.t_end_in_tau!r} times tau = {tau!r} "
                          "is not a finite time")
    grid = set(np.linspace(0.0, t_end, cfg.samples).tolist())
    for special in (tau, 2.0 * tau):
        if special <= t_end * (1.0 + 1e-12):
            grid.add(special)
    return np.array(sorted(grid))


def _first_failure(run: Callable[[int], Any], count: int) -> Any:
    """run(count) of the first count items of a stack, or the error of the first item
    that fails alone: an error indexing item i > 0 is raised if run(i) passes, else
    run(i)'s own first failure is (items fail alone as they do in a stack)."""
    try:
        return run(count)
    except MochainError as exc:
        if exc.index:
            _first_failure(run, exc.index)
        raise


def _full_resources(chain: ChainParams, times: np.ndarray) -> tuple[np.ndarray, ...]:
    """(E, S_ac_raw, S_ca_raw) of a full chain's microwave-optical modes, each of times' shape.

    times has shape (B, T), one row per cell of chain, or (T,) or (1, T)
    for an all-float chain (one cell). One chain_full_drift_diffusion call
    builds the pair (a stack for B cells) from the chain the caller already
    checked, and one propagate_lti call takes each cell exactly from the
    vacuum to its times as the states of modes 0 and 1 alone (its ROW_BLOCK
    rows bound the memory of the Van Loan stacks). The resources of every
    state come from one two_mode_resources call on the flat states. A state
    error's body gets the first failing state's time (_first_failure), and
    its index becomes that state's cell.
    """
    states = propagate_lti(chain_full_drift_diffusion(chain), times, modes=2).reshape(-1, 4, 4)
    try:
        resources = _first_failure(lambda n: two_mode_resources(states[:n]), len(states))
    except MochainError as exc:
        row = exc.index or 0
        raise type(exc)(f"{exc.body} at t = {float(times.flat[row])!r}",
                        row // times.shape[-1]) from exc
    return tuple(values.reshape(times.shape) for values in resources)


def _column(values: Any, count: int) -> list:
    """A chunk's (B,) result as a list of its count cells; one shared value repeats."""
    values = np.asarray(values)
    return values.tolist() if values.ndim else [values.item()] * count


def _labels(members: Any, count: int) -> list[str]:
    """The values of a chunk's (B,) enum labels (Regime, SteeringRegion), as _column.

    Each cell's value is looked up in one member-to-value dict of the enum,
    not read through the enum's value descriptor cell by cell.
    """
    members = _column(members, count)
    value = {member: member.value for member in type(members[0])}
    return list(map(value.__getitem__, members))


def _swept_chunks(cfg: RunConfig, names: tuple[str, ...], cells: list[tuple],
                  multiples: tuple[float, ...]) -> Iterator[tuple]:
    """(chunk, chain, model, full) of each chunk of SWEEP_CELLS cells, in order.

    chunk is the chunk's list of axis values; chain and model are its chain
    mapping and effective model, built once with a (B,) field wherever an
    axis is swept, so the cell-vector stage (mapping, reduction, tau, and
    the caller's closed forms, labels and row zip) runs once per chunk. full
    is None for the effective model (chain None), else (E, S_ac, S_ca) of
    the full chains propagated exactly from the vacuum, each of shape (B,
    len(multiples)) over the multiples of each cell's characteristic time:
    _full_resources builds the chunk's stacked pair from its checked chain,
    propagates it in one call and takes the resources in one call.

    The one place that names an error's cell: _first_failure over the
    chunk's cells finds the first cell that fails alone, and its error, which
    a one-point run of the cell prints too, is raised with the cell's axis
    values appended to its body (without axes: unchanged).
    """
    def evaluate(chunk: list[tuple]) -> tuple:
        columns = dict(zip(names, np.array(chunk, dtype=float).T))
        chain, model = reduce_point(cfg.system, {**cfg.parameters, **columns})
        if chain is None:
            return chain, model, None
        taus = np.broadcast_to(characteristic_time(model), (len(chunk),))
        return chain, model, _full_resources(chain, np.outer(taus, multiples))

    for start in range(0, len(cells), SWEEP_CELLS):
        chunk = cells[start:start + SWEEP_CELLS]
        try:
            chain, model, full = _first_failure(lambda n: evaluate(chunk[:n]), len(chunk))
        except MochainError as exc:
            if not names:
                raise
            i = exc.index or 0
            where = ", ".join(f"{name} = {value!r}" for name, value in zip(names, chunk[i]))
            raise type(exc)(f"{exc.body} at {where}", start + i) from exc
        yield chunk, chain, model, full


def run_evolve(cfg: RunConfig) -> Table:
    """Resource time series for a single parameter set.

    The effective model takes the covariance columns and the resources from
    the drift-eigenbasis closed form, for any thermal input and coupling;
    every other system (a platform or the general chain) propagates the full
    linearized dynamics of its chain exactly (the propagator on its one
    pair) and takes the resources of all rows of the microwave-optical
    sub-state from one two_mode_resources call.
    """
    if cfg.sweep:
        raise ConfigError("run_evolve takes no sweep axes (use region or compare)")
    chain, model = reduce_point(cfg.system, cfg.parameters)
    regime = classify_regime(model)
    tau = characteristic_time(model)
    grid = _sample_grid(cfg, tau)

    columns = ["t", "E", "S_ac_raw", "S_ca_raw", "regime"]
    if chain is None:
        columns += ["v11", "v44", "v14"]
        values = [grid, *effective_resources(model, grid)]
    else:
        values = [grid, *_full_resources(chain, grid)]
    values = [column.tolist() for column in values]
    rows = zip(*values[:4], itertools.repeat(regime.value), *values[4:])
    return Table(columns=tuple(columns), rows=tuple(rows))


def run_region(cfg: RunConfig) -> Table:
    """Closed-form regime/steering map over a two-axis grid, one row per cell.

    Rows come in axis1-major order of the axis values. Every system with a
    chain (the platforms and the general chain) gets a full-system numeric
    pass: the covariance at the cell's characteristic time (exact
    propagation) and a flag recording whether the numeric steering signs
    agree with the closed-form directions.
    The cells come from _swept_chunks (chunks of SWEEP_CELLS), and each
    chunk's rows are zipped from its columns.
    """
    if len(cfg.sweep) != 2:
        raise ConfigError("run_region needs sweep.axis1 and sweep.axis2")
    axis1, axis2 = cfg.sweep
    names = (axis1.name, axis2.name)
    numeric = system_entry(cfg.system).to_chain is not None

    header = [axis1.name, axis2.name, "regime", "region", "E", "S_ac", "S_ca"]
    if numeric:
        header += ["E_full", "S_ac_full", "S_ca_full", "agree"]

    rows = []
    cells = list(itertools.product(axis1.values(), axis2.values()))
    for chunk, _, model, full in _swept_chunks(cfg, names, cells, (1.0,)):
        count = len(chunk)
        s_ac, s_ca = stationary_steering(model, "ac"), stationary_steering(model, "ca")
        columns = [*zip(*chunk), _labels(classify_regime(model), count),
                   _labels(steering_region(model), count),
                   _column(stationary_entanglement(model), count),
                   _column(s_ac, count), _column(s_ca, count)]
        if numeric:
            e_full, s_ac_full, s_ca_full = (values[:, 0] for values in full)
            agree = ((s_ac_full > 0) == (s_ac > 0)) & ((s_ca_full > 0) == (s_ca > 0))
            columns += [e_full.tolist(), s_ac_full.tolist(), s_ca_full.tolist(),
                        _column(agree, count)]
        rows.extend(zip(*columns))
    return Table(columns=tuple(header), rows=tuple(rows))


def _positive_dev(full_value: np.ndarray, closed_value: np.ndarray) -> np.ndarray:
    """Relative deviation of each cell where the closed-form value is positive, else nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(closed_value > 0.0, np.abs(full_value - closed_value) / closed_value,
                        math.nan)


def run_compare(cfg: RunConfig) -> Table:
    """Closed-form vs full-dynamics stationary resources along one swept axis.

    Each cell's full system is propagated exactly to its own characteristic
    time and to twice it; deviations are reported relative to the closed
    forms (for steering only where the closed-form direction is present),
    together with the worst coupling-to-gap validity ratio of the
    perturbative reduction. The cells come from _swept_chunks, as for
    run_region.
    """
    if system_entry(cfg.system).to_chain is None:
        raise ConfigError(f"run_compare needs a platform or chain system (one with full "
                          f"dynamics), got {cfg.system!r}")
    if len(cfg.sweep) > 1:
        raise ConfigError("run_compare sweeps at most one axis")
    if cfg.sweep:
        names, axis_values = (cfg.sweep[0].name,), cfg.sweep[0].values()
    else:
        names, axis_values = (), [math.nan]
    axis_name = names[0] if names else "point"

    rows = []
    for chunk, chain, model, full in _swept_chunks(cfg, names, [(value,) for value in axis_values],
                                                   (1.0, 2.0)):
        count = len(chunk)
        e, s_ac, s_ca = (stationary_entanglement(model), stationary_steering(model, "ac"),
                         stationary_steering(model, "ca"))
        (e_tau, e_2tau), (s_ac_tau, s_ac_2tau), (s_ca_tau, s_ca_2tau) = (r.T for r in full)
        report = validity_report(chain)
        columns = [
            [value for value, in chunk], model.g_eff, _labels(classify_regime(model), count),
            e, s_ac, s_ca, e_tau, s_ac_tau, s_ca_tau, e_2tau, s_ac_2tau, s_ca_2tau,
            _positive_dev(e_tau, e), _positive_dev(e_2tau, e),
            _positive_dev(s_ac_tau, s_ac), _positive_dev(s_ca_tau, s_ca),
            functools.reduce(np.maximum, (ratio for _, ratio, _ in report)),
            functools.reduce(np.logical_and, (ok for _, _, ok in report)),
        ]
        rows.extend(zip(*(_column(values, count) for values in columns)))
    header = (
        axis_name, "g_eff", "regime", "E", "S_ac", "S_ca",
        "E_full_tau", "S_ac_full_tau", "S_ca_full_tau",
        "E_full_2tau", "S_ac_full_2tau", "S_ca_full_2tau",
        "rel_dev_E_tau", "rel_dev_E_2tau", "rel_dev_S_ac_tau", "rel_dev_S_ca_tau",
        "validity_max_ratio", "validity_pass",
    )
    return Table(columns=header, rows=tuple(rows))
