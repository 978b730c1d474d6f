"""Outside-in layer tracing: wrap each module's entry points, keep spans in memory.

The layers are the modules of `mochain`. While `install` is active, every
entry point listed in ENTRY_POINTS is rebound, in each `mochain` module that
holds a reference to it, to a wrapper that records a span (name, start, end,
parent span, job id). On exit the original bindings are restored; nothing in
the package's source changes. An entry point that a later version of the
package no longer has is skipped, and its metrics read 0.

Self time of a span is its duration minus the durations of its direct
children (the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import sys
import time
from typing import Any, Callable, Iterator

import numpy as np

ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "config": ("load_config", "effective_model", "build_chain_params",
               "build_eom_params", "build_comm_params"),
    "chain": ("reduce", "matched_detunings", "classify_regime", "validity_report"),
    "systems": ("eom_to_chain", "comm_to_chain",
                "eom_full_drift_diffusion", "comm_full_drift_diffusion"),
    "dynamics": ("propagate_lti", "lyapunov_rk4", "_rk4_batch", "analytic_effective_cm",
                 "auto_step", "characteristic_time", "build_effective_drift_diffusion",
                 "steady_state"),
    "gaussian": ("log_negativity", "gaussian_steering", "symplectic_eigenvalues"),
    "stationary": ("stationary_entanglement", "stationary_steering", "steering_region"),
    "sweep": ("run_evolve", "run_region", "run_compare", "write_output"),
}
LAYERS = tuple(ENTRY_POINTS)

JOB_SPAN = "job"


class Tracer:
    """Spans in parallel lists of plain numbers (cheap to append, not GC-tracked)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.notes: dict[int, dict] = {}
        self.job = -1
        self._stack = [-1]

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self.jobs.append(self.job)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def write(self, path: str) -> None:
        """All spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                record = {"name": name, "start": self.starts[i], "end": self.ends[i],
                          "parent": self.parents[i], "job": self.jobs[i]}
                if i in self.notes:
                    record["note"] = self.notes[i]
                handle.write(json.dumps(record) + "\n")


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict[str, Any]:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_rk4(fn, args, kwargs, result) -> dict:
    """RK4 steps taken, computed from the step rule and the time grid.

    The default step comes from the unwrapped dynamics.auto_step, so that the
    computation records no span; without auto_step the count reads 0.
    """
    arg = _bound(fn, args, kwargs)
    truncated = bool(getattr(result, "truncated", False))
    h = arg.get("h")
    if h is None:
        auto_step = getattr(sys.modules["mochain.dynamics"], "auto_step", None)
        if auto_step is None:
            return {"steps": 0, "truncated": truncated}
        h = inspect.unwrap(auto_step)(arg["dd"].a)
    spans = np.diff(np.asarray(arg["grid"], dtype=float))
    steps = int(np.sum(np.maximum(1, np.ceil(spans / h))))
    return {"steps": steps, "truncated": truncated}


def _note_rk4_batch(fn, args, kwargs, result) -> dict:
    """Lockstep steps: each interval takes the largest per-system substep count."""
    arg = _bound(fn, args, kwargs)
    spans = np.diff(np.asarray(arg["grids"], dtype=float), axis=1)
    per_system = np.ceil(spans / np.asarray(arg["h_targets"], dtype=float)[:, None])
    return {"steps": int(np.sum(np.maximum(1, per_system.max(axis=0))))}


def _note_rows(fn, args, kwargs, result) -> dict:
    return {"rows": len(result.rows)}


def _note_bytes(fn, args, kwargs, result) -> dict:
    path = _bound(fn, args, kwargs).get("path")
    return {"bytes": os.path.getsize(path) if path else 0}


NOTES: dict[str, Callable] = {
    "dynamics.lyapunov_rk4": _note_rk4,
    "dynamics._rk4_batch": _note_rk4_batch,
    "sweep.run_evolve": _note_rows,
    "sweep.run_region": _note_rows,
    "sweep.run_compare": _note_rows,
    "sweep.write_output": _note_bytes,
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    annotate = NOTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index)
            tracer.notes[index] = {"error": type(exc).__name__}
            raise
        tracer.close(index)
        if annotate is not None:
            tracer.notes[index] = annotate(fn, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[None]:
    """Rebind every entry point in every loaded `mochain` module; restore on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "mochain" or n.startswith("mochain."))]
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for layer, names in ENTRY_POINTS.items():
        home = sys.modules.get(f"mochain.{layer}")
        for name in names:
            fn = getattr(home, name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, _wrap(tracer, f"{layer}.{name}", fn))
    rebound = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    rebound.append((module, attr, value))
        yield
    finally:
        for module, attr, value in rebound:
            setattr(module, attr, value)


def self_times(names: list[str], starts: list[float], ends: list[float],
               parents: list[int]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parent = np.asarray(parents, dtype=int)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(names))
    return duration - covered


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics per traced job, derived from the spans alone."""
    names = np.asarray(tracer.names, dtype=object)
    own = self_times(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    duration = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    layer = np.asarray([n.split(".", 1)[0] for n in tracer.names], dtype=object)
    is_job = names == JOB_SPAN
    jobs = int(np.count_nonzero(is_job))
    if jobs == 0:
        raise ValueError("no traced job spans")
    job_s = float(duration[is_job].sum())

    def count(*span_names: str) -> int:
        return int(np.count_nonzero(np.isin(names, span_names)))

    def noted(span_name: str, key: str) -> float:
        return float(sum(note.get(key, 0) for i, note in tracer.notes.items()
                         if tracer.names[i] == span_name))

    def errors(span_name: str, error: str) -> int:
        return sum(1 for i, note in tracer.notes.items()
                   if tracer.names[i] == span_name and note.get("error") == error)

    run_spans = ("sweep.run_evolve", "sweep.run_region", "sweep.run_compare")
    rows = sum(noted(n, "rows") for n in run_spans)
    cells = count("sweep.run_evolve") + noted("sweep.run_region", "rows") \
        + noted("sweep.run_compare", "rows")
    symplectic = count("gaussian.symplectic_eigenvalues")
    to_chain = count("systems.eom_to_chain", "systems.comm_to_chain")

    m: dict[str, float] = {}
    for name in LAYERS:
        mask = layer == name
        if name == "sweep":
            mask &= names != "sweep.write_output"
        m[f"{name}.self_s"] = float(own[mask].sum()) / jobs
        m[f"{name}.share"] = float(own[mask].sum()) / job_s
    m.update({
        "dynamics.rk4_steps": (noted("dynamics.lyapunov_rk4", "steps")
                               + noted("dynamics._rk4_batch", "steps")) / jobs,
        "dynamics.propagate_lti.calls": count("dynamics.propagate_lti") / jobs,
        "dynamics.lyapunov_rk4.calls": count("dynamics.lyapunov_rk4") / jobs,
        "dynamics.rk4_batch.calls": count("dynamics._rk4_batch") / jobs,
        "dynamics.analytic_cm.calls": count("dynamics.analytic_effective_cm") / jobs,
        "dynamics.propagate_lti.fallbacks": errors("dynamics.propagate_lti", "NumericError") / jobs,
        "dynamics.truncated": noted("dynamics.lyapunov_rk4", "truncated") / jobs,
        "gaussian.log_negativity.calls": count("gaussian.log_negativity") / jobs,
        "gaussian.gaussian_steering.calls": count("gaussian.gaussian_steering") / jobs,
        "gaussian.symplectic_eigenvalues.calls": symplectic / jobs,
        "gaussian.eig_per_row": symplectic / rows if rows else 0.0,
        "systems.to_chain.calls": to_chain / jobs,
        "systems.full_drift_diffusion.calls":
            count("systems.eom_full_drift_diffusion", "systems.comm_full_drift_diffusion") / jobs,
        "systems.to_chain_per_cell": to_chain / cells if cells else 0.0,
        "chain.reduce.calls": count("chain.reduce") / jobs,
        "chain.matched_detunings.calls": count("chain.matched_detunings") / jobs,
        "sweep.write_s": float(duration[names == "sweep.write_output"].sum()) / jobs,
        "sweep.rows": rows / jobs,
        "sweep.bytes_out": noted("sweep.write_output", "bytes") / jobs,
        "config.load_s": float(duration[names == "config.load_config"].sum()) / jobs,
        "config.effective_model.calls": count("config.effective_model") / jobs,
        "config.effective_model.self_s":
            float(own[names == "config.effective_model"].sum()) / jobs,
        "stationary.calls": float(np.count_nonzero(layer == "stationary")) / jobs,
    })
    return m
