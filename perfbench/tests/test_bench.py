"""Self-tests of the benchmark: oracle, span arithmetic, workloads, tracing.

Run with `python3 -m pytest perfbench/tests` from the repository root. They
assert no call counts of the current program, which later changes are meant
to move; only invariants of the harness itself.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mochain
import mochain.cli
import oracle
import run
import tracing
import workloads

COUNT_SUFFIXES = (".calls", ".fallbacks", ".truncated", ".rk4_steps", ".rows", ".bytes_out",
                  ".eig_per_row", ".to_chain_per_cell")


@pytest.mark.parametrize("kappa_a,kappa_c", workloads.VERIFY_KAPPA_PAIRS)
@pytest.mark.parametrize("ratio", [0.2, 0.9, 1.5, 4.0])
def test_oracle_reproduces_analytic_covariance(kappa_a, kappa_c, ratio):
    g = math.sqrt(ratio * kappa_a * kappa_c)
    model = mochain.EffectiveModel(g_eff=g, kappa_a=kappa_a, kappa_c=kappa_c)
    a, d = oracle.effective_drift_diffusion({"g_eff": g, "kappa_a": kappa_a, "kappa_c": kappa_c})
    tau = oracle.characteristic_time(g, kappa_a, kappa_c)
    for t in (0.0, 0.3 * tau, tau, 2 * tau, 5 * tau):
        reference = mochain.analytic_effective_cm(model, t).data
        v = oracle.van_loan(a, d, t).astype(float)
        assert np.max(np.abs(v - reference)) <= 1e-10 * np.max(np.abs(reference))


def test_mpmath_reference_agrees_with_extended_precision():
    p = {"g_eff": 2.0, "kappa_a": 1.0, "kappa_c": 1.0, "n_a": 0.1}
    a, d = oracle.effective_drift_diffusion(p)
    t = 5 * oracle.characteristic_time(2.0, 1.0, 1.0)
    fast = oracle.two_mode_resources(oracle.van_loan(a, d, t))
    exact = oracle.mp_resources(a.tolist(), d.tolist(), t)
    assert np.max(np.abs(np.subtract(fast, exact))) < 1e-8


def _rewrite_cell(path: Path, column: str, change) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        records = list(csv.DictReader(handle))
    records[0][column] = change(records[0][column])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)


@pytest.mark.parametrize("workload,column,change", [
    ("evolve-effective", "S_ca_raw", lambda v: repr(float(v) + 1e-5)),
    ("region-comm", "E", lambda v: repr(float(v) + 1e-5)),
    ("region-comm", "S_ac", lambda v: repr(float(v) - 1e-5)),
    ("region-comm", "region", lambda v: "TwoWay" if v != "TwoWay" else "None"),
    ("compare-eom", "S_ca", lambda v: repr(float(v) + 1e-5)),
    ("compare-eom", "g_eff", lambda v: repr(float(v) * (1 + 1e-8))),
])
def test_reference_check_catches_a_wrong_cell(workload, column, change, tmp_path):
    job = workloads.generate(workload, 1, tiny=True)[0]
    config, out = tmp_path / "job.json", tmp_path / "job.csv"
    config.write_text(json.dumps(job.config), encoding="utf-8")
    assert mochain.cli.main([job.command, "--config", str(config), "--out", str(out)]) == 0
    assert oracle.check(job.command, job.config, str(out)) == []
    _rewrite_cell(out, column, change)
    assert oracle.check(job.command, job.config, str(out))


def _synthetic_tracer() -> tracing.Tracer:
    #  job [0, 10]
    #  +- sweep.run_region [1, 8]
    #  |  +- dynamics.propagate_lti [2, 4]
    #  |  +- gaussian.log_negativity [5, 7]
    #  |     +- gaussian.symplectic_eigenvalues [5.5, 6.5]
    #  +- sweep.write_output [8.5, 9.5]
    tracer = tracing.Tracer()
    tracer.names = ["job", "sweep.run_region", "dynamics.propagate_lti",
                    "gaussian.log_negativity", "gaussian.symplectic_eigenvalues",
                    "sweep.write_output"]
    tracer.starts = [0.0, 1.0, 2.0, 5.0, 5.5, 8.5]
    tracer.ends = [10.0, 8.0, 4.0, 7.0, 6.5, 9.5]
    tracer.parents = [-1, 0, 1, 1, 3, 0]
    tracer.jobs = [0] * 6
    tracer.notes = {1: {"rows": 4}, 5: {"bytes": 100}}
    return tracer


def test_self_time_of_synthetic_span_tree():
    t = _synthetic_tracer()
    own = tracing.self_times(t.names, t.starts, t.ends, t.parents)
    assert own.tolist() == [2.0, 3.0, 2.0, 1.0, 1.0, 1.0]
    m = tracing.layer_metrics(t)
    assert m["sweep.self_s"] == 3.0 and m["sweep.write_s"] == 1.0
    assert m["gaussian.self_s"] == 2.0 and m["gaussian.share"] == 0.2
    assert m["dynamics.share"] == 0.2 and m["dynamics.propagate_lti.calls"] == 1
    assert m["gaussian.eig_per_row"] == 0.25 and m["sweep.bytes_out"] == 100
    assert m["dynamics.rk4_batch.calls"] == 0 and m["chain.self_s"] == 0


def test_generator_is_deterministic_in_the_seed():
    for name in workloads.GENERATORS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_tiny_workload_runs_without_failures(workload, tmp_path):
    record = run.run(workload, 1, 0.0, False, tiny=True, out_root=tmp_path)
    result = record["result"]
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_give_identical_counts_and_restore_bindings(tmp_path):
    original = (mochain.sweep.run_region, mochain.gaussian.symplectic_eigenvalues,
                mochain.config.comm_to_chain)
    counts = []
    for attempt in range(2):
        metrics = {}
        for workload in ("evolve-effective", "region-comm"):
            record = run.run(workload, 1, 0.0, True, tiny=True, out_root=tmp_path / str(attempt))
            assert record["result"]["failed"] == 0
            for name, metric in record["result"]["metrics"].items():
                metrics[f"{workload}/{name}"] = metric["value"]
        counts.append({k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert counts[0]["region-comm/dynamics.propagate_lti.calls"] > 0
    assert (mochain.sweep.run_region, mochain.gaussian.symplectic_eigenvalues,
            mochain.config.comm_to_chain) == original


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "compare-eom",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
