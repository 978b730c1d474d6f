#!/usr/bin/env python3
"""mochain benchmark: three CLI workloads, end-to-end metrics, outside-in layer tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evolve-effective --seed 1 --seconds 30 --trace 0

The benchmark is a closed loop in one process: one client, no think time,
one job at a time. A job is `mochain.cli.main([...])` on a JSON config that
workloads.py generates from the seed; it covers load_config, the sweep and
writing the output table to a file. Jobs run in passes over the workload's
job list until --seconds is (nearly) used up; a pass is never cut short.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 prints
its per-layer metrics instead, from a run whose odd passes are traced
(tracing.py) and whose even passes are not, which gives the tracing overhead.
After timing, every distinct output is checked against the reference in
oracle.py; a job fails when it raises, exits non-zero or its output fails the
check. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Spans, samples and provenance go to
perfbench/.out/<workload>-seed<seed>-trace<trace>/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_REPEATS = 5
# The jobs do small-matrix linear algebra (at most 64x64), where a second BLAS
# thread only spins: on the 2-core reference host it doubled CPU time and
# widened the wall-time spread. Pinned before numpy loads, and recorded.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import mochain
from mochain.config import load_config
load_config(sys.argv[2])
print(mochain.__file__)
"""


@dataclass
class Pass:
    """Run id, wall and CPU seconds of each job in one pass over the workload's jobs."""

    traced: bool
    run_ids: list[int] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)


def _import_program():
    """Import mochain from the checkout's src/, never from anywhere else."""
    if not (SRC / "mochain" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'mochain'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mochain
    import mochain.cli

    if Path(mochain.__file__).resolve().parent != (SRC / "mochain").resolve():
        raise SystemExit(f"error: imported mochain from {mochain.__file__}, not from {SRC}")
    return mochain


def measure_setup(config_path: Path, repeats: int) -> list[float]:
    """Wall seconds for a fresh interpreter to import mochain and load a config."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-E", "-s", "-c", SETUP_PROBE, str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, check=False)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if Path(proc.stdout.strip()).resolve().parent != (SRC / "mochain").resolve():
            raise RuntimeError(f"set-up probe imported {proc.stdout.strip()}")
    return samples


def _blas_threads() -> int | None:
    """OpenBLAS's thread count as loaded by numpy, when it can be queried."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload: str, seed: int, samples: dict[str, int]) -> dict:
    import numpy as np
    import scipy

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(line.split(":", 1)[1].strip() for line in handle
                             if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mochain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "samples": samples,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        out_root: Path = OUT) -> dict:
    """One benchmark run; returns the result line plus samples and provenance."""
    # Imported here, not at the top: these load numpy, after main() pins BLAS.
    import oracle
    import tracing
    import workloads

    mochain = _import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    jobs = workloads.generate(workload, seed, tiny=tiny)

    out = out_root / f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "outputs").mkdir(parents=True)
    argvs = []
    # Each failure names its job and parameters, so that it can be reproduced alone.
    names = [f"job-{i:02d} {job.command} {json.dumps(job.config['parameters'])}"
             for i, job in enumerate(jobs)]
    for i, job in enumerate(jobs):
        config_path = out / f"job-{i:02d}.json"
        config_path.write_text(json.dumps(job.config, indent=1), encoding="utf-8")
        argvs.append([job.command, "--config", str(config_path),
                      "--out", str(out / f"job-{i:02d}.csv")])

    setup = measure_setup(out / "job-00.json", 1 if tiny else SETUP_REPEATS)

    tracer = tracing.Tracer()
    passes: list[Pass] = []
    errors: dict[int, str] = {}
    produced: dict[tuple[int, str], list[int]] = {}  # (job, output digest) -> run ids
    runs = 0
    start = time.perf_counter()
    while True:
        current = Pass(traced=trace and len(passes) % 2 == 1)
        with tracing.install(tracer) if current.traced else contextlib.nullcontext():
            for i, argv in enumerate(argvs):
                run_id, runs = runs, runs + 1
                current.run_ids.append(run_id)
                tracer.job = run_id
                c0, t0 = time.process_time(), time.perf_counter()
                span = tracer.open(tracing.JOB_SPAN) if current.traced else None
                try:
                    status = mochain.cli.main(argv)
                    if status != 0:
                        errors[run_id] = f"{names[i]}: exit status {status}"
                except (Exception, SystemExit) as exc:  # a failing job is counted, not fatal
                    errors[run_id] = f"{names[i]}: {type(exc).__name__}: {exc}"
                finally:
                    if span is not None:
                        tracer.close(span)
                current.wall.append(time.perf_counter() - t0)
                current.cpu.append(time.process_time() - c0)
                if run_id not in errors:
                    output = Path(argv[-1])
                    key = (i, hashlib.sha256(output.read_bytes()).hexdigest())
                    if key not in produced:
                        shutil.copyfile(output, out / "outputs" / f"job-{i:02d}-{key[1][:12]}.csv")
                    produced.setdefault(key, []).append(run_id)
        passes.append(current)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + elapsed / len(passes) / 2 >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: dict[str, list[str]] = {}
    for (i, digest), run_ids in produced.items():
        found = oracle.check(jobs[i].command, jobs[i].config,
                             str(out / "outputs" / f"job-{i:02d}-{digest[:12]}.csv"))
        if found:
            problems[f"job-{i:02d}-{digest[:12]}"] = found
            for run_id in run_ids:
                errors[run_id] = f"{names[i]}: output fails the reference check"

    untraced = [p for p in passes if not p.traced]
    job_s = statistics.median(statistics.fmean(p.wall) for p in untraced)
    metrics = {
        "job_s": job_s,
        "cpu_s": statistics.median(statistics.fmean(p.cpu) for p in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"job_s": len(untraced), "cpu_s": len(untraced), "setup_s": len(setup),
               "peak_rss_mb": 1, "jobs_per_pass": len(jobs)}
    section = "end_to_end"
    if trace:
        traced = [p for p in passes if p.traced]
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead"] = statistics.median(
            statistics.fmean(p.wall) for p in traced) / job_s - 1.0
        samples = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                   "jobs_per_pass": len(jobs)}
        section = "per_layer"
        tracer.write(str(out / "spans.jsonl.gz"))

    # correct: no job raised or exited non-zero, and every output matches the reference.
    result = {
        "correct": bool(produced) and not errors,
        "attempted": runs,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    record = {
        "result": result,
        "provenance": provenance(workload, seed, samples),
        "passes": [vars(p) for p in passes],
        "setup_s": setup,
        "errors": {str(k): v for k, v in sorted(errors.items())},
        "problems": problems,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for path in out.glob("job-*.csv"):
        path.unlink()
    return record


def main(argv: list[str] | None = None) -> int:
    os.environ.update(BLAS_ENV)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result, prov = record["result"], record["provenance"]
    for name, metric in result["metrics"].items():
        count = prov["samples"].get(name, prov["samples"].get("traced_passes"))
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}  (n={count})")
    for message in sorted(set(record["errors"].values())):
        print(f"job failed: {message}", file=sys.stderr)
    for name, found in record["problems"].items():
        print(f"reference check failed for {name}:", *found, sep="\n  ", file=sys.stderr)
    print("provenance:", json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
