"""Seeded job generator for the three benchmark workloads.

Each workload is a fixed list of jobs. A job is one `mochain` data command
(`evolve`, `region` or `compare`) on a JSON run configuration; the program
sees only the configuration files the benchmark writes from these dicts.
The same seed always gives the same jobs. README.md says why each workload
exists, which layer it stresses, and which workloads were left out.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Decay-rate pairs of the effective-model grid used by `mochain verify`.
VERIFY_KAPPA_PAIRS = ((1.0, 0.4), (0.7, 1.3), (0.5, 1.0), (1.0, 1.0))

# Optomagnomechanical base of the Fig-4 region map (demos/comm_region_map.py).
COMM_FIG4 = dict(omega_b=1.0, delta_a=3.0, g_a=0.12, g_m=0.1, g_c=0.12,
                 kappa_a=1e-4, kappa_c=2e-4, kappa_m=1e-3, kappa_b=1e-6, n_b=10.0)

# The 8-point Fig-3 EOM sweep with couplings and decays scaled up, so that
# 2 tau of the weakest cell is ~1100 time units and a job takes ~10 s, not 122 s.
EOM_COMPARE = dict(omega_b=1.0, delta_a=5.0, g_a=0.2, g_c=0.3,
                   kappa_a=4e-3, kappa_c=8e-3, kappa_b=1e-6, n_b=10.0)


@dataclass(frozen=True)
class Job:
    """One program invocation: a data command and its run configuration."""

    command: str
    config: dict


def _evolve_effective(rng: random.Random, tiny: bool) -> list[Job]:
    jobs = []
    count, samples = (2, 21) if tiny else (16, 401)
    for index in range(count):
        ratio = rng.uniform(0.2, 4.0)  # g^2 / (kappa_a kappa_c): both regimes
        kappa_a, kappa_c = rng.choice(VERIFY_KAPPA_PAIRS)
        n_a = 0.1 if index % 2 else 0.0  # 0: analytic route, 0.1: RK4 route
        t_end = 5.0 if (index // 2) % 2 else 2.0
        params = {"g_eff": math.sqrt(ratio * kappa_a * kappa_c),
                  "kappa_a": kappa_a, "kappa_c": kappa_c, "n_a": n_a}
        jobs.append(Job("evolve", {
            "system": "effective",
            "parameters": params,
            "times": {"t_end_in_tau": t_end, "samples": samples},
            "outputs": {"format": "csv"},
        }))
    return jobs


def _region_comm(rng: random.Random, tiny: bool) -> list[Job]:
    points = 4 if tiny else 50
    axes = {}
    for key, name in (("axis1", "kappa_a"), ("axis2", "kappa_c")):
        factor = rng.uniform(0.9, 1.1)
        axes[key] = {"name": name, "min": 1e-4 * factor, "max": 1e-3 * factor,
                     "points": points, "scale": "log"}
    return [Job("region", {
        "system": "comm",
        "parameters": dict(COMM_FIG4),
        "sweep": axes,
        "outputs": {"format": "csv"},
    })]


def _compare_eom(rng: random.Random, tiny: bool) -> list[Job]:
    lower = 0.2 * rng.uniform(0.95, 1.05)
    return [Job("compare", {
        "system": "eom",
        "parameters": dict(EOM_COMPARE),
        "sweep": {"axis1": {"name": "g_a", "min": lower, "max": 0.45,
                            "points": 2 if tiny else 8, "scale": "linear"}},
        "outputs": {"format": "csv"},
    })]


GENERATORS = {
    "evolve-effective": _evolve_effective,
    "region-comm": _region_comm,
    "compare-eom": _compare_eom,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The jobs of one workload for a seed; `tiny` shrinks them for self-tests."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)
