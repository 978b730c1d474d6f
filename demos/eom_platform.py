"""Electro-optomechanical platform: reduction, validity, full-vs-effective.

A mechanical mode bridges a microwave resonator and an optical cavity (both
position-coupled, enhanced couplings from strong drives). The script maps the
platform onto the general chain, reports the perturbative validity ratios,
reduces it to the effective two-mode model, and then propagates the full 6x6
linearized dynamics exactly to compare entanglement and steering at tau and 2 tau
against the closed forms across a coupling scan.

The matched optical detuning (delta_c = -delta_a + energy shift) is computed
per point; mechanical thermal occupation is ten phonons as in the cryogenic
reference setup.

Run:  python3 demos/eom_platform.py   (seconds: the exact propagator reaches
tau and 2 tau, ~10^3 time units, with one block exponential per point)
"""

import numpy as np

from mochain import (
    EomParams,
    characteristic_time,
    classify_regime,
    eom_to_chain,
    reduce,
    validity_report,
)
from mochain.config import RunConfig, SweepAxis
from mochain.sweep import run_compare

BASE = dict(omega_b=1.0, delta_a=5.0, g_a=0.12, g_c=0.12,
            kappa_a=5e-4, kappa_c=1e-3, kappa_b=1e-6, n_b=10.0)

# --- reduction and validity at the reference point ---------------------------
chain = eom_to_chain(EomParams(**BASE))
model = reduce(chain)
print(f"reference point: g_eff = {model.g_eff:.6f} (in units of the mechanical "
      f"frequency), matched delta_c = {chain.delta_c:.6f}")
print(f"regime: {classify_regime(model).value}, "
      f"tau = {characteristic_time(model):.1f}")
worst_name, worst_ratio, _ = max(validity_report(chain), key=lambda row: row[1])
print(f"worst perturbative ratio: {worst_name} = {worst_ratio:.4f} (pass < 0.2)")

# --- coupling scan: closed forms vs full 6x6 dynamics -------------------------
cfg = RunConfig(
    system="eom",
    parameters=dict(BASE),
    sweep=(SweepAxis(name="g_a", minimum=0.05, maximum=0.2, points=6),),
)
table = run_compare(cfg)
print(f"\n{'g_a':>6} {'regime':>9} {'E':>7} {'E~(tau)':>8} {'E~(2tau)':>9} "
      f"{'S_ac':>7} {'S~_ac(tau)':>10} {'dev E':>7} {'dev S':>7}")
for row in table.rows:
    record = dict(zip(table.columns, row))
    print(f"{record['g_a']:6.3f} {record['regime']:>9} {record['E']:7.4f} "
          f"{record['E_full_tau']:8.4f} {record['E_full_2tau']:9.4f} "
          f"{record['S_ac']:7.4f} {record['S_ac_full_tau']:10.4f} "
          f"{record['rel_dev_E_tau']:7.2%} {record['rel_dev_S_ac_tau']:7.2%}")
print("full-system values track the closed forms at the few-percent level; "
      "the steering direction optical -> microwave turns on only past the "
      "two-way threshold near g_a = 0.12.")
