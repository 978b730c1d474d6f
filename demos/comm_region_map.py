"""Optomagnomechanical platform: decay-rate region map with a numeric pass.

The chain here has two intermediaries (magnon, then mechanics). Sweeping both
end-mode decay rates at fixed couplings rasterizes the regime boundary and the
steering regions; every cell also carries the full 8x8 dynamics propagated to
its own characteristic time, and the table records whether the numeric
steering signs reproduce the closed-form directions. Disagreements pile up
only along the analytic boundaries, where both routes cross zero.

Writes the full grid to comm_region_map.csv next to this script.

Run:  python3 demos/comm_region_map.py
"""

from collections import Counter
from pathlib import Path

from mochain import CommParams, comm_to_chain, reduce
from mochain.config import RunConfig, SweepAxis
from mochain.sweep import run_region, write_output

BASE = dict(omega_b=1.0, delta_a=3.0, g_a=0.12, g_m=0.1, g_c=0.12,
            kappa_a=1e-4, kappa_c=2e-4, kappa_m=1e-3, kappa_b=1e-6, n_b=10.0)

model = reduce(comm_to_chain(CommParams(**BASE)))
print(f"effective coupling g_eff = {model.g_eff:.2e}; stability boundary at "
      f"kappa_a kappa_c = {model.g_eff**2:.2e}")

cfg = RunConfig(
    system="comm",
    parameters=dict(BASE),
    sweep=(
        SweepAxis(name="kappa_a", minimum=1e-4, maximum=1e-3, points=20, scale="log"),
        SweepAxis(name="kappa_c", minimum=1e-4, maximum=1e-3, points=20, scale="log"),
    ),
)
table = run_region(cfg)

regions = Counter()
agreement = Counter()
for row in table.rows:
    record = dict(zip(table.columns, row))
    regions[(record["regime"], record["region"])] += 1
    agreement[record["agree"]] += 1

print(f"\n{len(table.rows)} cells over kappa_a, kappa_c in [1e-4, 1e-3] (log):")
for (regime, region), count in sorted(regions.items()):
    print(f"  {regime:>9} / {region:<13} {count:4d} cells")
total = sum(agreement.values())
print(f"numeric steering signs match the closed-form directions in "
      f"{agreement[True]}/{total} cells "
      f"({agreement[True] / total:.1%}; mismatches sit on the boundaries)")

out_path = Path(__file__).with_name("comm_region_map.csv")
write_output(table, str(out_path), "csv")
print(f"grid written to {out_path.name}")
