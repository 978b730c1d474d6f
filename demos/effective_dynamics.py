"""Covariance dynamics of the effective microwave-optical model.

Two scenarios, mirroring the stable-vs-divergent dichotomy of the model:
below the stability boundary (g^2 < kappa_a kappa_c) every covariance element
converges; above it the elements blow up exponentially, yet the entanglement
and steering extracted from them settle to finite stationary values before
the characteristic time tau. The closed-form covariance is cross-checked
against the RK4 integration of the same Lyapunov equation at every printed
time.

Run:  python3 demos/effective_dynamics.py
"""

import numpy as np

from mochain import (
    EffectiveModel,
    analytic_effective_cm,
    build_effective_drift_diffusion,
    characteristic_time,
    classify_regime,
    gaussian_steering,
    log_negativity,
    stationary_entanglement,
    stationary_steering,
)
from mochain.verify import lyapunov_rk4

# kappa_c = 2 kappa_a throughout; the coupling sets g^2/(ka kc) to 0.5 or 4
SCENARIOS = {
    "stable      (g^2/ka kc = 0.5)": EffectiveModel(np.sqrt(0.5 * 0.5), 0.5, 1.0),
    "divergent   (g^2/ka kc = 4.0)": EffectiveModel(np.sqrt(4.0 * 0.5), 0.5, 1.0),
}

for label, model in SCENARIOS.items():
    tau = characteristic_time(model)
    dd = build_effective_drift_diffusion(model)
    grid = np.linspace(0.0, 2.0 * tau, 9)
    states = lyapunov_rk4(dd, np.eye(4) / 2, grid)
    gaps = np.max(np.abs(analytic_effective_cm(model, grid) - states), axis=(1, 2))
    resources = (log_negativity(states, {0}, {1}), gaussian_steering(states, {0}, {1})[0],
                 gaussian_steering(states, {1}, {0})[0])

    print(f"\n=== {label} | regime: {classify_regime(model).value}, "
          f"tau = {tau:.4f} ===")
    print(f"{'t/tau':>6} {'v11':>10} {'v44':>10} {'v14':>10} "
          f"{'E':>8} {'S_ac':>8} {'S_ca':>8} {'|closed-RK4|':>12}")
    for t, v, e, s_ac, s_ca, gap in zip(grid, states, *resources, gaps):
        print(f"{t / tau:6.2f} {v[0, 0]:10.4f} {v[3, 3]:10.4f} {v[0, 3]:10.4f} "
              f"{e:8.4f} {s_ac:8.4f} {s_ca:8.4f} {gap:12.2e}")

    print(f"stationary values:  E = {stationary_entanglement(model):.4f}  "
          f"S_ac = {stationary_steering(model, 'ac'):.4f}  "
          f"S_ca = {stationary_steering(model, 'ca'):.4f}")
