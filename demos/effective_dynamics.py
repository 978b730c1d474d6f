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
    CovarianceMatrix,
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
    states = lyapunov_rk4(dd, CovarianceMatrix.vacuum(2), grid)

    print(f"\n=== {label} | regime: {classify_regime(model).value}, "
          f"tau = {tau:.4f} ===")
    print(f"{'t/tau':>6} {'v11':>10} {'v44':>10} {'v14':>10} "
          f"{'E':>8} {'S_ac':>8} {'S_ca':>8} {'|closed-RK4|':>12}")
    for t, state in zip(grid, states):
        closed = analytic_effective_cm(model, float(t))
        gap = np.max(np.abs(closed.data - state.data))
        e = log_negativity(state, {0}, {1})
        s_ac = gaussian_steering(state, {0}, {1})[0]
        s_ca = gaussian_steering(state, {1}, {0})[0]
        v = state.data
        print(f"{t / tau:6.2f} {v[0, 0]:10.4f} {v[3, 3]:10.4f} {v[0, 3]:10.4f} "
              f"{e:8.4f} {s_ac:8.4f} {s_ca:8.4f} {gap:12.2e}")

    print(f"stationary values:  E = {stationary_entanglement(model):.4f}  "
          f"S_ac = {stationary_steering(model, 'ac'):.4f}  "
          f"S_ca = {stationary_steering(model, 'ca'):.4f}")
