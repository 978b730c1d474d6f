"""The quadrature picture behind the characteristic time.

Rotating the (X_a, Y_c) pair into the drift eigenbasis splits the dynamics
into one variance that decays at the fast rate Omega + kappa_a + kappa_c and
one that grows at Omega - kappa_a - kappa_c. The squeezed variance saturates
well before the characteristic time tau = 4 pi / (Omega + kappa_a + kappa_c),
and in the divergent regime twice its value approximates the entanglement
kernel: E = -ln(2 dX) at late times.

The cross term printed last is the exact covariance of the two eigenbasis
quadratures, as squeeze_variances reports it: it vanishes at t = 0, as a
vacuum start requires, and matches the one read off the rotated covariance.

Run:  python3 demos/squeezed_quadratures.py
"""

import numpy as np

from mochain import (
    EffectiveModel,
    analytic_effective_cm,
    characteristic_time,
    log_negativity,
    squeeze_variances,
    stationary_entanglement,
)

model = EffectiveModel(np.sqrt(2.0), 0.5, 1.0)  # g^2/(ka kc) = 4, kc = 2 ka
tau = characteristic_time(model)
omega = np.hypot(2.0 * model.g_eff, model.kappa_a - model.kappa_c)
dx_inf = squeeze_variances(model, np.inf)[0]
print(f"Omega = {omega:.5f}, tau = {tau:.4f}, saturation value 2 dX(inf) = {2 * dx_inf:.5f}")

print(f"\n{'t/tau':>6} {'dX':>9} {'dY':>12} {'2dX':>9} {'exp(-E)':>9}")
for t_over_tau in (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0):
    t = t_over_tau * tau
    dx, dy, _ = squeeze_variances(model, t)
    zeta = np.exp(-log_negativity(analytic_effective_cm(model, t), {0}, {1}))
    print(f"{t_over_tau:6.2f} {dx:9.5f} {dy:12.4f} {2 * dx:9.5f} {zeta:9.5f}")

print(f"\nstationary E = {stationary_entanglement(model):.5f}  "
      f"-ln(2 dX(inf)) = {-np.log(2 * dx_inf):.5f}")

# the eigenbasis quadratures lie along (cos theta, sin theta) and
# (sin theta, -cos theta), with 2 theta = atan2(2 g, kappa_a - kappa_c)
two_theta = np.arctan2(2.0 * model.g_eff, model.kappa_a - model.kappa_c)
print(f"\n{'t':>6} {'cross (reported)':>17} {'cross (covariance)':>19}")
for t in (0.0, 0.5, 2.0, 6.0):
    reported = squeeze_variances(model, t)[2]
    v = analytic_effective_cm(model, t)
    from_cm = np.sin(two_theta) / 2 * (v[0, 0] - v[3, 3]) - np.cos(two_theta) * v[0, 3]
    print(f"{t:6.1f} {reported:17.6f} {from_cm:19.6f}")
