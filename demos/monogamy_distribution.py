"""How the multipartite resources distribute: monogamy in the full platforms.

Entanglement squared and steering obey sharing inequalities: the one-vs-rest
quantity bounds the sum of the pairwise ones. Along the full trajectories of
both platforms the residuals stay non-negative, and at the characteristic
time essentially the entire budget sits in the microwave-optical pair - the
intermediaries end up negligibly correlated with the microwave mode even
though every interaction is routed through them.

Run:  python3 demos/monogamy_distribution.py   (uses the exact propagator,
so it is quick despite the long characteristic times)
"""

import numpy as np

from mochain import (
    CommParams,
    CovarianceMatrix,
    EomParams,
    chain_full_drift_diffusion,
    characteristic_time,
    comm_to_chain,
    eom_to_chain,
    gaussian_steering,
    log_negativity,
    monogamy_residuals,
    propagate_lti,
    reduce,
)
from mochain.systems import COMM_FIG4, EOM_FIG3

EOM = EomParams(**EOM_FIG3)
COMM = CommParams(**COMM_FIG4)

for label, params, to_chain, mode_names in (
    ("electro-optomechanical", EOM, eom_to_chain, ("optical", "mechanical")),
    ("optomagnomechanical", COMM, comm_to_chain, ("optical", "magnon", "mechanical")),
):
    chain = to_chain(params)
    dd, tau = chain_full_drift_diffusion(chain), characteristic_time(reduce(chain))
    n_modes = dd.modes
    print(f"\n=== {label} (tau = {tau:.0f}) ===")
    print(f"{'t/tau':>6} {'ent residual':>13} {'steer residual':>15}")
    times = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0]) * tau
    states = [CovarianceMatrix(state) for state in propagate_lti(dd, times)]
    for t, state in zip(times, states):
        ent_res, steer_res = monogamy_residuals(state, 0)
        print(f"{t / tau:6.2f} {ent_res:13.3e} {steer_res:15.3e}")

    at_tau = states[3]
    rest = list(range(1, n_modes))
    e_global = log_negativity(at_tau, {0}, rest)
    s_global = gaussian_steering(at_tau, {0}, rest)[1]
    print(f"at tau: E(microwave | rest) = {e_global:.4f}, "
          f"S(microwave -> rest) = {s_global:.4f}")
    for j, name in zip(rest, ("optical",) + mode_names[1:]):
        e_pair = log_negativity(at_tau, {0}, {j})
        s_pair = gaussian_steering(at_tau, {0}, {j})[1]
        print(f"  pairwise with {name:>10}: E = {e_pair:.4f} "
              f"({e_pair**2 / e_global**2:6.2%} of E^2 budget), "
              f"S = {s_pair:.4f} ({s_pair / max(s_global, 1e-12):6.2%} of S budget)")
