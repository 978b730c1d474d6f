"""Independent reference check of every job output, run after timing.

Each output row is recomputed from the run configuration without the
package's propagators or resource functionals:

- Covariance: Van Loan's block exponential (C. F. Van Loan, IEEE TAC
  23(3):395-404, 1978). For M = [[-A, D], [0, A^T]], expm(M h) holds
  Phi(h) = e^{A h} and Q(h) = int_0^h e^{As} D e^{A^T s} ds. The block is
  exponentiated by scipy at a step h = t / 2^k with ||A h|| <= 1, then the pair
  is doubled k times, Phi(2h) = Phi(h)^2 and Q(2h) = Phi(h) Q(h) Phi(h)^T + Q(h),
  in extended precision. Exponentiating the block at the full time instead
  cancels catastrophically, because e^{-At} grows when A is stable.
- Resources: the two-mode determinant closed forms. The smaller partial-
  transpose symplectic eigenvalue is eta^2 = 2 det V / (Gamma + sqrt(Gamma^2 -
  4 det V)) with Gamma = det V_a + det V_c - 2 det V_ac (the form of
  `two_mode_min_pt_eigenvalue`, rationalized so that it does not cancel when
  the covariance grows), and raw steering is ln[det V_steerer / (4 det V)] / 2.
- The last row of every `evolve` job is checked again against the same
  construction in 40-digit mpmath arithmetic, where the covariance reaches
  ~1e8 and double precision is weakest.
- Platforms and stationary values: copies of the package's chain mapping
  (matched detunings, effective coupling), full drift/diffusion builders and
  stationary closed forms, frozen as they were when the benchmark was
  written, so that a change to any of those layers shows in the check.

Values are compared to the job's output with a tolerance of 1e-6 absolute.
Labels are checked against signs: `regime` against g_eff^2 - kappa_a kappa_c,
and the region label against the signs of the reference stationary steering.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.linalg import expm

TOLERANCE = 1e-6
MP_DIGITS = 40
LD = np.longdouble
MAX_PROBLEMS = 5


def _doublings(a: np.ndarray, t: float) -> int:
    norm_t = float(np.max(np.sum(np.abs(a), axis=1))) * t
    return max(0, math.ceil(math.log2(norm_t))) if norm_t > 0 else 0


def van_loan(a, d, t: float) -> np.ndarray:
    """Covariance at time t from the vacuum, v = Phi Phi^T / 2 + Q, in long double."""
    a, d = np.asarray(a, dtype=float), np.asarray(d, dtype=float)
    n = a.shape[0]
    k = _doublings(a, t)
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n], block[:n, n:], block[n:, n:] = -a, d, a.T
    e = expm(block * (t / 2.0**k))
    phi = e[n:, n:].T.astype(LD)
    q = phi @ e[:n, n:].astype(LD)
    q = (q + q.T) / 2
    for _ in range(k):
        q = phi @ q @ phi.T + q
        phi = phi @ phi
    v = phi @ phi.T / 2 + q
    return (v + v.T) / 2


def _det2(m) -> object:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def two_mode_resources(v) -> tuple[float, float, float]:
    """(E, S_ac_raw, S_ca_raw) of modes 0 and 1 from the determinant closed forms."""
    va, vc, vac = v[:2, :2], v[2:4, 2:4], v[:2, 2:4]
    det_a, det_c = _det2(va), _det2(vc)
    inv_a = np.array([[va[1, 1], -va[0, 1]], [-va[1, 0], va[0, 0]]]) / det_a
    det_v = det_a * _det2(vc - vac.T @ inv_a @ vac)
    gamma = det_a + det_c - 2 * _det2(vac)
    eta2 = 2 * det_v / (gamma + np.sqrt(max(gamma * gamma - 4 * det_v, 0)))
    e = max(0.0, float(-np.log(4 * eta2) / 2))
    return e, float(np.log(det_a / (4 * det_v)) / 2), float(np.log(det_c / (4 * det_v)) / 2)


def mp_resources(a, d, t: float, digits: int = MP_DIGITS) -> tuple[float, float, float]:
    """The same Van Loan construction and closed forms in mpmath arithmetic."""
    import mpmath as mp

    n = len(a)
    k = _doublings(np.asarray(a, dtype=float), t)
    with mp.workdps(digits):
        block = mp.zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                block[i, j] = -a[i][j]
                block[i, n + j] = d[i][j]
                block[n + i, n + j] = a[j][i]
        e = mp.expm(block * (mp.mpf(t) / 2**k))
        phi = e[n:2 * n, n:2 * n].T
        q = phi * e[0:n, n:2 * n]
        for _ in range(k):
            q = phi * q * phi.T + q
            phi = phi * phi
        v = phi * phi.T / 2 + q
        det_a, det_c = mp.det(v[0:2, 0:2]), mp.det(v[2:4, 2:4])
        det_v = mp.det(v[0:4, 0:4])
        gamma = det_a + det_c - 2 * mp.det(v[0:2, 2:4])
        eta2 = 2 * det_v / (gamma + mp.sqrt(gamma * gamma - 4 * det_v))
        return (float(max(0, -mp.log(4 * eta2) / 2)),
                float(mp.log(det_a / (4 * det_v)) / 2), float(mp.log(det_c / (4 * det_v)) / 2))


def effective_drift_diffusion(p: dict) -> tuple[np.ndarray, np.ndarray]:
    """Drift and diffusion of the effective two-mode squeezer, ordering (a, c)."""
    g, ka, kc = p["g_eff"], p["kappa_a"], p["kappa_c"]
    a = -np.array([[ka, 0, 0, g], [0, ka, g, 0], [0, g, kc, 0], [g, 0, 0, kc]], dtype=float)
    heat_a = ka * (2 * p.get("n_a", 0.0) + 1)
    heat_c = kc * (2 * p.get("n_c", 0.0) + 1)
    return a, np.diag([heat_a, heat_a, heat_c, heat_c])


def characteristic_time(g_eff: float, kappa_a: float, kappa_c: float) -> float:
    omega = math.hypot(2.0 * g_eff, kappa_a - kappa_c)
    return 4.0 * math.pi / (omega + kappa_a + kappa_c)


def expected_regime(g_eff: float, kappa_a: float, kappa_c: float) -> str | None:
    """Regime label, or None within 1e-6 of the boundary where either label is fine."""
    product = kappa_a * kappa_c
    gap = g_eff * g_eff - product
    if abs(gap) <= 1e-6 * product:
        return None
    return "Steady" if gap < 0 else "Unsteady"


def expected_region(s_ac: float, s_ca: float) -> set[str]:
    """Region labels consistent with the signs of the raw stationary steering."""
    def signs(s: float) -> set[bool]:
        return {True, False} if abs(s) <= 1e-12 else {s > 0}
    labels = {(True, True): "TwoWay", (True, False): "OneWayAtoC",
              (False, True): "OneWayCtoA", (False, False): "None"}
    return {labels[(x, y)] for x in signs(s_ac) for y in signs(s_ca)}


def read_table(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        records = list(csv.DictReader(handle))
    for record in records:
        for key, value in record.items():
            try:
                record[key] = float(value)
            except ValueError:
                pass
    return records


class Problems(list):
    """Problem descriptions of one output; stops recording after MAX_PROBLEMS."""

    def add(self, message: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(message)
        elif len(self) == MAX_PROBLEMS:
            self.append("(further problems not listed)")

    def near(self, where: str, got: float, want: float) -> None:
        if not abs(got - want) <= TOLERANCE:
            self.add(f"{where}: output {got!r}, reference {want!r}")


def check_evolve(config: dict, records: list[dict], problems: Problems) -> None:
    p = config["parameters"]
    a, d = effective_drift_diffusion(p)
    tau = characteristic_time(p["g_eff"], p["kappa_a"], p["kappa_c"])
    t_end = config["times"]["t_end_in_tau"] * tau
    grid = set(np.linspace(0.0, t_end, config["times"]["samples"]).tolist())
    grid |= {t for t in (tau, 2.0 * tau) if t <= t_end * (1.0 + 1e-12)}
    times = sorted(grid)
    if len(records) != len(times):
        problems.add(f"{len(records)} rows, configuration asks for {len(times)}")
        return
    regime = expected_regime(p["g_eff"], p["kappa_a"], p["kappa_c"])
    for i, (t, row) in enumerate(zip(times, records)):
        if not abs(row["t"] - t) <= 1e-12 * t_end:
            problems.add(f"row {i}: t = {row['t']!r}, expected {t!r}")
            continue
        if regime is not None and row["regime"] != regime:
            problems.add(f"row {i}: regime {row['regime']}, expected {regime}")
        e, s_ac, s_ca = two_mode_resources(van_loan(a, d, row["t"]))
        problems.near(f"row {i} E", row["E"], e)
        problems.near(f"row {i} S_ac_raw", row["S_ac_raw"], s_ac)
        problems.near(f"row {i} S_ca_raw", row["S_ca_raw"], s_ca)
    last = records[-1]
    e, s_ac, s_ca = mp_resources(a.tolist(), d.tolist(), last["t"])
    problems.near("last row E (mpmath)", last["E"], e)
    problems.near("last row S_ac_raw (mpmath)", last["S_ac_raw"], s_ac)
    problems.near("last row S_ca_raw (mpmath)", last["S_ca_raw"], s_ca)


def _axis_values(axis: dict) -> list[float]:
    lo, hi, n = axis["min"], axis["max"], axis["points"]
    if axis.get("scale") == "log":
        lo, hi = math.log10(lo), math.log10(hi)
        return [10.0 ** (lo + (hi - lo) * i / (n - 1)) for i in range(n)]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


SQRT2 = math.sqrt(2.0)


def _delta_m(p: dict) -> float:
    """Magnon detuning of a COMM parameter set; it defaults to omega_b."""
    return p["omega_b"] if p.get("delta_m") is None else p["delta_m"]


def _chain(system: str, p: dict) -> dict:
    """End couplings, intermediary frequencies and mixing angles of a platform's chain."""
    if system == "eom":
        return dict(omegas=(p["omega_b"],), g_a=SQRT2 * p["g_a"], g_c=SQRT2 * p["g_c"],
                    g_mid=(), theta=math.pi / 4.0, phi=math.pi / 4.0)
    return dict(omegas=(_delta_m(p), p["omega_b"]), g_a=p["g_a"],
                g_c=SQRT2 * p["g_c"], g_mid=(p["g_m"],), theta=0.0, phi=math.pi / 4.0)


def _energy_shift(c: dict, delta_a: float, delta_c: float) -> float:
    """g_a^2 [w_1 + D_a cos 2theta]/(w_1^2 - D_a^2) + g_c^2 [w_N + D_c cos 2phi]/(w_N^2 - D_c^2)."""
    w1, wn = c["omegas"][0], c["omegas"][-1]
    term_a = c["g_a"] ** 2 * (w1 + delta_a * math.cos(2.0 * c["theta"])) / (w1 * w1 - delta_a ** 2)
    term_c = c["g_c"] ** 2 * (wn + delta_c * math.cos(2.0 * c["phi"])) / (wn * wn - delta_c ** 2)
    return term_a + term_c


def matched_delta_c(system: str, p: dict) -> float:
    """Optical detuning -delta_a + shift, the shift refined once at the first guess."""
    c, da = _chain(system, p), p["delta_a"]
    delta_c = -da + _energy_shift(c, da, -da)
    return -da + _energy_shift(c, da, delta_c)


def effective_coupling(system: str, p: dict) -> float:
    """Chain-mediated squeezing coupling g_eff (N = 1 for EOM, N = 2 for COMM)."""
    c, da = _chain(system, p), p["delta_a"]
    th, ph = c["theta"], c["phi"]
    if len(c["omegas"]) == 1:
        w1 = c["omegas"][0]
        return c["g_a"] * c["g_c"] * (math.cos(th) * math.sin(ph) / (da - w1)
                                      - math.sin(th) * math.cos(ph) / (da + w1))
    w1, wn = c["omegas"]
    left = math.sin(th) / (da + w1) - math.cos(th) / (da - w1)
    right = math.cos(ph) / (da + wn) - math.sin(ph) / (da - wn)
    return c["g_a"] * c["g_mid"][0] * c["g_c"] * left * right


def full_drift_diffusion(system: str, p: dict) -> tuple[np.ndarray, np.ndarray]:
    """Linearized drift and diffusion of a platform, ordering (a, c, intermediaries)."""
    da, dc, wb = p["delta_a"], matched_delta_c(system, p), p["omega_b"]
    ka, kc, kb = p["kappa_a"], p["kappa_c"], p["kappa_b"]
    gc2 = 2.0 * p["g_c"]
    if system == "eom":
        ga2 = 2.0 * p["g_a"]
        a = np.array([[-ka, da, 0, 0, 0, 0], [-da, -ka, 0, 0, -ga2, 0],
                      [0, 0, -kc, dc, 0, 0], [0, 0, -dc, -kc, -gc2, 0],
                      [0, 0, 0, 0, -kb, wb], [-ga2, 0, -gc2, 0, -wb, -kb]], dtype=float)
        rates = ((ka, p.get("n_a", 0.0)), (kc, p.get("n_c", 0.0)), (kb, p.get("n_b", 10.0)))
    else:
        dm, km, ga, gm2 = _delta_m(p), p["kappa_m"], p["g_a"], 2.0 * p["g_m"]
        a = np.array([[-ka, da, 0, 0, 0, ga, 0, 0], [-da, -ka, 0, 0, -ga, 0, 0, 0],
                      [0, 0, -kc, dc, 0, 0, 0, 0], [0, 0, -dc, -kc, 0, 0, -gc2, 0],
                      [0, ga, 0, 0, -km, dm, 0, 0], [-ga, 0, 0, 0, -dm, -km, -gm2, 0],
                      [0, 0, 0, 0, 0, 0, -kb, wb], [0, 0, -gc2, 0, -gm2, 0, -wb, -kb]],
                     dtype=float)
        rates = ((ka, p.get("n_a", 0.0)), (kc, p.get("n_c", 0.0)), (km, p.get("n_m", 0.0)),
                 (kb, p.get("n_b", 10.0)))
    heat = [k * (2.0 * n + 1.0) for k, n in rates for _ in range(2)]
    return a, np.diag(heat)


def stationary(g: float, ka: float, kc: float) -> tuple[float, float, float]:
    """(E, S_ac, S_ca) of the effective model in the long-time limit.

    Stable branch (g^2 < ka kc beyond a 1e-9 relative band):
      E = ln[(ka kc - g^2) / (ka kc - g^2 chi)],
      chi = sqrt{1 + 4 ka kc (ka kc - g^2) / [g^2 (ka + kc)^2]},
      S_ac = ln{[g^2 (kc^2 - ka^2) + Xi] / [g^2 (ka - kc)^2 + Xi]}, Xi = ka kc (ka + kc)^2.
    Divergent branch: E = ln[1 + 4 g^2 / (Omega (ka + kc) + (ka - kc)^2)],
      S_ac = ln[(Omega - ka + kc) / (2 Omega)] + E, Omega = hypot(2g, ka - kc).
    S_ca swaps the two decay rates.
    """
    g2, product = g * g, ka * kc
    stable = g2 - product < 0 and abs(g2 - product) > 1e-9 * product
    if stable:
        e = 0.0 if g2 == 0 else math.log(
            (product - g2)
            / (product - g2 * math.sqrt(1.0 + 4.0 * product * (product - g2) / (g2 * (ka + kc) ** 2))))

        def steer(k1: float, k2: float) -> float:
            xi = k1 * k2 * (k1 + k2) ** 2
            return math.log((g2 * (k2 * k2 - k1 * k1) + xi) / (g2 * (k1 - k2) ** 2 + xi))
    else:
        e = math.log1p(4.0 * g2 / (math.hypot(2.0 * g, ka - kc) * (ka + kc) + (ka - kc) ** 2))

        def steer(k1: float, k2: float) -> float:
            omega = math.hypot(2.0 * g, k1 - k2)
            return math.log((omega - k1 + k2) / (2.0 * omega)) + e
    return e, steer(ka, kc), steer(kc, ka)


def check_region(config: dict, records: list[dict], problems: Problems) -> None:
    axis1, axis2 = config["sweep"]["axis1"], config["sweep"]["axis2"]
    values1, values2 = _axis_values(axis1), _axis_values(axis2)
    if len(records) != len(values1) * len(values2):
        problems.add(f"{len(records)} rows, grid has {len(values1) * len(values2)} cells")
        return
    for i, row in enumerate(records):
        x1, x2 = values1[i // len(values2)], values2[i % len(values2)]
        if not (math.isclose(row[axis1["name"]], x1, rel_tol=1e-12)
                and math.isclose(row[axis2["name"]], x2, rel_tol=1e-12)):
            problems.add(f"row {i}: cell ({row[axis1['name']]!r}, {row[axis2['name']]!r}) "
                         f"expected ({x1!r}, {x2!r})")
            continue
        params = dict(config["parameters"], **{axis1["name"]: x1, axis2["name"]: x2})
        g_eff = effective_coupling(config["system"], params)
        ka, kc = params["kappa_a"], params["kappa_c"]
        regime = expected_regime(g_eff, ka, kc)
        if regime is not None and row["regime"] != regime:
            problems.add(f"row {i}: regime {row['regime']}, expected {regime}")
        e, s_ac, s_ca = stationary(g_eff, ka, kc)
        problems.near(f"row {i} E", row["E"], e)
        problems.near(f"row {i} S_ac", row["S_ac"], s_ac)
        problems.near(f"row {i} S_ca", row["S_ca"], s_ca)
        if row["region"] not in expected_region(s_ac, s_ca):
            problems.add(f"row {i}: region {row['region']} disagrees with "
                         f"reference S_ac {s_ac!r}, S_ca {s_ca!r}")
        a, d = full_drift_diffusion(config["system"], params)
        tau = characteristic_time(g_eff, ka, kc)
        e, s_ac, s_ca = two_mode_resources(van_loan(a, d, tau))
        problems.near(f"row {i} E_full", row["E_full"], e)
        problems.near(f"row {i} S_ac_full", row["S_ac_full"], s_ac)
        problems.near(f"row {i} S_ca_full", row["S_ca_full"], s_ca)


def check_compare(config: dict, records: list[dict], problems: Problems) -> None:
    axis = config["sweep"]["axis1"]
    values = _axis_values(axis)
    if len(records) != len(values):
        problems.add(f"{len(records)} rows, sweep has {len(values)} points")
        return
    for i, (x, row) in enumerate(zip(values, records)):
        if not math.isclose(row[axis["name"]], x, rel_tol=1e-12):
            problems.add(f"row {i}: {axis['name']} = {row[axis['name']]!r}, expected {x!r}")
            continue
        params = dict(config["parameters"], **{axis["name"]: x})
        g_eff = effective_coupling(config["system"], params)
        ka, kc = params["kappa_a"], params["kappa_c"]
        if not math.isclose(row["g_eff"], g_eff, rel_tol=1e-9):
            problems.add(f"row {i}: g_eff {row['g_eff']!r}, reference {g_eff!r}")
        regime = expected_regime(g_eff, ka, kc)
        if regime is not None and row["regime"] != regime:
            problems.add(f"row {i}: regime {row['regime']}, expected {regime}")
        for name, value in zip(("E", "S_ac", "S_ca"), stationary(g_eff, ka, kc)):
            problems.near(f"row {i} {name}", row[name], value)
        a, d = full_drift_diffusion(config["system"], params)
        tau = characteristic_time(g_eff, ka, kc)
        for label, t in (("tau", tau), ("2tau", 2.0 * tau)):
            e, s_ac, s_ca = two_mode_resources(van_loan(a, d, t))
            problems.near(f"row {i} E_full_{label}", row[f"E_full_{label}"], e)
            problems.near(f"row {i} S_ac_full_{label}", row[f"S_ac_full_{label}"], s_ac)
            problems.near(f"row {i} S_ca_full_{label}", row[f"S_ca_full_{label}"], s_ca)


CHECKS = {"evolve": check_evolve, "region": check_region, "compare": check_compare}


def check(command: str, config: dict, output_path: str) -> list[str]:
    """Problems found in one job output; empty when it matches the reference."""
    problems = Problems()
    try:
        records = read_table(output_path)
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        return [f"unreadable output: {exc}"]
    try:
        CHECKS[command](config, records, problems)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        problems.add(f"output does not match the expected table: {type(exc).__name__}: {exc}")
    return list(problems)
