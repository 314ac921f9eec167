"""Checks of the program's outputs, each returning a list of problems.

Every check compares an output against a computation made apart from the
campaign that produced it, or against a property the method must have. None
compares against stored output. An empty list means the check passed.
"""

import numpy as np

# Monte-Carlo SE against a closed form: |mc - cf| <= Z_TOL * stderr per UE.
# The stderr comes from 16 batch means, so |z| has heavier tails than a
# Gaussian: over 20,000 per-UE values of the three campaign workloads
# (seeds 1-360) the largest |z| was 6.3. A wrong estimator or closed form
# shifts every UE by many standard errors.
Z_TOL = 8.0

# "up to rounding": the mean of a few hundred log2 terms
ROUNDING_RTOL = 1e-9


def closed_form(label, mc, stderr, cf, z_tol=Z_TOL):
    """Per-UE Monte-Carlo SE within z_tol standard errors of its closed form."""
    mc, stderr, cf = (np.asarray(a, dtype=float) for a in (mc, stderr, cf))
    if mc.shape != cf.shape or stderr.shape != cf.shape:
        return [f"{label}: {mc.shape} Monte-Carlo values against {cf.shape} closed-form values"]
    if not (np.all(np.isfinite(stderr)) and np.all(stderr > 0)):
        return [f"{label}: standard errors must be finite and positive"]
    z = np.abs(mc - cf) / stderr
    bad = np.flatnonzero(~(z <= z_tol))
    if bad.size:
        k = bad[np.argmax(z[bad])]
        return [f"{label}: {bad.size} UEs off their closed form by more than {z_tol} "
                f"standard errors, worst UE {k}: {mc[k]:.6g} vs {cf[k]:.6g} ({z[k]:.1f} se)"]
    return []


def dominates(label, se_hi, se_lo, rtol=ROUNDING_RTOL):
    """Every UE's se_hi is at least its se_lo, up to rounding."""
    se_hi, se_lo = np.asarray(se_hi, dtype=float), np.asarray(se_lo, dtype=float)
    slack = rtol * np.maximum(np.abs(se_hi), np.abs(se_lo))
    bad = np.flatnonzero(~(se_hi >= se_lo - slack))
    if bad.size:
        k = bad[np.argmax((se_lo - se_hi)[bad])]
        return [f"{label}: {bad.size} UEs below, worst UE {k}: {se_hi[k]:.9g} < {se_lo[k]:.9g}"]
    return []


def strictly_decreasing(label, named_values):
    """[(name, value), ...] ordered from largest to smallest."""
    problems = []
    for (a, va), (b, vb) in zip(named_values, named_values[1:]):
        if not va > vb:
            problems.append(f"{label}: expected {a} ({va:.4f}) > {b} ({vb:.4f})")
    return problems


def ratio_greater(label, num_a, den_a, num_b, den_b):
    """num_a / den_a > num_b / den_b."""
    ra, rb = num_a / den_a, num_b / den_b
    if not ra > rb:
        return [f"{label}: {ra:.4f} is not above {rb:.4f}"]
    return []


def all_finite(label, *arrays):
    bad = sum(int(np.sum(~np.isfinite(np.asarray(a, dtype=float)))) for a in arrays)
    return [f"{label}: {bad} values are not finite"] if bad else []


def cluster_invariants(label, serves, master_of, pilot_len):
    """|D_l| <= tau_p for every AP, and every UE's master AP serves it."""
    serves = np.asarray(serves, dtype=bool)
    problems = []
    sizes = serves.sum(axis=1)
    if sizes.max(initial=0) > pilot_len:
        problems.append(f"{label}: {int(np.sum(sizes > pilot_len))} APs serve more than "
                        f"tau_p = {pilot_len} UEs (largest |D_l| = {int(sizes.max())})")
    master_of = np.asarray(master_of)
    k = np.arange(serves.shape[1])
    if np.any(master_of < 0) or not serves[master_of, k].all():
        problems.append(f"{label}: a UE is not served by its master AP")
    return problems


def fronthaul_within(label, rows, cap):
    """Distributed per-AP fronthaul (UL + DL data rows) at most cap."""
    load = {}
    for entity, index, scheme, metric, value in rows:
        if entity == "ap" and scheme == "distributed" and metric in ("fronthaul_ul", "fronthaul_dl"):
            load[index] = load.get(index, 0) + value
    worst = max(load.values(), default=None)
    if worst is None:
        return [f"{label}: no distributed fronthaul rows"]
    if worst > cap:
        return [f"{label}: an AP forwards {worst} scalars per block, above {cap}"]
    return []


def expected_costs(serves, antennas, pilot_len):
    """{(scheme, k): (estimation, combining)} for P-MMSE and LP-MMSE.

    Recomputed from the serving sets alone: partner sets come from one
    boolean product, |D_l| from the serving matrix.
    """
    serves = np.asarray(serves, dtype=bool)
    s = serves.astype(np.float64)
    partners = (s.T @ s) > 0
    cluster = serves.sum(axis=1)
    N = antennas
    est_unit = N * pilot_len + N * N
    costs = {}
    for k in range(serves.shape[1]):
        aps = np.flatnonzero(serves[:, k])
        m = aps.size
        n = N * m
        p = int(partners[k].sum())
        costs[("P-MMSE", k)] = (est_unit * p * m, (n * n + n) // 2 * p + n * n + (n**3 - n) // 3)
        served = int(cluster[aps].sum())
        costs[("LP-MMSE", k)] = (est_unit * served,
                                 (N * N + N) // 2 * served + ((N**3 - N) // 3 + N * N) * m)
    return costs


def cost_rows(label, rows, expected, bounds):
    """P-MMSE and LP-MMSE rows equal the recomputed counts and stay under bounds."""
    table = {}
    for entity, index, scheme, metric, value in rows:
        if entity == "ue":
            table[(scheme, index, metric)] = value
    problems = []
    for (scheme, k), (est, comb) in expected.items():
        got = (table.get((scheme, k, "estimation_mults")), table.get((scheme, k, "combining_mults")))
        if got != (est, comb):
            problems.append(f"{label}: {scheme} UE {k} costs {got}, recomputed {(est, comb)}")
        elif est + comb > bounds[scheme]:
            problems.append(f"{label}: {scheme} UE {k} costs {est + comb}, "
                            f"above the bound {bounds[scheme]}")
    return problems
