"""Fronthaul-signaling and computational-complexity accounting.

Closed-form per-coherence-block cost formulas for each scheme, the matching
instrumented measurement (running the reference combiner path with an
operation counter), and the scalability assertion: per-AP serving sets and
per-UE costs stay bounded as the UE count grows at fixed density.
"""

from dataclasses import dataclass

import numpy as np

from . import clustering
from .combining import OpCounter, combiner_single
from .config import SCHEMES, SimulationConfig
from .estimation import SetupContext
from .rng import TOPOLOGY, stream
from .topology import generate_topology

COUNTED_SCHEMES = SCHEMES


def fronthaul_load(mode: str, assignment, cfg: SimulationConfig) -> np.ndarray:
    """(L, 3) complex scalars per coherence block: pilot, UL data, DL data.

    Centralized APs forward raw pilot and data samples (N scalars per use);
    distributed APs forward one soft estimate per served UE and data symbol.
    """
    L = assignment.num_aps
    N = cfg.antennas_per_ap
    if mode == "centralized":
        row = np.array([cfg.pilot_len * N, cfg.ul_data_len * N, cfg.dl_data_len * N])
        return np.tile(row, (L, 1))
    if mode == "distributed":
        sizes = assignment.cluster_sizes()
        return np.stack(
            [np.zeros(L, dtype=int), cfg.ul_data_len * sizes, cfg.dl_data_len * sizes],
            axis=1,
        )
    raise ValueError(f"unknown mode {mode!r}")


def multiplication_count(scheme: str, k: int, assignment, cfg: SimulationConfig) -> dict:
    """Complex multiplications per coherence block for UE k's processing.

    The Gram matrix holds UE k's partners (the UEs served by any AP of M_k)
    under P-MMSE and all K UEs under MMSE; the local solves run over
    sum_{l in M_k} |D_l| UEs under LP-MMSE and K |M_k| under L-MMSE.
    """
    aps = assignment.serving_aps(k)
    K = assignment.num_ues
    gram_ues = int(assignment.serves[aps].any(axis=0).sum()) if scheme == "P-MMSE" else K
    served_sum = int(assignment.serves[aps].sum()) if scheme == "LP-MMSE" else K * aps.size
    return _scheme_cost(scheme, cfg, aps.size, gram_ues, served_sum)


def _scheme_cost(scheme: str, cfg: SimulationConfig, num_aps: int, gram_ues: int,
                 served_sum: int) -> dict:
    """Costs of a UE with num_aps serving APs, gram_ues UEs in its Gram matrix
    and served_sum UEs over its local solves. Estimation costs (N*tau_p + N^2)
    per demanded estimate; combining follows the Hermitian outer-product /
    factor-and-solve convention (see OpCounter)."""
    N = cfg.antennas_per_ap
    est_unit = N * cfg.pilot_len + N * N
    n = N * num_aps
    if scheme == "MR":
        return {"estimation": est_unit * num_aps, "combining": 0}
    if scheme in ("MMSE", "P-MMSE"):
        return {
            "estimation": est_unit * gram_ues * num_aps,
            "combining": (n * n + n) // 2 * gram_ues + n * n + (n**3 - n) // 3,
        }
    if scheme in ("LP-MMSE", "L-MMSE"):
        return {
            "estimation": est_unit * served_sum,
            "combining": (N * N + N) // 2 * served_sum + ((N**3 - N) // 3 + N * N) * num_aps,
        }
    raise ValueError(f"unknown scheme {scheme!r}")


def measured_counts(scheme: str, k: int, ctx: SetupContext, hhat: np.ndarray) -> dict:
    """Instrumented costs from actually running UE k's combiner once."""
    counter = OpCounter()
    combiner_single(scheme, k, hhat, ctx, counter=counter)
    return {
        "estimation": counter.estimation_mults(ctx.cfg.antennas_per_ap, ctx.cfg.pilot_len),
        "combining": counter.combining_mults,
    }


@dataclass
class ScalabilityRow:
    num_ues: int
    num_aps: int
    max_cluster_size: int
    max_fronthaul: int
    max_pmmse_mults: int
    max_lpmmse_mults: int
    within_bounds: bool


def assert_scalable(cfg: SimulationConfig, ue_counts) -> tuple:
    """Grow the network at fixed density and check the scalability witnesses.

    For each K the area scales to keep AP/UE densities fixed; the admission
    algorithm must keep every |D_l| <= tau_p, the distributed fronthaul under
    (tau_u + tau_d) * tau_p, and the P-MMSE / LP-MMSE per-UE costs under the
    K-independent bound implied by the neighbor cap.
    """
    rows = []
    ref_area = cfg.area_side_km**2
    ap_density = cfg.num_aps / ref_area
    ue_density = cfg.num_ues / ref_area
    m_cap = cfg.max_neighbors + 1
    p_cap = (cfg.pilot_len - 1) * m_cap + 1
    pmmse_bound = multiplication_bound("P-MMSE", cfg, m_cap, p_cap)
    lpmmse_bound = multiplication_bound("LP-MMSE", cfg, m_cap, p_cap)
    fronthaul_bound = (cfg.ul_data_len + cfg.dl_data_len) * cfg.pilot_len

    for idx, K in enumerate(ue_counts):
        area = K / ue_density
        side = float(np.sqrt(area))
        L = int(round(ap_density * area))
        scaled = cfg.replace(num_ues=int(K), num_aps=L, area_side_km=side)
        topo = generate_topology(scaled, stream(scaled.seed, idx, TOPOLOGY))
        assignment = clustering.build_assignment(scaled, topo)
        sizes = assignment.cluster_sizes()
        loads = fronthaul_load("distributed", assignment, scaled)[:, 1:].sum(axis=1)
        pm = max(sum(multiplication_count("P-MMSE", k, assignment, scaled).values())
                 for k in range(scaled.num_ues))
        lm = max(sum(multiplication_count("LP-MMSE", k, assignment, scaled).values())
                 for k in range(scaled.num_ues))
        ok = (
            int(sizes.max()) <= scaled.pilot_len
            and int(loads.max()) <= fronthaul_bound
            and pm <= pmmse_bound
            and lm <= lpmmse_bound
        )
        rows.append(ScalabilityRow(scaled.num_ues, L, int(sizes.max()),
                                   int(loads.max()), pm, lm, ok))
    return all(r.within_bounds for r in rows), rows


def multiplication_bound(scheme: str, cfg: SimulationConfig, m_cap: int, p_cap: int) -> int:
    """K-independent cost ceiling from |M_k| <= m_cap, |P_k| <= p_cap, |D_l| <= tau_p."""
    if scheme not in ("P-MMSE", "LP-MMSE"):
        raise ValueError(f"no K-independent bound for scheme {scheme!r}")
    return sum(_scheme_cost(scheme, cfg, m_cap, p_cap, m_cap * cfg.pilot_len).values())


def cost_table_rows(assignment, cfg: SimulationConfig) -> list:
    """CSV rows (entity, index, scheme, metric, value) for the account command."""
    rows = []
    mode_loads = {
        "centralized": fronthaul_load("centralized", assignment, cfg),
        "distributed": fronthaul_load("distributed", assignment, cfg),
    }
    metrics = ("fronthaul_pilot", "fronthaul_ul", "fronthaul_dl")
    for mode, loads in mode_loads.items():
        for l in range(assignment.num_aps):
            for metric, value in zip(metrics, loads[l]):
                rows.append(("ap", l, mode, metric, int(value)))
    for scheme in cfg.schemes:
        for k in range(assignment.num_ues):
            counts = multiplication_count(scheme, k, assignment, cfg)
            rows.append(("ue", k, scheme, "estimation_mults", counts["estimation"]))
            rows.append(("ue", k, scheme, "combining_mults", counts["combining"]))
    return rows
