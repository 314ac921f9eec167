"""Uplink/downlink transmit-power selection.

Uplink: full power (a robust scalable baseline). Downlink: network-wide equal
power per UE for centralized precoding, and per-AP square-root-weighted
sharing of the AP budget for distributed precoding. The duality construction
computes the downlink powers that replicate given uplink SINRs exactly when
precoders are the normalized combiners; it is an analysis facility and a
strong self-consistency check, not the default policy.
"""

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterAssignment
from .config import SimulationConfig
from .se import NumericError, UatfMoments, dl_sinr_from_ul_moments, uatf_sinr
from .topology import Topology


class InfeasibilityError(RuntimeError):
    """The duality linear system has no feasible power vector."""


def ul_full_power(cfg: SimulationConfig) -> np.ndarray:
    """p_i = P for every UE."""
    return np.full(cfg.num_ues, cfg.ue_power_w)


def dl_centralized_equal(cfg: SimulationConfig) -> np.ndarray:
    """rho_i = rho / tau_p; per-AP budgets hold since |D_l| <= tau_p."""
    return np.full(cfg.num_ues, cfg.ap_power_w / cfg.pilot_len)


def dl_distributed_proportional(assignment: ClusterAssignment, topology: Topology,
                                cfg: SimulationConfig) -> np.ndarray:
    """(K, L) per-AP powers rho_kl = rho * sqrt(beta_kl) / sum_served sqrt(beta).

    Each AP spends exactly its budget, split in favor of served UEs with
    stronger channels; UEs outside D_l get exactly zero.
    """
    ues, aps, _ = assignment.pairs()
    root_beta = np.zeros(topology.beta.shape)
    root_beta[ues, aps] = np.sqrt(topology.beta[ues, aps])
    totals = root_beta.sum(axis=0)  # per AP
    rho = np.zeros_like(root_beta)
    active = totals > 0
    rho[:, active] = cfg.ap_power_w * root_beta[:, active] / totals[active]
    return rho


@dataclass
class DualityResult:
    rho: np.ndarray        # DL powers replicating the UL SINRs
    gamma: np.ndarray      # the UL SINR targets
    dl_sinr: np.ndarray    # DL SINR evaluated from the same moments
    total_ul: float        # sum p_i / sigma_ul^2
    total_dl: float        # sum rho_i / sigma_dl^2


def duality_power(moments: UatfMoments, ul_power: np.ndarray,
                  noise_ul_w: float, noise_dl_w: float,
                  sinr_rtol: float = 1e-6, power_rtol: float = 1e-9) -> DualityResult:
    """DL powers achieving the UL SINRs with normalized-combiner precoding.

    Builds the diagonal gain matrix and the coupling matrix from the
    use-and-then-forget moments and solves (Gamma - Sigma) rho = 1 sigma_dl^2.
    Verifies the total-power identity and the per-UE SINR match before
    returning; both must hold up to the given relative tolerances.
    """
    gamma = uatf_sinr(moments, ul_power, noise_ul_w)
    if np.any(gamma <= 0):
        raise InfeasibilityError("nonpositive uplink SINR; duality needs served, powered UEs")
    K = gamma.size
    a2 = np.abs(moments.signal) ** 2 / moments.combiner_norm
    big_gamma = a2 / gamma
    sigma_mat = moments.cross.T / moments.combiner_norm[None, :]
    sigma_mat[np.arange(K), np.arange(K)] -= a2
    system = np.diag(big_gamma) - sigma_mat
    try:
        rho = np.linalg.solve(system, np.full(K, noise_dl_w))
    except np.linalg.LinAlgError as exc:
        raise InfeasibilityError("Gamma - Sigma is singular") from exc
    if np.any(rho < -1e-12 * max(noise_dl_w, float(np.max(np.abs(rho))))):
        raise NumericError(f"negative duality power: {rho.min()}")
    rho = np.maximum(rho, 0.0)

    total_ul = float(np.sum(ul_power) / noise_ul_w)
    total_dl = float(np.sum(rho) / noise_dl_w)
    if abs(total_dl - total_ul) > power_rtol * abs(total_ul):
        raise NumericError(
            f"duality total-power identity violated: {total_dl} vs {total_ul}"
        )
    dl_sinr = dl_sinr_from_ul_moments(moments, rho, noise_dl_w)
    rel = np.abs(dl_sinr - gamma) / gamma
    if np.any(rel > sinr_rtol):
        raise NumericError(
            f"duality SINR mismatch up to relative {rel.max():.3e} (tol {sinr_rtol})"
        )
    return DualityResult(rho, gamma, dl_sinr, total_ul, total_dl)


def per_ap_dl_power(rho: np.ndarray, norm_local: np.ndarray,
                    norm_total: np.ndarray) -> np.ndarray:
    """Expected per-AP spend sum_i rho_i E{||w_il||^2} / E{v_i^H D v_i}.

    Diagnostic for power policies defined network-wide (equal allocation,
    duality): compares against the per-AP budget but never projects.
    """
    share = norm_local / norm_total[:, None]
    return rho @ share
