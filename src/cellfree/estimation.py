"""Pilot despreading and per-AP MMSE channel estimation.

Everything that depends only on channel statistics is computed once per
setup: the pilot-correlation matrices Psi_tl, the estimation filters
sqrt(p_k*tau_p) R_kl Psi_tl^{-1}, the estimate covariances
B_kl = p_k*tau_p R_kl Psi_tl^{-1} R_kl, and the error covariances
C_kl = R_kl - B_kl. Per coherence block only the despreaded pilot signal and
the filter multiply remain; estimates are materialized lazily for exactly
the (UE, AP) pairs a processing scheme demands. With one antenna per AP
every N x N matrix is a scalar: the filters are a division, and a demand
that covers every pair (centralized uplink, all-serve-all clusters) is
computed in one elementwise whole-table pass straight into the estimate
array instead of pair by pair.
"""

import numpy as np

from .config import SimulationConfig
from .clustering import ClusterAssignment, compute_partners
from .rng import complex_normal
from .topology import Topology


class SetupContext:
    """Statistics shared by all channel realizations of one setup."""

    def __init__(self, topology: Topology, assignment: ClusterAssignment,
                 ul_power: np.ndarray, cfg: SimulationConfig):
        K, L = topology.beta.shape
        N = topology.antennas_per_ap
        tau_p = cfg.pilot_len
        if np.any(assignment.pilot_of < 0):
            raise ValueError("all UEs must be admitted before estimation")

        self.topology = topology
        self.assignment = assignment
        self.cfg = cfg
        self.ul_power = np.asarray(ul_power, dtype=float)
        self.pilot_of = assignment.pilot_of

        R = topology.R
        eye = np.eye(N)
        # Psi_tl = sum_{i in S_t} tau_p p_i R_il + sigma^2 I  -> (tau_p, L, N, N)
        weights = np.zeros((tau_p, K))
        weights[self.pilot_of, np.arange(K)] = tau_p * self.ul_power
        self.psi = np.einsum("tk,klmn->tlmn", weights, R) + cfg.noise_ul_w * eye

        # statistical filters A_kl = sqrt(p_k tau_p) R_kl Psi_{t_k l}^{-1},
        # precomputed once; R Psi^{-1} = (Psi^{-1} R)^H for Hermitian inputs
        psi_of_ue = self.psi[self.pilot_of]                    # (K, L, N, N)
        if N == 1:
            # Psi is real: complex division multiplies by 1/Psi, as the solve does
            self.psi_inv_R = R / psi_of_ue
        else:
            self.psi_inv_R = np.linalg.solve(psi_of_ue, R)     # Psi_{t_k l}^{-1} R_kl
        scale = np.sqrt(self.ul_power * tau_p)[:, None, None, None]
        self.filter = scale * np.conj(np.swapaxes(self.psi_inv_R, -1, -2))
        # estimate covariance B and error covariance C = R - B
        self.B = scale * self.filter @ R
        self.B = 0.5 * (self.B + np.conj(np.swapaxes(self.B, -1, -2)))
        self.C = R - self.B
        self.C = 0.5 * (self.C + np.conj(np.swapaxes(self.C, -1, -2)))
        # sum_i p_i C_il, the statistical part of the centralized noise matrix
        self.C_weighted_sum = np.einsum("k,klmn->lmn", self.ul_power, self.C)

        # despreading weights: y_tl = sum_{i in S_t} sqrt(tau_p p_i) h_il + noise
        self._despread = np.zeros((tau_p, K))
        self._despread[self.pilot_of, np.arange(K)] = np.sqrt(tau_p * self.ul_power)

        self._partners = None
        self._noise_cache = {}

    def partners(self) -> np.ndarray:
        if self._partners is None:
            self._partners = compute_partners(self.assignment)
        return self._partners

    def noise_matrix(self, k: int, partner_only: bool = False) -> np.ndarray:
        """Z_k on UE k's subspace: blockdiag of sum_i p_i C_il + sigma^2 I.

        With partner_only the statistical sum runs over the partner set only
        (the regularizer of partial MMSE combining); otherwise over all UEs.
        Only the centralized combiners on DCC clusters and the single-UE
        reference paths (`optimal_sinr`, `combiner_single`) use it. When every
        AP serves every UE the combiners apply Z^-1 block by block from
        `C_weighted_sum` instead, and the SINR evaluation works on the full
        L*N space with `C_weighted_sum`; neither caches anything per UE.
        """
        key = (k, partner_only)
        if key in self._noise_cache:
            return self._noise_cache[key]
        aps = self.assignment.serving_aps(k)
        N = self.topology.antennas_per_ap
        if partner_only:
            members = np.flatnonzero(self.partners()[k])
            csum = np.einsum("k,klmn->lmn", self.ul_power[members], self.C[members][:, aps])
        else:
            csum = self.C_weighted_sum[aps]
        n = N * len(aps)
        Z = np.zeros((n, n), dtype=complex)
        for j, block in enumerate(csum):
            Z[j * N:(j + 1) * N, j * N:(j + 1) * N] = block
        Z[np.diag_indices(n)] += self.cfg.noise_ul_w
        self._noise_cache[key] = Z
        return Z


class EstimationBundle:
    """Per-batch pilot observations and lazily computed MMSE estimates."""

    def __init__(self, ctx: SetupContext, channels: np.ndarray, rng):
        self.ctx = ctx
        self.channels = channels
        batch, K, L, N = channels.shape
        self.y_pilot = complex_normal(rng, (batch, ctx.cfg.pilot_len, L, N))
        self.y_pilot *= np.sqrt(ctx.cfg.noise_ul_w)
        # despread pilots added in place: no third (B, tau_p, L, N) array
        self.y_pilot += (ctx._despread @ channels.reshape(batch, K, L * N)).reshape(
            self.y_pilot.shape)
        self.hhat = np.zeros_like(channels)
        self._computed = np.zeros((K, L), dtype=bool)

    def ensure(self, mask: np.ndarray) -> None:
        """Materialize estimates for every (UE, AP) pair flagged in mask."""
        fresh = mask & ~self._computed
        if fresh.all() and self.hhat.shape[-1] == 1:
            # the whole table at one antenna: each UE's pilot row straight into
            # hhat (SetupContext has indexed with the pilot numbers already; mode
            # "raise" would make take copy through a second batch array), then
            # the scalar filters in place
            np.take(self.y_pilot, self.ctx.pilot_of, axis=1, out=self.hhat, mode="clip")
            self.hhat *= self.ctx.filter[..., 0]
            self._computed[...] = True
            return
        todo = np.argwhere(fresh)
        if todo.size == 0:
            return
        ues, aps = todo[:, 0], todo[:, 1]
        filters = self.ctx.filter[ues, aps]                       # (P, N, N)
        y = self.y_pilot[:, self.ctx.pilot_of[ues], aps, :]       # (B, P, N)
        self.hhat[:, ues, aps, :] = np.moveaxis(filters @ np.moveaxis(y, 0, -1), -1, 0)
        self._computed[ues, aps] = True

    def ensure_all(self) -> None:
        self.ensure(np.ones(self._computed.shape, dtype=bool))
