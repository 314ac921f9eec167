"""Pilot despreading and per-AP MMSE channel estimation.

Everything that depends only on channel statistics is computed once per
setup: the pilot-correlation matrices Psi_tl, the estimation filters
sqrt(p_k*tau_p) R_kl Psi_tl^{-1}, the estimate covariances
B_kl = p_k*tau_p R_kl Psi_tl^{-1} R_kl, and the error covariances
C_kl = R_kl - B_kl. Per coherence block only the despreaded pilot signal and
the filter multiply remain: a batch's estimates are computed once, when its
bundle is built, for exactly the (UE, AP) pairs its processing schemes
demand. With one antenna per AP every N x N matrix is a scalar: the filters
are a division, and a demand that covers every pair (centralized uplink,
all-serve-all clusters) is computed in one elementwise whole-table pass
straight into the estimate array instead of pair by pair.
"""

import numpy as np

from .config import SimulationConfig
from .clustering import ClusterAssignment, compute_partners
from .rng import complex_normal
from .topology import Topology, row_blocks


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
        # despreading weights: y_tl = sum_{i in S_t} sqrt(tau_p p_i) h_il + noise
        self._despread = np.sqrt(weights)
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


def despread(ctx: SetupContext, channels: np.ndarray, rng) -> np.ndarray:
    """(B, tau_p, L, N) despread pilot signal of a batch of (B, K, L, N)
    channels: y_tl = sum_{i in S_t} sqrt(tau_p p_i) h_il + noise."""
    batch, K, L, N = channels.shape
    y = complex_normal(rng, (batch, ctx.cfg.pilot_len, L, N))
    y *= np.sqrt(ctx.cfg.noise_ul_w)
    # despread pilots added in place: no third (B, tau_p, L, N) array
    y += (ctx._despread @ channels.reshape(batch, K, L * N)).reshape(y.shape)
    return y


class EstimationBundle:
    """One batch's MMSE estimates, a value once built.

    demand is the (K, L) mask of every estimate the batch uses (every pair
    when None). The constructor despreads the pilots and estimates exactly
    those pairs; the pilot signal goes when it returns, so that it never
    stays next to the estimates and the combiners built from them. Readers
    check _computed for the estimates they need and never write into hhat.
    """

    def __init__(self, ctx: SetupContext, channels: np.ndarray, rng, demand: np.ndarray = None):
        self.ctx = ctx
        self.channels = channels
        self.hhat = np.zeros_like(channels)
        self._computed = np.zeros(channels.shape[1:3], dtype=bool)
        if demand is None:
            demand = np.ones_like(self._computed)
        self.ensure(demand, despread(ctx, channels, rng))

    def ensure(self, mask: np.ndarray, y_pilot: np.ndarray) -> None:
        """The constructor's one estimation step: every (UE, AP) pair flagged
        in mask, from the despread pilot signal y_pilot."""
        if mask.all() and self.hhat.shape[-1] == 1:
            # the whole table at one antenna: each UE's pilot row straight into
            # hhat (SetupContext has indexed with the pilot numbers already; mode
            # "raise" would make take copy through a second batch array), then
            # the scalar filters in place
            np.take(y_pilot, self.ctx.pilot_of, axis=1, out=self.hhat, mode="clip")
            self.hhat *= self.ctx.filter[..., 0]
        else:
            # pair by pair, a row block of pairs at a time: each pair's
            # filter multiply is the same stacked product whatever the block
            batch, _, _, N = self.hhat.shape
            todo = np.argwhere(mask)
            for rows in row_blocks(len(todo), batch * N):
                ues, aps = todo[rows, 0], todo[rows, 1]
                filters = self.ctx.filter[ues, aps]                       # (P, N, N)
                y = y_pilot[:, self.ctx.pilot_of[ues], aps, :]            # (B, P, N)
                self.hhat[:, ues, aps, :] = np.moveaxis(filters @ np.moveaxis(y, 0, -1), -1, 0)
                del y           # before the next block's exists
        self._computed |= mask

    def require(self, mask: np.ndarray, reader: str) -> None:
        """Raise ValueError unless every estimate flagged in mask was computed."""
        if np.any(mask & ~self._computed):
            raise ValueError(f"{reader} needs estimates outside the bundle's demand")
