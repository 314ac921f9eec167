"""Pilot despreading and per-AP MMSE channel estimation.

Everything that depends only on channel statistics is computed once per
setup, which keeps what its batches read: the pilot-correlation matrices
Psi_tl, the despreading weights, the estimation filters
sqrt(p_k*tau_p) R_kl Psi_tl^{-1}, and the error covariances C_kl = R_kl - B_kl
with their power-weighted sum. Psi^{-1} R and the estimate covariances
B_kl = p_k*tau_p R_kl Psi_tl^{-1} R_kl, which only the MR closed forms read,
are built on first read by the constructor's expressions, with its bits.
Per coherence block only the despreaded pilot signal and
the filter multiply remain: a batch's estimates are computed once, when its
bundle is built, for exactly the (UE, AP) pairs its processing schemes
demand. A campaign in distributed operation with one pass builds one bundle
per chunk of a batch's realizations, each despreading the next rows of the
batch's pilot-noise stream. With one antenna per AP every N x N matrix is a
scalar: the filters are a division, and every demand is computed in one
elementwise whole-table pass straight into the estimate array, with +0.0 at
the pairs outside it, instead of pair by pair.
"""

from functools import cached_property

import numpy as np

from .config import SimulationConfig
from .clustering import ClusterAssignment, compute_partners
from .rng import complex_normal
from .topology import Topology, row_blocks


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """0.5 * (a + a^H) over the last two axes. From 256 KiB on, numpy adds
    into the temporary a^H and halves it in place, so this holds one array
    next to a."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


class SetupContext:
    """Statistics shared by all channel realizations of one setup, and its
    clustering view (serves, pairs, partners, demand_mask, local_statistics,
    noise_matrix), each entry built once, on first use.

    Construction releases each (K, L, N, N) intermediate once the next one
    exists: from 256 KiB arrays on, it holds at most three above R and psi.
    """

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
        # precomputed once; R Psi^{-1} = (Psi^{-1} R)^H for Hermitian inputs,
        # scaled in the memory of the conjugate transpose
        self._scale = np.sqrt(self.ul_power * tau_p)[:, None, None, None]
        self.filter = np.conj(np.swapaxes(self._psi_inv_R(), -1, -2))
        np.multiply(self._scale, self.filter, out=self.filter)
        # error covariance C = R - B; B goes once C exists
        self.C = _hermitian_part(R - self._estimate_covariance())
        # sum_i p_i C_il, the statistical part of the centralized noise matrix
        self.C_weighted_sum = np.einsum("k,klmn->lmn", self.ul_power, self.C)

        self._views = {}

    def _psi_inv_R(self) -> np.ndarray:
        R = self.topology.R
        psi_of_ue = self.psi[self.pilot_of]                    # (K, L, N, N)
        if R.shape[-1] == 1:
            # Psi is real: complex division multiplies by 1/Psi, as the solve does
            return np.divide(R, psi_of_ue, out=psi_of_ue)
        return np.linalg.solve(psi_of_ue, R)                   # Psi_{t_k l}^{-1} R_kl

    def _estimate_covariance(self) -> np.ndarray:
        return _hermitian_part(self._scale * self.filter @ self.topology.R)

    @cached_property
    def psi_inv_R(self) -> np.ndarray:
        return self._psi_inv_R()

    @cached_property
    def B(self) -> np.ndarray:
        return self._estimate_covariance()

    def _view(self, key, build):
        # every caller gets the same arrays: they are made read-only
        if key not in self._views:
            value = self._views[key] = build()
            for array in value if isinstance(value, tuple) else (value,):
                array.flags.writeable = False
        return self._views[key]

    def serves(self) -> np.ndarray:
        """The (L, K) serving mask assignment.serves, built once per setup:
        the one dense mask that per-setup and per-batch code reads."""
        return self._view("serves", lambda: self.assignment.serves)

    def pairs(self) -> tuple:
        """The serving pairs (ues, aps, slots) of assignment.pairs(), built
        once per setup."""
        return self._view("pairs", self.assignment.pairs)

    def partners(self) -> np.ndarray:
        return self._view("partners", lambda: compute_partners(self.assignment))

    def demand_mask(self, scheme: str) -> np.ndarray:
        """estimate_demand_mask(scheme, self)."""
        return self._view(("demand", scheme), lambda: estimate_demand_mask(scheme, self))

    def local_statistics(self, all_ues: bool = False) -> tuple:
        """(served, members, weight, statistics) of LP-MMSE, or of L-MMSE
        with all_ues, built once: served is assignment.served_table()'s
        (L, T) indices of D_l; members and weight are the (L, S) UEs each
        AP's Gram matrix sums over and their powers (zero on the padding);
        statistics is the (L, N, N) sum_s weight_ls C_{members_ls, l}."""
        def build():
            K, L = self.topology.beta.shape
            served, valid = self.assignment.served_table()
            if all_ues:
                members = np.broadcast_to(np.arange(K), (L, K))
                weight = np.broadcast_to(self.ul_power, (L, K))
            else:
                members, weight = served, self.ul_power[served] * valid
            statistics = np.einsum("ls,lsmn->lmn", weight, self.C[members, np.arange(L)[:, None]])
            return served, members, weight, statistics
        return self._view(("local", all_ues), build)

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
        def build():
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
            return Z
        return self._view(("noise", k, partner_only), build)


def estimate_demand_mask(scheme: str, ctx: SetupContext) -> np.ndarray:
    """(K, L) mask of channel estimates the scheme's combiners consume."""
    serves = ctx.serves()
    K = serves.shape[1]
    if scheme in ("MR", "LP-MMSE"):
        return serves.T.copy()
    if scheme in ("MMSE", "L-MMSE"):
        # every UE's estimate at every AP that serves anyone
        mask = np.zeros((K, serves.shape[0]), dtype=bool)
        mask[:, serves.any(axis=1)] = True
        return mask
    if scheme == "P-MMSE":
        # float counts (<= K, so exact) let the product run on BLAS
        return (ctx.partners().astype(float) @ serves.T) > 0
    raise ValueError(f"unknown scheme {scheme!r}")


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
        # at one antenna ensure writes every entry
        self.hhat = np.empty_like(channels) if channels.shape[-1] == 1 else np.zeros_like(channels)
        self._computed = np.zeros(channels.shape[1:3], dtype=bool)
        if demand is None:
            demand = np.ones_like(self._computed)
        self.ensure(demand, despread(ctx, channels, rng))

    def ensure(self, mask: np.ndarray, y_pilot: np.ndarray) -> None:
        """The constructor's one estimation step: every (UE, AP) pair flagged
        in mask, from the despread pilot signal y_pilot."""
        if self.hhat.shape[-1] == 1:
            # the whole table at one antenna, whatever the demand: each UE's
            # pilot row straight into hhat (SetupContext has indexed with the
            # pilot numbers already; mode "raise" would make take copy through a
            # second batch array), the scalar filters in place, and +0.0 at the
            # pairs outside the demand
            np.take(y_pilot, self.ctx.pilot_of, axis=1, out=self.hhat, mode="clip")
            self.hhat *= self.ctx.filter[..., 0]
            if not mask.all():
                np.copyto(self.hhat, 0, where=~mask[None, :, :, None])
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
