"""Receive combining and duality-based precoding.

Batched implementations (leading axis = channel realization) of

* MR: v_kl = hhat_kl at serving APs,
* MMSE: the SINR-optimal centralized combiner on the compacted
  N*|M_k|-dimensional subspace of UE k's serving APs. When every AP serves
  every UE, all UEs share the full L*N-dimensional space and the matrix
  H P H^H + Z, with Z block diagonal (one N x N block per AP). The
  push-through identity (Z + H P H^H)^-1 H P = Z^-1 H S (I + S H^H Z^-1 H S)^-1 S,
  S = P^1/2, then gives every combiner from Z^-1 applied block by block and
  one K x K solve per realization; I + S H^H Z^-1 H S has eigenvalues >= 1.
* P-MMSE: same structure but with interference/statistics restricted to the
  partner set P_k (UEs sharing at least one serving AP),
* LP-MMSE: per-AP N x N regularized solve over the UEs that AP serves,
* L-MMSE: the unscalable variant of LP-MMSE summing over all K UEs,

plus the normalized precoders w = v / sqrt(E{v^H D v}) scaled by the
allocated downlink powers. Single-realization reference versions mirror the
batched code path and carry an operation counter used to cross-check the
complexity accounting.
"""

from dataclasses import dataclass

import numpy as np

from .estimation import EstimationBundle, SetupContext
from .topology import row_blocks


class DegeneratePrecoderError(RuntimeError):
    """E{v^H D v} = 0: the UE is never actually served by its combiner."""


@dataclass
class OpCounter:
    """Complex-multiplication tally per the solve-cost convention.

    Hermitian outer products cost (n^2+n)/2, a factorization plus one
    right-hand-side solve costs n^2 + (n^3-n)/3, and each demanded channel
    estimate costs N*tau_p (despreading) + N^2 (filter multiply).
    """

    estimates: int = 0
    combining_mults: int = 0

    def count_estimate(self):
        self.estimates += 1

    def outer_product(self, n: int):
        self.combining_mults += (n * n + n) // 2

    def factor_and_solve(self, n: int):
        self.combining_mults += n * n + (n**3 - n) // 3

    def estimation_mults(self, num_antennas: int, pilot_len: int) -> int:
        return self.estimates * (num_antennas * pilot_len + num_antennas**2)


def _gram(p: np.ndarray, hh: np.ndarray) -> np.ndarray:
    """sum_i p_i hh_i hh_i^H per realization: hh (..., S, n), p (S,) or any
    shape broadcasting against (..., n, S) -> (..., n, n)."""
    return (np.swapaxes(hh, -1, -2) * p) @ np.conj(hh)


def _solve_hermitian(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve with pseudo-inverse semantics on singular input.

    A: (..., n, n) Hermitian, rhs: (..., n, m). The fast path is a plain solve
    (A is positive definite whenever the noise power is positive); if LAPACK
    reports singularity the solution is recomputed from an eigendecomposition
    with eigenvalues below 1e-12 * max discarded.
    """
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(A)
        cutoff = 1e-12 * np.max(np.abs(vals), axis=-1, keepdims=True)
        inv_vals = np.where(np.abs(vals) > cutoff, 1.0 / vals, 0.0)
        proj = np.einsum("...nm,...nk->...mk", np.conj(vecs), rhs)
        return np.einsum("...nm,...mk->...nk", vecs, inv_vals[..., None] * proj)


def compute_combiners(scheme: str, bundle: EstimationBundle, sinr: np.ndarray = None) -> np.ndarray:
    """(B, K, L, N) combining vectors, exactly zero outside serving APs.

    sinr, a (B, K) array, is for MMSE and P-MMSE combining on an
    all-serve-all network only (where P-MMSE is MMSE), which write there
    the centralized bound's instantaneous SINRs from their own solve
    (centralized_mmse_combiner). Raises ValueError when the bundle lacks an
    estimate the scheme reads.
    """
    bundle.require(bundle.ctx.demand_mask(scheme), f"{scheme} combining")
    if sinr is not None and not (scheme in ("MMSE", "P-MMSE")
                                 and bundle.ctx.assignment.all_serve_all):
        raise ValueError(f"{scheme} combining here gives no SINR of its own")
    if scheme == "MR":
        return mr_combiner(bundle)
    if scheme in ("LP-MMSE", "L-MMSE"):
        return local_mmse_combiner(bundle, all_ues=(scheme == "L-MMSE"))
    if scheme in ("MMSE", "P-MMSE"):
        return centralized_mmse_combiner(bundle, partial=(scheme == "P-MMSE"), sinr=sinr)
    raise ValueError(f"unknown scheme {scheme!r}")


def mr_combiner(bundle: EstimationBundle) -> np.ndarray:
    """The estimates masked to the serving APs.

    When the bundle holds estimates only at serving pairs (MR's own demand,
    LP-MMSE's, or every pair when every AP serves every UE), the others are
    still zero and the mask changes nothing: the result is bundle.hhat
    itself, not a copy. Callers read combiners and never write into them.
    """
    serving = bundle.ctx.assignment.serves.T
    if not np.any(bundle._computed & ~serving):
        return bundle.hhat
    return bundle.hhat * serving[None, :, :, None]


def local_mmse_combiner(bundle: EstimationBundle, all_ues: bool = False) -> np.ndarray:
    """LP-MMSE (or L-MMSE with all_ues): per-AP N x N regularized solves.

    All APs are solved at once: each AP's served UEs are gathered into a
    table padded to the largest |D_l|, with zero weight on the padding.
    L-MMSE sums over all K UEs at every AP instead. The tables and the
    statistical sums come once per setup (SetupContext.local_statistics);
    the gathers and solves run a row block of realizations at a time.
    """
    ctx = bundle.ctx
    L = ctx.topology.beta.shape[1]
    N = ctx.topology.antennas_per_ap
    p = ctx.ul_power
    served, valid, members, weight, statistics = ctx.local_statistics(all_ues)
    aps = np.arange(L)[:, None]
    ls, ts = np.nonzero(valid)
    ues = served[ls, ts]
    v = np.zeros_like(bundle.hhat)
    # next to the estimates and the combiners, a block's temporaries (at
    # most four (L, S, N) arrays a realization at once) share one budget
    for rows in row_blocks(v.shape[0], 4 * L * members.shape[1] * N):
        hhat = bundle.hhat[rows]
        gram = _gram(weight[:, None, :], hhat[:, members, aps, :])  # gathers (b, L, S, N)
        gram += statistics
        gram += ctx.cfg.noise_ul_w * np.eye(N)
        rhs = np.swapaxes(hhat[:, served, aps, :], -1, -2)          # (b, L, N, T)
        sol = np.swapaxes(_solve_hermitian(gram, rhs), -1, -2)      # (b, L, T, N)
        v[rows, ues, ls, :] = p[ues][None, :, None] * sol[:, ls, ts, :]
        del gram, rhs, sol      # before the next block's exist
    return v


def centralized_mmse_combiner(bundle: EstimationBundle, partial: bool = False,
                              sinr: np.ndarray = None) -> np.ndarray:
    """MMSE / P-MMSE combining on each UE's compacted subspace.

    When every AP serves every UE, sinr (B, K), if given, receives the
    maximal instantaneous SINR x_k / (1 - x_k) that MMSE combining attains,
    x_k = p_k h_k^H (Z + H P H^H)^-1 h_k, with 1 - x_k = [A^-1]_kk from the
    K x K solve.
    """
    ctx = bundle.ctx
    K, L = ctx.topology.beta.shape
    N = ctx.topology.antennas_per_ap
    p = ctx.ul_power
    B = bundle.hhat.shape[0]

    if ctx.assignment.all_serve_all:
        # the push-through identity of the module docstring, a row block of
        # realizations at a time; every UE is a partner of every other, so
        # P-MMSE has MMSE's Z and combiners
        s = np.sqrt(p)
        z = ctx.C_weighted_sum + ctx.cfg.noise_ul_w * np.eye(N)        # (L, N, N)
        # Z is real at N = 1; complex already, so no block casts it again
        z_real = z.real[..., 0].astype(complex)
        v = np.empty_like(bundle.hhat)
        # a block holds two (K, L, N) temporaries a realization at once
        for rows in row_blocks(B, 2 * K * L * N):
            hhat = bundle.hhat[rows]
            b = hhat.shape[0]
            if N == 1:
                x = hhat / z_real
            else:
                x = _solve_hermitian(z, np.moveaxis(hhat, (2, 3), (0, 1)).reshape(L, N, b * K))
                x = np.moveaxis(x.reshape(L, N, b, K), (0, 1), (2, 3))
            x = x.reshape(b, K, L * N)                                 # rows (Z^-1 H)^T
            hh = hhat.reshape(b, K, L * N)
            A = s[:, None] * (np.conj(hh) @ np.swapaxes(x, 1, 2)) * s  # S H^H Z^-1 H S
            A += np.eye(K)
            sm = _solve_hermitian(A, np.diag(s))                       # A^-1 S
            if sinr is not None:
                # 1 - x_k; A's row of a UE without power is e_k, so x_k = 0
                d = np.divide(np.real(np.diagonal(sm, axis1=1, axis2=2)), s,
                              out=np.ones((b, K)), where=s > 0)
                sinr[rows] = (1 - d) / d
            sm = s[:, None] * sm                                       # S A^-1 S
            np.matmul(np.swapaxes(sm, 1, 2), x, out=v[rows].reshape(b, K, L * N))
            del x               # before the next block's exists
        return v

    v = np.zeros_like(bundle.hhat)
    partners = ctx.partners()
    # the estimates with (UE, AP) pairs on one axis: each UE's gather is one take
    pairs = bundle.hhat.reshape(B, K * L, N)
    for k in range(K):
        aps = ctx.assignment.serving_aps(k)
        if aps.size == 0:
            continue
        members = np.flatnonzero(partners[k]) if partial else np.arange(K)
        n = N * aps.size
        hh = np.take(pairs, members[:, None] * L + aps, axis=1).reshape(B, members.size, n)
        gram = _gram(p[members], hh)
        gram += ctx.noise_matrix(k, partner_only=partial)
        rhs = bundle.hhat[:, k, aps, :].reshape(B, n, 1)
        vc = p[k] * _solve_hermitian(gram, rhs)
        v[:, k, aps, :] = vc.reshape(B, aps.size, N)
    return v


def optimal_sinr(bundle: EstimationBundle, k: int) -> np.ndarray:
    """(B,) maximal instantaneous SINR for UE k.

    This is the generalized-Rayleigh-quotient maximum
    p_k hhat_k^H D (sum_{i != k} p_i D hhat_i hhat_i^H D + Z_k)^† D hhat_k
    attained by MMSE combining.
    """
    ctx = bundle.ctx
    N = ctx.topology.antennas_per_ap
    p = ctx.ul_power
    bundle.require(ctx.assignment.serves[:, k], "optimal_sinr")    # every UE at M_k
    aps = ctx.assignment.serving_aps(k)
    B = bundle.hhat.shape[0]
    n = N * aps.size
    others = np.flatnonzero(np.arange(ctx.topology.beta.shape[0]) != k)
    hh = bundle.hhat[:, others[:, None], aps, :].reshape(B, others.size, n)
    gram = _gram(p[others], hh)
    gram += ctx.noise_matrix(k)
    rhs = bundle.hhat[:, k, aps, :].reshape(B, n)
    sol = _solve_hermitian(gram, rhs[..., None])[..., 0]
    return p[k] * np.real(np.einsum("bn,bn->b", np.conj(rhs), sol))


# ---------------------------------------------------------------------------
# precoder construction (uplink-downlink duality: w = v / sqrt(E{v^H D v}))
# ---------------------------------------------------------------------------

def precoder_scales(rho: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """sqrt(rho / norm) elementwise, the factor that turns a combiner block
    into a precoder block; zero where rho = 0 (not transmitted to).

    Raises DegeneratePrecoderError where a powered block has no energy.
    """
    active = rho > 0
    if np.any(active & (norm <= 0)):
        raise DegeneratePrecoderError("zero combiner energy where the downlink power is positive")
    return np.where(active, np.sqrt(rho / np.where(norm > 0, norm, 1.0)), 0.0)


def build_precoders_centralized(v: np.ndarray, rho: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """w_i = sqrt(rho_i) v_i / sqrt(E{v_i^H D_i v_i}), powers folded in.

    v: (B, K, L, N) masked combiners, rho: (K,) powers, norm: (K,) estimated
    E{v^H D v}. UEs with zero power are simply not transmitted to.
    """
    return v * precoder_scales(rho, norm)[None, :, None, None]


def build_precoders_distributed(v: np.ndarray, rho_per_ap: np.ndarray,
                                norm_per_ap: np.ndarray) -> np.ndarray:
    """Per-AP normalization: w_il = sqrt(rho_il) v_il / sqrt(E{||v_il||^2}).

    rho_per_ap, norm_per_ap: (K, L). Entries with rho_il = 0 stay zero.
    """
    return v * precoder_scales(rho_per_ap, norm_per_ap)[None, :, :, None]


# ---------------------------------------------------------------------------
# single-realization reference path (readable, instrumented)
# ---------------------------------------------------------------------------

def combiner_single(scheme: str, k: int, hhat, ctx: SetupContext,
                    counter: OpCounter = None) -> np.ndarray:
    """Combining vector of UE k for one realization, (L, N) layout.

    hhat is a (K, L, N) array of channel estimates; the counter, when given,
    records the estimates demanded and the multiplications spent for this UE
    alone (shared work is charged per UE, matching the per-UE accounting).
    """
    K, L, N = hhat.shape
    p = ctx.ul_power
    sigma2 = ctx.cfg.noise_ul_w
    aps = ctx.assignment.serving_aps(k)
    v = np.zeros((L, N), dtype=complex)

    def fetch(i, l):
        if counter is not None:
            counter.count_estimate()
        return hhat[i, l]

    if scheme == "MR":
        for l in aps:
            v[l] = fetch(k, l)
        return v

    if scheme in ("LP-MMSE", "L-MMSE"):
        for l in aps:
            members = np.arange(K) if scheme == "L-MMSE" else ctx.assignment.served_ues(l)
            gram = sigma2 * np.eye(N, dtype=complex)
            for i in members:
                hi = fetch(i, l)
                gram += p[i] * (np.outer(hi, np.conj(hi)) + ctx.C[i, l])
                if counter is not None:
                    counter.outer_product(N)
            v[l] = p[k] * _solve_hermitian(gram, hhat[k, l, :, None])[:, 0]
            if counter is not None:
                counter.factor_and_solve(N)
        return v

    if scheme in ("MMSE", "P-MMSE"):
        partial = scheme == "P-MMSE"
        members = np.flatnonzero(ctx.partners()[k]) if partial else np.arange(K)
        n = N * aps.size
        gram = ctx.noise_matrix(k, partner_only=partial).copy()
        for i in members:
            hi = np.concatenate([fetch(i, l) for l in aps])
            gram += p[i] * np.outer(hi, np.conj(hi))
            if counter is not None:
                counter.outer_product(n)
        rhs = np.concatenate([hhat[k, l] for l in aps])
        vc = p[k] * _solve_hermitian(gram, rhs[:, None])[:, 0]
        if counter is not None:
            counter.factor_and_solve(n)
        v[aps] = vc.reshape(aps.size, N)
        return v

    raise ValueError(f"unknown scheme {scheme!r}")
