"""Spectral-efficiency bounds and their Monte-Carlo accumulators.

Uplink, centralized: ergodic average of log2(1 + instantaneous SINR) with the
SINR computed from channel estimates and the analytic error-covariance noise
matrix (valid for any combiner).

Uplink, distributed: the use-and-then-forget bound - log2(1 + SINR) where the
SINR is a ratio of expectations accumulated across realizations (signal mean,
interference second moments, combiner norm). By uplink-downlink duality
these are the downlink block moments with unit scales, so a campaign that
accumulates those takes the uplink from them (UatfAccumulator.block_partial).

Downlink: the hardening bound with the same structure, driven by normalized
precoders, plus a genie-aided reference where the UE knows its instantaneous
effective channel. The bound can be accumulated per precoder block before
the normalizations are known (DownlinkBlockMoments), so it needs no second
pass over the realizations. With one block per UE (centralized operation)
so can the genie reference, from each realization's gain powers.

Both ratio-of-means bounds have the form
|E{g_kk}|^2 / (sum_i E{|g_ki|^2} - |E{g_kk}|^2 + noise): each has one
(numerator, denominator) helper, and their accumulators share one base that
keeps the replicas and finalizes. Every accumulator takes its constants
(powers, noise, prelog) when it is built, sums its batch partials through
BatchSums.merge and finalizes with no arguments, so a campaign merges and
finalizes all bounds in one loop each.

MR has closed forms (mr_closed_form_terms): written once for the downlink
with per-AP scales, the uplink moments are its unit-scale terms, transposed.

Monte-Carlo standard errors: ergodic-log bounds use the exact per-realization
std/sqrt(n); ratio-of-means bounds use batch means (the SE is recomputed per
realization batch, including that batch's own precoder normalization, and the
spread of those replicas gives the stderr). A negative campaign-wide
denominator within 3 such standard errors of zero is clamped to 1e-15; beyond
them, or when the spread cannot be estimated, NumericError is raised.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .combining import precoder_scales
from .estimation import EstimationBundle
from .topology import row_blocks


class NumericError(RuntimeError):
    """Monte-Carlo output inconsistent beyond sampling noise (likely a bug)."""


@dataclass
class UatfMoments:
    """The three expectation families of the statistics-only SINR.

    signal[k] = E{v_k^H D_k h_k},
    cross[k, i] = E{|v_k^H D_k h_i|^2},
    combiner_norm[k] = E{||D_k v_k||^2}.
    """

    signal: np.ndarray
    cross: np.ndarray
    combiner_norm: np.ndarray


def uatf_sinr(moments: UatfMoments, ul_power: np.ndarray, noise_w: float) -> np.ndarray:
    """Effective UL SINR of the use-and-then-forget bound."""
    return _safe_ratio(*_uatf_terms(moments, ul_power, noise_w))


def dl_sinr_from_ul_moments(moments: UatfMoments, rho: np.ndarray,
                            noise_dl_w: float) -> np.ndarray:
    """DL hardening-bound SINR when precoders are the normalized combiners.

    With w_i = v_i / sqrt(E{v_i^H D_i v_i}), every DL expectation is a rescale
    of a UL moment: E{h_k^H D_i w_i} = conj(signal[i]) / sqrt(norm[i]) for
    i = k and E{|h_k^H D_i w_i|^2} = cross[i, k] / norm[i].
    """
    scale = rho / moments.combiner_norm
    signal = np.sqrt(scale) * np.abs(moments.signal)
    return _safe_ratio(*_hardening_terms(signal, moments.cross.T * scale[None, :], noise_dl_w))


def _uatf_terms(moments: UatfMoments, ul_power: np.ndarray, noise_w: float) -> tuple:
    """(numerator, denominator) of the use-and-then-forget SINR."""
    num = ul_power * np.abs(moments.signal) ** 2
    den = moments.cross @ ul_power - num + noise_w * moments.combiner_norm
    return num, den


def _hardening_terms(signal: np.ndarray, second: np.ndarray, noise_w: float) -> tuple:
    """(numerator, denominator) of the hardening SINR.

    signal[k] = E{h_k^H D_k w_k} and second[k, i] = E{|h_k^H D_i w_i|^2}, with
    the powers folded into the precoders. Leading axes (realizations) are kept.
    """
    num = np.abs(signal) ** 2
    den = second.sum(axis=-1) - num + noise_w
    return num, den


def _power_sinr(q: np.ndarray, noise) -> np.ndarray:
    """Per-realization SINR q_kk / (sum_i q_ki - q_kk + noise) from the gain
    powers q[b, k, i] with the powers folded in: the genie-aided reference
    (q = |h_k^H D_i w_i|^2) and the centralized uplink (q = p_i |v_k^H h_i|^2,
    with a noise term per UE)."""
    num = np.diagonal(q, axis1=-2, axis2=-1)
    return _safe_ratio(num, q.sum(axis=-1) - num + noise)


def _safe_ratio(num, den):
    out = np.zeros_like(num, dtype=float)
    good = den > 0
    out[good] = num[good] / den[good]
    if np.any(~good & (num > 0)):
        raise NumericError("positive signal power with nonpositive denominator")
    return out


def se_from_sinr(sinr: np.ndarray, prelog: float) -> np.ndarray:
    return prelog * np.log2(1.0 + np.maximum(sinr, 0.0))


# ---------------------------------------------------------------------------
# per-batch Monte-Carlo terms
# ---------------------------------------------------------------------------

def combining_gains(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g[b, k, i] = v_k^H D_k h_i (the mask lives in v's zero blocks).

    With v = h and h = w it gives the downlink gains h_k^H D_i w_i.
    """
    B, K = v.shape[:2]
    ht = np.swapaxes(h.reshape(B, h.shape[1], -1), 1, 2)
    g = np.empty((B, K, h.shape[1]), dtype=np.result_type(v, h))
    # v is conjugated one row block of realizations at a time: a budget-sized
    # temporary, never a fourth batch array next to the channels, estimates
    # and combiners; each realization's product is the same BLAS call either
    # way
    blocks = row_blocks(B, v[0].size)
    vc = np.empty((blocks[0].stop,) + v.shape[1:], dtype=v.dtype)
    for rows in blocks:
        n = rows.stop - rows.start
        chunk = np.conj(v[rows], out=vc[:n]).reshape(n, K, -1)
        np.matmul(chunk, ht[rows], out=g[rows])
    return g


def combiner_norms(v: np.ndarray, per_ap: bool = False) -> tuple:
    """Batch sums of ||D_k v_k||^2, (K,), and with per_ap of ||v_kl||^2,
    (K, L); None in its place otherwise.

    Divided by the realization count they are the precoder normalizations
    E{v_k^H D_k v_k} and E{||v_kl||^2}. The energies are squared in place a
    row block of realizations at a time, and every sum over realizations
    adds them one by one in order, the order of numpy's reduction over the
    whole batch.
    """
    per_realization = np.empty(v.shape[:2])
    local = None
    for rows in row_blocks(v.shape[0], v[0].size):
        energy = np.abs(v[rows])
        np.square(energy, out=energy)
        per_realization[rows] = energy.sum(axis=(2, 3))
        if per_ap:
            local = _add_realizations(local, energy.sum(axis=3))
        del energy              # before the next block's exists
    return per_realization.sum(axis=0), local


def _add_realizations(total, rows: np.ndarray) -> np.ndarray:
    """total + rows[0] + rows[1] + ..., in that order (rows.sum(axis=0)
    when total is None): a batch sum over realizations taken a block at a
    time, with the bits of one reduction over the whole batch."""
    if total is None:
        return rows.sum(axis=0)
    return np.concatenate((total[None], rows)).sum(axis=0)


def instantaneous_sinr(v: np.ndarray, bundle: EstimationBundle,
                       ul_power: np.ndarray) -> np.ndarray:
    """(B, K) instantaneous effective SINR of the centralized bound.

    Uses the channel estimates of all UEs on each UE's serving subspace and
    the analytic noise matrix Z_k (estimation-error covariances of all UEs
    plus thermal noise, masked to the subspace). v is masked to the serving
    APs first, so entries outside them never count. All UEs are then
    evaluated at once on the full L*N space: Z_k is the restriction of
    blockdiag_l(sum_i p_i C_il) + sigma^2 I to UE k's serving blocks, so for
    a v_k that is zero outside them the full-space quadratic form equals
    v_k^H Z_k v_k exactly, and v_k^H h_i equals v_k^H D_k h_i. The mask and
    every term are applied a row block of realizations at a time: the
    masked combiners and their conjugate, which the gains and the quadratic
    form share, together take about one budget. Reads every estimate.
    """
    ctx = bundle.ctx
    bundle.require(np.ones_like(bundle._computed), "instantaneous_sinr")
    B, K = v.shape[:2]
    # complex already, so that the products cast no mask values block by block
    serving = ctx.assignment.serves.T[None, :, :, None].astype(complex)
    ht = np.swapaxes(bundle.hhat.reshape(B, K, -1), 1, 2)
    sinr = np.empty((B, K))
    for rows in row_blocks(B, 2 * v[0].size):
        vm = v[rows] * serving
        vc = np.conj(vm)
        g = vc.reshape(len(vc), K, -1) @ ht[rows]             # combining_gains(vm, hhat)
        zq = np.real(np.einsum("bklm,lmn,bkln->bk", vc, ctx.C_weighted_sum, vm))
        del vc
        energy = np.abs(vm)
        zq += ctx.cfg.noise_ul_w * np.sum(np.square(energy, out=energy), axis=(2, 3))
        sinr[rows] = _power_sinr(ul_power[None, None, :] * np.abs(g) ** 2, zq)
        del vm, energy          # before the next block's exist
    return sinr


# ---------------------------------------------------------------------------
# accumulators (mergeable in fixed batch order for bit-reproducibility)
# ---------------------------------------------------------------------------

class BatchSums:
    """Sums of batch partials, merged in fixed batch order.

    A partial is a dict with the batch's realization count n and one array
    per name; each named sum starts at zero at the first merge and is added
    in place. The accumulators below hold their constants (powers, noise,
    prelog) from construction, so every one merges and finalizes the same
    way; a two-pass campaign uses this class as is for its combiner-norm sums.
    """

    def __init__(self, *names):
        self.n = 0
        self.names = names

    def merge(self, partial: dict) -> None:
        self.n += partial["n"]
        for name in self.names:
            total = getattr(self, name, None)
            if total is None:
                total = np.zeros_like(partial[name])
                setattr(self, name, total)
            total += partial[name]

    def means(self) -> tuple:
        return tuple(getattr(self, name) / self.n for name in self.names)


class ErgodicLogAccumulator(BatchSums):
    """Mean and stderr of prelog * log2(1 + SINR_r) over realizations."""

    def __init__(self, prelog: float):
        super().__init__("log_sum", "log_sq_sum")
        self.prelog = prelog

    @staticmethod
    def batch_partial(sinr: np.ndarray) -> dict:
        logs = np.log2(1.0 + np.maximum(sinr, 0.0))
        return {"n": sinr.shape[0], "log_sum": logs.sum(axis=0),
                "log_sq_sum": (logs**2).sum(axis=0)}

    def finalize(self) -> tuple:
        mean = self.log_sum / self.n
        if self.n > 1:
            var = np.maximum(self.log_sq_sum - self.n * mean**2, 0.0) / (self.n - 1)
            stderr = np.sqrt(var / self.n)
        else:
            stderr = np.full_like(mean, np.nan)
        return self.prelog * mean, self.prelog * stderr


def _gain_sums(g: np.ndarray, q: np.ndarray) -> dict:
    """Batch sums from gains g[b, k, i] and their powers q = |g|^2:
    signal[k] = sum_b g[b, k, k] and cross[k, i] = sum_b q[b, k, i]."""
    return {"n": g.shape[0], "signal": np.einsum("bkk->k", g), "cross": q.sum(axis=0)}


class _RatioOfMeans(BatchSums):
    """Sums and batch-means replicas of a bound whose SINR is a ratio of
    expectations, |E{g_kk}|^2 / (sum_i E{|g_ki|^2} - |E{g_kk}|^2 + noise).

    Batch partials carry the subclass's sums plus one SE replica computed
    from the batch's own moments; the spread of the replicas gives the stderr.
    """

    def __init__(self, prelog: float, *names):
        super().__init__(*names)
        self.prelog = prelog
        self.den_replicas = []
        self.se_replicas = []

    def _replica(self, num: np.ndarray, den: np.ndarray) -> dict:
        """One batch's SE (NaN where its denominator is not positive)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            se = np.where(den > 0, self.prelog * np.log2(1.0 + np.maximum(num / den, 0.0)), np.nan)
        return {"den_replica": den, "se_replica": se}

    def merge(self, partial: dict) -> None:
        super().merge(partial)
        self.den_replicas.append(partial["den_replica"])
        self.se_replicas.append(partial["se_replica"])

    def _finalize(self, signal: np.ndarray, second: np.ndarray, num: np.ndarray,
                  den: np.ndarray) -> tuple:
        """(se, stderr) after the second-moment check and the denominator clamp.

        signal[k] = E{g_kk} and second[k, i] = E{|g_ki|^2} are the means the
        (num, den) terms were built from.
        """
        own = np.diag(second)
        if np.any(own - np.abs(signal) ** 2 < -1e-9 * np.maximum(own, 1e-300)):
            raise NumericError("second moment below squared mean beyond tolerance")
        den = self._clamp_denominator(den, num)
        return se_from_sinr(_safe_ratio(num, den), self.prelog), _replica_stderr(self.se_replicas)

    def _clamp_denominator(self, den, num):
        """Clamp a negative denominator within 3 batch-means standard errors of
        zero to 1e-15; a spread that cannot be estimated counts as beyond."""
        bad = (den <= 0) & (num > 0)
        if not np.any(bad):
            return den
        reps = np.stack(self.den_replicas)
        stderr = np.nanstd(reps, axis=0, ddof=1) / np.sqrt(reps.shape[0])
        within_noise = np.abs(den) <= 3.0 * stderr
        if np.any(bad & ~within_noise):
            raise NumericError(
                "negative interference denominator beyond 3 standard errors; "
                "increase num_realizations or suspect a combiner bug"
            )
        return np.where(bad, 1e-15, den)


class UatfAccumulator(_RatioOfMeans):
    """Use-and-then-forget moments of the gains g[b, k, i] = v_k^H D_k h_i
    and of the combiner norms ||D_k v_k||^2."""

    def __init__(self, ul_power: np.ndarray, noise_w: float, prelog: float):
        super().__init__(prelog, "signal", "cross", "norm")
        self.ul_power = ul_power
        self.noise_w = noise_w

    def batch_partial(self, v: np.ndarray, h: np.ndarray, norm: np.ndarray = None) -> dict:
        """norm: the batch sums of ||D_k v_k||^2 when the caller has them
        (combiner_norms(v)[0]); computed here otherwise."""
        g = combining_gains(v, h)
        partial = _gain_sums(g, np.abs(g) ** 2)
        partial["norm"] = combiner_norms(v)[0] if norm is None else norm
        return self._with_replica(partial)

    def block_partial(self, dl: dict, blocks: "PrecoderBlocks") -> dict:
        """The same sums by uplink-downlink duality, from the block sums of
        the batch's DownlinkBlockMoments.batch_partial, with no gain product.

        With unit block scales the downlink gains h_i^H v_p, summed over UE
        k's blocks p, are the conjugate uplink gains v_k^H D_k h_i: so
        signal[k] = conj(sum_p sig[p]), cross[k, i] is S[i] summed over UE
        k's block pairs, and norm[k] sums the energies of UE k's blocks.
        """
        signal, second = blocks.contract(np.ones(blocks.ues.size), dl["sig"], dl["S"])
        norm = np.bincount(blocks.ues, weights=dl["norm"], minlength=blocks.num_ues)
        partial = {"n": dl["n"], "signal": np.conj(signal), "cross": second.T, "norm": norm}
        return self._with_replica(partial)

    def _with_replica(self, partial: dict) -> dict:
        batch = UatfMoments(*(partial[name] / partial["n"] for name in self.names))
        partial.update(self._replica(*_uatf_terms(batch, self.ul_power, self.noise_w)))
        return partial

    def finalize(self) -> tuple:
        m = UatfMoments(*self.means())
        return self._finalize(m.signal, m.cross, *_uatf_terms(m, self.ul_power, self.noise_w))


class DownlinkAccumulator(_RatioOfMeans):
    """Hardening-bound moments of the gains g[b, k, i] = h_k^H D_i w_i, plus
    the genie-aided reference. Precoders arrive with powers folded in."""

    def __init__(self, noise_w: float, prelog: float):
        super().__init__(prelog, "signal", "cross")
        self.noise_w = noise_w
        self.genie = ErgodicLogAccumulator(prelog)

    def batch_partial(self, v: np.ndarray, h: np.ndarray, scales: np.ndarray,
                      batch_scales: np.ndarray) -> dict:
        """The partial of the precoders w = c v, with block scales c per UE
        (K,) or per AP (K, L): scales from the campaign-wide normalization
        (reported SE and genie), batch_scales from this batch's own (stderr
        replicas). Per UE both gain sets scale the columns of one gain
        matrix u[b, k, i] = h_k^H v_i; per AP each w exists one row block of
        realizations at a time."""
        if scales.ndim == 1:
            u = combining_gains(h, v)
            g, g_batchnorm = u * scales, u * batch_scales
        else:
            B, K = v.shape[:2]
            g = np.empty((B, K, K), dtype=complex)
            g_batchnorm = np.empty_like(g)
            for rows in row_blocks(B, v[0].size):
                g[rows] = combining_gains(h[rows], v[rows] * scales[:, :, None])
                g_batchnorm[rows] = combining_gains(h[rows], v[rows] * batch_scales[:, :, None])
        q = np.abs(g) ** 2
        partial = _gain_sums(g, q)
        partial["genie"] = ErgodicLogAccumulator.batch_partial(_power_sinr(q, self.noise_w))
        batch = _gain_sums(g_batchnorm, np.abs(g_batchnorm) ** 2)
        B = batch["n"]
        terms = _hardening_terms(batch["signal"] / B, batch["cross"] / B, self.noise_w)
        partial.update(self._replica(*terms))
        return partial

    def merge(self, partial: dict) -> None:
        super().merge(partial)
        self.genie.merge(partial["genie"])

    def finalize(self) -> tuple:
        signal, second = self.means()
        return self._finalize(signal, second, *_hardening_terms(signal, second, self.noise_w))

    def finalize_genie(self) -> tuple:
        return self.genie.finalize()


class PrecoderBlocks:
    """The combiner blocks v_p that the downlink precoders scale one by one.

    A precoder is w_i = sum_p c_p v_p over UE i's blocks, with the scale
    c_p = sqrt(rho_p / E{||v_p||^2}). Per-UE powers rho (K,) make each UE's
    whole combiner one block (centralized operation); per-AP powers (K, L)
    make block p UE ues[p]'s combiner at its serving AP aps[p] (distributed
    operation). Blocks are ordered by UE. The block second moments of UE i
    are kept for every ordered pair of its blocks, K * sum_i |M_i|^2 values.
    """

    def __init__(self, assignment, rho: np.ndarray):
        K = assignment.num_ues
        if rho.ndim == 1:
            self.ues, self.aps = np.arange(K), None
            self.rho = rho
            self._table_width = 0
        else:
            self.ues, self.aps = np.nonzero(assignment.serves.T)
            self.rho = rho[self.ues, self.aps]
            # the gains are computed per AP for its served UEs, where block
            # p sits in slot slots[p] of AP aps[p]
            self.served, _ = assignment.served_table()
            self.slots = (np.cumsum(assignment.serves, axis=1) - 1)[self.aps, self.ues]
            self._table_width = self.served.shape[1]
        self.num_ues = K
        self._counts = np.bincount(self.ues, minlength=K)
        self.num_pairs = int(np.sum(self._counts**2))

    @cached_property
    def groups(self) -> list:
        """UEs with equal block counts, handled together: (UEs, their blocks
        (n, m), their block pairs (n, m * m)). Built on first use, since the
        pair indices are as many as the block second moments."""
        counts = self._counts
        first = np.cumsum(counts) - counts
        first_pair = np.cumsum(counts**2) - counts**2
        groups = []
        for m in np.unique(counts):
            ues = np.flatnonzero(counts == m)
            groups.append((ues, first[ues][:, None] + np.arange(m),
                           first_pair[ues][:, None] + np.arange(m * m)))
        return groups

    def _gains(self, v: np.ndarray, h: np.ndarray) -> tuple:
        """g[k, p, b] = h_k^H v_p for every UE k and block p, and the block
        energies sum_b ||v_p||^2."""
        if self.aps is None:
            return np.moveaxis(combining_gains(h, v), 0, -1), combiner_norms(v)[0]
        vD = v[:, self.served, np.arange(v.shape[2])[:, None], :]        # (b, L, T, N)
        conj_g = np.swapaxes(h, 1, 2) @ np.conj(np.swapaxes(vD, -1, -2))  # (b, L, K, T)
        g = np.conj(conj_g[:, self.aps, :, self.slots])                     # (P, b, K)
        energy = np.sum(np.abs(vD) ** 2, axis=(0, 3))[self.aps, self.slots]
        return np.ascontiguousarray(np.moveaxis(g, -1, 0)), energy

    def moments(self, v: np.ndarray, h: np.ndarray, powers: bool = False) -> tuple:
        """Batch sums of the blocks: sig[p] = sum_b h_i^H v_p over UE i's own
        blocks p, S[k, q] = Re sum_b g[k, a, b] conj(g[k, a', b]) over the
        block pairs q = (a, a') of one UE, and the energies sum_b ||v_p||^2.
        The fourth value holds each realization's gain powers |g[k, p, b]|^2
        as (B, K, P) when powers is set, and is None otherwise.

        Realizations are taken in chunks whose temporaries together take
        about as much memory as the (B, K, L, N) batch: a copy of the
        channels, the per-AP gain table (distributed operation) and two
        copies of the block gains. S, and the products it sums, hold
        K * sum_i |M_i|^2 values, which grow with the cluster sizes and not
        with B; the campaign takes this path only when that count is at most
        a quarter of the batch array.
        """
        B, K, L, N = v.shape
        P = self.ues.size
        sig = np.zeros(P, dtype=complex)
        S = np.zeros((K, self.num_pairs))
        energy = np.zeros(P)
        temporaries = K * L * N + K * L * self._table_width + 2 * K * P
        chunk = -(-B // -(-temporaries // (K * L * N)))
        kept = [] if powers else None
        for start in range(0, B, chunk):
            g, e = self._gains(v[start:start + chunk], h[start:start + chunk])
            if powers:
                kept.append(np.abs(np.moveaxis(g, -1, 0)) ** 2)
            sig += g[self.ues, np.arange(P)].sum(axis=-1)
            energy += e
            for _, blocks, pairs in self.groups:
                gm = g[:, blocks]                                       # (K, n, m, b)
                prod = np.conj(gm) @ np.swapaxes(gm, -1, -2)           # (K, n, m, m)
                S[:, pairs] += np.real(prod).reshape(K, *pairs.shape)
        return sig, S, energy, np.concatenate(kept) if powers else None

    def contract(self, c: np.ndarray, sig: np.ndarray, S: np.ndarray) -> tuple:
        """Apply block scales c to the sums: signal[k] = sum_p c_p sig[p]
        over UE k's blocks and second[k, i] = c_i^T S[k, i] c_i."""
        K = self.num_ues
        signal = np.zeros(K, dtype=complex)
        second = np.zeros((K, K))
        for ues, blocks, pairs in self.groups:
            cb = c[blocks]
            signal[ues] = np.sum(cb * sig[blocks], axis=1)
            scale = (cb[:, :, None] * cb[:, None, :]).reshape(pairs.shape)
            second[:, ues] = np.sum(S[:, pairs] * scale, axis=-1)
        return signal, second


class DownlinkBlockMoments(_RatioOfMeans):
    """Hardening-bound sums for precoders that are combiners scaled per block.

    The bound is linear in the block scales of PrecoderBlocks, whose
    normalizations E{||v_p||^2} are known only after the last batch. So the
    sums are kept per block (sig, S and the block energies) and the scales
    are applied at finalize; the campaign then needs one pass over the
    realizations. Each batch's replica applies that batch's own scales.

    With one block per UE (per-UE powers) and the genie on, the genie-aided
    reference is kept too: each realization's gain powers
    a[b, k, i] = |h_k^H v_i|^2, to which finalize_genie applies the
    setup-wide scales, n * K^2 values per setup.
    """

    def __init__(self, blocks: PrecoderBlocks, noise_w: float, prelog: float,
                 genie: bool = False):
        super().__init__(prelog, "sig", "S", "norm")
        self.blocks = blocks
        self.noise_w = noise_w
        self.genie = genie
        self.powers = []

    def batch_partial(self, v: np.ndarray, h: np.ndarray) -> dict:
        """With the genie on, the partial also holds the batch's gain powers
        a (B, K, K)."""
        B = v.shape[0]
        sig, S, norm, powers = self.blocks.moments(v, h, powers=self.genie)
        signal, second = self.blocks.contract(precoder_scales(self.blocks.rho, norm / B), sig, S)
        terms = _hardening_terms(signal / B, second / B, self.noise_w)
        return {"n": B, "sig": sig, "S": S, "norm": norm, "powers": powers, **self._replica(*terms)}

    def merge(self, partial: dict) -> None:
        super().merge(partial)
        if self.genie:
            self.powers.append(partial["powers"])

    def finalize(self) -> tuple:
        scales = precoder_scales(self.blocks.rho, self.norm / self.n)
        signal, second = (total / self.n for total in self.blocks.contract(scales, self.sig, self.S))
        return self._finalize(signal, second, *_hardening_terms(signal, second, self.noise_w))

    def finalize_genie(self) -> tuple:
        """The genie reference with the setup-wide scales c_i: the gain powers
        are c_i^2 a[b, k, i], and each batch's logs are accumulated in batch
        order, as the two-pass DownlinkAccumulator does."""
        c2 = precoder_scales(self.blocks.rho, self.norm / self.n) ** 2
        genie = ErgodicLogAccumulator(self.prelog)
        for a in self.powers:
            genie.merge(ErgodicLogAccumulator.batch_partial(_power_sinr(a * c2, self.noise_w)))
        return genie.finalize()


def _replica_stderr(replicas: list) -> np.ndarray:
    reps = np.stack(replicas)
    if reps.shape[0] < 2:
        return np.full(reps.shape[1], np.nan)
    valid = np.sum(~np.isnan(reps), axis=0)
    with np.errstate(invalid="ignore"):
        stderr = np.nanstd(reps, axis=0, ddof=1) / np.sqrt(np.maximum(valid, 1))
    stderr[valid < 2] = np.nan
    return stderr


# ---------------------------------------------------------------------------
# closed forms for MR (no sampling)
# ---------------------------------------------------------------------------

def mr_closed_form_terms(ctx, scales: np.ndarray) -> tuple:
    """Closed-form hardening-bound terms of scaled MR, w_i = sum_l c_il hhat_il
    over UE i's serving APs, with the scales c (K, L).

    signal[i] = E{h_i^H D_i w_i} = sum_l c_il tr(B_il), with B the estimate
    covariance, and second[k, i] = E{|h_k^H D_i w_i|^2} =
    sum_l c_il^2 tr(R_kl B_il), plus for the UEs k sharing UE i's pilot the
    coherent part p_k p_i tau_p^2 |sum_l c_il tr(R_kl psi^-1 R_il)|^2.
    """
    K = ctx.pilot_of.size
    R, B, p, tau_p = ctx.topology.R, ctx.B, ctx.ul_power, ctx.cfg.pilot_len
    trB = np.real(np.trace(B, axis1=-2, axis2=-1))
    signal = np.zeros(K)
    second = np.zeros((K, K))
    for i in range(K):
        aps = ctx.assignment.serving_aps(i)
        c = scales[i, aps]
        signal[i] = c @ trB[i, aps]
        second[:, i] = np.real(np.einsum("klmn,lnm->kl", R[:, aps], B[i, aps])) @ c**2
        sharers = np.flatnonzero(ctx.pilot_of == ctx.pilot_of[i])
        coh = np.einsum("klmn,lnm->kl", R[sharers[:, None], aps], ctx.psi_inv_R[i, aps]) @ c
        second[sharers, i] += (p[sharers] * p[i] * tau_p**2) * np.abs(coh) ** 2
    return signal, second


def ul_mr_closed_form_moments(ctx) -> UatfMoments:
    """The use-and-then-forget moments under MR combining, in closed form: by
    uplink-downlink duality, the unit-scale terms of mr_closed_form_terms
    with cross[k, i] = second[i, k], and norm[k] = signal[k]."""
    K, L = ctx.topology.beta.shape
    signal, second = mr_closed_form_terms(ctx, np.ones((K, L)))
    return UatfMoments(signal.astype(complex), second.T, signal.copy())


def ul_se_mr_closed_form(ctx, prelog: float) -> np.ndarray:
    moments = ul_mr_closed_form_moments(ctx)
    return se_from_sinr(uatf_sinr(moments, ctx.ul_power, ctx.cfg.noise_ul_w), prelog)


def dl_mr_closed_form_terms(ctx, rho_per_ap: np.ndarray) -> tuple:
    """Closed-form hardening-bound terms under per-AP-normalized MR precoding,
    c_il = sqrt(rho_il / tr(B_il)): (signal_mean, second_moment) with powers
    folded in, as in mr_closed_form_terms."""
    trB = np.real(np.trace(ctx.B, axis1=-2, axis2=-1))
    return mr_closed_form_terms(ctx, precoder_scales(rho_per_ap, trB))


def dl_se_mr_closed_form(ctx, rho_per_ap: np.ndarray, prelog: float) -> np.ndarray:
    signal, second = dl_mr_closed_form_terms(ctx, rho_per_ap)
    return se_from_sinr(_safe_ratio(*_hardening_terms(signal, second, ctx.cfg.noise_dl_w)), prelog)


def cdf_statistics(values) -> tuple:
    """Sorted samples, empirical CDF levels i/n, and the arithmetic mean."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty value list")
    ordered = np.sort(values)
    levels = np.arange(1, ordered.size + 1) / ordered.size
    return ordered, levels, float(np.mean(ordered))
