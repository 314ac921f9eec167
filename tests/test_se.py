import numpy as np
import pytest

from cellfree import topology
from cellfree.campaign import run_campaign
from cellfree.clustering import ClusterAssignment
from cellfree.combining import (
    build_precoders_centralized,
    build_precoders_distributed,
    compute_combiners,
    precoder_scales,
)
from cellfree.estimation import EstimationBundle, SetupContext
from cellfree.power import dl_centralized_equal, dl_distributed_proportional
from cellfree.rng import CHANNEL, PILOT_NOISE, complex_normal, stream
from cellfree.se import (
    DownlinkAccumulator,
    DownlinkBlockMoments,
    ErgodicLogAccumulator,
    NumericError,
    PrecoderBlocks,
    UatfAccumulator,
    UatfMoments,
    cdf_statistics,
    combiner_norms,
    combining_gains,
    dl_mr_closed_form_terms,
    dl_se_mr_closed_form,
    instantaneous_sinr,
    se_from_sinr,
    uatf_sinr,
    ul_mr_closed_form_moments,
    ul_se_mr_closed_form,
)
from cellfree.topology import sample_channels

from conftest import make_cfg, make_setup, same_bits
from test_acceptance import _probe_sinr
from test_estimation import scalar_setup


class TestSEArithmetic:
    def test_worked_scalar_se(self):
        # SINR 0.375 at prelog 190/200: 0.95 * log2(1.375) = 0.4365
        se = se_from_sinr(np.array([0.375]), 190 / 200)
        assert se[0] == pytest.approx(0.4365, abs=1e-4)

    def test_zero_prelog_kills_se(self):
        assert se_from_sinr(np.array([3.0]), 0.0)[0] == 0.0

    def test_prelog_is_exactly_linear(self):
        lo = se_from_sinr(np.array([1.7]), 10 / 200)
        hi = se_from_sinr(np.array([1.7]), 190 / 200)
        assert hi[0] == pytest.approx(19 * lo[0], rel=1e-12)

    def test_zero_power_ue_gets_zero_se(self):
        m = UatfMoments(np.array([0.0 + 0j]), np.array([[0.0]]), np.array([1.0]))
        assert uatf_sinr(m, np.array([0.0]), 1.0)[0] == 0.0

    def test_interferer_power_monotonicity(self):
        m = UatfMoments(
            signal=np.array([1.0 + 0j, 0.8 + 0j]),
            cross=np.array([[1.3, 0.4], [0.5, 0.9]]),
            combiner_norm=np.array([1.0, 1.0]),
        )
        p = np.array([0.1, 0.1])
        base = uatf_sinr(m, p, 1e-2)
        boosted = uatf_sinr(m, np.array([0.1, 0.2]), 1e-2)
        assert boosted[0] < base[0]        # UE 1's power doubled: UE 0 suffers
        assert boosted[1] >= base[1]


class TestClosedFormUplink:
    def test_scalar_signal_term(self):
        # p tau_p tr(R Psi^-1 R) = 0.1*10*(2*(1/3)*2) = 4/3
        _, _, _, ctx = scalar_setup()
        m = ul_mr_closed_form_moments(ctx)
        assert m.signal[0].real == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert m.combiner_norm[0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_scalar_full_sinr(self):
        # hand-evaluated: noncoh = 8/3, coh (self) = (4/3)^2, noise term = 4/3
        # SINR = 0.1*(4/3)^2 / (0.1*8/3 + 4/3) = 1/9
        _, _, _, ctx = scalar_setup()
        m = ul_mr_closed_form_moments(ctx)
        sinr = uatf_sinr(m, ctx.ul_power, ctx.cfg.noise_ul_w)
        assert sinr[0] == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_different_pilots_have_no_coherent_term(self):
        cfg = make_cfg(num_aps=3, num_ues=2, pilot_len=2, antennas_per_ap=2,
                       area_side_km=0.2)
        topo, assignment, ctx = make_setup(cfg)
        assert assignment.pilot_of[0] != assignment.pilot_of[1]
        m = ul_mr_closed_form_moments(ctx)
        aps0 = assignment.serving_aps(0)
        noncoh = np.real(np.einsum("lmn,lnm->", topo.R[1, aps0], ctx.B[0, aps0]))
        assert m.cross[0, 1] == pytest.approx(noncoh, rel=1e-12)

    def test_matches_monte_carlo(self):
        cfg = make_cfg(num_aps=6, num_ues=4, pilot_len=2, antennas_per_ap=2,
                       area_side_km=0.4, num_realizations=20_000,
                       ul_data_len=95, dl_data_len=0, schemes=("MR",))
        report = run_campaign(cfg)
        _, _, ctx = make_setup(cfg)
        cf = ul_se_mr_closed_form(ctx, cfg.ul_data_len / cfg.coherence_len)
        mc = report.values("MR", "ul")
        err = report.entries[("MR", "ul")].stderr
        assert np.all(np.abs(mc - cf) <= 3.0 * err)
        assert np.all(err < 0.05 * np.maximum(cf, 1e-3))


class TestClosedFormDownlink:
    def test_scalar_signal_term(self):
        # sqrt(rho * p tau_p tr(R Psi^-1 R)) = sqrt(4/3) at rho = 1
        _, _, _, ctx = scalar_setup()
        rho = np.array([[1.0]])
        signal, second = dl_mr_closed_form_terms(ctx, rho)
        assert signal[0] == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)
        # own coherent term equals signal^2 (cancels in the denominator)
        assert second[0, 0] >= signal[0] ** 2

    def test_different_pilots_have_no_coherent_term(self):
        cfg = make_cfg(num_aps=3, num_ues=2, pilot_len=2, antennas_per_ap=2,
                       area_side_km=0.2)
        topo, assignment, ctx = make_setup(cfg)
        rho = dl_distributed_proportional(assignment, topo, cfg)
        _, second = dl_mr_closed_form_terms(ctx, rho)
        B0 = ctx.B[1] / (ctx.ul_power[1] * cfg.pilot_len)
        aps1 = assignment.serving_aps(1)
        trB0 = np.real(np.trace(B0[aps1], axis1=-2, axis2=-1))
        noncoh = np.real(
            np.einsum("lmn,lnm->l", B0[aps1], topo.R[0, aps1])
        ) @ (rho[1, aps1] / trB0)
        assert second[0, 1] == pytest.approx(noncoh, rel=1e-12)

    def test_matches_monte_carlo(self):
        cfg = make_cfg(num_aps=6, num_ues=4, pilot_len=2, antennas_per_ap=2,
                       area_side_km=0.4, num_realizations=20_000,
                       ul_data_len=0, dl_data_len=95, schemes=("MR",))
        report = run_campaign(cfg)
        topo, assignment, ctx = make_setup(cfg)
        rho = dl_distributed_proportional(assignment, topo, cfg)
        cf = dl_se_mr_closed_form(ctx, rho, cfg.dl_data_len / cfg.coherence_len)
        mc = report.values("MR", "dl")
        err = report.entries[("MR", "dl")].stderr
        assert np.all(np.abs(mc - cf) <= 3.0 * err)


class TestPerfectCsiOracle:
    def test_k1_matched_filter_matches_exponential_moments(self):
        # v = h, N = L = K = 1: SINR = p E{|h|^2}^2 / (p Var{|h|^2} + s2 E{|h|^2})
        # with |h|^2 ~ Exp(beta): = p beta / (p beta + s2)
        beta, p, s2 = 1.7, 0.3, 0.8
        n = 200_000
        h = np.sqrt(beta) * complex_normal(np.random.default_rng(5), (n, 1, 1, 1))
        acc = UatfAccumulator(np.array([p]), s2, 1.0)
        for start in range(0, n, 50_000):
            chunk = h[start:start + 50_000]
            acc.merge(acc.with_replica(acc.batch_partial(chunk, chunk)))
        se, err = acc.finalize()
        predicted = np.log2(1.0 + p * beta / (p * beta + s2))
        assert se[0] == pytest.approx(predicted, abs=3 * max(err[0], 1e-4))


class TestBoundOrdering:
    def test_centralized_bound_dominates_uatf_for_same_combiner(self):
        cfg = make_cfg(num_aps=6, num_ues=4, pilot_len=2, antennas_per_ap=2,
                       area_side_km=0.4)
        topo, assignment, ctx = make_setup(cfg)
        n, batch = 20_000, 2_000
        prelog = 0.95
        erg = ErgodicLogAccumulator(prelog)
        uatf = UatfAccumulator(ctx.ul_power, cfg.noise_ul_w, prelog)
        for b in range(n // batch):
            h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, b), batch)
            bundle = EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, b))
            v = compute_combiners("LP-MMSE", bundle)
            erg.merge(ErgodicLogAccumulator.batch_partial(
                instantaneous_sinr(v, bundle, ctx.ul_power)))
            uatf.merge(uatf.with_replica(uatf.batch_partial(v, h)))
        se1, err1 = erg.finalize()
        se2, err2 = uatf.finalize()
        assert np.all(se1 >= se2 - 3 * (err1 + err2))


class TestCentralizedBoundOracle:
    def test_straight_line_rederivation_of_instantaneous_sinr(self):
        # independent evaluation: build D_k masks, Z_k, and the SINR ratio
        # with explicit loops, then compare to the library path
        cfg = make_cfg(num_aps=4, num_ues=2, antennas_per_ap=1, pilot_len=2,
                       area_side_km=0.3, mode="centralized", schemes=("MR",))
        topo, assignment, ctx = make_setup(cfg)
        h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, 0), 6)
        bundle = EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, 0))
        v = compute_combiners("MR", bundle)
        got = instantaneous_sinr(v, bundle, ctx.ul_power)

        K, L, N = cfg.num_ues, cfg.num_aps, cfg.antennas_per_ap
        p = ctx.ul_power
        for b in range(6):
            for k in range(K):
                mask = assignment.serves[:, k].astype(float)
                vk = (v[b, k] * mask[:, None]).reshape(-1)
                num = p[k] * abs(np.vdot(vk, (bundle.hhat[b, k] * mask[:, None]).reshape(-1))) ** 2
                interference = sum(
                    p[i] * abs(np.vdot(vk, (bundle.hhat[b, i] * mask[:, None]).reshape(-1))) ** 2
                    for i in range(K) if i != k
                )
                Z = np.zeros((L * N, L * N), dtype=complex)
                for l in range(L):
                    block = sum(p[i] * ctx.C[i, l] for i in range(K))
                    block = block + cfg.noise_ul_w * np.eye(N)
                    Z[l * N:(l + 1) * N, l * N:(l + 1) * N] = mask[l] * block
                den = interference + np.real(np.vdot(vk, Z @ vk))
                assert got[b, k] == pytest.approx(num / den, rel=1e-10)


def compact_sinr(v, bundle, ul_power):
    """Per-UE evaluation on each UE's compacted serving subspace with Z_k."""
    ctx = bundle.ctx
    B, K = v.shape[:2]
    sinr = np.zeros((B, K))
    for k in range(K):
        aps = ctx.assignment.serving_aps(k)
        n = aps.size * ctx.topology.antennas_per_ap
        hh = bundle.hhat[:, :, aps].reshape(B, K, n)
        sinr[:, k] = _probe_sinr(v[:, k, aps].reshape(B, n), hh, ctx.noise_matrix(k), ul_power, k)
    return sinr


class TestFullSpaceSinr:
    """The batched full-space SINR equals the per-UE compact-subspace one."""

    CONFIGS = {
        "clustered": dict(num_aps=8, num_ues=6, pilot_len=3, antennas_per_ap=2),
        "all-serve-all": dict(num_aps=4, num_ues=5, pilot_len=5, antennas_per_ap=2,
                              all_serve_all=True),
    }

    def bundle(self, name):
        cfg = make_cfg(**self.CONFIGS[name], area_side_km=0.4, mode="centralized",
                       schemes=("MMSE",))
        topo, assignment, ctx = make_setup(cfg)
        h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, 0), 5)
        return ctx, EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, 0))

    @pytest.mark.parametrize("config", ["clustered", "all-serve-all"])
    @pytest.mark.parametrize("scheme", ["MR", "LP-MMSE", "L-MMSE", "MMSE", "P-MMSE"])
    def test_equals_compact_evaluation(self, scheme, config):
        ctx, bundle = self.bundle(config)
        v = compute_combiners(scheme, bundle)
        got = instantaneous_sinr(v, bundle, ctx.ul_power)
        assert np.all(got > 0)
        assert np.allclose(got, compact_sinr(v, bundle, ctx.ul_power), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("config", ["clustered", "all-serve-all"])
    def test_entries_outside_serving_aps_are_ignored(self, config, rng):
        ctx, bundle = self.bundle(config)
        v = complex_normal(rng, bundle.hhat.shape)
        got = instantaneous_sinr(v, bundle, ctx.ul_power)
        assert np.allclose(got, compact_sinr(v, bundle, ctx.ul_power), rtol=1e-12, atol=0)
        if config == "clustered":
            assert not ctx.assignment.serves.all(), "fixture should leave pairs unserved"
            masked = v * ctx.assignment.serves.T[None, :, :, None]
            assert np.array_equal(got, instantaneous_sinr(masked, bundle, ctx.ul_power))

    def test_builds_no_per_ue_noise_matrix(self, monkeypatch):
        # Z_k per UE would cache K dense (L*N)^2 matrices per setup
        ctx, bundle = self.bundle("clustered")
        v = compute_combiners("P-MMSE", bundle)

        def refuse(self, k, partner_only=False):
            raise AssertionError("instantaneous_sinr built a per-UE noise matrix")

        monkeypatch.setattr(SetupContext, "noise_matrix", refuse)
        assert instantaneous_sinr(v, bundle, ctx.ul_power).shape == (5, 6)


class TestSinrInBlocksOfUeRows:
    """Where one realization exceeds the budget, the centralized SINR takes
    blocks of at least two UE rows with the bits of the whole product."""

    @pytest.mark.parametrize("budget", [1, 64, 96, 224])
    @pytest.mark.parametrize("all_serve_all", [False, True])
    @pytest.mark.parametrize("scheme", ["MMSE", "P-MMSE", "MR"])
    def test_keeps_every_bit(self, monkeypatch, scheme, all_serve_all, budget):
        # nine UEs at 2 * L * N = 32 values a row: blocks of 2 + 2 + 2 + 3,
        # 3 + 3 + 3 and 7 + 2 rows
        cfg = make_cfg(num_aps=8, num_ues=9, pilot_len=3, antennas_per_ap=2, area_side_km=0.4,
                       mode="centralized", all_serve_all=all_serve_all, schemes=(scheme,))
        topo, assignment, ctx = make_setup(cfg)
        h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, 0), 6)
        bundle = EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, 0))
        v = compute_combiners(scheme, bundle)
        whole = instantaneous_sinr(v, bundle, ctx.ul_power)
        monkeypatch.setattr(topology, "BLOCK_VALUES", budget)
        assert same_bits(instantaneous_sinr(v, bundle, ctx.ul_power), whole)


class TestDistributedBenchmarks:
    def test_local_mmse_beats_mr_on_average(self):
        cfg = make_cfg(num_aps=8, num_ues=6, pilot_len=3, antennas_per_ap=2,
                       area_side_km=0.4, num_realizations=4_000,
                       ul_data_len=190, dl_data_len=0,
                       schemes=("MR", "L-MMSE"), mode="distributed")
        report = run_campaign(cfg)
        assert report.mean("L-MMSE", "ul") > report.mean("MR", "ul")


class TestGenie:
    def test_genie_upper_bounds_hardening(self):
        cfg = make_cfg(num_aps=8, num_ues=5, pilot_len=3, num_realizations=5_000,
                       ul_data_len=0, dl_data_len=95, schemes=("MR", "LP-MMSE"),
                       genie_dl=True)
        report = run_campaign(cfg)
        for scheme in cfg.schemes:
            bound = report.values(scheme, "dl")
            genie = report.values(scheme, "dl_genie")
            err = report.entries[(scheme, "dl")].stderr
            assert np.all(genie >= bound - 3 * err)

    def test_zero_downlink_power_means_zero_se(self):
        # rho_k = 0 folds into an all-zero precoder for that UE
        rng = np.random.default_rng(8)
        h = (rng.standard_normal((40, 2, 1, 1)) + 1j * rng.standard_normal((40, 2, 1, 1)))
        scales = np.array([0.0, 1.0])
        acc = DownlinkAccumulator(1.0, 0.95)
        acc.merge(acc.batch_partial(h, h, scales, scales))
        se, _ = acc.finalize()
        assert se[0] == 0.0 and se[1] > 0.0

    def test_constant_channel_closes_the_gap(self):
        # no channel variance: hardening bound and genie coincide exactly
        v = np.ones((50, 1, 1, 1), dtype=complex) * 0.7
        h = np.ones((50, 1, 1, 1), dtype=complex) * 1.3
        acc = DownlinkAccumulator(0.5, 1.0)
        acc.merge(acc.batch_partial(v, h, np.ones(1), np.ones(1)))
        se, _ = acc.finalize()
        genie, _ = acc.finalize_genie()
        assert se[0] == pytest.approx(genie[0], rel=1e-12)


class TestNumericGuards:
    """Guards of the use-and-then-forget accumulator; the subclass below runs
    the same cases on the downlink accumulator, which shares the finalize path."""

    def _accumulator(self, n, signal, cross):
        acc = UatfAccumulator(np.array([1.0]), None, 1.0)
        acc.norm = np.array([float(n)])
        acc.n, acc.signal, acc.cross = n, np.array([signal + 0j]), np.array([[cross]])
        return acc

    def _finalize(self, acc, noise_w):
        acc.noise_w = noise_w
        return acc.finalize()

    def _acc_with_denominator(self, replica_std, num_replicas=20):
        # cancellation case: own variance -5e-10 (within the 1e-9 proxy
        # tolerance) and a noise term too small to rescue the denominator
        n = 100
        acc = self._accumulator(n, n, n * (1.0 - 5e-10))
        rng = np.random.default_rng(0)
        acc.den_replicas = [np.array([-5e-10 + replica_std * z])
                            for z in rng.standard_normal(num_replicas)]
        acc.se_replicas = [np.array([0.5])] * num_replicas
        return acc

    def test_negative_denominator_within_noise_is_clamped(self):
        acc = self._acc_with_denominator(replica_std=1e-8)
        se, _ = self._finalize(acc, 1e-12)
        assert np.isfinite(se[0]) and se[0] > 0

    def test_negative_denominator_beyond_noise_raises(self):
        acc = self._acc_with_denominator(replica_std=1e-13)
        with pytest.raises(NumericError, match="denominator"):
            self._finalize(acc, 1e-12)

    def test_negative_denominator_with_unknown_spread_raises(self):
        # one replica: the spread is NaN, which counts as beyond noise
        acc = self._acc_with_denominator(replica_std=1e-8, num_replicas=1)
        with pytest.warns(RuntimeWarning), pytest.raises(NumericError, match="denominator"):
            self._finalize(acc, 1e-12)

    def test_variance_proxy_violation_raises(self):
        acc = self._accumulator(10, 10.0, 5.0)   # E{|x|^2} << |E{x}|^2: impossible
        acc.den_replicas = [np.array([1.0])] * 4
        acc.se_replicas = [np.array([0.5])] * 4
        with pytest.raises(NumericError, match="second moment"):
            self._finalize(acc, 1.0)


class TestDownlinkNumericGuards(TestNumericGuards):
    def _accumulator(self, n, signal, cross):
        acc = DownlinkAccumulator(None, 1.0)
        acc.n, acc.signal, acc.cross = n, np.array([signal + 0j]), np.array([[cross]])
        return acc


class TestDownlinkBlockNumericGuards(TestNumericGuards):
    """One UE whose precoder is one block of unit scale (rho = 1, energy n)."""

    def _accumulator(self, n, signal, cross):
        blocks = PrecoderBlocks(_assignment([[True]]), np.array([1.0]))
        acc = DownlinkBlockMoments(blocks, None, 1.0)
        acc.n, acc.sig, acc.S, acc.norm = n, np.array([signal + 0j]), np.array([[cross]]), \
            np.array([float(n)])
        return acc


class TestCombiningGains:
    @pytest.mark.parametrize("batch", [1, 8, 19])
    def test_chunked_conjugate_gives_the_whole_batch_product(self, rng, batch):
        # 19 realizations: two full chunks and a short one
        v = complex_normal(rng, (batch, 5, 6, 4))[:, :, :, ::2]      # strided, as a slice would be
        h = complex_normal(rng, (batch, 3, 6, 2))
        expected = np.conj(v).reshape(batch, 5, -1) @ np.swapaxes(h.reshape(batch, 3, -1), 1, 2)
        assert same_bits(combining_gains(v, h), expected)


class TestUplinkByDuality:
    """The use-and-then-forget batch sums from the downlink block sums equal
    those from the uplink gains (unit block scales)."""

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("antennas", [1, 2])
    @pytest.mark.parametrize("scheme", ["MR", "LP-MMSE"])
    def test_block_partial_equals_the_gain_partial(self, scheme, antennas, batch):
        cfg = make_cfg(num_aps=8, num_ues=6, pilot_len=3, antennas_per_ap=antennas)
        topo, assignment, ctx = make_setup(cfg)
        assert not assignment.serves.all(), "DCC clusters expected"
        blocks = PrecoderBlocks(assignment, dl_distributed_proportional(assignment, topo, cfg))
        h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, 0), batch)
        v = compute_combiners(scheme, EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, 0)))
        uatf = UatfAccumulator(ctx.ul_power, cfg.noise_ul_w, 0.95)
        expected = uatf.with_replica(uatf.batch_partial(v, h))
        moments = DownlinkBlockMoments(blocks, cfg.noise_dl_w, 0.95)
        dl = moments.with_replica(moments.chunk_sums(blocks.gains(v, h)))
        got = uatf.block_partial(dl, blocks)
        assert got.keys() == expected.keys() and got["n"] == batch
        for key in ("signal", "cross", "norm", "den_replica", "se_replica"):
            np.testing.assert_allclose(got[key], expected[key], rtol=1e-12, atol=0, err_msg=key)


class TestDownlinkBlockMoments:
    """Block sums with the scales applied equal the sums of the precoded gains."""

    @pytest.mark.parametrize("mode", ["centralized", "distributed"])
    @pytest.mark.parametrize("scheme", ["MR", "LP-MMSE", "P-MMSE"])
    def test_contracted_sums_equal_precoded_gains(self, mode, scheme):
        cfg = make_cfg(num_aps=8, num_ues=6, pilot_len=3, antennas_per_ap=2, mode=mode)
        topo, assignment, ctx = make_setup(cfg)
        B = 10
        h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, 0), B)
        v = compute_combiners(scheme, EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, 0)))
        if mode == "centralized":
            rho = dl_centralized_equal(cfg)
            w = build_precoders_centralized(v, rho, combiner_norms(v)[0] / B)
        else:
            rho = dl_distributed_proportional(assignment, topo, cfg)
            w = build_precoders_distributed(v, rho, combiner_norms(v, per_ap=True)[1] / B)
        blocks = PrecoderBlocks(assignment, rho)
        if mode == "distributed":
            served, _ = assignment.served_table()
            assert served.shape[1] > cfg.antennas_per_ap, "fixture should need several chunks"
        sig, S, energy, _ = blocks.sums(blocks.gains(v, h))
        scales = precoder_scales(blocks.rho, energy / B)
        signal, second = blocks.contract(scales, sig, S)
        g = combining_gains(h, w)
        assert np.allclose(signal, np.einsum("bkk->k", g), rtol=1e-12, atol=0)
        assert np.allclose(second, np.sum(np.abs(g) ** 2, axis=0), rtol=1e-12, atol=0)

    def test_genie_from_gain_powers_equals_precoded_genie(self):
        cfg = make_cfg(num_aps=8, num_ues=6, pilot_len=3, antennas_per_ap=2, mode="centralized")
        topo, assignment, ctx = make_setup(cfg)
        rho = dl_centralized_equal(cfg)
        blocks = PrecoderBlocks(assignment, rho)
        acc = DownlinkBlockMoments(blocks, cfg.noise_dl_w, 1.0, genie=True)
        v, h = [], []
        for b in range(2):
            h.append(sample_channels(topo, stream(cfg.seed, 0, CHANNEL, b), 7))
            bundle = EstimationBundle(ctx, h[-1], stream(cfg.seed, 0, PILOT_NOISE, b))
            v.append(compute_combiners("P-MMSE", bundle))
            acc.merge(acc.with_replica(acc.chunk_sums(blocks.gains(v[-1], h[-1]))))
        norm = sum(combiner_norms(x)[0] for x in v) / 14
        reference = DownlinkAccumulator(cfg.noise_dl_w, 1.0)
        scales = precoder_scales(rho, norm)
        for vb, hb in zip(v, h):
            reference.merge(reference.batch_partial(vb, hb, scales, scales))
        for got, expected in zip(acc.finalize_genie(), reference.finalize_genie()):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_blocks_follow_the_power_layout(self):
        serves = _assignment([[True, False], [True, True], [False, True]])   # (L, K)
        per_ue = PrecoderBlocks(serves, np.array([1.0, 2.0]))
        assert per_ue.aps is None and per_ue.ues.tolist() == [0, 1]
        assert per_ue.num_pairs == 2
        rho = np.arange(6.0).reshape(2, 3)
        per_ap = PrecoderBlocks(serves, rho)
        # the pair indices, as many as the block second moments, wait for first use
        assert "groups" not in vars(per_ap)
        assert per_ap.ues.tolist() == [0, 0, 1, 1] and per_ap.aps.tolist() == [0, 1, 1, 2]
        assert per_ap.rho.tolist() == [0.0, 1.0, 4.0, 5.0]
        assert per_ap.slots.tolist() == [0, 0, 1, 0]
        assert per_ap.num_pairs == 8


class TestTableMoments:
    """Distributed block sums taken from the per-AP gain table have the bits
    of the contiguous (K, P, b) block gains they were once summed from."""

    @staticmethod
    def _reference(blocks, v, h):
        """sig, S and the energies from a (K, P, b) copy of the block gains."""
        vD = v[:, blocks.served, np.arange(v.shape[2])[:, None], :]        # (b, L, T, N)
        conj_g = np.swapaxes(h, 1, 2) @ np.conj(np.swapaxes(vD, -1, -2))  # (b, L, K, T)
        g = np.conj(conj_g[:, blocks.aps, :, blocks.slots])                 # (P, b, K)
        g = np.ascontiguousarray(np.moveaxis(g, -1, 0))                     # (K, P, b)
        energy = np.sum(np.abs(vD) ** 2, axis=(0, 3))[blocks.aps, blocks.slots]
        K = v.shape[1]
        S = np.zeros((K, blocks.num_pairs))
        sig = g[blocks.ues, np.arange(blocks.ues.size)].sum(axis=-1)
        for _, members, pairs in blocks.groups:
            gm = g[:, members]                                              # (K, n, m, b)
            S[:, pairs] += np.real(np.conj(gm) @ np.swapaxes(gm, -1, -2)).reshape(K, *pairs.shape)
        return sig, S, energy

    def _check(self, blocks, v, h, min_chunks=1):
        chunks = blocks.chunks(v.shape)
        assert len(chunks) >= min_chunks
        for rows in chunks:
            *got, powers = blocks.sums(blocks.gains(v[rows], h[rows]))
            assert powers is None
            expected = self._reference(blocks, v[rows], h[rows])
            for name, a, b in zip(("sig", "S", "energy"), got, expected):
                assert same_bits(a, b), name

    @pytest.mark.parametrize("scheme", ["MR", "LP-MMSE"])
    @pytest.mark.parametrize("all_serve_all", [False, True])
    @pytest.mark.parametrize("antennas", [1, 2, 4])
    def test_equals_the_block_gain_formulation(self, antennas, all_serve_all, scheme):
        # the criterion-2 network; a batch of 600 realizations in several chunks
        cfg = make_cfg(num_aps=16, num_ues=8, pilot_len=4, antennas_per_ap=antennas,
                       area_side_km=0.4, all_serve_all=all_serve_all, schemes=(scheme,))
        topo, assignment, ctx = make_setup(cfg)
        assert assignment.serves.all() == all_serve_all
        blocks = PrecoderBlocks(assignment, dl_distributed_proportional(assignment, topo, cfg))
        h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, 0), 600)
        v = compute_combiners(scheme, EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, 0)))
        self._check(blocks, v, h, min_chunks=2)

    @pytest.mark.parametrize("batch", [1, 9, 300])
    @pytest.mark.parametrize("antennas", [1, 2, 4])
    def test_ue_with_a_single_block(self, rng, antennas, batch):
        # UE 0 is served by AP 0 alone; UEs 1 and 2 by three APs each
        serves = _assignment([[True, True, False], [False, True, True],
                              [False, False, True], [False, True, True]])
        blocks = PrecoderBlocks(serves, np.ones((3, 4)))
        assert sorted(blocks._counts.tolist()) == [1, 3, 3]
        v = complex_normal(rng, (batch, 3, 4, antennas))
        h = complex_normal(rng, (batch, 3, 4, antennas))
        self._check(blocks, v, h)


def _assignment(serves):
    serves = np.array(serves)
    K = serves.shape[1]
    return ClusterAssignment(pilot_len=K, pilot_of=np.arange(K), master_of=np.argmax(serves, axis=0),
                             serves=serves)


class TestCdf:
    def test_example_levels(self):
        ordered, levels, mean = cdf_statistics([3.0, 1.0, 2.0])
        assert np.array_equal(ordered, [1.0, 2.0, 3.0])
        assert np.allclose(levels, [1 / 3, 2 / 3, 1.0])
        assert mean == pytest.approx(2.0)

    def test_constant_list(self):
        ordered, levels, mean = cdf_statistics([4.0, 4.0, 4.0, 4.0])
        assert np.all(ordered == 4.0)
        assert levels[-1] == 1.0 and levels[0] == pytest.approx(0.25)
        assert mean == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cdf_statistics([])
