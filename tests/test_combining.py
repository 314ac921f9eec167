import numpy as np
import pytest

from cellfree.combining import (
    DegeneratePrecoderError,
    _gram,
    build_precoders_centralized,
    build_precoders_distributed,
    combiner_single,
    compute_combiners,
    local_mmse_combiner,
    optimal_sinr,
)
from cellfree.estimation import EstimationBundle, SetupContext, estimate_demand_mask
from cellfree.rng import CHANNEL, PILOT_NOISE, complex_normal, stream
from cellfree.se import combiner_norms, combining_gains, instantaneous_sinr
from cellfree.topology import sample_channels

from conftest import make_cfg, make_setup, same_bits
from test_estimation import scalar_setup


def make_bundle(cfg, seed=1, batch=6, demand=None):
    """A bundle of the scheme demand's estimates (every pair when None)."""
    topo, assignment, ctx = make_setup(cfg)
    h = sample_channels(topo, stream(seed, 0, CHANNEL, 0), batch=batch)
    mask = None if demand is None else estimate_demand_mask(demand, ctx)
    bundle = EstimationBundle(ctx, h, stream(seed, 0, PILOT_NOISE, 0), mask)
    return topo, assignment, ctx, h, bundle


def scalar_bundle(hhat_value=2.0):
    """The worked scalar example: R=2, Psi=3, hhat pinned to a chosen value."""
    cfg, topo, assignment, ctx = scalar_setup()
    h = np.zeros((1, 1, 1, 1), dtype=complex)
    bundle = EstimationBundle(ctx, h, stream(1, 0, PILOT_NOISE, 0))
    bundle.hhat[:] = hhat_value
    return cfg, ctx, bundle


class TestMR:
    def test_equals_estimates_on_serving_aps_and_zero_elsewhere(self):
        cfg = make_cfg(num_aps=6, num_ues=5, pilot_len=3)
        _, assignment, _, _, bundle = make_bundle(cfg)
        v = compute_combiners("MR", bundle)
        for k in range(cfg.num_ues):
            aps = assignment.serving_aps(k)
            assert np.array_equal(v[:, k, aps, :], bundle.hhat[:, k, aps, :])
            others = np.setdiff1d(np.arange(cfg.num_aps), aps)
            assert np.all(v[:, k, others, :] == 0)

    @pytest.mark.parametrize("all_serve_all", [True, False], ids=["all-serve-all", "clusters"])
    def test_equals_estimates_times_the_serving_mask(self, all_serve_all):
        cfg = make_cfg(num_aps=6, num_ues=5, pilot_len=3, all_serve_all=all_serve_all)
        _, assignment, _, _, bundle = make_bundle(cfg)
        assert assignment.serves.all() == all_serve_all
        # estimates at every AP, as a centralized uplink computes them
        v = compute_combiners("MR", bundle)
        assert same_bits(v, bundle.hhat * assignment.serves.T[None, :, :, None])

    @pytest.mark.parametrize("demand, alias", [("MR", True), ("L-MMSE", False)])
    def test_estimates_themselves_unless_non_serving_pairs_are_filled(self, demand, alias):
        # DCC clusters: the L-MMSE demand adds estimates at APs that do not
        # serve the UE, which the mask must then remove
        cfg = make_cfg(num_aps=6, num_ues=5, pilot_len=3)
        _, assignment, ctx, _, bundle = make_bundle(cfg, demand=demand)
        assert not assignment.serves.all()
        assert bundle._computed.any(axis=None) and (
            np.any(bundle._computed & ~assignment.serves.T) != alias)
        v = compute_combiners("MR", bundle)
        assert (v is bundle.hhat) == alias
        assert same_bits(v, bundle.hhat * assignment.serves.T[None, :, :, None])

    def test_scalar_identity(self):
        _, _, bundle = scalar_bundle(2.0)
        v = compute_combiners("MR", bundle)
        assert v[0, 0, 0, 0] == pytest.approx(2.0)


class TestMMSEScalar:
    def test_worked_example(self):
        # hhat=2, C=2/3, p=0.1, sigma^2=1: Z = 0.1*(2/3) + 1
        # v = 0.1 * (0.1*4 + 1.0667)^-1 * 2 = 0.13636...
        _, ctx, bundle = scalar_bundle(2.0)
        v = compute_combiners("MMSE", bundle)
        assert v[0, 0, 0, 0] == pytest.approx(3.0 / 22.0, rel=1e-12)

    def test_worked_example_sinr(self):
        _, ctx, bundle = scalar_bundle(2.0)
        v = compute_combiners("MMSE", bundle)
        sinr = instantaneous_sinr(v, bundle, ctx.ul_power)
        assert sinr[0, 0] == pytest.approx(0.375, rel=1e-12)

    def test_lpmmse_scalar(self):
        # v = 0.1 * (0.1*(4 + 2/3) + 1)^-1 * 2 = 0.13636...
        _, ctx, bundle = scalar_bundle(2.0)
        v = compute_combiners("LP-MMSE", bundle)
        assert v[0, 0, 0, 0] == pytest.approx(3.0 / 22.0, rel=1e-12)

    def test_lpmmse_zero_estimate(self):
        _, _, bundle = scalar_bundle(0.0)
        v = compute_combiners("LP-MMSE", bundle)
        assert np.all(v == 0)


class TestSinrProperties:
    def test_scale_invariance(self):
        cfg = make_cfg(num_aps=5, num_ues=4, pilot_len=2, mode="centralized",
                       schemes=("MMSE",))
        _, _, ctx, _, bundle = make_bundle(cfg)
        v = compute_combiners("MMSE", bundle)
        base = instantaneous_sinr(v, bundle, ctx.ul_power)
        scaled = instantaneous_sinr(v * (7e3 * np.exp(1.3j)), bundle, ctx.ul_power)
        assert np.allclose(scaled, base, rtol=1e-9)

    def test_mmse_beats_other_schemes_every_realization(self):
        cfg = make_cfg(num_aps=6, num_ues=5, pilot_len=3, mode="centralized",
                       schemes=("MMSE",))
        _, _, ctx, _, bundle = make_bundle(cfg, batch=20)
        best = optimal_sinr_all(bundle, ctx)
        for scheme in ("MR", "P-MMSE", "LP-MMSE"):
            v = compute_combiners(scheme, bundle)
            sinr = instantaneous_sinr(v, bundle, ctx.ul_power)
            assert np.all(sinr <= best * (1 + 1e-9))

    def test_mmse_achieves_the_optimum(self):
        cfg = make_cfg(num_aps=6, num_ues=5, pilot_len=3, mode="centralized",
                       schemes=("MMSE",))
        _, _, ctx, _, bundle = make_bundle(cfg, batch=10)
        v = compute_combiners("MMSE", bundle)
        sinr = instantaneous_sinr(v, bundle, ctx.ul_power)
        assert np.allclose(sinr, optimal_sinr_all(bundle, ctx), rtol=1e-9)

    def test_random_probes_never_beat_mmse(self, rng):
        cfg = make_cfg(num_aps=4, num_ues=4, pilot_len=2, mode="centralized",
                       schemes=("MMSE",))
        _, assignment, ctx, _, bundle = make_bundle(cfg, batch=5)
        best = optimal_sinr_all(bundle, ctx)
        K, L, N = cfg.num_ues, cfg.num_aps, cfg.antennas_per_ap
        for _ in range(40):
            v = complex_normal(rng, (5, K, L, N)) * assignment.serves.T[None, :, :, None]
            sinr = instantaneous_sinr(v, bundle, ctx.ul_power)
            assert np.all(sinr <= best * (1 + 1e-9))


def optimal_sinr_all(bundle, ctx):
    return np.stack(
        [optimal_sinr(bundle, k) for k in range(ctx.topology.beta.shape[0])], axis=1
    )


class TestPMMSE:
    def test_coincides_with_mmse_when_everyone_served_everywhere(self):
        cfg = make_cfg(num_aps=4, num_ues=5, pilot_len=5, all_serve_all=True,
                       mode="centralized", schemes=("MMSE",))
        _, _, _, _, bundle = make_bundle(cfg)
        v_mmse = compute_combiners("MMSE", bundle)
        v_pmmse = compute_combiners("P-MMSE", bundle)
        assert np.allclose(v_mmse, v_pmmse, rtol=1e-12, atol=0)

    def test_never_better_than_mmse(self):
        cfg = make_cfg(num_aps=8, num_ues=6, pilot_len=3, mode="centralized",
                       schemes=("MMSE",))
        _, _, ctx, _, bundle = make_bundle(cfg, batch=16)
        v = compute_combiners("P-MMSE", bundle)
        sinr = instantaneous_sinr(v, bundle, ctx.ul_power)
        assert np.all(sinr <= optimal_sinr_all(bundle, ctx) * (1 + 1e-9))

    def test_lonely_ue_reduces_to_matched_direction(self):
        # P_k = {k}: v is parallel to Z'^-1 hhat (rank-one update keeps direction)
        cfg = make_cfg(num_aps=4, num_ues=2, pilot_len=2, antennas_per_ap=2,
                       area_side_km=2.0, neighbor_radius_km=0.01, max_neighbors=0,
                       mode="centralized", schemes=("P-MMSE",), seed=2)
        topo, assignment, ctx, _, bundle = make_bundle(cfg, seed=4)
        partners = ctx.partners()
        assert partners[0].sum() == 1, "fixture should isolate UE 0"
        v = compute_combiners("P-MMSE", bundle)
        k = 0
        aps = assignment.serving_aps(k)
        n = aps.size * cfg.antennas_per_ap
        Z = ctx.noise_matrix(k, partner_only=True)
        for b in range(v.shape[0]):
            hk = bundle.hhat[b, k, aps, :].reshape(n)
            direction = np.linalg.solve(Z, hk)
            vc = v[b, k, aps, :].reshape(n)
            cosine = np.abs(np.vdot(direction, vc)) / (
                np.linalg.norm(direction) * np.linalg.norm(vc)
            )
            assert cosine == pytest.approx(1.0, abs=1e-10)


def _full_space_mmse(ctx, hhat):
    """MMSE (All) by its L*N x L*N formula: v_k = p_k (sum_i p_i hhat_i
    hhat_i^H + Z)^-1 hhat_k, with Z = blockdiag_l(sum_i p_i C_il) + sigma^2 I
    built in full."""
    B, K, L, N = hhat.shape
    p = ctx.ul_power
    Z = ctx.cfg.noise_ul_w * np.eye(L * N, dtype=complex)
    for l in range(L):
        Z[l * N:(l + 1) * N, l * N:(l + 1) * N] += np.einsum("k,kmn->mn", p, ctx.C[:, l])
    hh = hhat.reshape(B, K, L * N)
    gram = np.einsum("i,bim,bin->bmn", p, hh, np.conj(hh)) + Z
    sol = np.linalg.solve(gram, np.swapaxes(hh, 1, 2))
    return (p[None, :, None] * np.swapaxes(sol, 1, 2)).reshape(B, K, L, N)


def _assert_per_ue_close(v, ref, rtol):
    """||v_k - ref_k|| <= rtol ||ref_k|| for every realization and UE."""
    err = np.linalg.norm((v - ref).reshape(*v.shape[:2], -1), axis=-1)
    size = np.linalg.norm(ref.reshape(*ref.shape[:2], -1), axis=-1)
    assert np.all(err <= rtol * size), err.max()


class TestAllServeAllPushThrough:
    """Every AP serves every UE: the combiners come from one K x K solve per
    realization and must equal the L*N x L*N formula."""

    # (num_aps, num_ues, pilot_len): K = 4 below L*N = 5, 10, 20 and K = 12
    # above 2, 4, 8
    SHAPES = {"K<LN": (5, 4, 3), "K>LN": (2, 12, 10)}

    @classmethod
    def _bundle(cls, shape, antennas, batch, zero_power_ue=None):
        num_aps, num_ues, pilot_len = cls.SHAPES[shape]
        cfg = make_cfg(num_aps=num_aps, num_ues=num_ues, antennas_per_ap=antennas,
                       pilot_len=pilot_len, all_serve_all=True, mode="centralized", schemes=("MMSE",))
        topo, assignment, _ = make_setup(cfg)
        # unequal powers, so that S = P^1/2 is not a multiple of the identity
        p = cfg.ue_power_w * np.linspace(0.3, 1.0, num_ues)
        if zero_power_ue is not None:
            p[zero_power_ue] = 0.0
        ctx = SetupContext(topo, assignment, p, cfg)
        h = sample_channels(topo, stream(3, 0, CHANNEL, 0), batch=batch)
        return ctx, EstimationBundle(ctx, h, stream(3, 0, PILOT_NOISE, 0))

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("antennas", [1, 2, 4])
    def test_equals_the_full_space_solve(self, antennas, batch, shape):
        ctx, bundle = self._bundle(shape, antennas, batch)
        v = compute_combiners("MMSE", bundle)
        assert v.shape == bundle.hhat.shape
        _assert_per_ue_close(v, _full_space_mmse(ctx, bundle.hhat), rtol=1e-10)
        # every UE partners every other: P-MMSE takes the same branch
        assert same_bits(compute_combiners("P-MMSE", bundle), v)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("antennas", [1, 4])
    def test_zero_power_ue_gets_a_zero_combiner(self, antennas, shape):
        ctx, bundle = self._bundle(shape, antennas, 3, zero_power_ue=1)
        # its estimate would be zero too: pin estimates drawn with the
        # channels' gains, nonzero for every UE
        gains = np.sqrt(ctx.topology.beta)[None, :, :, None]
        bundle.hhat[:] = gains * complex_normal(np.random.default_rng(5), bundle.hhat.shape)
        v = compute_combiners("MMSE", bundle)
        assert np.all(v[:, 1] == 0)
        assert np.all(np.any(v[:, [0, 2]] != 0, axis=(2, 3)))
        _assert_per_ue_close(v, _full_space_mmse(ctx, bundle.hhat), rtol=1e-10)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("antennas", [1, 2, 4])
    def test_attains_the_optimal_sinr(self, antennas, shape):
        ctx, bundle = self._bundle(shape, antennas, 3)
        v = compute_combiners("MMSE", bundle)
        sinr = instantaneous_sinr(v, bundle, ctx.ul_power)
        np.testing.assert_allclose(sinr, optimal_sinr_all(bundle, ctx), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("zero_power_ue", [None, 1])
    @pytest.mark.parametrize("antennas", [1, 4])
    def test_sinr_from_the_solve_equals_instantaneous_sinr(self, antennas, zero_power_ue, shape):
        # SINR_k = x_k / (1 - x_k), with 1 - x_k = [A^-1]_kk of the K x K solve
        ctx, bundle = self._bundle(shape, antennas, 3, zero_power_ue)
        sinr = np.full(bundle.hhat.shape[:2], np.nan)
        v = compute_combiners("MMSE", bundle, sinr)
        assert same_bits(v, compute_combiners("MMSE", bundle))
        expected = instantaneous_sinr(v, bundle, ctx.ul_power)
        np.testing.assert_allclose(sinr, expected, rtol=1e-9, atol=0)
        assert np.all(expected > 0) if zero_power_ue is None else np.all(sinr[:, 1] == 0)

    def test_only_all_serve_all_gives_its_sinr(self):
        # P-MMSE is MMSE when every AP serves every UE: the same combiners
        # and SINRs, bit for bit
        ctx, bundle = self._bundle("K<LN", 1, 2)
        sinr, psinr = np.full((2, 4), np.nan), np.full((2, 4), np.nan)
        v = compute_combiners("MMSE", bundle, sinr)
        assert same_bits(compute_combiners("P-MMSE", bundle, psinr), v)
        assert same_bits(psinr, sinr)
        for scheme in ("MR", "LP-MMSE", "L-MMSE"):
            with pytest.raises(ValueError, match="no SINR"):
                compute_combiners(scheme, bundle, np.empty((2, 4)))
        _, _, _, _, dcc = make_bundle(make_cfg(mode="centralized", schemes=("MMSE",)))
        for scheme in ("MMSE", "P-MMSE"):
            with pytest.raises(ValueError, match="no SINR"):
                compute_combiners(scheme, dcc, np.empty((6, 6)))


SCHEMES = ["MR", "LP-MMSE", "L-MMSE", "MMSE", "P-MMSE"]


class TestReadersOnlyReadTheBundle:
    """A bundle's estimates are computed once, from its declared demand:
    combiners and SINRs raise where it lacks an estimate they read, and
    never write into it."""

    @staticmethod
    def _cfg(all_serve_all=False):
        return make_cfg(num_aps=8, num_ues=6, pilot_len=3, all_serve_all=all_serve_all,
                        mode="centralized", schemes=("MMSE",))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_missing_estimate_raises(self, scheme):
        _, _, ctx, h, bundle = make_bundle(self._cfg())
        demand = estimate_demand_mask(scheme, ctx)
        ue, ap = np.argwhere(demand)[-1]
        demand[ue, ap] = False
        short = EstimationBundle(ctx, h, stream(1, 0, PILOT_NOISE, 0), demand)
        with pytest.raises(ValueError, match="outside the bundle's demand"):
            compute_combiners(scheme, short)
        v = compute_combiners(scheme, bundle)
        with pytest.raises(ValueError, match="outside the bundle's demand"):
            instantaneous_sinr(v, short, ctx.ul_power)

    def test_optimal_sinr_raises_without_an_estimate_at_a_serving_ap(self):
        _, assignment, ctx, h, _ = make_bundle(self._cfg())
        demand = np.ones((6, 8), dtype=bool)
        demand[0, assignment.serving_aps(1)[0]] = False
        short = EstimationBundle(ctx, h, stream(1, 0, PILOT_NOISE, 0), demand)
        with pytest.raises(ValueError, match="outside the bundle's demand"):
            optimal_sinr(short, 1)

    @pytest.mark.parametrize("all_serve_all", [False, True], ids=["clusters", "all-serve-all"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_read_only_estimates_suffice(self, scheme, all_serve_all):
        _, _, ctx, _, bundle = make_bundle(self._cfg(all_serve_all))
        bundle.hhat.flags.writeable = False
        v = compute_combiners(scheme, bundle)
        assert np.all(np.isfinite(instantaneous_sinr(v, bundle, ctx.ul_power)))
        assert np.all(np.isfinite(optimal_sinr(bundle, 0)))


class TestLocalSchemes:
    def test_lmmse_equals_lpmmse_when_ap_serves_everyone(self):
        cfg = make_cfg(num_aps=3, num_ues=4, pilot_len=4, all_serve_all=True)
        _, _, _, _, bundle = make_bundle(cfg)
        assert np.allclose(
            compute_combiners("L-MMSE", bundle),
            compute_combiners("LP-MMSE", bundle),
            rtol=1e-12, atol=0,
        )

    def test_single_ue_network_coincidence(self):
        cfg = make_cfg(num_aps=3, num_ues=1, pilot_len=2, area_side_km=0.2)
        _, _, _, _, bundle = make_bundle(cfg)
        assert np.allclose(
            compute_combiners("L-MMSE", bundle),
            compute_combiners("LP-MMSE", bundle),
            rtol=1e-12, atol=0,
        )

    def test_masking(self):
        cfg = make_cfg(num_aps=8, num_ues=6, pilot_len=3)
        _, assignment, _, _, bundle = make_bundle(cfg)
        for scheme in ("LP-MMSE", "L-MMSE"):
            v = compute_combiners(scheme, bundle)
            for k in range(cfg.num_ues):
                off = np.setdiff1d(np.arange(cfg.num_aps), assignment.serving_aps(k))
                assert np.all(v[:, k, off, :] == 0)


class TestBatchedMatchesReference:
    @pytest.mark.parametrize("scheme", ["MR", "LP-MMSE", "L-MMSE", "MMSE", "P-MMSE"])
    def test_single_realization_reference(self, scheme):
        cfg = make_cfg(num_aps=7, num_ues=6, pilot_len=3, antennas_per_ap=2,
                       mode="centralized", schemes=("MMSE",))
        _, _, ctx, _, bundle = make_bundle(cfg, batch=4)
        v = compute_combiners(scheme, bundle)
        for b in range(4):
            for k in range(cfg.num_ues):
                ref = combiner_single(scheme, k, bundle.hhat[b], ctx)
                assert np.allclose(v[b, k], ref, rtol=1e-10, atol=1e-18)

    @pytest.mark.parametrize("scheme", ["LP-MMSE", "L-MMSE"])
    def test_local_schemes_with_idle_and_partly_loaded_aps(self, scheme):
        # the per-AP gather pads |D_l| to the largest cluster; idle APs get nothing
        cfg = make_cfg(num_aps=20, num_ues=4, pilot_len=3, antennas_per_ap=2,
                       area_side_km=2.0, schemes=(scheme,))
        _, assignment, ctx, _, bundle = make_bundle(cfg, batch=3)
        sizes = assignment.cluster_sizes()
        assert sizes.min() == 0 and len(set(sizes[sizes > 0])) > 1, "fixture lost its shape"
        v = compute_combiners(scheme, bundle)
        for b in range(3):
            for k in range(cfg.num_ues):
                ref = combiner_single(scheme, k, bundle.hhat[b], ctx)
                assert np.allclose(v[b, k], ref, rtol=1e-10, atol=1e-18)


class TestKernelsMatchEinsumDefinitions:
    """The matmul kernels equal their einsum definitions (summation order only)."""

    @pytest.mark.parametrize("shape", [(3, 7, 5), (4, 6, 2), (2, 1, 4), (3, 5, 1)])
    def test_gram(self, shape, rng):
        # (B, S, n): centralized subspaces, LP-MMSE's (B, S, N), and S = 1
        hh = complex_normal(rng, shape)
        p = rng.uniform(0.1, 2.0, size=shape[1])
        expected = np.einsum("i,bim,bin->bmn", p, hh, np.conj(hh))
        assert np.allclose(_gram(p, hh), expected, rtol=1e-13, atol=0)

    def test_gram_with_per_ap_weights(self, rng):
        # LP-MMSE's stacked form: hh (B, L, S, N) with weights (L, 1, S)
        hh = complex_normal(rng, (3, 4, 5, 2))
        p = rng.uniform(0.0, 2.0, size=(4, 5))
        expected = np.einsum("ls,blsm,blsn->blmn", p, hh, np.conj(hh))
        assert np.allclose(_gram(p[:, None, :], hh), expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("k_v, k_h", [(4, 4), (3, 5), (1, 1), (1, 3)])
    def test_combining_gains(self, k_v, k_h, rng):
        v = complex_normal(rng, (2, k_v, 6, 2))
        h = complex_normal(rng, (2, k_h, 6, 2))
        expected = np.einsum("bkln,biln->bki", np.conj(v), h)
        assert np.allclose(combining_gains(v, h), expected, rtol=1e-13, atol=0)

    def test_complex_normal_is_bit_identical_to_its_formula(self):
        got = complex_normal(stream(3, 0, CHANNEL, 1), (4, 5, 3))
        z = stream(3, 0, CHANNEL, 1).standard_normal(size=(4, 5, 3, 2))
        assert np.array_equal(got, (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0))


class TestPrecoders:
    def test_unit_norm_constant_rescale(self):
        v = np.ones((3, 1, 2, 1), dtype=complex)
        w = build_precoders_centralized(v, np.array([1.0]), np.array([4.0]))
        assert np.allclose(w, v / 2.0)

    def test_mc_norm_self_consistency(self, rng):
        # E{||w||^2} = rho within Monte-Carlo error once normalized
        n = 4000
        v = complex_normal(rng, (n, 2, 3, 2)) * rng.uniform(0.5, 2.0, size=(1, 2, 3, 1))
        norm = combiner_norms(v)[0] / n
        w = build_precoders_centralized(v, np.array([1.0, 1.0]), norm)
        per_real = np.sum(np.abs(w) ** 2, axis=(2, 3))
        mean = per_real.mean(axis=0)
        stderr = per_real.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - 1.0) <= 3 * stderr)

    def test_distributed_single_ap_matches_classic_mr_normalization(self):
        # |M_k| = 1: w_il = sqrt(rho) hhat / sqrt(E{||hhat||^2})
        cfg = make_cfg(num_aps=1, num_ues=1, pilot_len=2, antennas_per_ap=2)
        _, _, ctx, _, bundle = make_bundle(cfg, batch=500)
        v = compute_combiners("MR", bundle)
        norm_local = np.mean(np.sum(np.abs(v) ** 2, axis=3), axis=0)
        rho = np.array([[0.8]])
        w = build_precoders_distributed(v, rho, norm_local)
        expected = np.sqrt(0.8) * bundle.hhat / np.sqrt(norm_local[0, 0])
        assert np.allclose(w, expected, rtol=1e-12)

    def test_degenerate_precoder_raises(self):
        v = np.zeros((2, 1, 1, 1), dtype=complex)
        with pytest.raises(DegeneratePrecoderError):
            build_precoders_centralized(v, np.array([1.0]), np.array([0.0]))

    def test_zero_power_ue_is_skipped(self):
        v = np.zeros((2, 1, 1, 1), dtype=complex)
        w = build_precoders_centralized(v, np.array([0.0]), np.array([0.0]))
        assert np.all(w == 0)


class TestBoundedGainPhenomenon:
    def test_local_mmse_gain_has_tighter_tail_than_mr(self, rng):
        # single-antenna single-user toy with perfect CSI: the regularized
        # local combiner gives gains g = |h|^2/(|h|^2+1) with compact support,
        # MR gives exponential |h|^2 with an unbounded tail
        n = 10_000
        h = complex_normal(rng, (n,))
        mr_gain = np.abs(h) ** 2
        lp = h / (np.abs(h) ** 2 + 1.0)
        lp_gain = np.real(np.conj(h) * lp)
        mr_gain /= np.sqrt(np.mean(mr_gain**2))
        lp_gain /= np.sqrt(np.mean(lp_gain**2))
        assert lp_gain.max() / lp_gain.mean() <= mr_gain.max() / mr_gain.mean()
