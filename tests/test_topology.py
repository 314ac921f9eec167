import tracemalloc

import numpy as np
import pytest

from cellfree.clustering import build_assignment
from cellfree.rng import TOPOLOGY, complex_normal, stream
from cellfree.scenarios import SCENARIOS
from cellfree.topology import (
    BLOCK_VALUES,
    Topology,
    generate_topology,
    hermitian_sqrt,
    large_scale_coefficient,
    place_entities,
    row_blocks,
    sample_channels,
    spatial_correlation_matrix,
    toroidal_distance,
)

from conftest import make_cfg, same_bits


class TestRowBlocks:
    @pytest.mark.parametrize("count, per_row, least, sizes", [
        (10, BLOCK_VALUES // 4, 1, [4, 4, 2]),
        (9, BLOCK_VALUES // 4, 1, [4, 4, 1]),
        (9, BLOCK_VALUES // 4, 2, [4, 5]),          # a one-row remainder joins its block
        (9, BLOCK_VALUES, 2, [2, 2, 2, 3]),         # at least two rows over the budget
        (3, 2 * BLOCK_VALUES, 2, [3]),
        (1, 2 * BLOCK_VALUES, 2, [1]),              # fewer rows than least: one block
        (0, 8, 2, []),
    ])
    def test_sizes(self, count, per_row, least, sizes):
        blocks = row_blocks(count, per_row, least)
        assert [b.stop - b.start for b in blocks] == sizes
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))


class TestWraparound:
    def test_coincident_points_leave_only_height(self):
        # the drop's AP-UE distance has the AP height as its third side: a UE
        # on top of an AP is 10 m from it
        assert toroidal_distance((0.3, 0.4), (0.3, 0.4), 2.0) == 0.0
        cfg = make_cfg(num_aps=9, num_ues=7, shadow_std_db=0.0, ap_height_m=10.0)
        topo = generate_topology(cfg, stream(37, 0, TOPOLOGY))
        planar = toroidal_distance(topo.ap_pos[None, :, :], topo.ue_pos[:, None, :],
                                   cfg.area_side_km)
        expected = large_scale_coefficient(np.sqrt(planar ** 2 + 0.010 ** 2), 0.0, cfg)
        np.testing.assert_allclose(topo.beta, expected, rtol=1e-12)

    def test_wrap_is_shorter_across_the_edge(self):
        d = toroidal_distance((0.1, 0.1), (1.9, 1.9), 2.0)
        assert d == pytest.approx(np.sqrt(0.2**2 + 0.2**2), abs=1e-12)

    def test_mid_span_does_not_wrap(self):
        assert toroidal_distance((0.0, 0.0), (1.0, 0.0), 2.0) == pytest.approx(1.0)

    def test_torus_metric_properties(self, rng):
        side = 1.7
        a, b, c = np.moveaxis(rng.uniform(0, side, size=(30, 3, 2)), 1, 0)
        dab = toroidal_distance(a, b, side)
        np.testing.assert_allclose(dab, toroidal_distance(b, a, side), rtol=1e-12)
        assert np.all(dab <= toroidal_distance(a, c, side) + toroidal_distance(c, b, side) + 1e-12)


class TestPathloss:
    def test_hand_evaluated_reference_point(self):
        # 10 m, no shadowing: 10^((-30.5 - 36.7*log10(10)) / 10) = 10^-6.72
        cfg = make_cfg()
        assert large_scale_coefficient(0.01, 0.0, cfg) == pytest.approx(1.9054607179632464e-07, rel=1e-12)

    def test_shadowing_is_exact_db(self):
        cfg = make_cfg()
        assert large_scale_coefficient(0.05, 10.0, cfg) == pytest.approx(
            10.0 * large_scale_coefficient(0.05, 0.0, cfg), rel=1e-12
        )

    def test_doubling_distance_factor(self):
        cfg = make_cfg()
        ratio = large_scale_coefficient(0.02, 0.0, cfg) / large_scale_coefficient(0.04, 0.0, cfg)
        assert ratio == pytest.approx(10 ** (36.7 * np.log10(2) / 10), rel=1e-12)
        assert ratio == pytest.approx(12.73, abs=5e-3)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            large_scale_coefficient(0.0, 0.0, make_cfg())


class TestInPlacePasses:
    def test_gain_leaves_its_inputs_alone_unless_told(self, rng):
        cfg = make_cfg()
        dist = rng.uniform(0.01, 1.0, size=(5, 7))
        shadow = rng.normal(0.0, 8.0, size=(5, 7))
        kept = dist.copy()
        gain = large_scale_coefficient(dist, shadow, cfg)
        assert same_bits(dist, kept)
        assert same_bits(large_scale_coefficient(dist, shadow, cfg, out=dist), gain)
        assert same_bits(dist, gain)
        # a scalar shadowing broadcasts, and so does a shadowing larger than the distances
        assert large_scale_coefficient(kept[0], shadow, cfg).shape == (5, 7)

    def test_distances_equal_the_whole_array_formulas(self, rng):
        side = 1.3
        a = rng.uniform(0, side, size=(1, 9, 2))
        b = rng.uniform(0, side, size=(6, 1, 2))
        d = b - a
        d -= side * np.round(d / side)
        assert same_bits(toroidal_distance(a, b, side), np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2))
        # a drop's beta, built in row blocks, against one pass over the whole
        # (K, L) array: K a multiple of the block, not one, and below one block
        L = 500
        rows = BLOCK_VALUES // L
        for K in (2 * rows, 2 * rows + 3, rows // 2):
            cfg = make_cfg(num_aps=L, num_ues=K, area_side_km=2.0, ap_height_m=10.0)
            drawn = stream(41, K, TOPOLOGY)
            ap_pos, ue_pos = place_entities(cfg, drawn)
            shadow = drawn.normal(0.0, cfg.shadow_std_db, size=(K, L))
            d = ue_pos[:, None, :] - ap_pos[None, :, :]
            d -= cfg.area_side_km * np.round(d / cfg.area_side_km)
            dist = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + 0.010 ** 2)
            topo = generate_topology(cfg, stream(41, K, TOPOLOGY))
            assert same_bits(topo.beta, large_scale_coefficient(dist, shadow, cfg)), K


class TestCorrelationOnFirstUse:
    @pytest.mark.parametrize("antennas", [1, 4])
    def test_built_from_beta_and_the_angles(self, antennas):
        cfg = make_cfg(num_aps=7, num_ues=5, antennas_per_ap=antennas, angular_spread_deg=12.0)
        topo = generate_topology(cfg, stream(23, 0, TOPOLOGY))
        build_assignment(cfg, topo)
        assert topo._R is None, "admission should not build the correlation matrices"
        assert topo.antennas_per_ap == antennas
        d = topo.ue_pos[:, None, :] - topo.ap_pos[None, :, :]
        d -= cfg.area_side_km * np.round(d / cfg.area_side_km)
        angles = np.arctan2(d[..., 1], d[..., 0]) if antennas > 1 else 0.0
        expected = spatial_correlation_matrix(topo.beta, angles, np.deg2rad(12.0), antennas)
        assert same_bits(topo.R, expected)
        assert topo.R is topo.R

    def test_given_matrices_are_kept(self):
        cfg = make_cfg(num_aps=3, num_ues=2, antennas_per_ap=2)
        drawn = generate_topology(cfg, stream(29, 0, TOPOLOGY))
        R = drawn.R.copy()
        topo = Topology(drawn.ap_pos, drawn.ue_pos, drawn.beta, R, 0.5)
        assert topo.R is R and topo.antennas_per_ap == 2

    def test_assigned_matrices_are_the_ones_used(self):
        cfg = make_cfg(num_aps=3, num_ues=2, antennas_per_ap=2)
        topo = generate_topology(cfg, stream(31, 0, TOPOLOGY))
        h = sample_channels(topo, stream(31, 0, 1), batch=3)     # caches the square roots
        R = 4.0 * topo.R
        topo.R = R
        assert topo.R is R
        np.testing.assert_allclose(topo.correlation_sqrt(), hermitian_sqrt(R), rtol=1e-12)
        np.testing.assert_allclose(sample_channels(topo, stream(31, 0, 1), batch=3), 2.0 * h,
                                   rtol=1e-12)


class TestDropMemory:
    # criterion-6 density, one antenna: K UEs and 4K APs; tracemalloc peaks
    # in units of one (K, L) float array
    @staticmethod
    def _peaks(K, side_km):
        cfg = make_cfg(num_aps=4 * K, num_ues=K, antennas_per_ap=1, pilot_len=10,
                       area_side_km=side_km, ul_data_len=95, dl_data_len=95, seed=0)
        tracemalloc.start()
        try:
            topo = generate_topology(cfg, stream(1000 + K, 0, TOPOLOGY))
            topology_peak = tracemalloc.get_traced_memory()[1]
            build_assignment(cfg, topo)
            drop_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = K * 4 * K * 8
        return topology_peak / unit, drop_peak / unit

    def test_one_drop_peaks_under_four_and_a_half_gain_arrays(self):
        # 100 UEs and 400 APs on 2 km x 2 km: a row block's temporaries are
        # worth about 2.4 gain arrays at this size
        assert self._peaks(100, 2.0)[1] <= 4.5

    def test_a_400_ue_drop_holds_one_gain_array_and_a_block(self):
        # 400 UEs and 1600 APs on 4 km x 4 km: beta plus one row block in
        # the topology, the Step-3 distance blocks on top in admission
        topology_peak, drop_peak = self._peaks(400, 4.0)
        assert topology_peak <= 1.5
        assert drop_peak <= 2.0


class TestCorrelation:
    def test_single_antenna_is_beta(self):
        R = spatial_correlation_matrix(np.array(0.37), np.array(0.5), 0.1, 1)
        assert R.shape == (1, 1)
        assert R[0, 0] == pytest.approx(0.37)

    @staticmethod
    def _docstring_formula(beta, phi, spread, n):
        delta = np.arange(n)[:, None] - np.arange(n)[None, :]
        return (beta[..., None, None] * np.exp(1j * np.pi * delta * np.sin(phi)[..., None, None])
                * np.exp(-0.5 * (spread * np.pi * delta) ** 2 * np.cos(phi)[..., None, None] ** 2))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_bits_equal_the_docstring_formula(self, rng, n):
        # N = 1 takes a shortcut that must give the formula's bits
        beta = 10 ** rng.uniform(-12, 0, size=(40, 160))
        phi = rng.uniform(-np.pi, np.pi, size=(40, 160))
        R = spatial_correlation_matrix(beta, phi, np.deg2rad(15.0), n)
        expected = self._docstring_formula(beta, phi, np.deg2rad(15.0), n)
        assert R.shape == expected.shape and R.dtype == expected.dtype
        assert np.array_equal(R.view(np.uint64), expected.view(np.uint64))

    def test_single_antenna_broadcasts_like_the_formula(self):
        R = spatial_correlation_matrix(np.array(0.37), np.zeros((2, 3)), 0.1, 1)
        assert R.shape == (2, 3, 1, 1) and np.all(R == 0.37)

    def test_huge_spread_kills_offdiagonals(self):
        R = spatial_correlation_matrix(np.array(1.0), np.array(0.3), 1e3, 4)
        off = R - np.diag(np.diag(R))
        assert np.max(np.abs(off)) < 1e-12
        assert np.allclose(np.diag(R), 1.0)

    def test_psd_via_eigensolver_oracle(self):
        beta = 0.8
        R = spatial_correlation_matrix(np.array(beta), np.array(0.0), np.deg2rad(15.0), 4)
        assert np.allclose(R, R.conj().T)
        assert np.linalg.eigvalsh(R).min() >= -1e-12 * beta

    def test_trace_equals_n_beta(self, rng):
        beta = rng.uniform(0.1, 2.0, size=(5, 4))
        phi = rng.uniform(-np.pi, np.pi, size=(5, 4))
        R = spatial_correlation_matrix(beta, phi, np.deg2rad(20.0), 3)
        traces = np.real(np.trace(R, axis1=-2, axis2=-1))
        assert np.allclose(traces, 3 * beta, rtol=1e-12)


class TestPlacement:
    def test_positions_inside_square(self):
        cfg = make_cfg(area_side_km=2.0, num_aps=40, num_ues=25)
        topo = generate_topology(cfg, stream(7, 0, TOPOLOGY))
        for pos in (topo.ap_pos, topo.ue_pos):
            assert np.all(pos >= 0) and np.all(pos < 2.0)

    def test_different_seeds_move_everyone(self):
        cfg = make_cfg()
        a = generate_topology(cfg, stream(1, 0, TOPOLOGY))
        b = generate_topology(cfg, stream(2, 0, TOPOLOGY))
        assert not np.allclose(a.ap_pos, b.ap_pos)
        assert not np.allclose(a.ue_pos, b.ue_pos)

    def test_no_ues_is_a_valid_skeleton(self):
        # degenerate input for the placement op (a campaign config needs K >= 1)
        import dataclasses

        cfg = dataclasses.replace(make_cfg(), num_ues=0)
        topo = generate_topology(cfg, stream(1, 0, TOPOLOGY))
        assert topo.ue_pos.shape == (0, 2)
        assert topo.beta.shape == (0, cfg.num_aps)

    def test_beta_matches_trace_invariant(self):
        cfg = make_cfg(num_aps=6, num_ues=4, antennas_per_ap=3)
        topo = generate_topology(cfg, stream(3, 0, TOPOLOGY))
        traces = np.real(np.trace(topo.R, axis1=-2, axis2=-1))
        assert np.allclose(traces / cfg.antennas_per_ap, topo.beta, rtol=1e-9)


class TestSampling:
    def test_zero_covariance_gives_zero_channel(self):
        cfg = make_cfg(num_aps=2, num_ues=2)
        topo = generate_topology(cfg, stream(5, 0, TOPOLOGY))
        topo.correlation_sqrt()
        # setting R drops the roots cached from the old one
        topo.R = np.zeros_like(topo.R)
        h = sample_channels(topo, stream(5, 0, 1), batch=4)
        assert np.all(h == 0)

    def test_sample_covariance_oracle(self):
        cfg = make_cfg(num_aps=2, num_ues=2, antennas_per_ap=2)
        topo = generate_topology(cfg, stream(11, 0, TOPOLOGY))
        n = 100_000
        h = sample_channels(topo, stream(11, 0, 1), batch=n)
        k, l = 1, 0
        samples = h[:, k, l, :]
        emp = np.einsum("bm,bn->mn", samples, np.conj(samples)) / n
        R = topo.R[k, l]
        tol = 5.0 * np.sqrt(np.outer(np.diag(R).real, np.diag(R).real) / n)
        assert np.all(np.abs(emp - R) <= tol)

    def test_cross_ap_independence(self):
        cfg = make_cfg(num_aps=2, num_ues=1, antennas_per_ap=2)
        topo = generate_topology(cfg, stream(13, 0, TOPOLOGY))
        n = 100_000
        h = sample_channels(topo, stream(13, 0, 1), batch=n)
        cross = np.einsum("bm,bn->mn", h[:, 0, 0, :], np.conj(h[:, 0, 1, :])) / n
        tol = 5.0 * np.sqrt(
            np.outer(np.diag(topo.R[0, 0]).real, np.diag(topo.R[0, 1]).real) / n
        )
        assert np.all(np.abs(cross) <= tol)

    def test_whitened_samples_have_identity_covariance(self):
        cfg = make_cfg(num_aps=1, num_ues=1, antennas_per_ap=3, angular_spread_deg=40.0)
        topo = generate_topology(cfg, stream(17, 0, TOPOLOGY))
        n = 100_000
        h = sample_channels(topo, stream(17, 0, 1), batch=n)[:, 0, 0, :]
        R = topo.R[0, 0]
        vals, vecs = np.linalg.eigh(R)
        white = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
        z = h @ white.T
        emp = z.T @ np.conj(z) / n
        assert np.all(np.abs(emp - np.eye(3)) <= 5.0 / np.sqrt(n))

    @pytest.mark.parametrize("antennas, batch", [
        pytest.param(1, 1, id="1"), pytest.param(1, 5, id="5"),
        pytest.param(2, 1, id="N2-1"), pytest.param(2, 5, id="N2-5"),
        pytest.param(4, 1, id="N4-1"), pytest.param(4, 5, id="N4-5"),
    ])
    def test_single_antenna_equals_the_einsum(self, antennas, batch):
        # setup-i at desk scale: 40 UEs, 100 APs; the same bits at one
        # antenna, the stacked matmul within rounding of the einsum above it
        cfg = SCENARIOS["setup-i-ul"].desk.replace(antennas_per_ap=antennas)
        topo = generate_topology(cfg, stream(19, 0, TOPOLOGY))
        h = sample_channels(topo, stream(19, 0, 1), batch=batch)
        z = complex_normal(stream(19, 0, 1), (batch, 40, 100, antennas))
        expected = np.einsum("klmn,bkln->bklm", topo.correlation_sqrt(), z)
        assert h.flags.c_contiguous
        if antennas == 1:
            assert same_bits(h, expected)
        else:
            np.testing.assert_allclose(h, expected, rtol=1e-13, atol=0)

    def test_non_psd_input_raises(self):
        R = np.array([[[[1.0 + 0j, 0], [0, -0.5]]]])
        with pytest.raises(np.linalg.LinAlgError):
            hermitian_sqrt(R)
        with pytest.raises(np.linalg.LinAlgError):
            hermitian_sqrt(np.array([[[[0.5 + 0j]], [[-1e-30 + 0j]]]]))

    def test_single_antenna_root_equals_the_eigendecomposition(self, rng):
        # one antenna takes the elementwise root; it must give the bits of
        # the eigendecomposition route, on the scenario drops and on beta
        # spanning 10^-16..1
        def eigh_route(R):
            vals, vecs = np.linalg.eigh(R)
            return (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) \
                @ np.conj(np.swapaxes(vecs, -1, -2))

        betas = [10 ** rng.uniform(-16, 0, size=(60, 200))]
        for scenario in ("setup-i-ul", "setup-i-dl"):
            cfg = SCENARIOS[scenario].full
            betas.append(generate_topology(cfg, stream(cfg.seed, 0, TOPOLOGY)).beta)
        for beta in betas:
            R = spatial_correlation_matrix(beta, 0.0, 0.0, 1)
            assert same_bits(hermitian_sqrt(R), eigh_route(R))
