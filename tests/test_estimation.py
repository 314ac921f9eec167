import dataclasses
import tracemalloc

import numpy as np
import pytest

from cellfree.clustering import ClusterAssignment
from cellfree.estimation import EstimationBundle, SetupContext, despread
from cellfree.rng import CHANNEL, PILOT_NOISE, stream
from cellfree.scenarios import SCENARIOS
from cellfree.topology import Topology, sample_channels

from conftest import make_cfg, make_setup, same_bits


def scalar_setup(noise_w=1.0, gain=2.0, ue_power=0.1, pilot_len=10):
    """One UE, one single-antenna AP with R = [[gain]]: Psi = tau_p p R + sigma^2."""
    cfg = dataclasses.replace(
        make_cfg(num_aps=1, num_ues=1, antennas_per_ap=1, pilot_len=pilot_len,
                 ul_data_len=95, dl_data_len=95),
        noise_ul_w=noise_w, noise_dl_w=noise_w, ue_power_w=ue_power,
    )
    topo = Topology(
        ap_pos=np.zeros((1, 2)), ue_pos=np.zeros((1, 2)),
        beta=np.array([[gain]]), R=np.full((1, 1, 1, 1), gain, dtype=complex),
        area_side_km=cfg.area_side_km,
    )
    assignment = ClusterAssignment(
        pilot_len=cfg.pilot_len, pilot_of=np.array([0]), master_of=np.array([0]),
        serves=np.array([[True]]),
    )
    ctx = SetupContext(topo, assignment, np.array([ue_power]), cfg)
    return cfg, topo, assignment, ctx


class TestPilotCorrelation:
    def test_scalar_value(self):
        # Psi = tau_p p R + sigma^2 = 10 * 0.1 * 2 + 1 = 3
        _, _, _, ctx = scalar_setup()
        assert ctx.psi[0, 0, 0, 0] == pytest.approx(3.0)

    def test_unused_pilot_is_noise_only(self):
        _, _, _, ctx = scalar_setup()
        assert ctx.psi[1, 0, 0, 0] == pytest.approx(1.0)

    def test_two_sharers_sum(self):
        cfg = make_cfg(num_aps=3, num_ues=4, pilot_len=2, area_side_km=0.3)
        topo, assignment, ctx = make_setup(cfg)
        t, l = 0, 1
        sharers = np.flatnonzero(assignment.pilot_of == t)
        expected = np.sum(
            cfg.pilot_len * cfg.ue_power_w * topo.R[sharers, l], axis=0
        ) + cfg.noise_ul_w * np.eye(cfg.antennas_per_ap)
        assert np.allclose(ctx.psi[t, l], expected, rtol=1e-12)

    def test_hermitian_positive_definite(self):
        cfg = make_cfg(num_aps=4, num_ues=6, pilot_len=3)
        _, _, ctx = make_setup(cfg)
        for t in range(cfg.pilot_len):
            for l in range(cfg.num_aps):
                psi = ctx.psi[t, l]
                assert np.allclose(psi, psi.conj().T)
                assert np.linalg.eigvalsh(psi).min() > 0


class TestScalarEstimation:
    def test_filter_value_and_estimate(self):
        # filter = sqrt(p tau_p) R / Psi = 1 * 2 / 3; y = 3 -> hhat = 2
        _, _, _, ctx = scalar_setup()
        assert ctx.filter[0, 0, 0, 0] == pytest.approx(2.0 / 3.0)
        assert ctx.filter[0, 0, 0, 0] * 3.0 == pytest.approx(2.0)

    def test_error_covariance_value(self):
        # C = R - p tau_p R^2 / Psi = 2 - 4/3 = 2/3
        _, _, _, ctx = scalar_setup()
        assert ctx.C[0, 0, 0, 0] == pytest.approx(2.0 / 3.0)
        assert ctx.B[0, 0, 0, 0] == pytest.approx(4.0 / 3.0)

    def test_perfect_estimation_limit(self):
        # no contamination and vanishing noise: C -> 0
        _, _, _, ctx = scalar_setup(noise_w=1e-12)
        assert abs(ctx.C[0, 0, 0, 0]) < 1e-11

    def test_zero_observation_gives_zero_estimate(self):
        # no channel and no noise: the pilot signal is zero
        cfg, topo, _, ctx = scalar_setup(noise_w=0.0)
        h = np.zeros((2, 1, 1, 1), dtype=complex)
        assert np.all(despread(ctx, h, stream(1, 0, PILOT_NOISE, 0)) == 0)
        bundle = EstimationBundle(ctx, h, stream(1, 0, PILOT_NOISE, 0))
        assert np.all(bundle.hhat == 0)


class TestDecomposition:
    def test_b_plus_c_equals_r(self):
        cfg = make_cfg(num_aps=5, num_ues=7, pilot_len=3, antennas_per_ap=3)
        topo, _, ctx = make_setup(cfg)
        assert np.allclose(ctx.B + ctx.C, topo.R, rtol=1e-10, atol=1e-15)

    def test_error_covariance_psd(self):
        cfg = make_cfg(num_aps=5, num_ues=7, pilot_len=3, antennas_per_ap=3)
        _, _, ctx = make_setup(cfg)
        vals = np.linalg.eigvalsh(ctx.C)
        scale = np.real(np.trace(ctx.C, axis1=-2, axis2=-1)).max()
        assert vals.min() >= -1e-12 * scale


class TestDespreading:
    def test_noiseless_single_ue(self):
        # sigma^2 = 0: y = sqrt(tau_p p) h exactly
        cfg, topo, _, ctx = scalar_setup(noise_w=0.0)
        h = sample_channels(topo, stream(2, 0, CHANNEL, 0), batch=8)
        y = despread(ctx, h, stream(2, 0, PILOT_NOISE, 0))
        expected = np.sqrt(cfg.pilot_len * cfg.ue_power_w) * h[:, 0, 0, :]
        assert np.allclose(y[:, 0, 0, :], expected, rtol=1e-12)

    def test_unused_pilot_carries_no_signal(self):
        # same noise stream, channels scaled 2x: the empty pilot's signal term is zero
        cfg, topo, _, ctx = scalar_setup()
        h = sample_channels(topo, stream(3, 0, CHANNEL, 0), batch=4)
        y1 = despread(ctx, h, stream(3, 0, PILOT_NOISE, 0))
        y2 = despread(ctx, 2.0 * h, stream(3, 0, PILOT_NOISE, 0))
        assert np.allclose(y1[:, 1], y2[:, 1], rtol=1e-12)
        assert not np.allclose(y1[:, 0], y2[:, 0])

    def test_sample_covariance_matches_psi(self):
        cfg = make_cfg(num_aps=2, num_ues=3, pilot_len=2, antennas_per_ap=2)
        topo, assignment, ctx = make_setup(cfg)
        n = 50_000
        h = sample_channels(topo, stream(4, 0, CHANNEL, 0), batch=n)
        t, l = 0, 0
        y = despread(ctx, h, stream(4, 0, PILOT_NOISE, 0))[:, t, l, :]
        emp = np.einsum("bm,bn->mn", y, np.conj(y)) / n
        psi = ctx.psi[t, l]
        tol = 5.0 * np.sqrt(np.outer(np.diag(psi).real, np.diag(psi).real) / n)
        assert np.all(np.abs(emp - psi) <= tol)


class TestEstimateStatistics:
    def setup_method(self):
        self.cfg = make_cfg(num_aps=2, num_ues=3, pilot_len=2, antennas_per_ap=2)
        self.topo, self.assignment, self.ctx = make_setup(self.cfg)
        self.n = 50_000
        self.h = sample_channels(self.topo, stream(8, 0, CHANNEL, 0), batch=self.n)
        self.bundle = EstimationBundle(self.ctx, self.h, stream(8, 0, PILOT_NOISE, 0))

    def test_estimate_covariance_matches_b(self):
        k, l = 2, 1
        est = self.bundle.hhat[:, k, l, :]
        emp = np.einsum("bm,bn->mn", est, np.conj(est)) / self.n
        B = self.ctx.B[k, l]
        tol = 5.0 * np.sqrt(np.outer(np.diag(B).real, np.diag(B).real) / self.n)
        assert np.all(np.abs(emp - B) <= tol)

    def test_error_covariance_matches_c(self):
        k, l = 0, 0
        err = self.h[:, k, l, :] - self.bundle.hhat[:, k, l, :]
        emp = np.einsum("bm,bn->mn", err, np.conj(err)) / self.n
        C = self.ctx.C[k, l]
        tol = 5.0 * np.sqrt(np.outer(np.diag(C).real, np.diag(C).real) / self.n)
        assert np.all(np.abs(emp - C) <= tol)

    def test_estimate_error_orthogonality(self):
        k, l = 1, 0
        est = self.bundle.hhat[:, k, l, :]
        err = self.h[:, k, l, :] - est
        emp = np.einsum("bm,bn->mn", est, np.conj(err)) / self.n
        B, C = self.ctx.B[k, l], self.ctx.C[k, l]
        tol = 5.0 * np.sqrt(np.outer(np.diag(B).real, np.diag(C).real) / self.n)
        assert np.all(np.abs(emp) <= tol)

    def test_pilot_sharers_are_correlated_as_predicted(self):
        # UEs on the same pilot have cross-covariance sqrt(p_i p_k) tau_p R_il Psi^-1 R_kl
        pilots = self.assignment.pilot_of
        pairs = [(i, k) for i in range(3) for k in range(i + 1, 3) if pilots[i] == pilots[k]]
        assert pairs, "fixture should produce at least one shared pilot"
        i, k = pairs[0]
        l = 0
        a = self.bundle.hhat[:, i, l, :]
        b = self.bundle.hhat[:, k, l, :]
        emp = np.einsum("bm,bn->mn", a, np.conj(b)) / self.n
        p = self.ctx.ul_power
        predicted = (
            np.sqrt(p[i] * p[k]) * self.cfg.pilot_len
            * self.topo.R[i, l] @ np.linalg.inv(self.ctx.psi[pilots[i], l]) @ self.topo.R[k, l]
        )
        scale_i = np.diag(self.ctx.B[i, l]).real
        scale_k = np.diag(self.ctx.B[k, l]).real
        tol = 5.0 * np.sqrt(np.outer(scale_i, scale_k) / self.n)
        assert np.max(np.abs(predicted)) > tol.min()  # actually nonzero correlation
        assert np.all(np.abs(emp - predicted) <= tol)


class TestLazyDemand:
    def test_only_requested_pairs_are_computed(self):
        cfg = make_cfg(num_aps=4, num_ues=5, pilot_len=3)
        topo, _, ctx = make_setup(cfg)
        h = sample_channels(topo, stream(6, 0, CHANNEL, 0), batch=3)
        mask = np.zeros((5, 4), dtype=bool)
        mask[2, 1] = mask[0, 3] = True
        bundle = EstimationBundle(ctx, h, stream(6, 0, PILOT_NOISE, 0), mask)
        assert bundle._computed.sum() == 2
        assert np.all(bundle.hhat[:, ~mask] == 0) and np.all(bundle.hhat[:, mask] != 0)

    def test_requires_all_ues_admitted(self):
        cfg = make_cfg(num_aps=3, num_ues=2, pilot_len=2)
        topo, assignment, _ = make_setup(cfg)
        assignment.pilot_of[1] = -1
        with pytest.raises(ValueError, match="admitted"):
            SetupContext(topo, assignment, np.full(2, cfg.ue_power_w), cfg)


def _per_pair_estimates(ctx, y_pilot, mask):
    """The per-pair formula: each flagged pair's pilot row and filter are
    gathered, multiplied as one (N, N) @ (N, B) product per pair and
    scattered into an array of zeros."""
    B, _, L, N = y_pilot.shape
    hhat = np.zeros((B, ctx.pilot_of.size, L, N), dtype=complex)
    ues, aps = np.nonzero(mask)
    y = y_pilot[:, ctx.pilot_of[ues], aps, :]                     # (B, P, N)
    hhat[:, ues, aps, :] = np.moveaxis(ctx.filter[ues, aps] @ np.moveaxis(y, 0, -1), -1, 0)
    return hhat


class TestWholeTablePass:
    """A bundle estimates its declared demand in its constructor: every
    (UE, AP) pair in one pass over the whole table at one antenna, pair by
    pair otherwise; both must give the per-pair formula's bits, and exact
    zeros outside the demand."""

    @staticmethod
    def _bundle(antennas, batch, demand=None):
        # 8 UEs on 3 pilots: shared and distinct pilot rows
        cfg = make_cfg(num_aps=7, num_ues=8, pilot_len=3, antennas_per_ap=antennas)
        topo, _, ctx = make_setup(cfg)
        assert len(set(ctx.pilot_of.tolist())) == 3
        h = sample_channels(topo, stream(9, 0, CHANNEL, 0), batch=batch)
        y = despread(ctx, h, stream(9, 0, PILOT_NOISE, 0))
        return ctx, y, EstimationBundle(ctx, h, stream(9, 0, PILOT_NOISE, 0), demand)

    @pytest.mark.parametrize("antennas", [1, 4])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_equals_the_per_pair_path(self, antennas, batch):
        ctx, y, bundle = self._bundle(antennas, batch)
        expected = _per_pair_estimates(ctx, y, np.ones((8, 7), dtype=bool))
        assert same_bits(bundle.hhat, expected)
        assert bundle._computed.all()

    @pytest.mark.parametrize("antennas", [1, 4])
    @pytest.mark.parametrize("demand", ["every-pair", "partial"])
    def test_declared_demand_holds_the_per_pair_bits(self, demand, antennas):
        mask = np.ones((8, 7), dtype=bool)
        if demand == "partial":
            mask[1::2] = False
            mask[:, 0] = False
        ctx, y, bundle = self._bundle(antennas, 4, mask)
        # the per-pair formula writes into zeros: the same bits off the demand too
        assert same_bits(bundle.hhat, _per_pair_estimates(ctx, y, mask))
        assert np.array_equal(bundle._computed, mask)
        assert np.all(bundle.hhat[:, ~mask] == 0)
        # the bundle keeps no pilot signal
        assert set(vars(bundle)) == {"ctx", "channels", "hhat", "_computed"}


def _statistics_by_formula(ctx):
    """Psi^-1 R (by the solve), the filters, B and C, each step a new array."""
    R = ctx.topology.R
    psi_inv_R = np.linalg.solve(ctx.psi[ctx.pilot_of], R)
    scale = np.sqrt(ctx.ul_power * ctx.cfg.pilot_len)[:, None, None, None]
    filt = scale * np.conj(np.swapaxes(psi_inv_R, -1, -2))
    B = scale * filt @ R
    B = 0.5 * (B + np.conj(np.swapaxes(B, -1, -2)))
    C = R - B
    C = 0.5 * (C + np.conj(np.swapaxes(C, -1, -2)))
    return psi_inv_R, filt, B, C


def _check_lazy_statistics(ctx):
    """Psi^-1 R and B are not kept until read, and then have the formulas' bits."""
    assert not {"psi_inv_R", "B"} & set(vars(ctx))
    psi_inv_R, filt, B, C = _statistics_by_formula(ctx)
    assert same_bits(ctx.filter, filt) and same_bits(ctx.C, C)
    assert same_bits(ctx.psi_inv_R, psi_inv_R) and same_bits(ctx.B, B)
    assert {"psi_inv_R", "B"} <= set(vars(ctx))
    assert ctx.B is ctx.B


class TestSingleAntennaFilters:
    @pytest.mark.parametrize("scale", ["desk", "full"])
    def test_psi_inv_R_equals_the_solve(self, scale):
        # setup-i: 100 single-antenna APs and 40 UEs, or 400 and 100; the
        # division gives the solve's bits, and the lazy B the formula's
        cfg = getattr(SCENARIOS["setup-i-ul"], scale)
        _, _, ctx = make_setup(cfg)
        _check_lazy_statistics(ctx)


class TestLeanStatistics:
    """A SetupContext keeps filter, C, C_weighted_sum, psi and the
    despreading weights; construction holds at most three (K, L, N, N)
    arrays above R and psi. The networks have 512 KiB arrays: from 256 KiB
    on numpy adds into a temporary in place, which the bound relies on."""

    NETWORKS = {1: dict(num_aps=512, num_ues=64, pilot_len=8, area_side_km=1.5),
                4: dict(num_aps=64, num_ues=32, pilot_len=8, area_side_km=0.8)}

    @pytest.mark.parametrize("antennas", [1, 4])
    def test_construction_peak_and_what_is_kept(self, antennas):
        cfg = make_cfg(antennas_per_ap=antennas, **self.NETWORKS[antennas])
        topo, assignment, first = make_setup(cfg)
        array = topo.R.nbytes
        assert array == 512 * 1024
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ctx = SetupContext(topo, assignment, first.ul_power, cfg)
            kept, peak = (x - start for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        arrays = (ctx.filter, ctx.C, ctx.C_weighted_sum, ctx.psi, ctx._despread, ctx._scale)
        small = 32 * 1024        # the object, its dicts and the scalars
        assert kept <= sum(x.nbytes for x in arrays) + small
        # and numpy's iterator buffers for the mixed-layout adds
        buffers = 2 * np.getbufsize() * 16
        assert peak <= 3 * array + ctx.psi.nbytes + buffers + small, peak / array
        _check_lazy_statistics(ctx)
