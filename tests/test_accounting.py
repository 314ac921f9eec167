import numpy as np
import pytest

from cellfree.accounting import (
    assert_scalable,
    cost_table_rows,
    fronthaul_load,
    measured_counts,
    multiplication_count,
)
from cellfree.clustering import ClusterAssignment, compute_partners
from cellfree.combining import estimate_demand_mask
from cellfree.estimation import EstimationBundle
from cellfree.rng import CHANNEL, PILOT_NOISE, stream
from cellfree.topology import sample_channels

from conftest import make_cfg, make_setup


def manual_assignment(serves, pilot_len, pilots=None):
    serves = np.asarray(serves, dtype=bool)
    L, K = serves.shape
    pilots = np.zeros(K, int) if pilots is None else np.asarray(pilots)
    masters = np.array([
        aps[0] if (aps := np.flatnonzero(serves[:, k])).size else 0 for k in range(K)
    ])
    return ClusterAssignment(pilot_len, pilots, masters, serves,
                             np.full((L, pilot_len), -1))


class TestFronthaul:
    def test_centralized_values(self):
        cfg = make_cfg(num_aps=3, num_ues=2, antennas_per_ap=4, pilot_len=10,
                       ul_data_len=190, dl_data_len=0)
        a = manual_assignment(np.ones((3, 2)), 10)
        loads = fronthaul_load("centralized", a, cfg)
        assert np.array_equal(loads[0], [40, 760, 0])

    def test_distributed_values(self):
        cfg = make_cfg(num_aps=2, num_ues=5, antennas_per_ap=4, pilot_len=10,
                       ul_data_len=190, dl_data_len=0)
        serves = np.zeros((2, 5), dtype=bool)
        serves[0, :3] = True   # |D_0| = 3
        serves[1, :] = True
        a = manual_assignment(serves, 10)
        loads = fronthaul_load("distributed", a, cfg)
        assert np.array_equal(loads[0], [0, 570, 0])

    def test_distributed_load_independent_of_k(self):
        # same |D_l| at two different K: identical per-AP load
        cfg_small = make_cfg(num_aps=1, num_ues=3, pilot_len=4, ul_data_len=95,
                             dl_data_len=95)
        cfg_large = make_cfg(num_aps=1, num_ues=30, pilot_len=4, ul_data_len=95,
                             dl_data_len=95)
        a_small = manual_assignment(np.ones((1, 3)), 4)
        serves = np.zeros((1, 30), dtype=bool)
        serves[0, :3] = True
        a_large = manual_assignment(serves, 4)
        assert np.array_equal(
            fronthaul_load("distributed", a_small, cfg_small)[0],
            fronthaul_load("distributed", a_large, cfg_large)[0],
        )

    def test_unknown_mode(self):
        cfg = make_cfg()
        a = manual_assignment(np.ones((1, 1)), cfg.pilot_len)
        with pytest.raises(ValueError):
            fronthaul_load("hybrid", a, cfg)


class TestTableFormulas:
    def test_mr_row(self):
        # (N tau_p + N^2) |M_k| = (40 + 16) * 5 = 280
        cfg = make_cfg(num_aps=5, num_ues=1, antennas_per_ap=4, pilot_len=10,
                       ul_data_len=95, dl_data_len=95)
        a = manual_assignment(np.ones((5, 1)), 10)
        counts = multiplication_count("MR", 0, a, cfg)
        assert counts == {"estimation": 280, "combining": 0}

    def test_lpmmse_estimation_row(self):
        # (N tau_p + N^2) sum |D_l| = 56 * 12
        cfg = make_cfg(num_aps=4, num_ues=3, antennas_per_ap=4, pilot_len=10,
                       ul_data_len=95, dl_data_len=95)
        serves = np.ones((4, 3), dtype=bool)  # UE 0: M_k = 4 APs x |D_l| = 3
        a = manual_assignment(serves, 10)
        counts = multiplication_count("LP-MMSE", 0, a, cfg)
        assert counts["estimation"] == 56 * 12

    def test_mmse_equals_pmmse_when_partners_cover_everyone(self):
        cfg = make_cfg(num_aps=3, num_ues=4, antennas_per_ap=2, pilot_len=4,
                       ul_data_len=95, dl_data_len=95)
        a = manual_assignment(np.ones((3, 4)), 4, pilots=np.arange(4))
        for k in range(4):
            assert multiplication_count("MMSE", k, a, cfg) == \
                multiplication_count("P-MMSE", k, a, cfg)

    def test_unknown_scheme(self):
        cfg = make_cfg()
        a = manual_assignment(np.ones((2, 1)), cfg.pilot_len)
        with pytest.raises(ValueError, match="unknown scheme"):
            multiplication_count("ZF", 0, a, cfg)


class TestInstrumentedCounters:
    @pytest.mark.parametrize("scheme", ["MR", "LP-MMSE", "MMSE", "P-MMSE"])
    def test_measured_equals_formula(self, scheme):
        cfg = make_cfg(num_aps=7, num_ues=6, pilot_len=3, antennas_per_ap=2,
                       area_side_km=0.4, mode="centralized", schemes=("MMSE",))
        topo, assignment, ctx = make_setup(cfg)
        h = sample_channels(topo, stream(2, 0, CHANNEL, 0), batch=1)
        bundle = EstimationBundle(ctx, h, stream(2, 0, PILOT_NOISE, 0))
        partners = compute_partners(assignment)
        est_unit = cfg.antennas_per_ap * cfg.pilot_len + cfg.antennas_per_ap**2
        for k in range(cfg.num_ues):
            measured = measured_counts(scheme, k, ctx, bundle.hhat[0])
            predicted = multiplication_count(scheme, k, assignment, cfg)
            assert measured == predicted
            if scheme == "P-MMSE":
                # P_k counted from UE k's serving APs equals its partner-matrix row
                M_k = assignment.serving_aps(k).size
                assert predicted["estimation"] == est_unit * partners[k].sum() * M_k
        if scheme == "P-MMSE":
            # estimates demanded: (i, l) with l serving some partner of UE i
            expected = (partners[:, :, None] & assignment.serves.T[None]).any(axis=1)
            assert np.array_equal(estimate_demand_mask(scheme, ctx), expected)


class TestScalable:
    def test_proposed_algorithm_is_scalable(self):
        cfg = make_cfg(num_aps=32, num_ues=16, pilot_len=4, area_side_km=0.8,
                       ul_data_len=95, dl_data_len=95)
        ok, rows = assert_scalable(cfg, [16, 32])
        assert ok
        assert all(r.max_cluster_size <= cfg.pilot_len for r in rows)

    def test_all_serve_all_is_not_scalable(self):
        cfg = make_cfg(num_aps=32, num_ues=16, pilot_len=4, area_side_km=0.8,
                       all_serve_all=True, ul_data_len=95, dl_data_len=95)
        ok, rows = assert_scalable(cfg, [16, 32])
        assert not ok
        assert any(r.max_cluster_size > cfg.pilot_len for r in rows)

    def test_boundary_single_ap_serving_tau_p_ues(self):
        cfg = make_cfg(num_aps=1, num_ues=3, pilot_len=3, ul_data_len=95,
                       dl_data_len=95)
        a = manual_assignment(np.ones((1, 3)), 3, pilots=np.arange(3))
        loads = fronthaul_load("distributed", a, cfg)
        assert loads[0, 1] == cfg.ul_data_len * cfg.pilot_len
        assert a.cluster_sizes()[0] == cfg.pilot_len  # bound attained


class TestCostTable:
    def test_rows_cover_aps_and_ues(self):
        cfg = make_cfg(num_aps=3, num_ues=2, pilot_len=2, schemes=("MR", "LP-MMSE"))
        _, assignment, _ = make_setup(cfg)
        rows = cost_table_rows(assignment, cfg)
        ap_rows = [r for r in rows if r[0] == "ap"]
        ue_rows = [r for r in rows if r[0] == "ue"]
        assert len(ap_rows) == 2 * 3 * 3  # two modes, three APs, three metrics
        assert len(ue_rows) == 2 * 2 * 2  # two schemes, two UEs, two metrics
