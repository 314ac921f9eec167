import numpy as np
import pytest

from cellfree.campaign import emit_results, run_campaign
from cellfree.combining import compute_combiners
from cellfree.estimation import EstimationBundle
from cellfree.power import dl_centralized_equal, per_ap_dl_power
from cellfree.rng import CHANNEL, PILOT_NOISE, stream
from cellfree.se import UatfAccumulator
from cellfree.topology import sample_channels

from conftest import make_cfg, make_setup


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestCampaign:
    def test_nothing_to_evaluate_rejected(self):
        cfg = make_cfg(ul_data_len=0, dl_data_len=0)
        with pytest.raises(ValueError, match="nothing to evaluate"):
            run_campaign(cfg)

    def test_scheme_and_direction_filtering(self):
        cfg = make_cfg(schemes=("MR",), ul_data_len=95, dl_data_len=95,
                       num_realizations=30)
        report = run_campaign(cfg)
        assert set(report.entries) == {("MR", "ul"), ("MR", "dl")}
        cfg_ul = make_cfg(schemes=("MR",), ul_data_len=190, dl_data_len=0,
                          num_realizations=30)
        assert set(run_campaign(cfg_ul).entries) == {("MR", "ul")}

    def test_multi_setup_indexing(self):
        cfg = make_cfg(num_setups=3, num_realizations=20, ul_data_len=190,
                       dl_data_len=0)
        report = run_campaign(cfg)
        values = report.values("MR", "ul")
        assert values.shape == (3 * cfg.num_ues,)
        per_setup = values.reshape(3, cfg.num_ues)
        assert not np.allclose(per_setup[0], per_setup[1])  # different drops
        assert report.setup_means("MR", "ul").shape == (3,)

    def test_genie_entries_present_when_enabled(self):
        cfg = make_cfg(schemes=("MR",), ul_data_len=0, dl_data_len=95,
                       num_realizations=30, genie_dl=True)
        report = run_campaign(cfg)
        assert ("MR", "dl_genie") in report.entries


class TestDeterminism:
    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = make_cfg(schemes=("MR", "LP-MMSE"), num_realizations=40,
                       num_setups=2, genie_dl=True)
        a, b = tmp_path / "a", tmp_path / "b"
        emit_results(run_campaign(cfg), a)
        emit_results(run_campaign(cfg), b)
        assert read_tree(a) == read_tree(b)

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = make_cfg(schemes=("MR", "LP-MMSE"), num_realizations=64,
                       num_setups=2, genie_dl=True)
        a, b = tmp_path / "a", tmp_path / "b"
        emit_results(run_campaign(cfg, threads=1), a)
        emit_results(run_campaign(cfg, threads=4), b)
        assert read_tree(a) == read_tree(b)

    def test_different_seed_changes_results(self):
        cfg = make_cfg(num_realizations=30)
        r1 = run_campaign(cfg)
        r2 = run_campaign(cfg.replace(seed=cfg.seed + 1))
        assert not np.allclose(r1.values("MR", "ul"), r2.values("MR", "ul"))

    def test_overwrite_in_place_is_identical(self, tmp_path):
        cfg = make_cfg(num_realizations=30)
        report = run_campaign(cfg)
        emit_results(report, tmp_path)
        first = read_tree(tmp_path)
        emit_results(report, tmp_path)
        assert read_tree(tmp_path) == first


class TestEmit:
    def test_table_row_count_and_header(self, tmp_path):
        cfg = make_cfg(num_ues=2, num_aps=6, pilot_len=3, schemes=("MR",),
                       ul_data_len=190, dl_data_len=0, num_realizations=20)
        report = run_campaign(cfg)
        emit_results(report, tmp_path)
        lines = (tmp_path / "se_per_ue.csv").read_text().splitlines()
        assert lines[0] == "ue,scheme,direction,se,stderr"
        assert len(lines) == 1 + 2  # 2 UEs x 1 scheme x UL only

    def test_cdf_file_structure(self, tmp_path):
        cfg = make_cfg(num_ues=5, num_realizations=20, ul_data_len=190,
                       dl_data_len=0, num_setups=2)
        emit_results(run_campaign(cfg), tmp_path)
        lines = (tmp_path / "cdf_ul_MR.csv").read_text().splitlines()
        assert lines[0] == "se,cdf"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 10
        levels = [float(r[1]) for r in rows]
        values = [float(r[0]) for r in rows]
        assert levels == sorted(levels) and values == sorted(values)
        assert levels[0] == pytest.approx(1 / 10) and levels[-1] == 1.0

    def test_metadata_has_config_echo_and_hash(self, tmp_path):
        cfg = make_cfg(num_realizations=20, ul_data_len=190, dl_data_len=0)
        report = run_campaign(cfg)
        emit_results(report, tmp_path)
        meta = (tmp_path / "metadata.txt").read_text()
        assert f"config_hash = {cfg.config_hash()}" in meta
        assert f"run.seed = {cfg.seed}" in meta
        assert "network.num_aps" in meta

    def test_assignments_serialized(self, tmp_path):
        import json

        cfg = make_cfg(num_setups=2, num_realizations=20, ul_data_len=190,
                       dl_data_len=0)
        emit_results(run_campaign(cfg), tmp_path)
        payload = json.loads((tmp_path / "assignments.json").read_text())
        assert len(payload) == 2
        assert len(payload[0]["pilot_of"]) == cfg.num_ues


class TestPerApPowerConstraint:
    def test_equal_allocation_fits_budget_with_real_combiner_norms(self):
        cfg = make_cfg(num_aps=8, num_ues=10, pilot_len=4, area_side_km=0.5,
                       mode="centralized", schemes=("P-MMSE",))
        topo, assignment, ctx = make_setup(cfg)
        acc = UatfAccumulator(cfg.num_ues, cfg.num_aps)
        for b in range(4):
            h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, b), 200)
            bundle = EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, b))
            v = compute_combiners("P-MMSE", bundle)
            acc.merge(UatfAccumulator.batch_partial(v, h, ctx.ul_power,
                                                    cfg.noise_ul_w, 0.95))
        spend = per_ap_dl_power(dl_centralized_equal(cfg),
                                acc.local_norms(), acc.moments().combiner_norm)
        assert np.all(spend <= cfg.ap_power_w * (1 + 1e-9))
