import ctypes
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cellfree import campaign, topology
from cellfree.campaign import _batch_sizes, emit_results, run_campaign
from cellfree.combining import DegeneratePrecoderError, compute_combiners
from cellfree.estimation import EstimationBundle
from cellfree.power import dl_centralized_equal, per_ap_dl_power
from cellfree.rng import CHANNEL, PILOT_NOISE, stream
from cellfree.se import (DownlinkAccumulator, DownlinkBlockMoments, NumericError,
                         UatfAccumulator, combiner_norms)
from cellfree.topology import BLOCK_VALUES, sample_channels

from conftest import make_cfg, make_setup, same_bits

ROOT = Path(__file__).resolve().parents[1]


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


    @pytest.mark.parametrize("mode, genie, accumulator", [
        ("centralized", False, DownlinkBlockMoments),     # one pass
        ("distributed", True, DownlinkAccumulator),       # the genie's second pass
    ])
    def test_downlink_failure_names_setup_and_scheme(self, monkeypatch, mode, genie,
                                                     accumulator):
        def fail(self, *args):
            raise NumericError("injected")

        monkeypatch.setattr(accumulator, "finalize", fail)
        cfg = make_cfg(mode=mode, genie_dl=genie, ul_data_len=0, num_realizations=48,
                       schemes=("LP-MMSE",))
        with pytest.raises(NumericError, match="^setup 0, scheme LP-MMSE: injected$"):
            run_campaign(cfg)


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

    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        cfg = make_cfg(num_realizations=20, ul_data_len=190, dl_data_len=0)
        report = run_campaign(cfg)
        emit_results(report, tmp_path)
        earlier = read_tree(tmp_path)

        def disk_full(fd):
            # half the text reached the disk before the failure
            os.ftruncate(fd, os.fstat(fd).st_size // 2)
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", disk_full)
        report.entries[("MR", "ul")].se[:] += 1.0
        with pytest.raises(OSError, match="disk full"):
            emit_results(report, tmp_path)
        assert read_tree(tmp_path) == earlier

    def test_assignments_serialized(self, tmp_path):
        import json

        cfg = make_cfg(num_setups=2, num_realizations=20, ul_data_len=190,
                       dl_data_len=0)
        emit_results(run_campaign(cfg), tmp_path)
        payload = json.loads((tmp_path / "assignments.json").read_text())
        assert len(payload) == 2
        assert len(payload[0]["pilot_of"]) == cfg.num_ues


class TestOnePassDownlink:
    """With block moments small enough, the downlink is accumulated in the
    first pass: without the genie, or with it in centralized operation when
    the genie's gain powers fit in one batch array."""

    CASES = {
        "distributed": dict(mode="distributed", schemes=("MR", "LP-MMSE", "L-MMSE")),
        "centralized": dict(mode="centralized", schemes=("MR", "MMSE", "P-MMSE", "LP-MMSE")),
        "centralized-all-serve-all": dict(mode="centralized", all_serve_all=True,
                                          schemes=("MMSE", "P-MMSE", "MR")),
        "distributed-batches-of-one": dict(mode="distributed", num_realizations=5,
                                           schemes=("MR", "LP-MMSE")),
        "centralized-batches-of-one": dict(mode="centralized", num_realizations=5,
                                           schemes=("P-MMSE", "MR")),
    }

    @staticmethod
    def _cfg(case, **kw):
        base = dict(num_aps=8, num_ues=6, pilot_len=3, antennas_per_ap=2, seed=3,
                    num_realizations=48, genie_dl=False)
        return make_cfg(**{**base, **TestOnePassDownlink.CASES[case], **kw})

    @pytest.fixture
    def single_pass(self, monkeypatch):
        """Take the single pass whenever the genie is off, whatever the
        size of the block moments, so that every case exercises it."""
        monkeypatch.setattr(campaign, "_block_moments_fit", lambda cfg, blocks, batch: True)

    @pytest.fixture
    def genie_two_pass(self, monkeypatch):
        """Keep the genie's second pass in centralized operation too."""
        monkeypatch.setattr(campaign, "_genie_powers_fit", lambda cfg: False)

    @staticmethod
    def _draws(monkeypatch, cfg):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return sample_channels(*args, **kwargs)

        monkeypatch.setattr(campaign, "sample_channels", counting)
        run_campaign(cfg)
        passes, rest = divmod(len(calls), len(_batch_sizes(cfg)))
        assert rest == 0 and calls == _batch_sizes(cfg) * passes
        return passes

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_two_pass_downlink(self, monkeypatch, single_pass, genie_two_pass, case):
        cfg = self._cfg(case)
        one = run_campaign(cfg)
        two = run_campaign(cfg.replace(genie_dl=True))
        # a distributed uplink on the single pass comes from the block sums
        # (duality), on the two-pass side from the gains: equal up to rounding
        ul_by_duality = cfg.mode == "distributed"
        for scheme in cfg.schemes:
            for direction in ("dl", "ul") if ul_by_duality else ("dl",):
                got, expected = one.entries[(scheme, direction)], two.entries[(scheme, direction)]
                np.testing.assert_allclose(got.se, expected.se, rtol=1e-12, atol=0)
                np.testing.assert_allclose(got.stderr, expected.stderr, rtol=1e-12, atol=0)
            if not ul_by_duality:
                np.testing.assert_array_equal(one.values(scheme, "ul"), two.values(scheme, "ul"))
        assert self._draws(monkeypatch, cfg) == 1

    @pytest.mark.parametrize("case", ["distributed", "distributed-batches-of-one"])
    def test_single_pass_uplink_forms_no_gains(self, monkeypatch, single_pass, case):
        def refuse(*args, **kwargs):
            raise AssertionError("uplink gains or combiner norms formed on the single pass")

        monkeypatch.setattr(UatfAccumulator, "batch_partial", staticmethod(refuse))
        monkeypatch.setattr(campaign, "combiner_norms", refuse)
        assert run_campaign(self._cfg(case)).directions == ("ul", "dl")

    @pytest.mark.parametrize("case", ["centralized", "centralized-all-serve-all",
                                      "centralized-batches-of-one"])
    def test_genie_matches_the_two_pass_downlink(self, monkeypatch, single_pass, case):
        cfg = self._cfg(case, genie_dl=True)
        one = run_campaign(cfg)
        assert self._draws(monkeypatch, cfg) == 1
        monkeypatch.setattr(campaign, "_genie_powers_fit", lambda cfg: False)
        two = run_campaign(cfg)
        assert self._draws(monkeypatch, cfg) == 2
        assert one.directions == two.directions == ("ul", "dl", "dl_genie")
        for scheme in cfg.schemes:
            for direction in ("dl", "dl_genie"):
                got, expected = one.entries[(scheme, direction)], two.entries[(scheme, direction)]
                np.testing.assert_allclose(got.se, expected.se, rtol=1e-12, atol=0)
                np.testing.assert_allclose(got.stderr, expected.stderr, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(one.values(scheme, "ul"), two.values(scheme, "ul"))

    @pytest.mark.parametrize("spare, passes", [(0, 1), (-1, 2)])
    def test_large_genie_powers_keep_the_second_pass(self, monkeypatch, spare, passes):
        # 4 schemes x 48 realizations x 6^2 gain powers, against four times a
        # cap moved to just fit or not; one scheme's powers fit either way
        cfg = self._cfg("centralized", genie_dl=True)
        sizes = _batch_sizes(cfg)
        monkeypatch.setattr(campaign, "_BATCH_VALUES", 48 * 6**2 + spare)
        assert _batch_sizes(cfg) == sizes
        assert self._draws(monkeypatch, cfg) == passes

    @pytest.mark.parametrize("genie, passes", [(False, 1), (True, 2)])
    def test_channel_draws_per_batch(self, monkeypatch, genie, passes):
        # one block per UE: 6 block pairs, within a quarter of a 3-realization batch
        cfg = self._cfg("distributed", genie_dl=genie, max_neighbors=0)
        assert self._draws(monkeypatch, cfg) == passes

    @pytest.mark.parametrize("kw", [
        dict(all_serve_all=True),       # K * L^2 = 384 block pairs
        dict(),                         # DCC clusters: 108 block pairs
        dict(num_realizations=5),       # batches of one
    ], ids=["all-serve-all", "clusters", "batches-of-one"])
    def test_large_block_moments_keep_the_second_pass(self, monkeypatch, kw):
        cfg = self._cfg("distributed", **kw)
        assert self._draws(monkeypatch, cfg) == 2
        assert run_campaign(cfg).directions == ("ul", "dl")

    def test_centralized_takes_one_pass(self, monkeypatch):
        # one block per UE: S is K x K; distributed genie campaigns take two
        # passes (test_channel_draws_per_batch)
        for genie in (False, True):
            cfg = self._cfg("centralized", all_serve_all=True, genie_dl=genie)
            assert self._draws(monkeypatch, cfg) == 1

    def test_thread_count_does_not_change_bytes(self, tmp_path, single_pass):
        # with the genie on, distributed campaigns take the second pass
        for case in ("distributed", "centralized"):
            for genie in (False, True):
                cfg = self._cfg(case, num_realizations=64, num_setups=2, genie_dl=genie)
                a, b = tmp_path / f"{case}-{genie}-1", tmp_path / f"{case}-{genie}-2"
                emit_results(run_campaign(cfg, threads=1), a)
                emit_results(run_campaign(cfg, threads=2), b)
                assert read_tree(a) == read_tree(b)

    @pytest.mark.parametrize("case", ["distributed", "centralized"])
    def test_powered_ue_without_combiner_energy_raises(self, monkeypatch, single_pass, case):
        def silent_ue0(scheme, bundle):
            v = compute_combiners(scheme, bundle)
            v[:, 0] = 0
            return v

        monkeypatch.setattr(campaign, "compute_combiners", silent_ue0)
        with pytest.raises(DegeneratePrecoderError):
            run_campaign(self._cfg(case, ul_data_len=0))


class TestDownlinkOnlyDistributed:
    """Without an uplink, pass 1 of a two-pass distributed campaign sums the
    combiner norms alone: no uplink gains, moments or replicas."""

    @pytest.mark.parametrize("kw", [
        dict(genie_dl=True),                          # the genie takes two passes
        dict(genie_dl=False, all_serve_all=True),     # block moments too large
    ], ids=["genie", "all-serve-all"])
    def test_downlink_equals_the_campaign_with_an_uplink(self, monkeypatch, kw):
        cfg = make_cfg(num_aps=8, num_ues=6, pilot_len=3, seed=3, num_realizations=48,
                       mode="distributed", schemes=("MR", "LP-MMSE"), **kw)
        with_ul = run_campaign(cfg)

        def no_uplink(*args, **kwargs):
            raise AssertionError("uplink bound computed in a downlink-only campaign")

        monkeypatch.setattr(UatfAccumulator, "batch_partial", staticmethod(no_uplink))
        dl_only = run_campaign(cfg.replace(ul_data_len=0))
        assert dl_only.directions == with_ul.directions[1:]
        for scheme in cfg.schemes:
            for direction in dl_only.directions:
                got, expected = dl_only.entries[(scheme, direction)], with_ul.entries[(scheme, direction)]
                assert same_bits(got.se, expected.se) and same_bits(got.stderr, expected.stderr)


class TestBatchMemory:
    """Traced peak of a campaign's batches, in (B, K, L, N) batch arrays above
    what the setup holds: at most three (the channels, the estimates and the
    combiners), plus the budget of one step's temporaries and as much again
    for numpy's working buffers and the batch's small outputs (gains, SINRs,
    partial sums). Batches of 256 realizations of a network with K << L: a
    batch array takes 8 MiB, sixteen budgets."""

    BATCH = 256
    NETWORK = dict(num_aps=256, num_ues=8, pilot_len=2, antennas_per_ap=1, area_side_km=1.0,
                   max_neighbors=5, seed=7, num_realizations=2 * BATCH)
    # route: (config, channel draws per batch)
    ROUTES = {
        "centralized-mmse-all-ul": (dict(mode="centralized", schemes=("MMSE",),
                                         all_serve_all=True, dl_data_len=0), 1),
        "centralized-p-mmse-ul": (dict(mode="centralized", schemes=("P-MMSE",),
                                       dl_data_len=0), 1),
        "distributed-lp-mmse-ul": (dict(mode="distributed", schemes=("LP-MMSE",),
                                        dl_data_len=0), 1),
        "distributed-mr-ul": (dict(mode="distributed", schemes=("MR",), dl_data_len=0), 1),
        "distributed-genie-dl-two-pass": (dict(mode="distributed", schemes=("LP-MMSE",),
                                               ul_data_len=0, genie_dl=True), 2),
        "distributed-dl-block-moments": (dict(mode="distributed", schemes=("LP-MMSE",),
                                              ul_data_len=0), 1),
        "centralized-genie-dl-single-pass": (dict(mode="centralized", schemes=("P-MMSE",),
                                                  ul_data_len=0, genie_dl=True), 1),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_peak_within_three_batch_arrays(self, monkeypatch, route):
        kw, passes = self.ROUTES[route]
        cfg = make_cfg(**{**self.NETWORK, **kw})
        monkeypatch.setattr(campaign, "_batch_sizes", lambda cfg: [self.BATCH] * 2)
        run_campaign(cfg)                       # imports and caches of a first run
        seen = {"draws": 0}

        def drawing(*args, **kwargs):
            if not seen["draws"]:
                seen["setup"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            seen["draws"] += 1
            return sample_channels(*args, **kwargs)

        def context(*args, build=campaign.SetupContext, **kwargs):
            seen["ctx"] = build(*args, **kwargs)
            return seen["ctx"]

        monkeypatch.setattr(campaign, "sample_channels", drawing)
        monkeypatch.setattr(campaign, "SetupContext", context)
        tracemalloc.start()
        try:
            run_campaign(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seen["draws"] == 2 * passes
        # setup statistics built on first use, and the genie powers kept
        ctx = seen["ctx"]
        held = ctx.topology.correlation_sqrt().nbytes
        held += sum(z.nbytes for z in ctx._noise_cache.values())
        held += 0 if ctx._partners is None else ctx._partners.nbytes
        if cfg.genie_dl and cfg.mode == "centralized":
            held += cfg.num_realizations * cfg.num_ues**2 * 8
        batch_array = self.BATCH * cfg.num_ues * cfg.num_aps * cfg.antennas_per_ap * 16
        above = (peak - seen["setup"] - held) / batch_array
        budget = BLOCK_VALUES * 16 / batch_array
        assert above <= 3 + 2 * budget, f"{above:.3f} batch arrays"

    @pytest.mark.parametrize("antennas", [1, 2])
    @pytest.mark.parametrize("kw", [
        dict(mode="centralized", schemes=("MMSE", "P-MMSE", "LP-MMSE", "MR"), genie_dl=True),
        dict(mode="centralized", schemes=("MMSE", "MR"), all_serve_all=True),
        dict(mode="distributed", schemes=("MR", "LP-MMSE", "L-MMSE"), genie_dl=True),
        dict(mode="distributed", schemes=("LP-MMSE", "MR"), max_neighbors=0),
    ], ids=["centralized-genie", "all-serve-all", "distributed-genie", "block-moments"])
    def test_blocks_of_one_realization_change_no_byte(self, monkeypatch, tmp_path, antennas, kw):
        # every budget-sized block holds one realization (or one estimate pair)
        cfg = make_cfg(num_aps=12, num_ues=8, pilot_len=3, antennas_per_ap=antennas, seed=3,
                       num_realizations=48, **kw)
        emit_results(run_campaign(cfg), tmp_path / "whole")
        monkeypatch.setattr(topology, "BLOCK_VALUES", 1)
        emit_results(run_campaign(cfg, threads=2), tmp_path / "blocks")
        assert read_tree(tmp_path / "whole") == read_tree(tmp_path / "blocks")


class TestPerApPowerConstraint:
    def test_equal_allocation_fits_budget_with_real_combiner_norms(self):
        cfg = make_cfg(num_aps=8, num_ues=10, pilot_len=4, area_side_km=0.5,
                       mode="centralized", schemes=("P-MMSE",))
        topo, assignment, ctx = make_setup(cfg)
        norm, norm_local = np.zeros(cfg.num_ues), np.zeros((cfg.num_ues, cfg.num_aps))
        for b in range(4):
            h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, b), 200)
            bundle = EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, b))
            total, per_ap = combiner_norms(compute_combiners("P-MMSE", bundle), per_ap=True)
            norm += total
            norm_local += per_ap
        spend = per_ap_dl_power(dl_centralized_equal(cfg), norm_local / 800, norm / 800)
        assert np.all(spend <= cfg.ap_power_w * (1 + 1e-9))


# two desk setup-i-dl MR campaigns in one process; prints whether the heap
# thresholds took and the minor page faults of the second campaign
SECOND_CAMPAIGN_FAULTS = """
import json, resource
from cellfree import campaign
from cellfree.scenarios import SCENARIOS
cfg = SCENARIOS["setup-i-dl"].desk.replace(schemes=("MR",), mode="distributed",
                                            num_setups=1, num_realizations=256)
campaign.run_campaign(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
campaign.run_campaign(cfg)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps([campaign._keep_freed_memory(), faults]))
"""


def _missing_library(name):
    raise OSError(f"cannot load {name}")


class TestFreedMemoryStaysInTheProcess:
    @pytest.fixture
    def fresh_helper(self):
        campaign._keep_freed_memory.cache_clear()
        yield
        campaign._keep_freed_memory.cache_clear()

    def test_second_campaign_faults_no_batch_arrays_in(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        result = subprocess.run([sys.executable, "-c", SECOND_CAMPAIGN_FAULTS], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        kept, faults = json.loads(result.stdout.splitlines()[-1])
        if not kept:
            pytest.skip("the C library takes no mallopt thresholds")
        # without the thresholds: about 30k faults, most pages of every batch
        assert faults < 500

    def test_second_call_is_a_no_op(self, monkeypatch):
        first = campaign._keep_freed_memory()

        def refuse(*args, **kwargs):
            raise AssertionError("the C library was opened again")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert campaign._keep_freed_memory() is first

    @pytest.mark.parametrize("cdll", [_missing_library, lambda name: object()],
                             ids=["no-library", "no-mallopt"])
    def test_without_mallopt_campaigns_still_run(self, monkeypatch, fresh_helper, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert campaign._keep_freed_memory() is False
        cfg = make_cfg(num_realizations=20, ul_data_len=190, dl_data_len=0)
        assert run_campaign(cfg).values("MR", "ul").shape == (cfg.num_ues,)
