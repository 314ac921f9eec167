"""Self-tests of the benchmark's checks and tracer (a few seconds).

    PYTHONPATH=src python3 -m pytest -q perfbench

Each check passes on the program's real output for a small network and
fails on a deliberately wrong copy of it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cellfree import accounting, campaign, clustering, config, topology
from cellfree.rng import TOPOLOGY, stream

import checks
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def small_cfg(**kw):
    defaults = dict(num_aps=16, num_ues=8, antennas_per_ap=1, pilot_len=4, area_side_km=0.4,
                    ul_data_len=95, dl_data_len=95, num_realizations=2048, seed=7,
                    schemes=("MR",), mode="distributed")
    defaults.update(kw)
    return config.SimulationConfig(**defaults).validate()


@pytest.fixture(scope="module")
def mr_run():
    cfg = small_cfg()
    return campaign.run_campaign(cfg), workloads.mr_closed_forms(cfg)


@pytest.mark.parametrize("direction", ["ul", "dl"])
def test_closed_form_passes_and_catches_a_shift(mr_run, direction):
    report, cf = mr_run
    e = report.entries[("MR", direction)]
    assert checks.closed_form("mr", e.se, e.stderr, cf[direction]) == []
    shifted = e.se.copy()
    shifted[3] += 20 * e.stderr[3]
    assert checks.closed_form("mr", shifted, e.stderr, cf[direction])
    assert checks.closed_form("mr", e.se, np.full_like(e.stderr, np.nan), cf[direction])


def test_dominance_passes_and_catches_swapped_variants():
    cfg = small_cfg(num_aps=24, num_ues=10, pilot_len=2, area_side_km=0.6, num_realizations=64,
                    dl_data_len=0, ul_data_len=190, mode="centralized")
    mmse = campaign.run_campaign(cfg.replace(schemes=("MMSE",), all_serve_all=True)).values("MMSE", "ul")
    pmmse = campaign.run_campaign(cfg.replace(schemes=("P-MMSE",))).values("P-MMSE", "ul")
    assert checks.dominates("mmse", mmse, pmmse) == []
    assert checks.dominates("mmse", pmmse, mmse)


def test_ordering_ratio_and_finiteness():
    assert checks.strictly_decreasing("o", [("a", 3.0), ("b", 2.0), ("c", 1.0)]) == []
    assert checks.strictly_decreasing("o", [("a", 3.0), ("c", 1.0), ("b", 2.0)])
    assert checks.strictly_decreasing("o", [("a", 2.0), ("b", 2.0)])
    assert checks.ratio_greater("r", 0.9, 1.0, 0.5, 1.0) == []
    assert checks.ratio_greater("r", 0.5, 1.0, 0.9, 1.0)
    assert checks.all_finite("f", np.ones(3), np.zeros(2)) == []
    assert checks.all_finite("f", np.ones(3), np.array([0.0, np.nan]))
    assert checks.all_finite("f", np.array([np.inf]))


@pytest.fixture(scope="module")
def drop():
    cfg = small_cfg(num_ues=40, num_aps=160, area_side_km=float(np.sqrt(40 / 25.0)), pilot_len=10,
                    schemes=accounting.COUNTED_SCHEMES, mode="centralized")
    topo = topology.generate_topology(cfg, stream(cfg.seed, 0, TOPOLOGY))
    assignment = clustering.build_assignment(cfg, topo)
    return cfg, assignment, accounting.cost_table_rows(assignment, cfg)


def test_cluster_invariants_catch_an_overfull_ap_and_a_missing_master(drop):
    cfg, a, _ = drop
    assert checks.cluster_invariants("c", a.serves, a.master_of, cfg.pilot_len) == []
    overfull = a.serves.copy()
    l = int(np.argmax(overfull.sum(axis=1)))
    free = np.flatnonzero(~overfull[l])
    overfull[l, free[: cfg.pilot_len + 1 - int(overfull[l].sum())]] = True
    assert overfull[l].sum() == cfg.pilot_len + 1
    assert checks.cluster_invariants("c", overfull, a.master_of, cfg.pilot_len)
    orphan = a.serves.copy()
    orphan[a.master_of[0], 0] = False
    assert checks.cluster_invariants("c", orphan, a.master_of, cfg.pilot_len)


def test_fronthaul_cap(drop):
    cfg, _, rows = drop
    cap = (cfg.ul_data_len + cfg.dl_data_len) * cfg.pilot_len
    assert checks.fronthaul_within("f", rows, cap) == []
    assert checks.fronthaul_within("f", rows, cap // cfg.pilot_len)


def test_cost_rows_catch_an_off_by_one_count(drop):
    cfg, a, rows = drop
    expected = checks.expected_costs(a.serves, cfg.antennas_per_ap, cfg.pilot_len)
    m_cap = cfg.max_neighbors + 1
    p_cap = (cfg.pilot_len - 1) * m_cap + 1
    bounds = {s: accounting.multiplication_bound(s, cfg, m_cap, p_cap) for s in ("P-MMSE", "LP-MMSE")}
    assert checks.cost_rows("t", rows, expected, bounds) == []
    i = next(i for i, r in enumerate(rows) if r[2] == "P-MMSE" and r[3] == "combining_mults")
    wrong = list(rows)
    wrong[i] = wrong[i][:4] + (wrong[i][4] + 1,)
    assert checks.cost_rows("t", wrong, expected, bounds)
    assert checks.cost_rows("t", rows, expected, {"P-MMSE": 0, "LP-MMSE": 0})


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        [spans.ROUND, 0.0, 10.0, -1],
        ["a", 1.0, 6.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 3.5, 4.0, 1],
        ["a", 7.0, 8.0, 0],
        [spans.ROUND, 10.0, 12.0, -1],
        ["b", 10.5, 11.0, 5],
    ]
    rounds = tracer.round_metrics()
    assert rounds[0] == pytest.approx({"a": 4.5, "b": 1.5})
    assert rounds[1] == pytest.approx({"b": 0.5})


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
