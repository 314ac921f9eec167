import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cellfree.campaign import SEEntry, SEReport
from cellfree.scenarios import (
    SCENARIOS,
    ScenarioReport,
    _genie_ratio,
    _genie_ratio_greater,
    _mean_ratio,
    _sign_test_pvalue,
    run_scenario,
    scenario_names,
)

ROOT = Path(__file__).resolve().parents[1]


def test_registry_names():
    assert {"setup-i-ul", "setup-ii-ul", "setup-i-dl"} <= set(scenario_names())


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError, match="unknown scenario"):
        run_scenario("nope")


def test_full_and_desk_share_frame_parameters():
    for scenario in SCENARIOS.values():
        assert scenario.desk.pilot_len == scenario.full.pilot_len
        assert scenario.desk.coherence_len == scenario.full.coherence_len
        assert scenario.full.num_aps >= scenario.desk.num_aps


def test_benchmark_variants_force_all_serve_all():
    ul = SCENARIOS["setup-i-ul"]
    flags = {v.label: v.all_serve_all for v in ul.variants}
    assert flags["MMSE (All)"] and flags["MR (All)"]
    assert not flags["P-MMSE"] and not flags["LP-MMSE"]


@pytest.mark.slow
def test_desk_scale_uplink_ordering(tmp_path):
    report = run_scenario("setup-i-ul", out_dir=tmp_path / "ul")
    assert (tmp_path / "ul" / "p-mmse" / "se_per_ue.csv").exists()
    means = report.means
    assert means["MMSE (All)"] >= means["P-MMSE"] >= means["LP-MMSE"] >= means["MR (All)"]
    for prop in report.properties:
        assert prop.passed, f"{prop.name}: {prop.detail}"


@pytest.mark.slow
def test_desk_scale_downlink_genie_ratios():
    report = run_scenario("setup-i-dl")
    for prop in report.properties:
        assert prop.passed, f"{prop.name}: {prop.detail}"
    ratios = {label: report.means[label] / report.genie_means[label]
              for label in report.means}
    assert ratios["LP-MMSE"] > ratios["MR"]
    assert all(r <= 1.0 + 1e-9 for r in ratios.values())


# property checks on hand-built runs, without a campaign

def _report(scheme: str, setup_means) -> SEReport:
    """An uplink report whose two UEs in each setup both have that setup's mean SE."""
    se = np.repeat(np.asarray(setup_means, dtype=float), 2)
    return SEReport(seed=1, config_hash="", num_setups=len(setup_means), ues_per_setup=2,
                    schemes=(scheme,), directions=("ul",), mode="distributed",
                    entries={(scheme, "ul"): SEEntry(se, np.zeros_like(se))},
                    assignments=[], config_lines=[])


def _run(means=None, genie_means=None, reports=None) -> ScenarioReport:
    return ScenarioReport("hand-built", False, means or {}, genie_means or {}, reports or {}, [])


def _ul_reports(lp_over_mr):
    """The four uplink variants over six setups; LP-MMSE beats MR (All) where lp_over_mr."""
    return {
        "MMSE (All)": _report("MMSE", [4.0] * 6),
        "P-MMSE": _report("P-MMSE", [3.0] * 6),
        "LP-MMSE": _report("LP-MMSE", [2.0] * 6),
        "MR (All)": _report("MR", [1.0 if win else 2.5 for win in lp_over_mr]),
    }


def test_ordering_passes_when_every_setup_agrees():
    (check,) = SCENARIOS["setup-i-ul"].properties
    result = check(_run(reports=_ul_reports([True] * 6)), "ul")
    assert result.name == "ul-mean-ordering"
    assert result.passed
    assert result.detail == (
        "MMSE (All) > P-MMSE: 6/6 setups, p=1.56e-02; "
        "P-MMSE > LP-MMSE: 6/6 setups, p=1.56e-02; "
        "LP-MMSE > MR (All): 6/6 setups, p=1.56e-02"
    )


def test_ordering_fails_when_one_pair_is_not_significant():
    (check,) = SCENARIOS["setup-ii-ul"].properties
    result = check(_run(reports=_ul_reports([True] * 5 + [False])), "ul")
    assert not result.passed
    assert result.detail.endswith("LP-MMSE > MR (All): 5/6 setups, p=1.09e-01")


@pytest.mark.parametrize("lp, passed", [(2.2, True), (3.2, True), (2.1, False), (3.3, False)])
def test_mean_ratio_bounds_are_inclusive(lp, passed):
    result = _mean_ratio(_run(means={"LP-MMSE": lp, "MR (All)": 1.0}), "ul",
                         name="lpmmse-over-mr", a="LP-MMSE", b="MR (All)", lo=2.2, hi=3.2)
    assert result.passed is passed
    assert result.detail == f"mean(LP-MMSE) / mean(MR (All)) = {lp:.3f}, expected [2.2, 3.2]"


def test_full_scale_uplink_ratios_from_the_registry():
    run = _run(means={"MMSE (All)": 4.0, "P-MMSE": 3.0, "LP-MMSE": 2.5, "MR (All)": 1.0})
    results = [check(run, "ul") for check in SCENARIOS["setup-i-ul"].full_properties]
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("lpmmse-over-mr", True, "mean(LP-MMSE) / mean(MR (All)) = 2.500, expected [2.2, 3.2]"),
        ("pmmse-over-mmse", False, "mean(P-MMSE) / mean(MMSE (All)) = 0.750, expected [0.8, 0.98]"),
    ]


@pytest.mark.parametrize("mr, passed", [(0.5, True), (0.9, False), (0.95, False)])
def test_genie_ratio_greater_is_strict(mr, passed):
    run = _run(means={"LP-MMSE": 0.9, "MR": mr}, genie_means={"LP-MMSE": 1.0, "MR": 1.0})
    result = _genie_ratio_greater(run, "dl", name="hardening-tightness", a="LP-MMSE", b="MR")
    assert result.passed is passed
    assert result.detail == f"bound/genie LP-MMSE = 0.900 vs MR = {mr:.3f}"


@pytest.mark.parametrize("se, passed", [(0.85, True), (1.0, True), (0.84, False), (1.01, False)])
def test_genie_ratio_bounds_are_inclusive(se, passed):
    run = _run(means={"LP-MMSE": se}, genie_means={"LP-MMSE": 1.0})
    result = _genie_ratio(run, "dl", name="lpmmse-tightness", label="LP-MMSE", lo=0.85, hi=1.0)
    assert result.passed is passed
    assert result.detail == f"bound/genie LP-MMSE = {se:.3f}, expected [0.85, 1.0]"


def test_downlink_checks_from_the_registry():
    scenario = SCENARIOS["setup-i-dl"]
    run = _run(means={"P-MMSE": 0.95, "LP-MMSE": 0.9, "MR": 0.6},
               genie_means={"P-MMSE": 1.0, "LP-MMSE": 1.0, "MR": 1.0})
    results = [check(run, "dl") for check in scenario.properties + scenario.full_properties]
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("hardening-tightness", True, "bound/genie LP-MMSE = 0.900 vs MR = 0.600"),
        ("lpmmse-tightness", True, "bound/genie LP-MMSE = 0.900, expected [0.85, 1.0]"),
        ("mr-tightness", True, "bound/genie MR = 0.600, expected [0.0, 0.75]"),
        ("pmmse-tightness", True, "bound/genie P-MMSE = 0.950, expected [0.93, 1.0]"),
    ]


def test_sign_test_known_values():
    assert _sign_test_pvalue(6, 6) == 1 / 64
    assert _sign_test_pvalue(0, 6) == 1.0
    assert _sign_test_pvalue(0, 20) == 1.0
    assert _sign_test_pvalue(20, 20) == 2.0**-20
    assert _sign_test_pvalue(5, 6) == 7 / 64


def test_sign_test_matches_binomtest():
    stats = pytest.importorskip("scipy.stats")
    for n in range(1, 61):
        for wins in range(n + 1):
            exact = _sign_test_pvalue(wins, n)
            reference = stats.binomtest(wins, n, alternative="greater").pvalue
            assert exact == pytest.approx(reference, rel=1e-12), (wins, n)
            assert f"{exact:.2e}" == f"{reference:.2e}", (wins, n)
            assert (exact < 0.05) == (reference < 0.05), (wins, n)


WITHOUT_SCIPY = """
import contextlib, io, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError

import cellfree
import cellfree.cli
from cellfree.scenarios import SCENARIOS, run_scenario

listing = io.StringIO()
with contextlib.redirect_stdout(listing):
    assert cellfree.cli.main(["bench", "--list"]) == 0
assert listing.getvalue().split() == sorted(SCENARIOS), listing.getvalue()

scenario = SCENARIOS["setup-i-ul"]
scenario.desk = scenario.desk.replace(num_setups=3, num_realizations=8)
for prop in run_scenario("setup-i-ul").properties:
    print(f"{prop.name}: {prop.detail}")
"""


def test_package_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ul-mean-ordering: MMSE (All) > P-MMSE: ")
    assert result.stdout.count("/3 setups, p=") == 3
