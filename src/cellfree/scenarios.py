"""Named benchmark scenarios reproducing the reference experiments.

Each scenario fixes a network geometry and runs one campaign per processing
variant over the same topologies and channel realizations (same seed, so the
comparisons are paired). Desk-scale geometries keep the reference densities
(100 antennas/km^2, 25-40 UEs/km^2) on a smaller area so the qualitative
scheme ordering can be checked in minutes; --full-scale switches to the full
geometry (tens of minutes of compute) where the quantitative ratios are
asserted.

Each expected property is a check function with its arguments bound in the
registry; ``run_scenario`` calls it on the finished runs and gets a
``PropertyResult``. The scheme ordering is an exact one-sided sign test over
the paired setups.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .campaign import SEReport, emit_results, run_campaign
from .config import SimulationConfig


@dataclass
class Variant:
    label: str
    scheme: str
    mode: str
    all_serve_all: bool = False


@dataclass
class Scenario:
    name: str
    description: str
    desk: SimulationConfig
    full: SimulationConfig
    variants: list
    direction: str
    properties: list = field(default_factory=list)       # check(run, direction) -> PropertyResult
    full_properties: list = field(default_factory=list)  # further checks at full scale


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ScenarioReport:
    name: str
    full_scale: bool
    means: dict            # label -> mean SE (direction of the scenario)
    genie_means: dict      # label -> mean genie SE (DL scenarios)
    reports: dict          # label -> SEReport
    properties: list       # list of PropertyResult


def _sign_test_pvalue(wins: int, n: int) -> float:
    """P(X >= wins) for X ~ Bin(n, 1/2): the exact one-sided sign test."""
    return sum(math.comb(n, j) for j in range(wins, n + 1)) / 2**n


def _ordering(run: ScenarioReport, direction: str, *, name: str, order: list,
              alpha: float) -> PropertyResult:
    """Each label beats the next one in significantly many paired setups."""
    details, passed = [], True
    for hi, lo in zip(order, order[1:]):
        a = run.reports[hi].setup_means(run.reports[hi].schemes[0], direction)
        b = run.reports[lo].setup_means(run.reports[lo].schemes[0], direction)
        wins = int(np.sum(a > b))
        p_value = _sign_test_pvalue(wins, a.size)
        passed &= p_value < alpha
        details.append(f"{hi} > {lo}: {wins}/{a.size} setups, p={p_value:.2e}")
    return PropertyResult(name, passed, "; ".join(details))


def _mean_ratio(run: ScenarioReport, direction: str, *, name: str, a: str, b: str,
                lo: float, hi: float) -> PropertyResult:
    ratio = run.means[a] / run.means[b]
    return PropertyResult(name, lo <= ratio <= hi,
                          f"mean({a}) / mean({b}) = {ratio:.3f}, expected [{lo}, {hi}]")


def _genie_ratio_greater(run: ScenarioReport, direction: str, *, name: str, a: str,
                         b: str) -> PropertyResult:
    ra, rb = (run.means[x] / run.genie_means[x] for x in (a, b))
    return PropertyResult(name, ra > rb, f"bound/genie {a} = {ra:.3f} vs {b} = {rb:.3f}")


def _genie_ratio(run: ScenarioReport, direction: str, *, name: str, label: str,
                 lo: float, hi: float) -> PropertyResult:
    ratio = run.means[label] / run.genie_means[label]
    return PropertyResult(name, lo <= ratio <= hi,
                          f"bound/genie {label} = {ratio:.3f}, expected [{lo}, {hi}]")


_UL_VARIANTS = [
    Variant("MMSE (All)", "MMSE", "centralized", all_serve_all=True),
    Variant("P-MMSE", "P-MMSE", "centralized"),
    Variant("LP-MMSE", "LP-MMSE", "distributed"),
    Variant("MR (All)", "MR", "distributed", all_serve_all=True),
]

_DL_VARIANTS = [
    Variant("P-MMSE", "P-MMSE", "centralized"),
    Variant("LP-MMSE", "LP-MMSE", "distributed"),
    Variant("MR", "MR", "distributed"),
]

_UL_ORDERING = partial(_ordering, name="ul-mean-ordering",
                       order=["MMSE (All)", "P-MMSE", "LP-MMSE", "MR (All)"], alpha=0.05)


def _base(**kw) -> SimulationConfig:
    defaults = dict(seed=1, num_setups=20, num_realizations=500,
                    coherence_len=200, pilot_len=10)
    defaults.update(kw)
    return SimulationConfig(**defaults).validate()


def _registry() -> dict:
    ul_desk_i = _base(num_aps=100, antennas_per_ap=1, num_ues=40,
                      area_side_km=1.0, ul_data_len=190, dl_data_len=0)
    ul_full_i = _base(num_aps=400, antennas_per_ap=1, num_ues=100,
                      area_side_km=2.0, ul_data_len=190, dl_data_len=0,
                      num_realizations=1000)
    ul_desk_ii = _base(num_aps=25, antennas_per_ap=4, num_ues=25,
                       area_side_km=1.0, ul_data_len=190, dl_data_len=0)
    ul_full_ii = _base(num_aps=100, antennas_per_ap=4, num_ues=100,
                       area_side_km=2.0, ul_data_len=190, dl_data_len=0,
                       num_realizations=1000)
    dl_desk = _base(num_aps=100, antennas_per_ap=1, num_ues=40,
                    area_side_km=1.0, ul_data_len=0, dl_data_len=190,
                    genie_dl=True)
    dl_full = _base(num_aps=400, antennas_per_ap=1, num_ues=100,
                    area_side_km=2.0, ul_data_len=0, dl_data_len=190,
                    genie_dl=True, num_realizations=1000)

    scenarios = [
        Scenario(
            name="setup-i-ul",
            description="uplink, many single-antenna APs (desk: 100 APs / 1 km^2)",
            desk=ul_desk_i, full=ul_full_i, variants=_UL_VARIANTS, direction="ul",
            properties=[_UL_ORDERING],
            full_properties=[
                partial(_mean_ratio, name="lpmmse-over-mr",
                        a="LP-MMSE", b="MR (All)", lo=2.2, hi=3.2),
                partial(_mean_ratio, name="pmmse-over-mmse",
                        a="P-MMSE", b="MMSE (All)", lo=0.80, hi=0.98),
            ],
        ),
        Scenario(
            name="setup-ii-ul",
            description="uplink, fewer four-antenna APs (desk: 25 APs / 1 km^2)",
            desk=ul_desk_ii, full=ul_full_ii, variants=_UL_VARIANTS, direction="ul",
            properties=[_UL_ORDERING],
        ),
        Scenario(
            name="setup-i-dl",
            description="downlink with genie-aided reference, single-antenna APs",
            desk=dl_desk, full=dl_full, variants=_DL_VARIANTS, direction="dl",
            properties=[partial(_genie_ratio_greater, name="hardening-tightness",
                                a="LP-MMSE", b="MR")],
            full_properties=[
                partial(_genie_ratio, name="lpmmse-tightness", label="LP-MMSE", lo=0.85, hi=1.0),
                partial(_genie_ratio, name="mr-tightness", label="MR", lo=0.0, hi=0.75),
                partial(_genie_ratio, name="pmmse-tightness", label="P-MMSE", lo=0.93, hi=1.0),
            ],
        ),
    ]
    return {s.name: s for s in scenarios}


SCENARIOS = _registry()


def scenario_names() -> list:
    return sorted(SCENARIOS)


def run_scenario(name: str, full_scale: bool = False, threads: int = 1,
                 out_dir=None, seed: int = None) -> ScenarioReport:
    """Run every variant of a scenario and evaluate its expected properties."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")
    scenario = SCENARIOS[name]
    cfg = scenario.full if full_scale else scenario.desk
    if seed is not None:
        cfg = cfg.replace(seed=seed)

    run = ScenarioReport(name, full_scale, {}, {}, {}, [])
    for variant in scenario.variants:
        vcfg = cfg.replace(schemes=(variant.scheme,), mode=variant.mode,
                           all_serve_all=variant.all_serve_all)
        report = run_campaign(vcfg, threads=threads)
        run.reports[variant.label] = report
        run.means[variant.label] = report.mean(variant.scheme, scenario.direction)
        if scenario.direction == "dl" and vcfg.genie_dl:
            run.genie_means[variant.label] = report.mean(variant.scheme, "dl_genie")
        if out_dir is not None:
            slug = variant.label.lower().replace(" ", "-").replace("(", "").replace(")", "")
            emit_results(report, f"{out_dir}/{slug}")

    checks = scenario.properties + (scenario.full_properties if full_scale else [])
    run.properties = [check(run, scenario.direction) for check in checks]
    return run
