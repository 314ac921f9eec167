"""Named benchmark scenarios reproducing the reference experiments.

Each scenario fixes a network geometry and runs one campaign per processing
variant over the same topologies and channel realizations (same seed, so the
comparisons are paired). Desk-scale geometries keep the reference densities
(100 antennas/km^2, 25-40 UEs/km^2) on a smaller area so the qualitative
scheme ordering can be checked in minutes; --full-scale switches to the full
geometry (tens of minutes of compute) where the quantitative ratios are
asserted.
"""

from dataclasses import dataclass, field

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
class Property:
    name: str
    kind: str              # "ordering" | "mean_ratio_range" | "genie_ratio_greater" | "genie_ratio_range"
    params: dict


@dataclass
class Scenario:
    name: str
    description: str
    desk: SimulationConfig
    full: SimulationConfig
    variants: list
    direction: str
    properties: list = field(default_factory=list)
    full_properties: list = field(default_factory=list)


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

_ORDERING = Property(
    "ul-mean-ordering",
    "ordering",
    {"order": ["MMSE (All)", "P-MMSE", "LP-MMSE", "MR (All)"], "alpha": 0.05},
)


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
            properties=[_ORDERING],
            full_properties=[
                Property("lpmmse-over-mr", "mean_ratio_range",
                         {"a": "LP-MMSE", "b": "MR (All)", "lo": 2.2, "hi": 3.2}),
                Property("pmmse-over-mmse", "mean_ratio_range",
                         {"a": "P-MMSE", "b": "MMSE (All)", "lo": 0.80, "hi": 0.98}),
            ],
        ),
        Scenario(
            name="setup-ii-ul",
            description="uplink, fewer four-antenna APs (desk: 25 APs / 1 km^2)",
            desk=ul_desk_ii, full=ul_full_ii, variants=_UL_VARIANTS, direction="ul",
            properties=[_ORDERING],
        ),
        Scenario(
            name="setup-i-dl",
            description="downlink with genie-aided reference, single-antenna APs",
            desk=dl_desk, full=dl_full, variants=_DL_VARIANTS, direction="dl",
            properties=[
                Property("hardening-tightness", "genie_ratio_greater",
                         {"a": "LP-MMSE", "b": "MR"}),
            ],
            full_properties=[
                Property("lpmmse-tightness", "genie_ratio_range",
                         {"label": "LP-MMSE", "lo": 0.85, "hi": 1.0}),
                Property("mr-tightness", "genie_ratio_range",
                         {"label": "MR", "lo": 0.0, "hi": 0.75}),
                Property("pmmse-tightness", "genie_ratio_range",
                         {"label": "P-MMSE", "lo": 0.93, "hi": 1.0}),
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

    reports, means, genie_means = {}, {}, {}
    for variant in scenario.variants:
        vcfg = cfg.replace(schemes=(variant.scheme,), mode=variant.mode,
                           all_serve_all=variant.all_serve_all)
        report = run_campaign(vcfg, threads=threads)
        reports[variant.label] = report
        means[variant.label] = report.mean(variant.scheme, scenario.direction)
        if scenario.direction == "dl" and vcfg.genie_dl:
            genie_means[variant.label] = report.mean(variant.scheme, "dl_genie")
        if out_dir is not None:
            slug = variant.label.lower().replace(" ", "-").replace("(", "").replace(")", "")
            emit_results(report, f"{out_dir}/{slug}")

    checks = list(scenario.properties)
    if full_scale:
        checks += scenario.full_properties
    results = [_check_property(p, scenario, reports, means, genie_means) for p in checks]
    return ScenarioReport(name, full_scale, means, genie_means, reports, results)


def _check_property(prop: Property, scenario: Scenario, reports, means, genie_means):
    if prop.kind == "ordering":
        from scipy.stats import binomtest  # deferred: importing scipy.stats takes ~1 s

        order = prop.params["order"]
        alpha = prop.params["alpha"]
        details, passed = [], True
        for hi, lo in zip(order, order[1:]):
            scheme_hi = next(v.scheme for v in scenario.variants if v.label == hi)
            scheme_lo = next(v.scheme for v in scenario.variants if v.label == lo)
            a = reports[hi].setup_means(scheme_hi, scenario.direction)
            b = reports[lo].setup_means(scheme_lo, scenario.direction)
            wins = int(np.sum(a > b))
            p_value = binomtest(wins, a.size, alternative="greater").pvalue
            ok = p_value < alpha
            passed &= ok
            details.append(f"{hi} > {lo}: {wins}/{a.size} setups, p={p_value:.2e}")
        return PropertyResult(prop.name, passed, "; ".join(details))
    if prop.kind == "mean_ratio_range":
        ratio = means[prop.params["a"]] / means[prop.params["b"]]
        ok = prop.params["lo"] <= ratio <= prop.params["hi"]
        return PropertyResult(
            prop.name, ok,
            f"mean({prop.params['a']}) / mean({prop.params['b']}) = {ratio:.3f}, "
            f"expected [{prop.params['lo']}, {prop.params['hi']}]",
        )
    if prop.kind == "genie_ratio_greater":
        ra = means[prop.params["a"]] / genie_means[prop.params["a"]]
        rb = means[prop.params["b"]] / genie_means[prop.params["b"]]
        return PropertyResult(
            prop.name, ra > rb,
            f"bound/genie {prop.params['a']} = {ra:.3f} vs {prop.params['b']} = {rb:.3f}",
        )
    if prop.kind == "genie_ratio_range":
        label = prop.params["label"]
        ratio = means[label] / genie_means[label]
        ok = prop.params["lo"] <= ratio <= prop.params["hi"]
        return PropertyResult(
            prop.name, ok,
            f"bound/genie {label} = {ratio:.3f}, expected "
            f"[{prop.params['lo']}, {prop.params['hi']}]",
        )
    raise ValueError(f"unknown property kind {prop.kind!r}")
