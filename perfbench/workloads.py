"""The benchmark workloads: inputs from a seed, rounds of operations, checks.

A workload builds its configs from the seed when it is created (that is part
of set-up). Each round then runs the same operations on the same inputs: a
campaign with its result files, a cost table, a drop, or a scalability
ladder is one operation. The program's work is timed per round; the checks
run afterwards, untimed and untraced.
"""

import time
from pathlib import Path

import numpy as np

from cellfree import accounting, campaign, clustering, config, estimation, power, scenarios, se, topology
from cellfree.rng import TOPOLOGY, stream

import checks


def slug(label):
    """Directory name `cellfree bench --out` uses for a variant."""
    return label.lower().replace(" ", "-").replace("(", "").replace(")", "")


def setup_context(cfg, s):
    """Topology, assignment and SetupContext of setup s, drawn as a campaign draws them."""
    topo = topology.generate_topology(cfg, stream(cfg.seed, s, TOPOLOGY))
    assignment = clustering.build_assignment(cfg, topo)
    ctx = estimation.SetupContext(topo, assignment, power.ul_full_power(cfg), cfg)
    return topo, assignment, ctx


class Workload:
    """Operations are (name, thunk); check(outputs) -> {name: [problem, ...]}."""

    def __init__(self, out_dir, tracer):
        self.out_dir = Path(out_dir)
        self.tracer = tracer

    def operations(self):
        raise NotImplementedError

    def check(self, outputs):
        raise NotImplementedError

    def run_round(self):
        """Seconds, outputs and errors, each by operation name."""
        seconds, outputs, errors = {}, {}, {}
        for name, thunk in self.operations():
            start = time.perf_counter()
            try:
                outputs[name] = thunk()
            except Exception as exc:  # a failed operation is counted, not fatal
                errors[name] = f"{type(exc).__name__}: {exc}"
            seconds[name] = time.perf_counter() - start
        return seconds, outputs, errors


class CampaignWorkload(Workload):
    """Every variant of a scenario as one campaign each, with its result files."""

    def __init__(self, base_cfg, variants, out_dir, tracer, realizations=None):
        super().__init__(out_dir, tracer)
        realizations = realizations or {}
        self.configs = {
            v.label: base_cfg.replace(
                schemes=(v.scheme,), mode=v.mode, all_serve_all=v.all_serve_all,
                num_realizations=realizations.get(v.label, base_cfg.num_realizations))
            for v in variants
        }
        self.schemes = {v.label: v.scheme for v in variants}
        self._references = {}

    def operations(self):
        return [(label, lambda label=label: self._campaign(label)) for label in self.configs]

    def _campaign(self, label):
        name = slug(label)
        with self.tracer.span(f"campaign.variant.{name}"):
            report = campaign.run_campaign(self.configs[label], threads=1)
        with self.tracer.span("campaign.emit_results"):
            campaign.emit_results(report, self.out_dir / name)
        return report

    def entry(self, outputs, label, direction):
        return outputs[label].entries[(self.schemes[label], direction)]

    def references(self, label):
        """MR closed forms of a variant, computed once: every round has the same inputs."""
        if label not in self._references:
            self._references[label] = mr_closed_forms(self.configs[label])
        return self._references[label]


def mr_closed_forms(cfg):
    """{"ul": se, "dl": se}: distributed MR per UE in closed form, every setup.

    The downlink uses the per-AP powers of dl_distributed_proportional, as
    the campaign does; a direction with no data symbols is left out.
    """
    ul, dl = [], []
    for s in range(cfg.num_setups):
        topo, assignment, ctx = setup_context(cfg, s)
        if cfg.ul_data_len:
            ul.append(se.ul_se_mr_closed_form(ctx, cfg.ul_data_len / cfg.coherence_len))
        if cfg.dl_data_len:
            rho = power.dl_distributed_proportional(assignment, topo, cfg)
            dl.append(se.dl_se_mr_closed_form(ctx, rho, cfg.dl_data_len / cfg.coherence_len))
    return {d: np.concatenate(v) for d, v in (("ul", ul), ("dl", dl)) if v}


class UlFull(CampaignWorkload):
    """setup-i-ul at full scale: MMSE (All), P-MMSE, LP-MMSE and MR (All).

    MR (All) runs 128 realizations instead of 8: its closed-form check
    needs batch means of 8 realizations, and it costs little.
    """

    def __init__(self, seed, out_dir, tracer):
        scenario = scenarios.SCENARIOS["setup-i-ul"]
        cfg = scenario.full.replace(seed=seed, num_setups=1, num_realizations=8)
        super().__init__(cfg, scenario.variants, out_dir, tracer,
                         realizations={"MR (All)": 128})

    def check(self, outputs):
        problems = {label: [] for label in outputs}
        se_ul = {label: self.entry(outputs, label, "ul").se for label in outputs}
        if {"MMSE (All)", "P-MMSE"} <= outputs.keys():
            problems["MMSE (All)"] += checks.dominates(
                "MMSE (All) UL SE >= P-MMSE UL SE", se_ul["MMSE (All)"], se_ul["P-MMSE"])
        if "MR (All)" in outputs:
            mr = self.entry(outputs, "MR (All)", "ul")
            problems["MR (All)"] += checks.closed_form(
                "MR (All) UL SE vs closed form", mr.se, mr.stderr, self.references("MR (All)")["ul"])
        order = [label for label in ("P-MMSE", "LP-MMSE", "MR (All)") if label in outputs]
        if order:
            problems[order[0]] += checks.strictly_decreasing(
                "mean UL SE ordering", [(label, float(np.mean(se_ul[label]))) for label in order])
        for label in outputs:
            e = self.entry(outputs, label, "ul")
            problems[label] += checks.all_finite(f"{label} UL SE and stderr", e.se, e.stderr)
        return problems


class DlDesk(CampaignWorkload):
    """setup-i-dl at desk scale: P-MMSE, LP-MMSE and MR with the genie reference.

    Two setups average the work over two topologies. MR runs 256
    realizations per setup instead of 128, for its closed-form check.
    """

    def __init__(self, seed, out_dir, tracer):
        scenario = scenarios.SCENARIOS["setup-i-dl"]
        cfg = scenario.desk.replace(seed=seed, num_setups=2, num_realizations=128)
        super().__init__(cfg, scenario.variants, out_dir, tracer, realizations={"MR": 256})

    def check(self, outputs):
        problems = {label: [] for label in outputs}
        for label in outputs:
            for direction in ("dl", "dl_genie"):
                e = self.entry(outputs, label, direction)
                problems[label] += checks.all_finite(
                    f"{label} {direction} SE and stderr", e.se, e.stderr)
        if "MR" in outputs:
            mr = self.entry(outputs, "MR", "dl")
            problems["MR"] += checks.closed_form(
                "MR DL SE vs closed form", mr.se, mr.stderr, self.references("MR")["dl"])
        if {"LP-MMSE", "MR"} <= outputs.keys():
            mean = lambda label, d: float(np.mean(self.entry(outputs, label, d).se))  # noqa: E731
            problems["LP-MMSE"] += checks.ratio_greater(
                "hardening bound / genie, LP-MMSE above MR",
                mean("LP-MMSE", "dl"), mean("LP-MMSE", "dl_genie"),
                mean("MR", "dl"), mean("MR", "dl_genie"))
        return problems


class MrClosedForm(CampaignWorkload):
    """The criterion-2 network, distributed MR, uplink and downlink."""

    def __init__(self, seed, out_dir, tracer):
        cfg = config.SimulationConfig(
            num_aps=16, num_ues=8, antennas_per_ap=4, pilot_len=4, area_side_km=0.4,
            ul_data_len=95, dl_data_len=95, num_setups=1, num_realizations=10_000,
            schemes=("MR",), mode="distributed", seed=seed,
        ).validate()
        super().__init__(cfg, [scenarios.Variant("MR", "MR", "distributed")], out_dir, tracer)

    def check(self, outputs):
        if "MR" not in outputs:
            return {}
        problems = []
        for direction in ("ul", "dl"):
            e = self.entry(outputs, "MR", direction)
            problems += checks.closed_form(f"MR {direction.upper()} SE vs closed form",
                                           e.se, e.stderr, self.references("MR")[direction])
        return {"MR": problems}


class Scalability(Workload):
    """Drops at 25 UEs and 100 APs per km^2 with growing UE counts.

    Cost tables (the `cellfree account` rows for all five schemes) run on
    the drops up to 125 UEs; the 400-UE drops run topology and admission
    only, because one 400-UE P-MMSE table takes minutes. A ladder of
    `assert_scalable` closes each round.
    """

    TABLE_UES = (50, 100, 125)
    LARGE_UES = 400
    LARGE_DROPS = 8
    LADDER = (25, 50, 100)

    def __init__(self, seed, out_dir, tracer):
        super().__init__(out_dir, tracer)
        # criterion 6 densities with the paper's frame split
        base = scenarios.SCENARIOS["setup-i-ul"].desk.replace(
            seed=seed, ul_data_len=95, dl_data_len=95, num_setups=1,
            schemes=accounting.COUNTED_SCHEMES, mode="centralized",
        )
        self.reference = base.replace(num_ues=25, num_aps=100, area_side_km=1.0)
        sizes = list(self.TABLE_UES) + [self.LARGE_UES] * self.LARGE_DROPS
        self.drops = [
            (f"drop{i}-k{K}", base.replace(num_ues=K, num_aps=4 * K,
                                           area_side_km=float(np.sqrt(K / 25.0))))
            for i, K in enumerate(sizes)
        ]
        self.fronthaul_cap = (base.ul_data_len + base.dl_data_len) * base.pilot_len
        m_cap = base.max_neighbors + 1
        p_cap = (base.pilot_len - 1) * m_cap + 1
        self.bounds = {s: accounting.multiplication_bound(s, base, m_cap, p_cap)
                       for s in ("P-MMSE", "LP-MMSE")}

    def operations(self):
        ops = [(name, lambda i=i: self._drop(i)) for i, (name, _) in enumerate(self.drops)]
        ops.append(("assert_scalable", self._ladder))
        return ops

    def _drop(self, i):
        _, cfg = self.drops[i]
        topo = topology.generate_topology(cfg, stream(cfg.seed, 1000 + i, TOPOLOGY))
        assignment = clustering.build_assignment(cfg, topo)
        rows = accounting.cost_table_rows(assignment, cfg) if cfg.num_ues in self.TABLE_UES else None
        return cfg, assignment, rows

    def _ladder(self):
        return accounting.assert_scalable(self.reference, self.LADDER)

    def check(self, outputs):
        problems = {}
        for name, out in outputs.items():
            if name == "assert_scalable":
                ok, rows = out
                found = [] if ok else [f"{name}: reported a bound violated"]
                if [r.num_ues for r in rows] != list(self.LADDER):
                    found.append(f"{name}: rows for {[r.num_ues for r in rows]} UEs")
                for r in rows:
                    if (r.max_cluster_size > self.reference.pilot_len
                            or r.max_fronthaul > self.fronthaul_cap
                            or r.max_pmmse_mults > self.bounds["P-MMSE"]
                            or r.max_lpmmse_mults > self.bounds["LP-MMSE"]):
                        found.append(f"{name}: {r} exceeds a bound")
                problems[name] = found
                continue
            cfg, assignment, rows = out
            found = checks.cluster_invariants(name, assignment.serves, assignment.master_of,
                                              cfg.pilot_len)
            if rows is not None:
                found += checks.fronthaul_within(name, rows, self.fronthaul_cap)
                expected = checks.expected_costs(assignment.serves, cfg.antennas_per_ap,
                                                 cfg.pilot_len)
                found += checks.cost_rows(name, rows, expected, self.bounds)
            problems[name] = found
        return problems


WORKLOADS = {
    "ul-full": UlFull,
    "dl-desk": DlDesk,
    "mr-closed-form": MrClosedForm,
    "scalability": Scalability,
}
