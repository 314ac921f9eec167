"""Hashes of the result files of a fixed list of campaigns.

    PYTHONPATH=src python3 tools/result_hashes.py [--threads T] [CAMPAIGN ...]

Runs each named campaign (every one by default) with `run_campaign`, writes
its `emit_results` files into a temporary directory and prints one
`sha256  campaign/file` line per file, sorted. Two source trees that print
the same lines give the same result bytes on these campaigns; point
PYTHONPATH at the tree to check. `--list` prints the campaign names.

The campaigns:
- `ul-full/s{1,7}/...`: the four variants of full-scale setup-i-ul, one
  setup of 8 realizations (128 for MR (All)), as the ul-full benchmark
  workload runs them, at seeds 1 and 7;
- `ii-ul-full/...`: the four variants of full-scale setup-ii-ul, one setup
  of 8 realizations;
- `desk/<scenario>/...`: every variant of the three desk scenarios, 2
  setups of 64 realizations;
- `mr-closed-form/N{1,2,4}/s{1,7}`: the criterion-2 network (16 APs, 8 UEs,
  tau_p 4), distributed MR, 10 000 realizations;
- `mixed/N{2,4}/<mode>/{dcc,asa}/genie{0,1}`: 48 APs, 30 UEs, tau_p 6, every
  scheme of the mode, uplink and downlink, 2 setups of 32 realizations;
- `routes/...`: the routes of `campaign.SetupPlan` that no campaign above
  takes: the centralized two passes (64 APs, 64 UEs, tau_p 16, MMSE and MR
  with every AP serving every UE, the genie on, 2100 realizations), the
  distributed downlink alone in one pass (the criterion-2 network at N = 2,
  MR and LP-MMSE, 4096 realizations) and the uplink of one UE (12 APs,
  MR and LP-MMSE, 256 realizations).
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

from cellfree.campaign import emit_results, run_campaign
from cellfree.config import SimulationConfig
from cellfree.scenarios import SCENARIOS


def _slug(label: str) -> str:
    return label.lower().replace(" ", "-").replace("(", "").replace(")", "")


def _variants(cfg: SimulationConfig, variants, prefix: str, realizations=None) -> dict:
    """One campaign per scenario variant, as `cellfree bench` runs them."""
    realizations = realizations or {}
    return {f"{prefix}/{_slug(v.label)}": cfg.replace(
        schemes=(v.scheme,), mode=v.mode, all_serve_all=v.all_serve_all,
        num_realizations=realizations.get(v.label, cfg.num_realizations)) for v in variants}


def campaigns() -> dict:
    """Campaign name -> config, in a fixed order."""
    table = {}
    ul, ii = SCENARIOS["setup-i-ul"], SCENARIOS["setup-ii-ul"]
    for seed in (1, 7):
        cfg = ul.full.replace(seed=seed, num_setups=1, num_realizations=8)
        table.update(_variants(cfg, ul.variants, f"ul-full/s{seed}", {"MR (All)": 128}))
    cfg = ii.full.replace(num_setups=1, num_realizations=8)
    table.update(_variants(cfg, ii.variants, "ii-ul-full"))
    for name, scenario in SCENARIOS.items():
        cfg = scenario.desk.replace(num_setups=2, num_realizations=64)
        table.update(_variants(cfg, scenario.variants, f"desk/{name}"))
    for antennas in (1, 2, 4):
        for seed in (1, 7):
            table[f"mr-closed-form/N{antennas}/s{seed}"] = SimulationConfig(
                num_aps=16, num_ues=8, antennas_per_ap=antennas, pilot_len=4, area_side_km=0.4,
                ul_data_len=95, dl_data_len=95, num_setups=1, num_realizations=10_000,
                schemes=("MR",), mode="distributed", seed=seed).validate()
    schemes = {"centralized": ("MMSE", "P-MMSE", "LP-MMSE", "L-MMSE", "MR"),
               "distributed": ("MR", "LP-MMSE", "L-MMSE")}
    for antennas in (2, 4):
        for mode, mode_schemes in schemes.items():
            for clusters in ("dcc", "asa"):
                for genie in (0, 1):
                    table[f"mixed/N{antennas}/{mode}/{clusters}/genie{genie}"] = SimulationConfig(
                        num_aps=48, num_ues=30, antennas_per_ap=antennas, pilot_len=6,
                        area_side_km=1.0, ul_data_len=95, dl_data_len=95, num_setups=2,
                        num_realizations=32, schemes=mode_schemes, mode=mode,
                        all_serve_all=clusters == "asa", genie_dl=bool(genie), seed=1).validate()
    table["routes/centralized-two-pass"] = SimulationConfig(
        num_aps=64, num_ues=64, antennas_per_ap=1, pilot_len=16, ul_data_len=90, dl_data_len=90,
        num_setups=1, num_realizations=2100, schemes=("MMSE", "MR"), mode="centralized",
        all_serve_all=True, genie_dl=True, seed=1).validate()
    table["routes/distributed-downlink-one-pass"] = SimulationConfig(
        num_aps=16, num_ues=8, antennas_per_ap=2, pilot_len=4, area_side_km=0.4, ul_data_len=0,
        dl_data_len=95, num_setups=1, num_realizations=4096, schemes=("MR", "LP-MMSE"),
        mode="distributed", seed=1).validate()
    table["routes/one-ue-uplink"] = SimulationConfig(
        num_aps=12, num_ues=1, antennas_per_ap=1, pilot_len=3, area_side_km=0.5, ul_data_len=95,
        dl_data_len=0, num_setups=1, num_realizations=256, schemes=("MR", "LP-MMSE"),
        mode="distributed", seed=1).validate()
    return table


def hash_lines(names, threads: int = 1) -> list:
    """`sha256  campaign/file` lines of the named campaigns' result files,
    sorted by campaign and file."""
    table = campaigns()
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = Path(tmp, name)
            emit_results(run_campaign(table[name], threads=threads), out)
            for path in out.iterdir():
                hashes[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return [f"{hashes[file]}  {file}" for file in sorted(hashes)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="CAMPAIGN",
                        help="campaigns to run (default: every one)")
    parser.add_argument("--threads", type=int, default=1, help="run_campaign's threads")
    parser.add_argument("--list", action="store_true", help="print the campaign names and exit")
    args = parser.parse_args(argv)
    table = campaigns()
    if args.list:
        print("\n".join(table))
        return 0
    unknown = [name for name in args.names if name not in table]
    if unknown:
        parser.error(f"unknown campaign {unknown[0]!r}; see --list")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    print("\n".join(hash_lines(args.names or list(table), args.threads)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
