"""Command-line entry points: simulate, account, bench."""

import argparse
import sys

from .accounting import cost_table_rows
from .campaign import emit_results, run_campaign
from .clustering import build_assignment
from .config import ConfigError, parse_config
from .rng import TOPOLOGY, stream
from .scenarios import run_scenario, scenario_names
from .topology import generate_topology


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="run a Monte-Carlo campaign and write result files")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override run.seed")
    p.add_argument("--threads", type=int, default=1, help="worker threads (results identical)")


def _add_account(sub):
    p = sub.add_parser("account", help="print fronthaul and complexity cost table")
    p.add_argument("--config", required=True, help="scenario config file")


def _add_bench(sub):
    p = sub.add_parser("bench", help="run a named benchmark scenario")
    p.add_argument("--scenario", choices=scenario_names(), help="scenario name (see --list)")
    p.add_argument("--list", action="store_true", help="list registered scenarios")
    p.add_argument("--full-scale", action="store_true",
                   help="full reference geometry (tens of minutes)")
    p.add_argument("--out", default=None, help="directory for per-variant result files")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cellfree")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_account(sub)
    _add_bench(sub)
    args = parser.parse_args(argv)
    if args.command in ("simulate", "bench") and args.threads < 1:
        parser.error(f"--threads: must be at least 1, got {args.threads}")

    if args.command in ("simulate", "account"):
        try:
            cfg = parse_config(args.config)
            if args.command == "simulate" and args.seed is not None:
                cfg = cfg.replace(seed=args.seed)
        except ConfigError as exc:
            parser.error(str(exc))

    if args.command == "simulate":
        report = run_campaign(cfg, threads=args.threads)
        emit_results(report, args.out)
        for scheme in report.schemes:
            for direction in report.directions:
                print(f"{scheme} {direction}: mean SE = "
                      f"{report.mean(scheme, direction):.4f} bit/s/Hz")
        print(f"results written to {args.out}")
        return 0

    if args.command == "account":
        topology = generate_topology(cfg, stream(cfg.seed, 0, TOPOLOGY))
        assignment = build_assignment(cfg, topology)
        print("entity,index,scheme,metric,value")
        for row in cost_table_rows(assignment, cfg):
            print(",".join(str(x) for x in row))
        return 0

    if args.command == "bench":
        if args.list or not args.scenario:
            for name in scenario_names():
                print(name)
            return 0
        try:
            result = run_scenario(args.scenario, full_scale=args.full_scale,
                                  threads=args.threads, out_dir=args.out, seed=args.seed)
        except ConfigError as exc:
            parser.error(str(exc))
        for label, mean in result.means.items():
            line = f"{label}: mean SE = {mean:.4f} bit/s/Hz"
            if label in result.genie_means:
                line += f" (genie {result.genie_means[label]:.4f})"
            print(line)
        failed = False
        for prop in result.properties:
            status = "PASS" if prop.passed else "FAIL"
            failed |= not prop.passed
            print(f"[{status}] {prop.name}: {prop.detail}")
        return 1 if failed else 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
