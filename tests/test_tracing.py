"""The traced benchmark wraps library functions and methods by name.

perfbench/spans.py looks each hook up as a module attribute or in a class
body, so renaming or moving one of them breaks `perfbench/run.py --trace 1`.
These tests install the tracer in a fresh interpreter to catch that early,
and run one small traced campaign per route of the campaign, so that a
wrapped method the campaign can no longer call through its wrapper fails too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_every_hook():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.Tracer().install()"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


TRACED_CAMPAIGNS = """
import json, sys
import spans
from cellfree.campaign import run_campaign
from cellfree.config import SimulationConfig

tracer = spans.Tracer()
tracer.install()
names = {}
for route, kw in json.loads(sys.argv[1]).items():
    with tracer.span(spans.ROUND):
        run_campaign(SimulationConfig(**{**kw, "schemes": tuple(kw["schemes"])}).validate())
    names[route] = sorted(tracer.round_metrics()[-1])
print(json.dumps(names))
"""


def test_traced_campaign_runs_on_every_route():
    base = dict(num_aps=8, antennas_per_ap=2, num_ues=6, area_side_km=0.5, pilot_len=3,
                ul_data_len=95, dl_data_len=95, seed=3, num_realizations=48)
    routes = {
        # one block per UE: the block moments fit, and the uplink comes by duality
        "distributed, one pass": dict(base, mode="distributed", schemes=["MR", "LP-MMSE"],
                                      max_neighbors=0),
        # the distributed genie takes the second pass
        "distributed, two passes": dict(base, mode="distributed", schemes=["MR", "LP-MMSE"],
                                        genie_dl=True),
        "centralized": dict(base, mode="centralized", schemes=["MMSE", "P-MMSE"],
                            genie_dl=True),
        # batches of 32 realizations of 2048 values, taken in two chunks of 16
        "distributed, uplink only": dict(base, num_aps=32, antennas_per_ap=4, num_ues=16,
                                         area_side_km=1.0, num_realizations=512,
                                         dl_data_len=0, mode="distributed",
                                         schemes=["MR", "LP-MMSE"]),
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", TRACED_CAMPAIGNS, json.dumps(routes)],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    names = json.loads(result.stdout.splitlines()[-1])
    # (spans the route runs, spans it must not run)
    expected = {
        "distributed, one pass": ({"se.finalize"},
                                  {"se.uatf_partial", "se.downlink_partial",
                                   "combining.build_precoders"}),
        # the second pass scales the combiners a row block at a time inside
        # the downlink partial and builds no whole precoder arrays
        "distributed, two passes": ({"se.uatf_partial", "se.downlink_partial", "se.finalize"},
                                    {"combining.build_precoders"}),
        "centralized": ({"se.instantaneous_sinr", "se.finalize"},
                        {"se.uatf_partial", "se.downlink_partial"}),
        # each chunk's sums are added in the traced uplink partial
        "distributed, uplink only": ({"estimation.despread", "se.uatf_partial", "se.finalize"},
                                     {"se.downlink_partial", "se.instantaneous_sinr"}),
    }
    for route, (ran, skipped) in expected.items():
        assert ran <= set(names[route]), (route, names[route])
        assert not skipped & set(names[route]), (route, names[route])
