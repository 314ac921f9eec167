"""Frozen admission reference: topology and cluster bits pinned across versions.

For each drop below, data/admission_sha256.json holds the sha256 of
`ClusterAssignment.to_json()`, then `topology.R.tobytes()`, then
`topology.beta.tobytes()`. The values were produced by commit 62cd700,
before topology and admission moved to whole-array passes; every later
version must give the same bits, not just close values.

The drops cover the three criterion-6 densities (25, 100 and 400 UEs at 25
UEs and 100 single-antenna APs per km^2), the desk and full-scale
single-antenna scenarios with and without all-serve-all, and four-antenna
drops, whose correlation matrices use the AP-UE angles.

Regenerate the file only when the bits are meant to change:
    PYTHONPATH=src python3 tests/test_admission_reference.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cellfree.clustering import build_assignment
from cellfree.rng import TOPOLOGY, stream
from cellfree.scenarios import SCENARIOS
from cellfree.topology import generate_topology

from conftest import make_cfg

DATA = Path(__file__).parent / "data" / "admission_sha256.json"


def _criterion_6(K):
    # the configuration and topology streams of test_criterion_6_scalability_invariants
    return make_cfg(num_aps=4 * K, num_ues=K, antennas_per_ap=1, pilot_len=10,
                    area_side_km=float(np.sqrt(K / 25.0)), ul_data_len=95,
                    dl_data_len=95, seed=0)


def _drops() -> dict:
    """name -> (config, topology stream key)."""
    drops = {}
    for K in (25, 100, 400):
        for rep in (0, 1, 2):
            drops[f"criterion-6-k{K}-rep{rep}"] = (_criterion_6(K), (1000 + K, rep))
    for name in ("setup-i-ul", "setup-i-dl", "setup-ii-ul"):
        for scale in ("desk", "full"):
            cfg = getattr(SCENARIOS[name], scale)
            for s in (0, 1):
                drops[f"{name}-{scale}-setup{s}"] = (cfg, (cfg.seed, s))
            drops[f"{name}-{scale}-all-serve-all"] = (cfg.replace(all_serve_all=True),
                                                     (cfg.seed, 0))
    return drops


DROPS = _drops()


def _digest(name) -> str:
    cfg, key = DROPS[name]
    topo = generate_topology(cfg, stream(*key, TOPOLOGY))
    assignment = build_assignment(cfg, topo)
    h = hashlib.sha256(assignment.to_json().encode())
    h.update(topo.R.tobytes())
    h.update(topo.beta.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DROPS))
def test_drop_matches_frozen_digest(name):
    assert _digest(name) == json.loads(DATA.read_text())[name]


def test_reference_covers_every_drop():
    assert sorted(json.loads(DATA.read_text())) == sorted(DROPS)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    frozen = {name: _digest(name) for name in sorted(DROPS)}
    DATA.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
