"""Cross-version oracle: per-UE SE and stderr pinned to frozen reference values.

The values in data/oracle_se.json were produced by commit 50dddff (before the
accumulators, norm sums and solves were merged into one implementation each).
A change to the numerical kernels (BLAS Gram matrices, Cholesky solves) must
keep every value within rtol=1e-9; the within-version byte-determinism tests
live in test_campaign.py and test_acceptance.py.

Regenerate the file only when results are meant to change:
    PYTHONPATH=src python3 tests/test_oracle.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cellfree.campaign import run_campaign

from conftest import make_cfg

DATA = Path(__file__).parent / "data" / "oracle_se.json"

_COMMON = dict(num_aps=8, num_ues=6, pilot_len=3, antennas_per_ap=2, area_side_km=0.5,
               ul_data_len=95, dl_data_len=95, genie_dl=True, num_realizations=48)

CONFIGS = {
    "distributed": dict(mode="distributed", schemes=("MR", "LP-MMSE", "L-MMSE")),
    "centralized": dict(mode="centralized",
                        schemes=("MR", "MMSE", "P-MMSE", "LP-MMSE", "L-MMSE")),
    "centralized-all-serve-all": dict(mode="centralized", all_serve_all=True,
                                      schemes=("MMSE", "P-MMSE", "MR")),
    "distributed-all-serve-all": dict(mode="distributed", all_serve_all=True,
                                      schemes=("MR", "LP-MMSE")),
    # 5 realizations: batches of one realization each
    "batches-of-one": dict(mode="centralized", num_realizations=5, seed=4,
                           schemes=("P-MMSE", "LP-MMSE")),
    "two-setups-single-antenna": dict(mode="distributed", num_setups=2, antennas_per_ap=1,
                                      num_aps=10, seed=7, schemes=("MR", "LP-MMSE")),
}


def _config(name):
    return make_cfg(**{**_COMMON, **CONFIGS[name]})


def _entries(report) -> dict:
    return {
        f"{scheme}/{direction}": {"se": entry.se.tolist(), "stderr": entry.stderr.tolist()}
        for (scheme, direction), entry in report.entries.items()
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_per_ue_se_matches_frozen_reference(name):
    expected = json.loads(DATA.read_text())[name]
    got = _entries(run_campaign(_config(name)))
    assert sorted(got) == sorted(expected)
    for key, values in expected.items():
        for field in ("se", "stderr"):
            np.testing.assert_allclose(got[key][field], values[field], rtol=1e-9, atol=0,
                                       equal_nan=True, err_msg=f"{name} {key} {field}")


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    frozen = {name: _entries(run_campaign(_config(name))) for name in sorted(CONFIGS)}
    DATA.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
