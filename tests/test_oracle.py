"""Cross-version oracle: per-UE SE and stderr pinned to frozen reference values.

The values in data/oracle_se.json were produced by commit 50dddff (before the
accumulators, norm sums and solves were merged into one implementation each);
the four "no-genie-*" configs were added later, produced by commit d538d4a
(before the downlink without the genie reference moved into the first
Monte-Carlo pass). The three "single-antenna-*-uplink" configs, the uplink-only
path of the full-scale setup-i-ul scenario at one antenna per AP, were added
last, produced by commit 237d7ad (before the estimates of complete demand
masks moved into one whole-table pass and the single-antenna kernels into
elementwise arithmetic). The "four-antenna-centralized-all-serve-all-uplink"
config, the uplink-only all-serve-all path of setup-ii-ul with more stacked
antennas than UEs, was produced by commit 51e4c58 (before the all-serve-all
MMSE combiners moved from the L*N x L*N solve to a K x K solve by the
push-through identity). Both paths of the downlink are pinned to the same values:
the genie-on centralized configs are checked once with the single pass and
once with the second pass forced.
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

from cellfree import campaign
from cellfree.campaign import run_campaign

from conftest import make_cfg

DATA = Path(__file__).parent / "data" / "oracle_se.json"

_COMMON = dict(num_aps=8, num_ues=6, pilot_len=3, antennas_per_ap=2, area_side_km=0.5,
               ul_data_len=95, dl_data_len=95, genie_dl=True, num_realizations=48)

_UPLINK_ONLY = dict(antennas_per_ap=1, num_aps=10, ul_data_len=190, dl_data_len=0,
                    genie_dl=False)

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
    # without the genie reference the downlink takes its own path through the campaign
    "no-genie-distributed": dict(mode="distributed", genie_dl=False,
                                 schemes=("MR", "LP-MMSE", "L-MMSE")),
    "no-genie-centralized": dict(mode="centralized", genie_dl=False,
                                 schemes=("MR", "MMSE", "P-MMSE", "LP-MMSE")),
    "no-genie-batches-of-one": dict(mode="centralized", genie_dl=False, num_realizations=5,
                                    seed=4, schemes=("P-MMSE", "LP-MMSE", "MR")),
    "no-genie-batches-of-one-distributed": dict(mode="distributed", genie_dl=False,
                                                num_realizations=5, seed=4,
                                                schemes=("MR", "LP-MMSE")),
    # one antenna per AP and no downlink, as in setup-i-ul: every N x N matrix
    # is a scalar, and the centralized and all-serve-all campaigns estimate
    # every (UE, AP) pair
    "single-antenna-centralized-uplink": dict(
        mode="centralized", schemes=("MMSE", "P-MMSE", "MR"), **_UPLINK_ONLY),
    "single-antenna-centralized-all-serve-all-uplink": dict(
        mode="centralized", all_serve_all=True, schemes=("MMSE", "P-MMSE", "MR"),
        **_UPLINK_ONLY),
    "single-antenna-distributed-all-serve-all-uplink": dict(
        mode="distributed", all_serve_all=True, schemes=("MR", "LP-MMSE"), **_UPLINK_ONLY),
    # four antennas per AP and no downlink, as in setup-ii-ul: every AP serves
    # every UE and the stacked antenna count L*N = 20 exceeds K = 6
    "four-antenna-centralized-all-serve-all-uplink": dict(
        _UPLINK_ONLY, antennas_per_ap=4, num_aps=5, mode="centralized", all_serve_all=True,
        schemes=("MMSE", "P-MMSE", "MR")),
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
    _check(name, run_campaign(_config(name)))


def _genie_dl(name) -> bool:
    cfg = {**_COMMON, **CONFIGS[name]}
    return cfg["genie_dl"] and cfg["dl_data_len"] > 0


# the genie reference can join the single pass in centralized operation only
GENIE_CENTRALIZED = sorted(n for n in CONFIGS if _genie_dl(n)
                           and CONFIGS[n]["mode"] == "centralized")


@pytest.mark.parametrize("name", sorted(n for n in CONFIGS if n.startswith("no-genie"))
                         + GENIE_CENTRALIZED)
def test_single_pass_downlink_matches_frozen_reference(monkeypatch, name):
    """The campaign takes the single pass only for small block moments; here
    it is taken for every config without the genie and every centralized
    one with it, whose values were frozen from two passes."""
    monkeypatch.setattr(campaign, "_block_moments_fit", lambda cfg, blocks, batch: True)
    _check(name, run_campaign(_config(name)))


@pytest.mark.parametrize("name", GENIE_CENTRALIZED)
def test_two_pass_genie_matches_frozen_reference(monkeypatch, name):
    """The second pass that large centralized genie campaigns keep."""
    monkeypatch.setattr(campaign, "_genie_powers_fit", lambda cfg: False)
    _check(name, run_campaign(_config(name)))


def _check(name, report):
    expected = json.loads(DATA.read_text())[name]
    got = _entries(report)
    assert sorted(got) == sorted(expected)
    for key, values in expected.items():
        for field in ("se", "stderr"):
            np.testing.assert_allclose(got[key][field], values[field], rtol=1e-9, atol=0,
                                       equal_nan=True, err_msg=f"{name} {key} {field}")


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    frozen = {name: _entries(run_campaign(_config(name))) for name in sorted(CONFIGS)}
    DATA.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
