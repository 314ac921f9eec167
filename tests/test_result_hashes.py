import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cellfree import cli
from cellfree.campaign import SetupPlan

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "result_hashes.py"
CAMPAIGN = "desk/setup-i-ul/mr-all"
# every (uplink, downlink) route of SetupPlan: in centralized operation any
# uplink route with any downlink route; in distributed operation the
# downlink route fixes the uplink's
ROUTES = ({(ul, dl) for ul in ("sinr", "solve", None) for dl in ("norms", "moments", None)}
          - {(None, None)}
          | {("gains", "norms"), ("duality", "table"), ("chunks", None), (None, "table")})


def _tool():
    spec = importlib.util.spec_from_file_location("result_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def test_a_desk_campaign_prints_the_same_lines_twice():
    first, second = _run(CAMPAIGN), _run(CAMPAIGN)
    assert first == second
    lines = first.splitlines()
    files = ["assignments.json", "cdf_ul_MR.csv", "metadata.txt", "se_per_ue.csv"]
    assert [line.split("  ")[1] for line in lines] == [f"{CAMPAIGN}/{f}" for f in files]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)


def test_campaign_list():
    names = list(_tool().campaigns())
    assert len(names) == len(set(names))
    assert CAMPAIGN in names
    # ul-full's variants at two seeds, both full-scale uplink scenarios, the
    # three desk scenarios, the criterion-2 network at three antenna counts
    # and the routes the others miss
    for prefix, count in (("ul-full/", 8), ("ii-ul-full/", 4), ("desk/", 11),
                          ("mr-closed-form/", 6), ("mixed/", 16), ("routes/", 3)):
        assert sum(name.startswith(prefix) for name in names) == count, prefix


def test_every_route_is_taken_by_a_listed_campaign():
    taken = set()
    for cfg in _tool().campaigns().values():
        for s in range(cfg.num_setups):
            plan = SetupPlan(cfg, s)
            taken |= {(ul, plan.dl) for ul in plan.ul.values()}
    assert taken == ROUTES


def test_account_text_is_what_cellfree_account_prints(tmp_path, capsys):
    tool = _tool()
    assert list(tool.accounts()) == ["account/k50", "account/k100", "account/k125"]
    cfg = tool.accounts()["account/k50"]
    path = tmp_path / "k50.cfg"
    path.write_text("\n".join(cfg.to_lines()) + "\n")
    assert cli.main(["account", "--config", str(path)]) == 0
    assert capsys.readouterr().out == tool.account_text(cfg)


@pytest.mark.parametrize("args", [["no/such/campaign"], ["--threads", "0", CAMPAIGN]])
def test_bad_arguments_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        _tool().main(args)
    assert exc.value.code == 2
