import pytest

from cellfree.cli import main

CONFIG = """
network.num_aps = 8
network.antennas_per_ap = 2
network.num_ues = 5
network.area_side_km = 0.4
frame.pilot_len = 3
frame.ul_data_len = 95
frame.dl_data_len = 95
run.seed = 5
run.num_realizations = 30
run.schemes = MR, LP-MMSE
run.mode = distributed
"""


def write_cfg(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(CONFIG)
    return path


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "results"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "se_per_ue.csv").exists()
    assert (out / "cdf_ul_MR.csv").exists()
    assert (out / "metadata.txt").exists()
    captured = capsys.readouterr().out
    assert "MR ul: mean SE" in captured


def test_simulate_seed_override_changes_results(tmp_path):
    cfg = write_cfg(tmp_path)
    main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"),
          "--seed", "99"])
    a = (tmp_path / "a" / "se_per_ue.csv").read_text()
    b = (tmp_path / "b" / "se_per_ue.csv").read_text()
    assert a != b


def test_simulate_threads_flag_is_transparent(tmp_path):
    cfg = write_cfg(tmp_path)
    main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"),
          "--threads", "3"])
    a = (tmp_path / "a" / "se_per_ue.csv").read_bytes()
    b = (tmp_path / "b" / "se_per_ue.csv").read_bytes()
    assert a == b


def test_account_prints_cost_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["account", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "entity,index,scheme,metric,value"
    ap_lines = [l for l in lines if l.startswith("ap,")]
    ue_lines = [l for l in lines if l.startswith("ue,")]
    assert len(ap_lines) == 2 * 8 * 3
    assert len(ue_lines) == 2 * 5 * 2
    # centralized pilot load = tau_p * N = 6 for every AP
    assert "ap,0,centralized,fronthaul_pilot,6" in lines


def test_bench_list(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "setup-i-ul" in out
    assert "setup-i-dl" in out


def _usage_error(capsys, argv) -> str:
    """The last stderr line of a run that argparse ends with exit status 2."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.splitlines()[-1]


@pytest.mark.parametrize("command", ["simulate", "account"])
def test_invalid_config_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace("MR, LP-MMSE", "MMSE"))
    argv = [command, "--config", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "results")]
    line = _usage_error(capsys, argv)
    assert line.startswith("cellfree: error: run.schemes: MMSE needs network-wide estimates")
    assert not (tmp_path / "results").exists()


def _runs(tmp_path):
    """simulate and bench command lines that would write into tmp_path / "r"."""
    out = ["--out", str(tmp_path / "r")]
    return [["simulate", "--config", str(write_cfg(tmp_path))] + out,
            ["bench", "--scenario", "setup-i-ul"] + out]


def test_invalid_seed_override_is_a_usage_error(tmp_path, capsys):
    for argv in _runs(tmp_path):
        assert _usage_error(capsys, argv + ["--seed", "-1"]) == (
            "cellfree: error: run.seed: must be nonnegative"), argv[0]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_thread_count_below_one_is_a_usage_error(tmp_path, capsys, threads):
    for argv in _runs(tmp_path):
        assert _usage_error(capsys, argv + ["--threads", threads]) == (
            f"cellfree: error: --threads: must be at least 1, got {threads}"), argv[0]
    assert not (tmp_path / "r").exists()


def test_unknown_bench_scenario_is_a_usage_error(capsys):
    line = _usage_error(capsys, ["bench", "--scenario", "nope"])
    assert line.startswith("cellfree bench: error: argument --scenario: invalid choice: 'nope'")
    assert "setup-i-ul" in line
