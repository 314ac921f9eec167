import dataclasses
import re

import numpy as np
import pytest

from cellfree.config import (
    _FIELD_TYPES,
    _KEY_TO_FIELD,
    ConfigError,
    SimulationConfig,
    parse_config,
    parse_config_text,
)

PAPER_FRAME = """
frame.coherence_len = 200
frame.pilot_len = 10
frame.ul_data_len = 190
frame.dl_data_len = 0
run.seed = 42
"""


def test_paper_frame_split_is_valid():
    cfg = parse_config_text(PAPER_FRAME)
    assert cfg.pilot_len == 10 and cfg.ul_data_len == 190 and cfg.coherence_len == 200


def test_frame_budget_exceeded_rejected():
    text = PAPER_FRAME.replace("ul_data_len = 190", "ul_data_len = 195")
    with pytest.raises(ConfigError, match="budget"):
        parse_config_text(text)


def test_missing_seed_names_the_key():
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config_text("frame.pilot_len = 10")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="network.numaps"):
        parse_config_text("network.numaps = 4\nrun.seed = 1")


def test_ill_typed_value_names_the_key():
    with pytest.raises(ConfigError, match="frame.pilot_len"):
        parse_config_text("frame.pilot_len = ten\nrun.seed = 1")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("frame.pilot_len = 4\nframe.pilot_len = 5\nrun.seed = 1")


def test_scheme_validation():
    with pytest.raises(ConfigError, match="unknown scheme"):
        parse_config_text("run.seed = 1\nrun.schemes = ZF")
    with pytest.raises(ConfigError, match="centralized"):
        parse_config_text("run.seed = 1\nrun.schemes = MMSE\nrun.mode = distributed")
    cfg = parse_config_text("run.seed = 1\nrun.schemes = MMSE, P-MMSE\nrun.mode = centralized")
    assert cfg.schemes == ("MMSE", "P-MMSE")


def test_noise_alias_and_override():
    cfg = parse_config_text("run.seed = 1\npower.noise_w = 2e-13")
    assert cfg.noise_ul_w == cfg.noise_dl_w == 2e-13
    cfg = parse_config_text(
        "run.seed = 1\npower.noise_w = 2e-13\npower.noise_dl_w = 5e-13"
    )
    assert cfg.noise_ul_w == 2e-13 and cfg.noise_dl_w == 5e-13


def test_zero_realizations_rejected():
    cfg = parse_config_text("run.seed = 1")
    with pytest.raises(ConfigError, match="run.num_realizations"):
        cfg.replace(num_realizations=0)
    with pytest.raises(ConfigError, match="run.num_realizations"):
        parse_config_text("run.seed = 1\nrun.num_realizations = 0")


def test_pilot_len_is_a_field_not_derived_from_ues():
    a = parse_config_text("run.seed = 1\nnetwork.num_ues = 7")
    b = parse_config_text("run.seed = 1\nnetwork.num_ues = 70\nframe.ul_data_len = 190")
    assert a.pilot_len == b.pilot_len == SimulationConfig.pilot_len


def test_round_trip_through_echo(tmp_path):
    cfg = parse_config_text(PAPER_FRAME)
    path = tmp_path / "echo.cfg"
    path.write_text("\n".join(cfg.to_lines()) + "\n")
    again = parse_config(path)
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_missing_file_errors_with_path(tmp_path):
    with pytest.raises(ConfigError, match="nope.cfg"):
        parse_config(tmp_path / "nope.cfg")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# header\n\nrun.seed = 9  # trailing\n")
    assert cfg.seed == 9


# room in the frame for every value below; each key's own entry overrides these
_BASE_ENTRIES = {"run.seed": "1", "frame.coherence_len": "400", "frame.ul_data_len": "100"}

# a valid value other than the default, for every key
_NON_DEFAULT = {
    "network.num_aps": "50",
    "network.antennas_per_ap": "4",
    "network.num_ues": "20",
    "network.area_side_km": "0.75",
    "network.ap_height_m": "12.5",
    "network.all_serve_all": "true",
    "frame.coherence_len": "300",
    "frame.pilot_len": "5",
    "frame.ul_data_len": "150",
    "frame.dl_data_len": "80",
    "power.ue_tx_w": "0.2",
    "power.ap_tx_w": "0.5",
    "power.noise_ul_w": "2e-13",
    "power.noise_dl_w": "3e-13",
    "channel.pathloss_ref_db": "31.5",
    "channel.pathloss_slope_db": "35",
    "channel.shadow_std_db": "8",
    "channel.angular_spread_deg": "10",
    "cluster.radius_km": "0.3",
    "cluster.max_neighbors": "7",
    "run.seed": "9",
    "run.num_setups": "3",
    "run.num_realizations": "64",
    "run.schemes": "MR, LP-MMSE",
    "run.mode": "centralized",
    "run.genie_dl": "yes",
}

# by the type of the field's default: ill-typed for int, float and bool, not
# one of the allowed names for the scheme list and the mode
_BAD_VALUE = {int: "2.5", float: "ten", bool: "maybe", tuple: "MR, ZF", str: "hybrid"}


def _text(entries: dict) -> str:
    return "\n".join(f"{key} = {value}" for key, value in {**_BASE_ENTRIES, **entries}.items())


def test_every_key_has_a_non_default_value():
    assert sorted(_NON_DEFAULT) == sorted(_KEY_TO_FIELD)


@pytest.mark.parametrize("key", sorted(_KEY_TO_FIELD))
def test_bad_value_names_its_key(key):
    kind = type(getattr(SimulationConfig(), _KEY_TO_FIELD[key]))
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config_text(_text({key: _BAD_VALUE[kind]}))


@pytest.mark.parametrize("key", sorted(_KEY_TO_FIELD))
def test_non_default_value_round_trips_through_echo(key):
    field = _KEY_TO_FIELD[key]
    cfg = parse_config_text(_text({key: _NON_DEFAULT[key]}))
    assert getattr(cfg, field) != getattr(SimulationConfig(), field)
    again = parse_config_text("\n".join(cfg.to_lines()))
    assert again == cfg
    assert type(getattr(again, field)) is type(getattr(SimulationConfig(), field))


_FLOAT_KEYS = sorted(key for key, field in _KEY_TO_FIELD.items() if _FIELD_TYPES[field] is float)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_float_names_its_key(key, value):
    with pytest.raises(ConfigError, match=re.escape(key) + ": must be finite"):
        parse_config_text(_text({key: value}))


def test_negative_shadow_std_rejected():
    with pytest.raises(ConfigError, match="channel.shadow_std_db: must be nonnegative"):
        parse_config_text(_text({"channel.shadow_std_db": "-1"}))


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="run.seed: must be nonnegative"):
        parse_config_text(_text({"run.seed": "-1"}))


def test_repeated_scheme_rejected():
    with pytest.raises(ConfigError, match="run.schemes: scheme MR is listed more than once"):
        parse_config_text(_text({"run.schemes": "MR, LP-MMSE, MR"}))


# a value of another type than each declared field type admits
_WRONG_TYPE = {int: 2.0, float: "0.5", bool: 1, str: 3, tuple: ["MR"]}


@pytest.mark.parametrize("key", sorted(_KEY_TO_FIELD))
def test_field_of_the_wrong_type_names_its_key(key):
    field = _KEY_TO_FIELD[key]
    wrong = _WRONG_TYPE[_FIELD_TYPES[field]]
    cfg = dataclasses.replace(SimulationConfig(seed=1), **{field: wrong})
    with pytest.raises(ConfigError, match=re.escape(key) + ": expected "):
        cfg.validate()


@pytest.mark.parametrize("field, value, expected", [
    pytest.param("num_aps", True, "network.num_aps: expected int, got True", id="bool-as-int"),
    pytest.param("ap_height_m", False, "network.ap_height_m: expected float, got False",
                 id="bool-as-float"),
    pytest.param("num_setups", 2.0, "run.num_setups: expected int, got 2.0", id="float-as-int"),
    pytest.param("area_side_km", "1", "network.area_side_km: expected float, got '1'",
                 id="str-as-float"),
    pytest.param("schemes", ["MR"], "run.schemes: expected tuple, got ['MR']", id="list-as-tuple"),
])
def test_type_is_checked_before_any_other_check(field, value, expected):
    # the frame budget is exceeded too, and num_ues is out of range
    cfg = SimulationConfig(seed=1, num_ues=0, ul_data_len=500, **{field: value})
    with pytest.raises(ConfigError, match="^" + re.escape(expected) + "$"):
        cfg.validate()


def test_non_str_scheme_names_its_key():
    with pytest.raises(ConfigError, match="run.schemes: unknown scheme 3"):
        SimulationConfig(seed=1, schemes=("MR", 3)).validate()


def test_numpy_numbers_are_admitted_and_echoed_exactly():
    cfg = SimulationConfig(seed=np.int64(3), num_aps=np.int32(50), area_side_km=np.float32(0.1),
                           ue_power_w=1).validate()
    again = parse_config_text("\n".join(cfg.to_lines()))
    for field in ("seed", "num_aps", "area_side_km", "ue_power_w"):
        assert getattr(again, field) == float(getattr(cfg, field)), field
    assert again.to_lines() == cfg.to_lines()
