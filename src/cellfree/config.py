"""Scenario configuration: flat dotted key/value files and validation.

The config format is deliberately plain text so scenario files stay diffable
and language-neutral::

    # uplink campaign, paper-style frame split
    network.num_aps = 100
    frame.pilot_len = 10
    run.seed = 7
    run.schemes = MR, LP-MMSE

Every key except ``run.seed`` has a default. ``parse_config`` raises
``ConfigError`` naming the offending key for unknown, ill-typed, or missing
entries, and for invariant violations (e.g. frame budget exceeded).
"""

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

SCHEMES = ("MR", "MMSE", "P-MMSE", "L-MMSE", "LP-MMSE")
MODES = ("centralized", "distributed")

# schemes that require network-wide estimates and cannot run distributed
_CENTRALIZED_ONLY = ("MMSE", "P-MMSE")

# -94 dBm: 20 MHz bandwidth, 7 dB noise figure
DEFAULT_NOISE_W = 10.0 ** ((-94.0 - 30.0) / 10.0)


class ConfigError(ValueError):
    """Malformed or invalid scenario configuration."""


@dataclass(frozen=True)
class SimulationConfig:
    # network geometry
    num_aps: int = 100
    antennas_per_ap: int = 1
    num_ues: int = 40
    area_side_km: float = 1.0
    ap_height_m: float = 10.0
    all_serve_all: bool = False
    # coherence-block split; pilot_len is a constant of the deployment,
    # never derived from num_ues
    coherence_len: int = 200
    pilot_len: int = 10
    ul_data_len: int = 190
    dl_data_len: int = 0
    # powers (watts)
    ue_power_w: float = 0.1
    ap_power_w: float = 1.0
    noise_ul_w: float = DEFAULT_NOISE_W
    noise_dl_w: float = DEFAULT_NOISE_W
    # propagation model
    pathloss_ref_db: float = 30.5
    pathloss_slope_db: float = 36.7
    shadow_std_db: float = 4.0
    angular_spread_deg: float = 15.0
    # cluster-formation neighborhood
    neighbor_radius_km: float = 0.5
    max_neighbors: int = 20
    # campaign
    seed: int = 0
    num_setups: int = 1
    num_realizations: int = 100
    schemes: tuple = ("MR",)
    mode: str = "distributed"
    genie_dl: bool = False

    def validate(self) -> "SimulationConfig":
        for key in ("num_aps", "antennas_per_ap", "num_ues", "coherence_len", "pilot_len"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{_KEY_OF[key]}: must be a positive integer")
        for key in ("ul_data_len", "dl_data_len"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{_KEY_OF[key]}: must be nonnegative")
        if self.pilot_len + self.ul_data_len + self.dl_data_len > self.coherence_len:
            raise ConfigError(
                "frame budget exceeded: pilot_len + ul_data_len + dl_data_len "
                f"= {self.pilot_len + self.ul_data_len + self.dl_data_len} "
                f"> coherence_len = {self.coherence_len}"
            )
        for key in ("area_side_km", "ue_power_w", "ap_power_w", "noise_ul_w",
                    "noise_dl_w", "neighbor_radius_km"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{_KEY_OF[key]}: must be strictly positive")
        if self.ap_height_m < 0:
            raise ConfigError("network.ap_height_m: must be nonnegative")
        if self.max_neighbors < 0:
            raise ConfigError("cluster.max_neighbors: must be nonnegative")
        if self.num_setups < 1:
            raise ConfigError("run.num_setups: must be a positive integer")
        if self.num_realizations < 1:
            raise ConfigError("run.num_realizations: must be a positive integer")
        if self.mode not in MODES:
            raise ConfigError(f"run.mode: expected one of {MODES}, got {self.mode!r}")
        if not self.schemes:
            raise ConfigError("run.schemes: at least one scheme required")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"run.schemes: unknown scheme {s!r}, expected from {SCHEMES}")
            if self.mode == "distributed" and s in _CENTRALIZED_ONLY:
                raise ConfigError(
                    f"run.schemes: {s} needs network-wide estimates and is only "
                    "available in centralized mode"
                )
        return self

    def replace(self, **kwargs) -> "SimulationConfig":
        return dataclasses.replace(self, **kwargs).validate()

    def to_lines(self) -> list:
        """Canonical key = value echo (fixed key order, round-trippable)."""
        lines = []
        for key, field in _KEY_TO_FIELD.items():
            value = getattr(self, field)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, tuple):
                text = ", ".join(value)
            elif isinstance(value, float):
                text = f"{value:.17g}"
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        return lines

    def config_hash(self) -> str:
        digest = hashlib.sha256("\n".join(self.to_lines()).encode()).hexdigest()
        return digest[:16]


_KEY_TO_FIELD = {
    "network.num_aps": "num_aps",
    "network.antennas_per_ap": "antennas_per_ap",
    "network.num_ues": "num_ues",
    "network.area_side_km": "area_side_km",
    "network.ap_height_m": "ap_height_m",
    "network.all_serve_all": "all_serve_all",
    "frame.coherence_len": "coherence_len",
    "frame.pilot_len": "pilot_len",
    "frame.ul_data_len": "ul_data_len",
    "frame.dl_data_len": "dl_data_len",
    "power.ue_tx_w": "ue_power_w",
    "power.ap_tx_w": "ap_power_w",
    "power.noise_ul_w": "noise_ul_w",
    "power.noise_dl_w": "noise_dl_w",
    "channel.pathloss_ref_db": "pathloss_ref_db",
    "channel.pathloss_slope_db": "pathloss_slope_db",
    "channel.shadow_std_db": "shadow_std_db",
    "channel.angular_spread_deg": "angular_spread_deg",
    "cluster.radius_km": "neighbor_radius_km",
    "cluster.max_neighbors": "max_neighbors",
    "run.seed": "seed",
    "run.num_setups": "num_setups",
    "run.num_realizations": "num_realizations",
    "run.schemes": "schemes",
    "run.mode": "mode",
    "run.genie_dl": "genie_dl",
}
_KEY_OF = {field: key for key, field in _KEY_TO_FIELD.items()}

# a single shared noise key is accepted as a shorthand for both directions
_ALIAS_KEYS = {"power.noise_w": ("noise_ul_w", "noise_dl_w")}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SimulationConfig)}


def _coerce(key: str, field: str, raw: str):
    raw = raw.strip()
    kind = _FIELD_TYPES[field]
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError
        if kind is tuple:
            return tuple(part.strip() for part in raw.split(",") if part.strip())
        return kind(raw)  # int, float or str
    except ValueError:
        raise ConfigError(f"{key}: cannot parse value {raw!r}") from None


def parse_config_text(text: str, source: str = "<string>") -> SimulationConfig:
    values = {}
    aliased = {}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        if key in _ALIAS_KEYS:
            for field in _ALIAS_KEYS[key]:
                aliased[field] = _coerce(key, field, raw)
            continue
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        field = _KEY_TO_FIELD[key]
        values[field] = _coerce(key, field, raw)
    for field, value in aliased.items():
        values.setdefault(field, value)
    if "seed" not in values:
        raise ConfigError("missing required key: run.seed")
    return SimulationConfig(**values).validate()


def parse_config(path) -> SimulationConfig:
    """Load and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))
