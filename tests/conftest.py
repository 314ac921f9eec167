import numpy as np
import pytest
from hypothesis import settings

from cellfree.clustering import build_assignment
from cellfree.config import SimulationConfig
from cellfree.estimation import SetupContext
from cellfree.power import ul_full_power
from cellfree.rng import TOPOLOGY, stream
from cellfree.topology import generate_topology

# property tests draw the same examples on every run, with no time limit per
# example and no example database: Tier-1 stays deterministic
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def make_cfg(**kw) -> SimulationConfig:
    """Small valid config; overrides welcome."""
    defaults = dict(
        num_aps=8,
        antennas_per_ap=2,
        num_ues=6,
        area_side_km=0.5,
        pilot_len=3,
        coherence_len=200,
        ul_data_len=95,
        dl_data_len=95,
        seed=1,
        num_setups=1,
        num_realizations=50,
        schemes=("MR",),
        mode="distributed",
    )
    defaults.update(kw)
    return SimulationConfig(**defaults).validate()


def make_setup(cfg, setup_index: int = 0):
    """Topology, assignment, and estimation context for one setup."""
    topology = generate_topology(cfg, stream(cfg.seed, setup_index, TOPOLOGY))
    assignment = build_assignment(cfg, topology)
    ctx = SetupContext(topology, assignment, ul_full_power(cfg), cfg)
    return topology, assignment, ctx


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: -0.0 and +0.0 differ, NaNs compare."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
