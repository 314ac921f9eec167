"""Scalable cell-free massive MIMO simulation library.

Core pipeline: place a wrap-around network topology, admit UEs through the
joint access/pilot/clustering procedure, estimate channels per coherence
block, compute receive combiners / transmit precoders, and evaluate uplink
and downlink spectral-efficiency bounds by Monte-Carlo campaigns.
"""

from .config import SimulationConfig, ConfigError, parse_config
from .topology import Topology, generate_topology, sample_channels
from .clustering import ClusterAssignment, build_assignment, compute_partners
from .estimation import SetupContext, EstimationBundle
from .campaign import SEReport, run_campaign, emit_results

__all__ = [
    "SimulationConfig",
    "ConfigError",
    "parse_config",
    "Topology",
    "generate_topology",
    "sample_channels",
    "ClusterAssignment",
    "build_assignment",
    "compute_partners",
    "SetupContext",
    "EstimationBundle",
    "SEReport",
    "run_campaign",
    "emit_results",
]
