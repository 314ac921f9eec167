"""Uplink-downlink duality as a property of random small networks (hypothesis).

Each example drops a network with a random size, antenna count, pilot count
and clustering, gives every UE its own uplink power and the downlink its own
noise power, and takes the closed-form MR moments. The downlink powers that
duality_power returns must then replicate every uplink SINR and satisfy the
total-power identity sum rho_i / sigma_dl^2 = sum p_i / sigma_ul^2, with
nonnegative powers, both to 1e-9 relative (acceptance criterion 1 allows
1e-6 on the SINRs).
"""

import numpy as np
from hypothesis import assume, given, strategies as st

from cellfree.clustering import AdmissionError, build_assignment
from cellfree.estimation import SetupContext
from cellfree.power import duality_power
from cellfree.rng import TOPOLOGY, stream
from cellfree.se import ul_mr_closed_form_moments
from cellfree.topology import generate_topology

from conftest import make_cfg

NETWORKS = st.fixed_dictionaries(dict(
    num_aps=st.integers(1, 10),
    num_ues=st.integers(1, 6),
    antennas_per_ap=st.integers(1, 3),
    pilot_len=st.integers(1, 4),
    area_side_km=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**16),
    all_serve_all=st.booleans(),
))


@given(NETWORKS, st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
       st.floats(0.25, 4.0))
def test_downlink_powers_replicate_the_uplink_sinrs(params, power_shares, noise_ratio):
    cfg = make_cfg(**params)
    topo = generate_topology(cfg, stream(cfg.seed, 0, TOPOLOGY))
    try:
        assignment = build_assignment(cfg, topo)
    except AdmissionError:
        assume(False)
    ul_power = cfg.ue_power_w * np.array(power_shares[:cfg.num_ues])
    ctx = SetupContext(topo, assignment, ul_power, cfg)
    noise_dl_w = noise_ratio * cfg.noise_ul_w

    result = duality_power(ul_mr_closed_form_moments(ctx), ul_power, cfg.noise_ul_w,
                           noise_dl_w, sinr_rtol=1e-9, power_rtol=1e-9)

    assert np.all(result.gamma > 0)
    assert np.all(np.abs(result.dl_sinr - result.gamma) <= 1e-9 * result.gamma)
    assert abs(result.total_dl - result.total_ul) <= 1e-9 * result.total_ul
    assert result.total_ul == np.sum(ul_power) / cfg.noise_ul_w
    assert np.all(result.rho >= 0)
