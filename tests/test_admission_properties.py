"""Admission invariants as properties of random small networks (hypothesis).

Each example drops a network with a random size, pilot count, radius and
neighbor cap, and admits its UEs in build_assignment's order: the first
pilot_len UEs on distinct pilots, then the rest. A UE whose master AP is
already master on every pilot is refused with AdmissionError and stays
unadmitted; the properties are stated for the UEs that were admitted.
The padded served table is checked against its loop definition, on
admitted networks and on arbitrary serving patterns.
"""

import numpy as np
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from cellfree.clustering import (
    AdmissionError,
    AdmissionState,
    ClusterAssignment,
    admit_ue,
    remove_ue,
)
from cellfree.rng import TOPOLOGY, stream
from cellfree.topology import generate_topology

from conftest import make_cfg


def _networks(all_serve_all):
    return st.fixed_dictionaries(dict(
        num_aps=st.integers(1, 20),
        num_ues=st.integers(1, 20),
        pilot_len=st.integers(1, 4),
        area_side_km=st.floats(0.1, 1.5),
        neighbor_radius_km=st.floats(0.05, 1.2),
        max_neighbors=st.integers(0, 6),
        seed=st.integers(0, 2**16),
        all_serve_all=all_serve_all,
    ))


CLUSTERED = _networks(st.just(False))
ANY_MODE = _networks(st.booleans())


def _state(params, skip=None) -> AdmissionState:
    cfg = make_cfg(antennas_per_ap=1, ul_data_len=95, dl_data_len=95, **params)
    topo = generate_topology(cfg, stream(cfg.seed, 0, TOPOLOGY))
    state = AdmissionState.empty(cfg, topo, all_serve_all=cfg.all_serve_all)
    for k in range(cfg.num_ues):
        if k == skip:
            continue
        try:
            admit_ue(state, k, forced_pilot=k if k < cfg.pilot_len else None)
        except AdmissionError:
            pass
    return state


def _admitted(assignment):
    return np.flatnonzero(assignment.pilot_of >= 0)


@given(CLUSTERED)
def test_cluster_sizes_stay_within_the_pilot_count(params):
    a = _state(params).assignment
    assert a.cluster_sizes().max() <= a.pilot_len


@given(ANY_MODE)
def test_master_always_serves(params):
    a = _state(params).assignment
    admitted = _admitted(a)
    assert np.all(a.serves[a.master_of[admitted], admitted])
    assert not a.serves[:, a.pilot_of < 0].any()


@given(CLUSTERED)
def test_one_ue_per_pilot_per_ap(params):
    a = _state(params).assignment
    for l in range(a.num_aps):
        pilots = a.pilot_of[a.served_ues(l)]
        assert len(set(pilots.tolist())) == len(pilots)
    # the occupancy table names exactly the served UEs
    occupied = np.zeros_like(a.serves)
    ls, ts = np.nonzero(a.ue_on_pilot >= 0)
    occupied[ls, a.ue_on_pilot[ls, ts]] = True
    assert np.array_equal(occupied, a.serves)
    assert np.all(a.pilot_of[a.ue_on_pilot[ls, ts]] == ts)


_STATE_ARRAYS = ("pilot_of", "master_of", "serves", "ue_on_pilot")


def _snapshot(state) -> dict:
    arrays = {name: getattr(state.assignment, name).copy() for name in _STATE_ARRAYS}
    arrays["master_pilot_taken"] = state.master_pilot_taken.copy()
    arrays["trace_psi"] = state.trace_psi.copy()
    return arrays


@given(ANY_MODE, st.data())
def test_remove_undoes_admit(params, data):
    """Everything returns to the state before the admission, except that a
    slot UE k took from another UE stays free, and tr(Psi) comes back up to
    the rounding of one addition and one subtraction."""
    k = data.draw(st.integers(0, params["num_ues"] - 1))
    state = _state(params, skip=k)
    before = _snapshot(state)
    try:
        admit_ue(state, k)
    except AdmissionError:
        assume(False)
    during = _snapshot(state)
    remove_ue(state, k)
    after = _snapshot(state)

    evicted = before["serves"] & ~during["serves"]
    assert np.array_equal(after["serves"], before["serves"] & ~evicted)
    freed = before["ue_on_pilot"].copy()
    for l, j in zip(*np.nonzero(evicted)):
        freed[l, before["pilot_of"][j]] = -1
    assert np.array_equal(after["ue_on_pilot"], freed)
    for name in ("pilot_of", "master_of", "master_pilot_taken"):
        assert np.array_equal(after[name], before[name]), name
    eps = np.finfo(float).eps
    assert np.all(np.abs(after["trace_psi"] - before["trace_psi"]) <= 2 * eps * during["trace_psi"])


@given(ANY_MODE)
def test_assignment_survives_a_json_round_trip(params):
    a = _state(params).assignment
    again = ClusterAssignment.from_json(a.to_json())
    for name in _STATE_ARRAYS:
        assert np.array_equal(getattr(again, name), getattr(a, name)), name
    assert (again.pilot_len, again.all_serve_all) == (a.pilot_len, a.all_serve_all)
    assert again.to_json() == a.to_json()


def _served_table_by_loop(serves):
    """D_l in ascending order for every AP, padded with UE 0 to the largest
    |D_l|, and the mask of the real entries."""
    rows = [[k for k in range(serves.shape[1]) if serves[l, k]] for l in range(serves.shape[0])]
    width = max((len(row) for row in rows), default=0)
    served = np.zeros((len(rows), width), dtype=int)
    valid = np.zeros((len(rows), width), dtype=bool)
    for l, row in enumerate(rows):
        for t, k in enumerate(row):
            served[l, t], valid[l, t] = k, True
    return served, valid


def _check_served_table(a):
    served, valid = a.served_table()
    expected_served, expected_valid = _served_table_by_loop(a.serves)
    assert served.shape == valid.shape == expected_served.shape
    assert served.dtype.kind == "i" and valid.dtype == bool
    assert np.array_equal(valid, expected_valid)
    assert np.array_equal(served, expected_served)
    assert np.all(served[~valid] == 0)
    # slot order: UE k sits in slot |D_l ∩ {0..k}| - 1 of AP l
    for l, k in zip(*np.nonzero(a.serves)):
        assert served[l, a.serves[l, :k + 1].sum() - 1] == k


@given(ANY_MODE)
def test_served_table_of_admitted_networks(params):
    _check_served_table(_state(params).assignment)


@given(hnp.arrays(bool, st.tuples(st.integers(1, 8), st.integers(1, 8))))
def test_served_table_of_any_serving_pattern(serves):
    """Every (L, K) pattern, idle APs and APs that serve everyone included."""
    L, K = serves.shape
    _check_served_table(ClusterAssignment(
        pilot_len=1, pilot_of=np.zeros(K, dtype=int), master_of=np.zeros(K, dtype=int),
        serves=serves, ue_on_pilot=np.full((L, 1), -1)))
