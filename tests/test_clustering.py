import dataclasses
import json

import numpy as np
import pytest

from cellfree import clustering
from cellfree.clustering import (
    AdmissionError,
    AdmissionState,
    admit_ue,
    appoint_master,
    assign_pilot,
    build_assignment,
    ClusterAssignment,
    compute_partners,
    form_cluster,
    neighbor_aps,
)
from cellfree.rng import TOPOLOGY, stream
from cellfree.topology import generate_topology

from conftest import make_cfg


def make_state(cfg, seed=0, beta=None):
    topo = generate_topology(cfg, stream(seed, 0, TOPOLOGY))
    if beta is not None:
        topo.beta = np.asarray(beta, dtype=float)
    return AdmissionState.empty(cfg, topo), topo


class TestMasterAppointment:
    def test_argmax_of_beta_row(self):
        cfg = make_cfg(num_aps=3, num_ues=1, pilot_len=2)
        state, _ = make_state(cfg, beta=[[1.0, 5.0, 2.0]])
        assert appoint_master(state, 0) == 1

    def test_tie_breaks_to_lowest_index(self):
        cfg = make_cfg(num_aps=2, num_ues=1, pilot_len=2)
        state, _ = make_state(cfg, beta=[[3.0, 3.0]])
        assert appoint_master(state, 0) == 0

    def test_single_ap(self):
        cfg = make_cfg(num_aps=1, num_ues=1, pilot_len=2)
        state, _ = make_state(cfg)
        assert appoint_master(state, 0) == 0


class TestPilotAssignment:
    def test_argmin_of_observed_pilot_power(self):
        cfg = make_cfg(num_aps=1, num_ues=1, pilot_len=3)
        state, _ = make_state(cfg)
        state.trace_psi[:, 0] = [5.0, 3.0, 9.0]
        assert assign_pilot(state, 0) == 1

    def test_empty_network_ties_to_first_pilot(self):
        cfg = make_cfg(num_aps=2, num_ues=2, pilot_len=3)
        state, _ = make_state(cfg)
        # no UEs yet: every pilot sees only noise, N * sigma^2
        assert np.allclose(state.trace_psi, cfg.antennas_per_ap * cfg.noise_ul_w)
        assert assign_pilot(state, 0) == 0

    def test_master_blocked_pilot_is_excluded(self):
        cfg = make_cfg(num_aps=1, num_ues=2, pilot_len=2)
        state, _ = make_state(cfg)
        state.trace_psi[:, 0] = [3.0, 3.0]
        state.master_pilot_taken[0, 0] = True
        assert assign_pilot(state, 0) == 1

    def test_master_at_capacity(self):
        cfg = make_cfg(num_aps=1, num_ues=3, pilot_len=2, max_neighbors=0)
        state, _ = make_state(cfg)
        admit_ue(state, 0)
        admit_ue(state, 1)
        with pytest.raises(AdmissionError, match="capacity"):
            admit_ue(state, 2)


class TestClusterFormation:
    def _four_ap_state(self, betas):
        # tiny area so every AP is in every neighbor set
        cfg = make_cfg(num_aps=4, num_ues=2, pilot_len=2,
                       area_side_km=0.2, neighbor_radius_km=0.5)
        return make_state(cfg, beta=betas)

    def test_free_neighbor_serves_new_ue(self):
        state, _ = self._four_ap_state([[1.0, 0.5, 0.4, 0.3], [0.9, 0.6, 0.5, 0.4]])
        admit_ue(state, 0, forced_pilot=0)
        admit_ue(state, 1, forced_pilot=1)  # different pilot: no competition
        assert state.assignment.serves[:, 1].all()

    def test_stronger_new_ue_evicts_on_shared_pilot(self):
        # UE1 (master AP3) beats UE0 on AP2 but not on AP1
        state, _ = self._four_ap_state([[1.0, 0.6, 0.5, 0.1], [0.1, 0.4, 0.8, 2.0]])
        admit_ue(state, 0, forced_pilot=0)
        assert state.assignment.serves[2, 0]
        admit_ue(state, 1, forced_pilot=0)
        a = state.assignment
        assert a.serves[2, 1] and not a.serves[2, 0]      # 0.8 > 0.5: switch
        assert a.serves[1, 0] and not a.serves[1, 1]      # 0.4 <= 0.6: keep
        assert a.serves[0, 0]                             # evictee keeps its master

    def test_weaker_new_ue_is_not_added(self):
        state, _ = self._four_ap_state([[1.0, 0.6, 0.5, 0.1], [0.1, 0.4, 0.3, 2.0]])
        admit_ue(state, 0, forced_pilot=0)
        admit_ue(state, 1, forced_pilot=0)
        a = state.assignment
        assert not a.serves[1, 1] and not a.serves[2, 1]
        assert a.serves[3, 1]  # own master always serves

    def test_master_never_dropped_even_for_stronger_ue(self):
        # both UEs appoint AP0: pilot exclusion moves UE1 to another pilot,
        # UE0 keeps its master slot
        state, _ = self._four_ap_state([[1.0, 0.1, 0.1, 0.1], [2.0, 1.9, 0.1, 0.1]])
        admit_ue(state, 0)
        admit_ue(state, 1)
        a = state.assignment
        assert a.master_of[0] == a.master_of[1] == 0
        assert a.pilot_of[0] != a.pilot_of[1]
        assert a.serves[0, 0] and a.serves[0, 1]


class TestAdmission:
    def test_first_ue_gets_master_and_free_neighbors(self):
        cfg = make_cfg(num_aps=5, num_ues=1, pilot_len=2, area_side_km=0.2)
        state, _ = make_state(cfg)
        admit_ue(state, 0)
        a = state.assignment
        assert a.serving_aps(0).size >= 1
        assert a.serves[a.master_of[0], 0]

    def test_sequential_admission_invariants(self):
        cfg = make_cfg(num_aps=40, num_ues=30, pilot_len=4, area_side_km=1.0,
                       ul_data_len=95, dl_data_len=95)
        topo = generate_topology(cfg, stream(3, 0, TOPOLOGY))
        assignment = build_assignment(cfg, topo)
        assert np.all(assignment.cluster_sizes() <= cfg.pilot_len)
        for k in range(cfg.num_ues):
            assert assignment.serving_aps(k).size >= 1
            assert assignment.serves[assignment.master_of[k], k]

    def test_readmission_rejected(self):
        cfg = make_cfg(num_aps=3, num_ues=2, pilot_len=2)
        state, _ = make_state(cfg)
        admit_ue(state, 0)
        with pytest.raises(AdmissionError, match="already admitted"):
            admit_ue(state, 0)

    def test_one_ue_per_pilot_per_ap(self):
        cfg = make_cfg(num_aps=25, num_ues=25, pilot_len=3, area_side_km=0.8,
                       ul_data_len=95, dl_data_len=95)
        topo = generate_topology(cfg, stream(5, 0, TOPOLOGY))
        assignment = build_assignment(cfg, topo)
        for l in range(cfg.num_aps):
            pilots = assignment.pilot_of[assignment.served_ues(l)]
            assert len(set(pilots)) == len(pilots)


class TestPartners:
    def test_disjoint_serving_sets(self):
        a = ClusterAssignment(
            pilot_len=2,
            pilot_of=np.array([0, 0]),
            master_of=np.array([0, 1]),
            serves=np.array([[True, False], [False, True]]),
        )
        partners = compute_partners(a)
        assert np.array_equal(partners, np.eye(2, dtype=bool))

    def test_everyone_served_everywhere(self):
        serves = np.ones((3, 4), dtype=bool)
        a = ClusterAssignment(2, np.zeros(4, int), np.zeros(4, int), serves, all_serve_all=True)
        assert compute_partners(a).all()

    def test_matches_bruteforce_oracle(self):
        cfg = make_cfg(num_aps=15, num_ues=20, pilot_len=4, area_side_km=1.0,
                       ul_data_len=95, dl_data_len=95)
        topo = generate_topology(cfg, stream(9, 0, TOPOLOGY))
        assignment = build_assignment(cfg, topo)
        partners = compute_partners(assignment)
        for k in range(cfg.num_ues):
            for i in range(cfg.num_ues):
                expected = bool(
                    set(assignment.serving_aps(k)) & set(assignment.serving_aps(i))
                )
                assert partners[k, i] == expected

    def test_partner_bound_and_symmetry(self):
        cfg = make_cfg(num_aps=20, num_ues=40, pilot_len=5, area_side_km=1.2,
                       ul_data_len=95, dl_data_len=95)
        topo = generate_topology(cfg, stream(21, 0, TOPOLOGY))
        assignment = build_assignment(cfg, topo)
        partners = compute_partners(assignment)
        assert np.array_equal(partners, partners.T)
        for k in range(cfg.num_ues):
            m = assignment.serving_aps(k).size
            assert partners[k].sum() <= (cfg.pilot_len - 1) * m + 1
            assert partners[k, k]


class TestScalability:
    @pytest.mark.parametrize("num_ues,num_aps,side,pilot_len",
                             [(10, 16, 0.4, 4), (100, 160, 1.26, 4), (1000, 1600, 4.0, 10)])
    def test_cluster_sizes_stay_bounded(self, num_ues, num_aps, side, pilot_len):
        cfg = make_cfg(num_aps=num_aps, num_ues=num_ues, pilot_len=pilot_len,
                       area_side_km=side, ul_data_len=95, dl_data_len=95)
        topo = generate_topology(cfg, stream(33, 0, TOPOLOGY))
        assignment = build_assignment(cfg, topo)
        assert assignment.cluster_sizes().max() <= cfg.pilot_len


class TestAllServeAll:
    def test_benchmark_mode_sets_full_clusters(self):
        cfg = make_cfg(num_aps=6, num_ues=9, pilot_len=3, all_serve_all=True,
                       ul_data_len=95, dl_data_len=95)
        topo = generate_topology(cfg, stream(4, 0, TOPOLOGY))
        assignment = build_assignment(cfg, topo)
        assert assignment.serves.all()
        assert np.all(assignment.pilot_of >= 0)
        assert np.all(assignment.pilot_of < cfg.pilot_len)

    def test_admission_runs_no_step_3(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("all-serve-all admission built a Step-3 neighbor list")

        monkeypatch.setattr(clustering, "_neighbor_table", refuse)
        cfg = make_cfg(num_aps=30, num_ues=20, pilot_len=3, area_side_km=0.5,
                       all_serve_all=True, ul_data_len=95, dl_data_len=95)
        topo = generate_topology(cfg, stream(4, 0, TOPOLOGY))
        assignment = build_assignment(cfg, topo)
        assert assignment.serves.all()
        assert np.array_equal(assignment.master_of, np.argmax(topo.beta, axis=1))

    def test_serialization_round_trip(self):
        cfg = make_cfg(num_aps=6, num_ues=9, pilot_len=3,
                       ul_data_len=95, dl_data_len=95)
        topo = generate_topology(cfg, stream(4, 0, TOPOLOGY))
        assignment = build_assignment(cfg, topo)
        again = ClusterAssignment.from_json(assignment.to_json())
        assert np.array_equal(again.serves, assignment.serves)
        assert np.array_equal(again.pilot_of, assignment.pilot_of)
        assert np.array_equal(again.master_of, assignment.master_of)


def _json_by_dumps(a: ClusterAssignment) -> str:
    """The record as one json.dumps call of its fields."""
    return json.dumps(
        {
            "pilot_len": a.pilot_len,
            "all_serve_all": a.all_serve_all,
            "pilot_of": a.pilot_of.tolist(),
            "master_of": a.master_of.tolist(),
            "serving_aps": [a.serving_aps(k).tolist() for k in range(a.num_ues)],
            "num_aps": int(a.num_aps),
        },
        separators=(",", ":"),
    )


class TestJsonRecord:
    """to_json encodes each distinct serving row once and joins the strings;
    the bytes stay those of one json.dumps call."""

    @pytest.mark.parametrize("kind", ["dcc", "all-serve-all", "partly-admitted",
                                      "partly-admitted-all-serve-all"])
    def test_equals_json_dumps_of_the_fields(self, kind):
        cfg = make_cfg(num_aps=30, num_ues=20, pilot_len=3, area_side_km=0.5,
                       all_serve_all=kind == "all-serve-all")
        state, topo = make_state(cfg, seed=4)
        admitted = cfg.num_ues if kind in ("dcc", "all-serve-all") else 11
        for k in range(admitted):
            admit_ue(state, k, forced_pilot=k if k < cfg.pilot_len else None)
        assignment = state.assignment
        if kind.endswith("all-serve-all"):
            assignment = assignment.served_by_all()
            # one serving row, and the empty one of the UEs not admitted
            distinct = {assignment.serves[:, k].tobytes() for k in range(cfg.num_ues)}
            assert len(distinct) == (1 if kind == "all-serve-all" else 2)
        assert assignment.to_json() == _json_by_dumps(assignment)
        again = ClusterAssignment.from_json(assignment.to_json())
        assert np.array_equal(again.serves, assignment.serves)


# ---------------------------------------------------------------------------
# Step 3 against its definitions written plainly: one distance scan per
# master, and one decision per AP read through numpy scalar indexing.


def _loop_neighbors(state, master):
    """flatnonzero(dist <= r & l != master), stable argsort, first max_neighbors."""
    pos = state.topology.ap_pos
    side = state.topology.area_side_km
    d = pos - pos[master]
    d = d - side * np.round(d / side)
    dist = np.sqrt(np.sum(d * d, axis=-1))
    candidates = np.flatnonzero((dist <= state.cfg.neighbor_radius_km)
                                & (np.arange(len(dist)) != master))
    order = np.argsort(dist[candidates], kind="stable")
    return candidates[order][: state.cfg.max_neighbors]


def _loop_form_cluster(state, k, pilot, master, neighbors):
    assignment = state.assignment
    beta = state.topology.beta
    for l in (master, *neighbors):
        occupant = state.ue_on_pilot[l, pilot]
        if occupant >= 0:
            if assignment.master_of[occupant] == l:
                assert l != master
                continue
            if l != master and beta[k, l] <= beta[occupant, l]:
                continue
            assignment.serves[l, occupant] = False
        assignment.serves[l, k] = True
        state.ue_on_pilot[l, pilot] = k
    assignment.pilot_of[k] = pilot
    assignment.master_of[k] = master
    state.master_pilot_taken[master, pilot] = True
    state._register_pilot(k, pilot)


def _loop_admit(state, k, forced_pilot=None):
    master = appoint_master(state, k)
    pilot = assign_pilot(state, master) if forced_pilot is None else forced_pilot
    _loop_form_cluster(state, k, pilot, master, _loop_neighbors(state, master))


def _admit_in_order(state, admit, ues):
    # build_assignment's order: the first pilot_len UEs on distinct pilots
    for i, k in enumerate(ues):
        admit(state, k, forced_pilot=i if i < state.cfg.pilot_len else None)


def _assert_same_state(got, expected):
    for name in ("pilot_of", "master_of", "serves"):
        assert np.array_equal(getattr(got.assignment, name), getattr(expected.assignment, name)), name
    assert np.array_equal(got.ue_on_pilot, expected.ue_on_pilot)
    assert np.array_equal(got.master_pilot_taken, expected.master_pilot_taken)
    assert np.array_equal(got.trace_psi.view(np.uint64), expected.trace_psi.view(np.uint64))


def _states(cfg, topo):
    """A state with the neighbor table, and one the loop definitions run on."""
    return AdmissionState.empty(cfg, topo), AdmissionState.empty(cfg, topo)


STEP3_CASES = {
    "crowded": dict(num_aps=80, num_ues=50, pilot_len=4, area_side_km=1.0),
    "no-neighbors": dict(num_aps=30, num_ues=20, pilot_len=3, max_neighbors=0),
    "radius-covers-torus": dict(num_aps=12, num_ues=10, pilot_len=2, area_side_km=0.5,
                                neighbor_radius_km=1.0, max_neighbors=50),
    "cut-to-max-neighbors": dict(num_aps=40, num_ues=30, pilot_len=4, area_side_km=0.6,
                                 max_neighbors=3),
    # 16 masters per block of the distance table, the last block partial
    "several-table-blocks": dict(num_aps=2000, num_ues=60, pilot_len=4, area_side_km=4.5),
}


class TestNeighborTable:
    @pytest.mark.parametrize("case", sorted(STEP3_CASES))
    def test_table_equals_the_per_master_scan(self, case):
        cfg = make_cfg(antennas_per_ap=1, ul_data_len=95, dl_data_len=95, **STEP3_CASES[case])
        state, topo = make_state(cfg, seed=3)
        masters = np.unique(np.argmax(topo.beta, axis=1))
        assert sorted(state.neighbors) == masters.tolist()
        for m, listed in list(state.neighbors.items()):
            assert np.array_equal(listed, _loop_neighbors(state, m))
        # every other AP through the fallback
        for m in range(cfg.num_aps):
            assert np.array_equal(neighbor_aps(state, m), _loop_neighbors(state, m))

    def test_radius_covering_the_torus_invites_every_ap(self):
        cfg = make_cfg(antennas_per_ap=1, **STEP3_CASES["radius-covers-torus"])
        state, _ = make_state(cfg, seed=3)
        for m in range(cfg.num_aps):
            assert sorted(neighbor_aps(state, m)) == [l for l in range(cfg.num_aps) if l != m]

    def test_ap_exactly_on_the_radius_is_invited(self):
        cfg = make_cfg(num_aps=5, num_ues=1, pilot_len=2, area_side_km=1.0,
                       neighbor_radius_km=0.25)
        state, topo = make_state(cfg, beta=[[1.0, 0.5, 0.5, 0.5, 0.5]])
        # dyadic positions: the distances 0.25 are exact, 0.25 * sqrt(2) is outside
        topo.ap_pos = np.array([[0.5, 0.5], [0.75, 0.5], [0.5, 0.25], [0.75, 0.75], [0.5, 0.875]])
        state = AdmissionState.empty(cfg, topo)
        assert neighbor_aps(state, 0).tolist() == [1, 2]
        assert np.array_equal(neighbor_aps(state, 0), _loop_neighbors(state, 0))

    def test_no_ues_builds_an_empty_table(self):
        cfg = dataclasses.replace(make_cfg(num_aps=9, antennas_per_ap=1), num_ues=0)
        state, topo = make_state(cfg)
        assert state.neighbors == {}
        assert build_assignment(cfg, topo).serves.shape == (9, 0)
        for m in range(cfg.num_aps):
            assert np.array_equal(neighbor_aps(state, m), _loop_neighbors(state, m))


class TestStep3MatchesLoop:
    @pytest.mark.parametrize("case", sorted(STEP3_CASES))
    def test_admission_sequence(self, case):
        cfg = make_cfg(antennas_per_ap=1, ul_data_len=95, dl_data_len=95, **STEP3_CASES[case])
        topo = generate_topology(cfg, stream(5, 0, TOPOLOGY))
        got, expected = _states(cfg, topo)
        _admit_in_order(got, admit_ue, range(cfg.num_ues))
        _admit_in_order(expected, _loop_admit, range(cfg.num_ues))
        _assert_same_state(got, expected)
        assert got.assignment.to_json() == build_assignment(cfg, topo).to_json()

    def test_evictions_are_exercised(self):
        cfg = make_cfg(antennas_per_ap=1, ul_data_len=95, dl_data_len=95,
                       **STEP3_CASES["crowded"])
        topo = generate_topology(cfg, stream(5, 0, TOPOLOGY))
        state = AdmissionState.empty(cfg, topo)
        evictions = 0
        for k in range(cfg.num_ues):
            served_before = state.assignment.serves.sum()
            admit_ue(state, k, forced_pilot=k if k < cfg.pilot_len else None)
            evictions += served_before + state.assignment.serving_aps(k).size \
                - state.assignment.serves.sum()
        assert evictions > 0

    def test_ues_sharing_one_master(self):
        cfg = make_cfg(num_aps=16, num_ues=5, pilot_len=5, area_side_km=0.4,
                       antennas_per_ap=1)
        topo = generate_topology(cfg, stream(2, 0, TOPOLOGY))
        beta = topo.beta.copy()
        beta[:, 6] = 2.0 * beta.max()
        got, _ = make_state(cfg, seed=2, beta=beta)
        expected, _ = make_state(cfg, seed=2, beta=beta)
        assert list(got.neighbors) == [6]
        _admit_in_order(got, admit_ue, range(cfg.num_ues))
        _admit_in_order(expected, _loop_admit, range(cfg.num_ues))
        _assert_same_state(got, expected)
        assert np.all(got.assignment.master_of == 6)

    def test_equal_betas_keep_the_occupant(self):
        # beta rounded to powers of two: a new UE often ties with the occupant
        cfg = make_cfg(antennas_per_ap=1, ul_data_len=95, dl_data_len=95,
                       **STEP3_CASES["crowded"])
        topo = generate_topology(cfg, stream(6, 0, TOPOLOGY))
        beta = 2.0 ** np.round(np.log2(topo.beta))
        got, _ = make_state(cfg, seed=6, beta=beta)
        expected, _ = make_state(cfg, seed=6, beta=beta)
        _admit_in_order(got, admit_ue, range(cfg.num_ues))
        _admit_in_order(expected, _loop_admit, range(cfg.num_ues))
        _assert_same_state(got, expected)

    def test_beta_overridden_after_the_state_was_built(self):
        cfg = make_cfg(num_aps=30, num_ues=12, pilot_len=3, area_side_km=0.8,
                       antennas_per_ap=1)
        topo = generate_topology(cfg, stream(8, 0, TOPOLOGY))
        got, expected = _states(cfg, topo)
        topo.beta = topo.beta[:, ::-1].copy()  # masters move to APs outside the table
        assert not set(np.argmax(topo.beta, axis=1)) <= set(got.neighbors)
        _admit_in_order(got, admit_ue, range(cfg.num_ues))
        _admit_in_order(expected, _loop_admit, range(cfg.num_ues))
        _assert_same_state(got, expected)

    # UE 0 holds pilot 0 at its master AP 1 and at AP 2; UE 1 appoints AP 0
    # on the same pilot and invites APs 1, 2 and 3
    @pytest.mark.parametrize("beta_1, kept", [
        # stronger than UE 0 at APs 1 and 2, but AP 1 is UE 0's master
        pytest.param([2.0, 1.5, 0.9, 0.1], [1], id="neighbor-is-the-occupants-master"),
        # equal at AP 2: beta_kl <= beta_jl keeps the occupant
        pytest.param([2.0, 0.1, 0.5, 0.1], [1, 2], id="tie-keeps-the-occupant"),
    ])
    def test_contested_neighbor_slots(self, beta_1, kept):
        beta = [[0.1, 1.0, 0.5, 0.1], beta_1]
        got, _ = self._hand_state(beta)
        expected, _ = self._hand_state(beta)
        for state, form in ((got, form_cluster), (expected, _loop_form_cluster)):
            form(state, 0, 0, 1, np.array([2]))
            form(state, 1, 0, 0, np.array([1, 2, 3]))
        _assert_same_state(got, expected)
        assert got.assignment.serving_aps(0).tolist() == kept
        assert got.assignment.serving_aps(1).tolist() == [0] + [l for l in (1, 2, 3) if l not in kept]

    @staticmethod
    def _hand_state(beta):
        cfg = make_cfg(num_aps=4, num_ues=2, pilot_len=2, area_side_km=0.2,
                       neighbor_radius_km=0.5)
        return make_state(cfg, beta=beta)

    def test_form_cluster_with_an_empty_neighbor_list(self):
        cfg = make_cfg(num_aps=4, num_ues=2, pilot_len=2, area_side_km=0.2,
                       neighbor_radius_km=0.5)
        got, _ = make_state(cfg, beta=[[1.0, 0.5, 0.4, 0.3], [0.9, 0.6, 0.5, 0.4]])
        expected, _ = make_state(cfg, beta=[[1.0, 0.5, 0.4, 0.3], [0.9, 0.6, 0.5, 0.4]])
        form_cluster(got, 0, 1, 2, np.array([], dtype=int))
        _loop_form_cluster(expected, 0, 1, 2, [])
        _assert_same_state(got, expected)
        assert got.assignment.serving_aps(0).tolist() == [2]
