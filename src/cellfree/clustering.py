"""Joint initial access, pilot assignment, and cooperation-cluster formation.

Each connecting UE appoints the AP with the strongest large-scale coefficient
as its master, gets the pilot on which that AP currently sees the least pilot
power, and is then picked up by neighboring APs that either have the pilot
slot free or prefer the new UE's channel. An AP serves at most one UE per
pilot, so every AP serves at most pilot_len UEs no matter how many UEs the
network admits - this is what keeps per-AP cost bounded. Admission keeps
one slot per AP and pilot; the assignment it returns stores each AP's D_l,
an (L, T) table with T = max_l |D_l| <= pilot_len, and derives the dense
(L, K) serving mask only when it is read.

The benchmark "all APs serve all UEs" mode of the unscalable reference
schemes is derived from the same admission: it keeps every pilot and master
and lets every AP serve every admitted UE. Pilots and masters do not depend
on the clusters, so that mode runs Steps 1-2 only and invites no neighbors.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .config import SimulationConfig
from .topology import Topology, row_blocks, toroidal_distance


class AdmissionError(RuntimeError):
    """A UE could not be admitted (e.g. master AP out of pilot capacity)."""


@dataclass
class ClusterAssignment:
    """Pilot indices, serving sets, and master APs for all admitted UEs.

    The serving sets are stored per AP: row l of served holds D_l in
    ascending order, padded with -1 to T = max_l |D_l| (at most pilot_len
    after admission), so a clustered assignment holds O(L * pilot_len + K)
    entries whatever the network's size. An all-serve-all assignment stores
    no table (served is None): every AP serves every admitted UE. The dense
    (L, K) mask `serves` is derived on each read and never kept.
    """

    pilot_len: int
    pilot_of: np.ndarray          # (K,) pilot index, -1 while unadmitted
    master_of: np.ndarray         # (K,) AP index, -1 while unadmitted
    num_aps: int
    served: np.ndarray            # (L, T) D_l ascending, padded with -1; None if all serve all

    @property
    def all_serve_all(self) -> bool:
        return self.served is None

    @property
    def num_ues(self):
        return self.pilot_of.shape[0]

    @property
    def serves(self) -> np.ndarray:
        """(L, K) bool, serves[l, k] iff AP l serves UE k: a read-only array
        built on each read, so per-setup code reads SetupContext.serves()."""
        mask = np.zeros((self.num_aps, self.num_ues), dtype=bool)
        ues, aps, _ = self.pairs()
        mask[aps, ues] = True
        mask.flags.writeable = False
        return mask

    def _table(self) -> np.ndarray:
        # the all-serve-all table is a broadcast view of the admitted UEs
        if self.served is not None:
            return self.served
        admitted = np.flatnonzero(self.pilot_of >= 0)
        return np.broadcast_to(admitted, (self.num_aps, admitted.size))

    def serving_aps(self, k: int) -> np.ndarray:
        """M_k: indices of APs serving UE k, ascending (k sits in a row once)."""
        if self.all_serve_all:
            return np.arange(self.num_aps if self.pilot_of[k] >= 0 else 0)
        return np.flatnonzero(self.served == k) // self.served.shape[1]

    def served_ues(self, l: int) -> np.ndarray:
        """D_l: indices of UEs served by AP l, ascending."""
        row = self._table()[l]
        return row[row >= 0]

    def served_table(self) -> tuple:
        """(L, T) indices of D_l for every AP, padded with UE 0 to
        T = max_l |D_l|, and the (L, T) mask of the real entries. UEs appear
        in ascending order, so UE k sits in slot |D_l ∩ {0..k}| - 1."""
        table = self._table()
        valid = table >= 0
        return np.where(valid, table, 0), valid

    def pairs(self) -> tuple:
        """(ues, aps, slots) of every served pair, ordered by UE and then by
        AP (M_0, then M_1, ...): UE ues[p] sits in slot slots[p] of AP
        aps[p]'s row of served_table(). The one place that turns the D_l
        table into pairs; built on each call and never stored
        (SetupContext.pairs() keeps a setup's copy)."""
        table = self._table()
        aps, slots = np.nonzero(table >= 0)
        ues = table[aps, slots]
        # aps ascend already, so a stable sort by UE orders each M_k by AP
        order = np.argsort(ues, kind="stable")
        return ues[order], aps[order], slots[order]

    def cluster_sizes(self) -> np.ndarray:
        """|D_l| for every AP."""
        return (self._table() >= 0).sum(axis=1)

    def served_by_all(self) -> "ClusterAssignment":
        """The all-serve-all assignment with these pilots and masters (the
        arrays are shared): every AP serves every admitted UE."""
        return replace(self, served=None)

    @classmethod
    def from_mask(cls, pilot_len: int, pilot_of, master_of, serves) -> "ClusterAssignment":
        """The assignment in which AP l serves UE k iff serves[l, k], any
        (L, K) pattern (an AP may serve two UEs on one pilot)."""
        serves = np.asarray(serves, dtype=bool)
        return cls(pilot_len, np.asarray(pilot_of), np.asarray(master_of), serves.shape[0],
                   _serving_table(np.where(serves, np.arange(serves.shape[1]), -1)))

    def to_json(self) -> str:
        """json.dumps of the assignment: pilots, masters and each UE's M_k,
        with each distinct serving row encoded once (an all-serve-all
        assignment has one)."""
        encoded, rows = {}, []
        ues, aps, _ = self.pairs()
        for m_k in np.split(aps, np.cumsum(np.bincount(ues, minlength=self.num_ues))[:-1]):
            key = m_k.tobytes()
            if key not in encoded:
                encoded[key] = json.dumps(m_k.tolist(), separators=(",", ":"))
            rows.append(encoded[key])
        text = json.dumps(
            {
                "pilot_len": self.pilot_len,
                "all_serve_all": self.all_serve_all,
                "pilot_of": self.pilot_of.tolist(),
                "master_of": self.master_of.tolist(),
                "serving_aps": None,
                "num_aps": int(self.num_aps),
            },
            separators=(",", ":"),
        )
        return text.replace('"serving_aps":null', '"serving_aps":[' + ",".join(rows) + "]", 1)

    @classmethod
    def from_json(cls, text: str) -> "ClusterAssignment":
        data = json.loads(text)
        serves = np.zeros((data["num_aps"], len(data["pilot_of"])), dtype=bool)
        for k, aps in enumerate(data["serving_aps"]):
            serves[aps, k] = True
        assignment = cls.from_mask(data["pilot_len"], np.asarray(data["pilot_of"], dtype=int),
                                   np.asarray(data["master_of"], dtype=int), serves)
        return assignment.served_by_all() if data["all_serve_all"] else assignment


def _serving_table(slots: np.ndarray) -> np.ndarray:
    """(L, T) table of D_l from (L, S) slots that hold UE indices or -1 in
    any order: each row's UEs ascending, padded with -1 to T = max_l |D_l|."""
    width = (slots >= 0).sum(axis=1).max(initial=0)
    last = np.iinfo(slots.dtype).max    # sorts the padding behind every UE
    table = np.sort(np.where(slots >= 0, slots, last), axis=1)[:, :width].copy()
    table[table == last] = -1
    return table


def compute_partners(assignment: ClusterAssignment) -> np.ndarray:
    """(K, K) boolean partner matrix: UEs whose serving sets overlap.

    Symmetric, and contains k itself for every admitted UE. The pairs come
    from each AP's row of the table, sum_l |D_l|^2 of them.
    """
    if assignment.all_serve_all:
        served = (assignment.pilot_of >= 0) & (assignment.num_aps > 0)
        return served[:, None] & served[None, :]
    table = assignment.served
    width = table.shape[1]
    i, j = np.repeat(table, width, axis=1), np.tile(table, width)   # (L, T*T)
    both = (i >= 0) & (j >= 0)
    K = assignment.num_ues
    partners = np.zeros((K, K), dtype=bool)
    partners[i[both], j[both]] = True
    return partners


@dataclass
class AdmissionState:
    """Mutable admission bookkeeping (single-writer). The serving sets live
    in ue_on_pilot alone, one slot per AP and pilot; `assignment` forms the
    table from it on each read."""

    cfg: SimulationConfig
    topology: Topology
    pilot_of: np.ndarray           # (K,) pilot index, -1 while unadmitted
    master_of: np.ndarray          # (K,) AP index, -1 while unadmitted
    trace_psi: np.ndarray          # (pilot_len, L) running tr(Psi_tl)
    master_pilot_taken: np.ndarray  # (L, pilot_len) AP is master of a UE on that pilot
    ue_on_pilot: np.ndarray        # (L, pilot_len) UE the AP serves on that pilot, or -1
    neighbors: dict = field(default_factory=dict)  # master AP -> its Step-3 list

    @classmethod
    def empty(cls, cfg: SimulationConfig, topology: Topology):
        L, K = cfg.num_aps, cfg.num_ues
        # with no UEs assigned, tr(Psi_tl) = N * sigma_ul^2 on every pilot
        trace_psi = np.full((cfg.pilot_len, L), cfg.antennas_per_ap * cfg.noise_ul_w)
        # a master is argmax_l beta_kl whatever has been admitted, so the
        # Step-3 lists of all masters come from one pass over the AP pairs;
        # all-serve-all admission has no Step 3
        neighbors = {} if cfg.all_serve_all else _neighbor_table(
            cfg, topology, np.unique(np.argmax(topology.beta, axis=1)))
        return cls(cfg, topology, np.full(K, -1, dtype=int), np.full(K, -1, dtype=int),
                   trace_psi, np.zeros((L, cfg.pilot_len), dtype=bool),
                   np.full((L, cfg.pilot_len), -1, dtype=int), neighbors)

    @property
    def assignment(self) -> ClusterAssignment:
        """The assignment so far (its pilot_of and master_of are the state's)."""
        return ClusterAssignment(self.cfg.pilot_len, self.pilot_of, self.master_of,
                                 self.ue_on_pilot.shape[0], _serving_table(self.ue_on_pilot))

    def _register_pilot(self, k: int, t: int):
        # UE k joins S_t: tau_p * p_k * tr(R_kl) is its share of tr(Psi_tl)
        # at every AP l
        self.trace_psi[t] += (self.cfg.pilot_len * self.cfg.ue_power_w
                              * self.cfg.antennas_per_ap * self.topology.beta[k])


def _neighbor_table(cfg: SimulationConfig, topology: Topology, masters: np.ndarray) -> dict:
    """Step-3 list of each master: the other APs within the radius, nearest
    first (ties: lowest index), cut to max_neighbors.

    The master-to-AP distances are taken a block of masters at a time, about
    BLOCK_VALUES distances per block, as the drop's rows are."""
    pos = topology.ap_pos
    table = {}
    for rows in row_blocks(len(masters), len(pos)):
        block = masters[rows]
        dist = toroidal_distance(pos[block, None, :], pos[None, :, :], topology.area_side_km)
        inside = dist <= cfg.neighbor_radius_km
        inside[np.arange(len(block)), block] = False
        # only the in-radius candidates are sorted, by master and distance;
        # the sort is stable, so equal distances keep nonzero's ascending AP
        # order
        rows, aps = np.nonzero(inside)
        aps = aps[np.lexsort((dist[rows, aps], rows))]
        lists = np.split(aps, np.cumsum(inside.sum(axis=1))[:-1])
        table.update((m, aps_m[: cfg.max_neighbors]) for m, aps_m in zip(block.tolist(), lists))
    return table


def appoint_master(state: AdmissionState, k: int) -> int:
    """Step 1: the AP with the largest beta_kl (ties: lowest index)."""
    return int(np.argmax(state.topology.beta[k]))


def assign_pilot(state: AdmissionState, master: int) -> int:
    """Step 2: the pilot with the least observed pilot power at the master.

    Pilots on which the master AP already serves a UE as its master are
    excluded (that role has priority). Ties break toward the lowest index.
    """
    traces = state.trace_psi[:, master].copy()
    traces[state.master_pilot_taken[master]] = np.inf
    if not np.isfinite(traces).any():
        raise AdmissionError(f"master at capacity: AP {master} is master on all pilots")
    return int(np.argmin(traces))


def neighbor_aps(state: AdmissionState, master: int) -> np.ndarray:
    """APs invited in Step 3: within the radius of the master, nearest first.
    None in all-serve-all mode, which keeps only the pilots and masters."""
    if state.cfg.all_serve_all:
        return np.empty(0, dtype=int)
    if master not in state.neighbors:
        # beta changed after the state was built
        state.neighbors.update(_neighbor_table(state.cfg, state.topology, np.array([master])))
    return state.neighbors[master]


def form_cluster(state: AdmissionState, k: int, pilot: int, master: int,
                 neighbors: np.ndarray) -> None:
    """Step 3: the master always serves; neighbors serve if free or better.

    A neighbor already serving some UE j on this pilot switches to UE k only
    if beta_kl > beta_jl, and never if it is j's master AP. The APs are
    distinct, so each decides on its own slot independently of the others.
    """
    master_of = state.master_of
    beta = state.topology.beta
    on_pilot = state.ue_on_pilot[:, pilot]  # a view: writes land in the state
    # .item() reads Python scalars, which index and compare faster than
    # numpy scalars
    for l in (master, *neighbors.tolist()):
        occupant = on_pilot.item(l)
        if occupant >= 0:
            if master_of.item(occupant) == l:
                # Step-2 pilot exclusion keeps the master slot collision-free
                assert l != master
                continue  # never drop a UE from its own master
            if l != master and beta.item(k, l) <= beta.item(occupant, l):
                continue
        on_pilot[l] = k
    state.pilot_of[k] = pilot
    master_of[k] = master
    state.master_pilot_taken[master, pilot] = True
    state._register_pilot(k, pilot)


def admit_ue(state: AdmissionState, k: int, forced_pilot: int = None) -> None:
    """Run the three-step access procedure for UE k. A master at capacity
    raises AdmissionError tagged with the UE: "UE k: master at capacity: ..."."""
    if state.pilot_of[k] >= 0:
        raise AdmissionError(f"UE {k} is already admitted")
    master = appoint_master(state, k)
    if forced_pilot is None:
        try:
            pilot = assign_pilot(state, master)
        except AdmissionError as exc:
            exc.args = (f"UE {k}: {exc}",) + exc.args[1:]
            raise
    else:
        pilot = forced_pilot
        if state.master_pilot_taken[master, pilot]:
            raise AdmissionError(f"pilot {pilot} already carries a master-bound UE at AP {master}")
    form_cluster(state, k, pilot, master, neighbor_aps(state, master))


def build_assignment(cfg: SimulationConfig, topology: Topology) -> ClusterAssignment:
    """Admit every UE: first pilot_len UEs on distinct pilots, rest in order.
    In all-serve-all mode only Steps 1-2 run, and every AP then serves every
    UE."""
    state = AdmissionState.empty(cfg, topology)
    initial = min(cfg.pilot_len, cfg.num_ues)
    for k in range(initial):
        admit_ue(state, k, forced_pilot=k)
    for k in range(initial, cfg.num_ues):
        admit_ue(state, k)
    return state.assignment.served_by_all() if cfg.all_serve_all else state.assignment
