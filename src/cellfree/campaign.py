"""Monte-Carlo campaign orchestration and result emission.

A campaign runs num_setups independent network drops; each setup admits the
UEs once and then averages the SE bounds over num_realizations channel draws,
processed in batches. Channel and noise draws come from counter-based streams
keyed by (seed, setup, purpose, batch), so batches can run on any number of
threads - partial results are merged in batch order and outputs are
byte-identical regardless of parallelism.

Each setup's route through its realizations is fixed before the first batch
is drawn (SetupPlan, whose docstring names every route): one pass or two,
whole batches or chunks, and how each bound is accumulated. The setup holds
one accumulator per reported bound, keyed like the report by (scheme, bound)
and built with its constants; both passes merge their batch partials in one
loop, and one loop finalizes every bound, tagging a failure with its setup
and scheme.

A batch's estimates are built once, for a demand declared before any batch
runs (the union of the schemes' demands, or every pair for a centralized
uplink, whose SINR reads them all): the EstimationBundle constructor
despreads the pilots, estimates that demand and drops the pilot signal,
and the combiners and SINRs only read the bundle.

A batch holds at most three (batch, K, L, N) arrays: its channels, its
estimates and one scheme's combiners. Every other per-batch temporary is
formed a row block of realizations (or of estimate pairs, or where one
realization exceeds the budget, of UE rows) at a time, about
topology.BLOCK_VALUES values (at least one realization or two UE rows).
The estimates go once the last scheme's combiners (and the centralized
uplink, which reads them) are done, so the centralized single pass's block
moments run next to two, with temporaries below one batch array.
Accumulators keep their sums, and the genie's gain powers, across batches.
"""

import concurrent.futures
import ctypes
import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import AdmissionError, build_assignment
from .combining import compute_combiners, precoder_scales
from .config import SimulationConfig
from .estimation import EstimationBundle, SetupContext
from .power import dl_centralized_equal, dl_distributed_proportional, ul_full_power
from .rng import CHANNEL, PILOT_NOISE, TOPOLOGY, stream
from .se import (
    BatchSums,
    DownlinkAccumulator,
    DownlinkBlockMoments,
    ErgodicLogAccumulator,
    PrecoderBlocks,
    UatfAccumulator,
    cdf_statistics,
    combiner_norms,
    instantaneous_sinr,
)
from .topology import generate_topology, row_blocks, sample_channels


@dataclass
class SEEntry:
    se: np.ndarray
    stderr: np.ndarray


@dataclass
class SEReport:
    """Per-UE spectral efficiencies of one campaign.

    Arrays are indexed by the campaign-global UE id
    setup_index * num_ues + ue_index (the mapping is echoed in the metadata
    file).
    """

    seed: int
    config_hash: str
    num_setups: int
    ues_per_setup: int
    schemes: tuple
    directions: tuple
    mode: str
    entries: dict           # (scheme, direction) -> SEEntry
    assignments: list       # per-setup ClusterAssignment JSON strings
    config_lines: list

    def values(self, scheme: str, direction: str) -> np.ndarray:
        return self.entries[(scheme, direction)].se

    def mean(self, scheme: str, direction: str) -> float:
        return float(np.mean(self.values(scheme, direction)))

    def setup_means(self, scheme: str, direction: str) -> np.ndarray:
        per_ue = self.values(scheme, direction)
        return per_ue.reshape(self.num_setups, self.ues_per_setup).mean(axis=1)


# values in one (batch, K, L, N) array at most: 64 MiB of complex128
_BATCH_VALUES = 1 << 22


def _batch_sizes(cfg: SimulationConfig) -> list:
    """Realization batches: bounded memory, and >= 16 batches when possible
    so the batch-means stderr has enough replicas."""
    n = cfg.num_realizations
    per_real = cfg.num_ues * cfg.num_aps * cfg.antennas_per_ap
    mem_cap = max(1, _BATCH_VALUES // max(1, per_real))
    size = max(1, min(1024, mem_cap, -(-n // 16)))
    sizes = [size] * (n // size)
    if n % size:
        sizes.append(n % size)
    return sizes


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> bool:
    """Keep freed batch arrays in the process heap; glibc only, once per
    process.

    Every batch frees and reallocates arrays of the same sizes. Under
    glibc's dynamic thresholds that memory goes back to the kernel (munmap
    or a heap trim) and the next batch faults it in again page by page.
    Both thresholds at four batch arrays of the _BATCH_VALUES cap (256 MiB)
    keep it for reuse. Returns whether both settings took; False, with
    nothing changed, where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    keep = 4 * _BATCH_VALUES * np.dtype(np.complex128).itemsize
    taken = [mallopt(param, keep) for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD)]
    return taken == [1, 1]


def run_campaign(cfg: SimulationConfig, threads: int = 1) -> SEReport:
    """Run the full campaign described by cfg. Deterministic given the seed.

    The first campaign of a process raises glibc's mmap and trim thresholds
    (_keep_freed_memory), so memory that one batch frees stays in the
    process for the next instead of being faulted in again from the kernel.
    Peak RSS rises by at most about 1.5 MB at full scale; every output bit
    is the same.
    """
    cfg.validate()
    _keep_freed_memory()
    need_ul = cfg.ul_data_len > 0
    need_dl = cfg.dl_data_len > 0
    directions = tuple(
        d for d, on in (("ul", need_ul), ("dl", need_dl),
                        ("dl_genie", need_dl and cfg.genie_dl)) if on
    )
    if not directions:
        raise ValueError("nothing to evaluate: both ul_data_len and dl_data_len are zero")

    K = cfg.num_ues
    total = cfg.num_setups * K
    entries = {
        (scheme, d): SEEntry(np.zeros(total), np.zeros(total))
        for scheme in cfg.schemes for d in directions
    }
    assignments = []
    for s in range(cfg.num_setups):
        setup_results = _run_setup(cfg, s, threads)
        assignments.append(setup_results.pop("assignment_json"))
        for key, (se, stderr) in setup_results.items():
            entries[key].se[s * K:(s + 1) * K] = se
            entries[key].stderr[s * K:(s + 1) * K] = stderr

    return SEReport(
        seed=cfg.seed,
        config_hash=cfg.config_hash(),
        num_setups=cfg.num_setups,
        ues_per_setup=K,
        schemes=cfg.schemes,
        directions=directions,
        mode=cfg.mode,
        entries=entries,
        assignments=assignments,
        config_lines=cfg.to_lines(),
    )


def _run_setup(cfg: SimulationConfig, s: int, threads: int) -> dict:
    plan = SetupPlan(cfg, s)
    _merge(plan, threads)
    if plan.dl == "norms":
        _merge(plan, threads, {x: plan.acc.pop((x, "norm")).means()[0] for x in cfg.schemes})
    results = {"assignment_json": plan.ctx.assignment.to_json()}
    for (scheme, bound), bound_acc in plan.acc.items():
        try:
            results[(scheme, bound)] = bound_acc.finalize()
            if bound == "dl" and cfg.genie_dl:
                results[(scheme, "dl_genie")] = bound_acc.finalize_genie()
        except Exception as exc:
            _tag(exc, f"setup {s}, scheme {scheme}: ")
            raise
    return results


class SetupPlan:
    """One setup's drop and statistics, its route through the realizations,
    chosen before the first batch is drawn, and its accumulators (acc, one
    per bound keyed like the report by (scheme, bound)).

    The downlink precoders are the combiners normalized by E{v^H D v}, per
    UE in centralized operation and per AP in distributed operation, as
    Monte-Carlo means over the whole setup. The setup's downlink route, dl
    (None without a downlink):
    - "norms": two passes. Pass 1 sums the combiner norms; pass 2 draws the
      same realizations again and accumulates the hardening bound and the
      genie-aided reference with the setup's scales, and each batch's
      replica with the batch's own (se.DownlinkAccumulator). Taken with the
      genie on in distributed operation, whose genie is not linear in the
      per-AP scales; with the genie on in centralized operation when the
      gain powers of all schemes would be large (_genie_powers_fit); and
      when the block moments would be (_block_moments_fit).
    - "moments": centralized, one pass. The bound is linear in the scales,
      so it is accumulated per precoder block, the scales applied once the
      setup's last batch is in (se.DownlinkBlockMoments), each batch's sums
      taken in the chunks of PrecoderBlocks.chunks. With the genie on, each
      realization's gain powers |h_k^H v_i|^2 are kept for the end too.
    - "table": distributed, one pass. The same block sums, from each
      chunk's per-AP gain table (PrecoderBlocks.gains): each scheme drops
      its combiners, and the last the chunk's channels, before the block
      pair products run from the table alone.
    The uplink route of each scheme, ul[scheme] (None without an uplink):
    - "sinr": centralized; the ergodic bound of each combiner's
      instantaneous SINR (se.instantaneous_sinr), which reads every estimate.
    - "solve": MMSE and P-MMSE combining with every AP serving every UE,
      centralized; they attain the maximal SINR x_k / (1 - x_k) and take
      1 - x_k from their own K x K solve.
    - "gains": distributed, on the "norms" route; the use-and-then-forget
      sums of the gains v_k^H D_k h_i, with pass 1's combiner norms.
    - "duality": distributed, on the "table" route; the same sums from the
      block sums with unit scales (se.UatfAccumulator.block_partial), so no
      uplink gains are formed.
    - "chunks": distributed without a downlink; the same gain sums, a chunk
      at a time.

    On the routes "table" and "chunks" every value of a realization depends
    on that realization alone, so each batch is drawn, despread, estimated
    and combined a chunk at a time (chunks): the chunks of
    PrecoderBlocks.chunks, or row blocks of topology.BLOCK_VALUES values. A
    chunk draws the next rows of the batch's streams (a Generator fills in C
    order) and its sums are added to the batch's in realization order, so
    the batch keeps its bits at one antenna; an uplink with one UE keeps
    whole batches (numpy sums a single column pairwise). At N > 1 the
    channel and estimate products take the chunk's realizations as a matrix
    dimension, and their last bits can move. The other routes take whole
    batches. Pass 1 forms each batch's ratio-of-means replicas from its sums
    once its last chunk is in (_batch).
    """

    def __init__(self, cfg: SimulationConfig, s: int):
        self.cfg, self.s = cfg, s
        topology = generate_topology(cfg, stream(cfg.seed, s, TOPOLOGY))
        try:
            assignment = build_assignment(cfg, topology)
        except AdmissionError as exc:
            _tag(exc, f"setup {s}, ")
            raise
        self.ctx = ctx = SetupContext(topology, assignment, ul_full_power(cfg), cfg)
        self.sizes = _batch_sizes(cfg)
        centralized = cfg.mode == "centralized"
        self.rho = self.blocks = self.dl = None
        if cfg.dl_data_len:
            self.rho = (dl_centralized_equal(cfg) if centralized
                        else dl_distributed_proportional(assignment, topology, cfg))
            if not cfg.genie_dl or (centralized and _genie_powers_fit(cfg)):
                self.blocks = PrecoderBlocks(assignment, self.rho)
            if self.blocks is None or not _block_moments_fit(cfg, self.blocks, self.sizes[0]):
                self.dl = "norms"
            else:
                self.dl = "moments" if centralized else "table"
        ul = None
        if cfg.ul_data_len and centralized:
            ul = "sinr"
        elif cfg.ul_data_len:
            ul = {"norms": "gains", "table": "duality", None: "chunks"}[self.dl]
        solve = ("MMSE", "P-MMSE") if ul == "sinr" and assignment.all_serve_all else ()
        self.ul = {x: "solve" if x in solve else ul for x in cfg.schemes}
        # every estimate a batch uses (the centralized uplink's SINR reads
        # them all), computed once when the batch's bundle is built: pass 2
        # takes the schemes' demands alone
        self.dl_demand = np.logical_or.reduce([ctx.demand_mask(x) for x in cfg.schemes])
        self.demand = np.ones_like(self.dl_demand) if ul == "sinr" else self.dl_demand
        self.acc = {}
        prelog_ul, prelog_dl = (n / cfg.coherence_len for n in (cfg.ul_data_len, cfg.dl_data_len))
        for scheme in cfg.schemes:
            if ul == "sinr":
                self.acc[(scheme, "ul")] = ErgodicLogAccumulator(prelog_ul)
            elif ul:
                self.acc[(scheme, "ul")] = UatfAccumulator(ctx.ul_power, cfg.noise_ul_w, prelog_ul)
            if self.dl == "norms":
                # the combiner-norm sums that normalize the precoders of pass 2
                self.acc[(scheme, "norm")] = BatchSums("norm")
                self.acc[(scheme, "dl")] = DownlinkAccumulator(cfg.noise_dl_w, prelog_dl)
            elif self.dl:
                self.acc[(scheme, "dl")] = DownlinkBlockMoments(self.blocks, cfg.noise_dl_w,
                                                                prelog_dl, cfg.genie_dl)

    def chunks(self, batch: int) -> list:
        """The slices of a batch that pass 1 draws one at a time."""
        K, L, N = self.cfg.num_ues, self.cfg.num_aps, self.cfg.antennas_per_ap
        if self.dl == "table":
            # the chunks the block moments take, so that their sums keep their order
            return self.blocks.chunks((batch, K, L, N))
        if "chunks" in self.ul.values() and K > 1:
            return row_blocks(batch, K * L * N)
        return [slice(0, batch)]


def _merge(plan: SetupPlan, threads: int, norms: dict = None) -> None:
    """Merge one pass's batch partials into the plan's accumulators, in batch order."""
    batch = _with_context(functools.partial(_batch, plan, norms=norms), plan.s)
    for partial in _map_batches(batch, len(plan.sizes), threads):
        for key, entry in partial.items():
            plan.acc[key].merge(entry)


def _batch(plan: SetupPlan, b: int, norms: dict = None) -> dict:
    """Batch b's partials, keyed like plan.acc: of pass 1, or given the
    setup's combiner norms per scheme, of pass 2 ("norms" route)."""
    cfg = plan.cfg
    channels, noise = (stream(cfg.seed, plan.s, purpose, b) for purpose in (CHANNEL, PILOT_NOISE))
    out = {}
    for rows in plan.chunks(plan.sizes[b]):
        _chunk(plan, channels, noise, rows.stop - rows.start, out, norms)
    if norms is not None:
        return out
    # the batch's replicas, from its sums
    for scheme, route in plan.ul.items():
        ul, dl = (scheme, "ul"), (scheme, "dl")
        if plan.dl in ("moments", "table"):
            out[dl] = plan.acc[dl].with_replica(out[dl])
        if route == "duality":
            out[ul] = plan.acc[ul].block_partial(out[dl], plan.blocks)
        elif route in ("gains", "chunks"):
            out[ul] = plan.acc[ul].with_replica(out[ul])
    return out


def _chunk(plan: SetupPlan, channels, noise, count: int, out: dict, norms: dict = None) -> None:
    """Draw the next count realizations of a batch and add their partials
    of every scheme to out.

    A chunk holds at most its channels, its estimates and one scheme's
    combiners: the estimates go once the last combiners (and the
    centralized uplink, which reads them) are done, and each scheme's
    combiners before the next scheme's are built.
    """
    h = sample_channels(plan.ctx.topology, channels, count)
    bundle = EstimationBundle(plan.ctx, h, noise, plan.demand if norms is None else plan.dl_demand)
    last, acc = plan.cfg.schemes[-1], plan.acc
    for scheme in plan.cfg.schemes:
        ul, dl = (scheme, "ul"), (scheme, "dl")
        route = plan.ul[scheme] if norms is None else None
        if route == "solve":
            sinr = np.empty(h.shape[:2])
            v = compute_combiners(scheme, bundle, sinr)
        else:
            v = compute_combiners(scheme, bundle)
        if route == "sinr":
            sinr = instantaneous_sinr(v, bundle, plan.ctx.ul_power)
        if scheme == last:
            del bundle
        if route in ("solve", "sinr"):
            out[ul] = acc[ul].batch_partial(sinr)
        elif route == "chunks":
            out[ul] = acc[ul].batch_partial(v, h, earlier=out.get(ul))
        if plan.dl == "norms":
            norm, local = combiner_norms(v, per_ap=plan.rho.ndim == 2)
            block_norm = norm if local is None else local
            if norms is not None:
                out[dl] = acc[dl].batch_partial(v, h, precoder_scales(plan.rho, norms[scheme]),
                                                precoder_scales(plan.rho, block_norm / count))
            else:
                out[(scheme, "norm")] = {"n": count, "norm": block_norm}
                if route == "gains":
                    out[ul] = acc[ul].batch_partial(v, h, norm=norm)
        elif plan.dl == "moments":
            for rows in plan.blocks.chunks(v.shape):
                out[dl] = acc[dl].chunk_sums(plan.blocks.gains(v[rows], h[rows]), out.get(dl))
        elif plan.dl == "table":
            # the pair products read the gain table alone: the combiners,
            # and after the last scheme the channels, go before they run
            gains, v = plan.blocks.gains(v, h), None
            if scheme == last:
                del h
            out[dl] = acc[dl].chunk_sums(gains, out.get(dl))
        del v


def _block_moments_fit(cfg: SimulationConfig, blocks: PrecoderBlocks, batch: int) -> bool:
    """Whether pass 1 accumulates the downlink as block moments, so that the
    realizations are drawn once.

    Only when the block second moments, K * sum_i |M_i|^2 values, take at
    most a quarter of one (batch, K, L, N) array; their memory and their
    work grow with that count. Timed on one core, the single pass was
    27-57% faster than two passes up to a quarter and slower from about
    0.7 on (distributed DCC clusters at desk and full scale). Distributed
    all-serve-all clusters (|M_i| = L) are far beyond it. Centralized
    operation has one block per UE, so S is K x K there.
    """
    batch_array = batch * cfg.num_ues * cfg.num_aps * cfg.antennas_per_ap
    return 4 * cfg.num_ues * blocks.num_pairs <= batch_array


def _genie_powers_fit(cfg: SimulationConfig) -> bool:
    """Whether pass 1 keeps the genie reference's gain powers (centralized
    operation), so that the realizations are drawn once.

    The single pass halves the draws, estimates and combiners, but the
    powers of all schemes, n * K^2 float values each, stay in memory to
    the end. Their budget, four times _BATCH_VALUES, sits below the
    measured crossover in memory. Timed on one core, full-scale setup-i-dl
    centralized, one setup: with 1000 realizations (10^7 values per scheme)
    one scheme took 4.9-10.4 s and 279 MB peak RSS in one pass against
    11.9-21.0 s and 305 MB in two (P-MMSE, LP-MMSE, MR), and three schemes
    took 13.3 s and 449 MB against 28.9 s and 312 MB. From 1000 to 2600
    realizations of P-MMSE the single pass stayed about twice as fast, and
    its peak RSS passed the two-pass one between 4.8 and 6.2 times
    _BATCH_VALUES of powers. These runs predate the bound of three batch
    arrays per batch (see the module docstring), which lowered both passes.
    """
    return len(cfg.schemes) * cfg.num_realizations * cfg.num_ues**2 <= 4 * _BATCH_VALUES


def _map_batches(fn, count, threads):
    if threads <= 1 or count <= 1:
        for b in range(count):
            yield fn(b)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
        yield from ex.map(fn, range(count))


def _with_context(fn, setup: int):
    """Tag numerical failures with their (setup, batch) coordinates."""

    def wrapped(b):
        try:
            return fn(b)
        except Exception as exc:
            _tag(exc, f"setup {setup}, batch {b}: ")
            raise

    return wrapped


def _tag(exc: Exception, where: str) -> None:
    """Prefix exc's message with where it happened."""
    exc.args = (f"{where}{exc}",) + exc.args[1:]


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a temporary file next to path, flush it to disk, then
    rename it over path: a failed write leaves no partial file and keeps any
    earlier one whole, also across a power loss."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def emit_results(report: SEReport, out_dir) -> None:
    """Write the per-UE table, per-curve CDF files, and campaign metadata.

    Identical reports produce identical bytes; every value is recomputable
    from the echoed config and seed. Each file is replaced atomically.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["ue,scheme,direction,se,stderr"]
    total = report.num_setups * report.ues_per_setup
    for ue in range(total):
        for scheme in report.schemes:
            for direction in report.directions:
                entry = report.entries[(scheme, direction)]
                lines.append(
                    f"{ue},{scheme},{direction},"
                    f"{_fmt(entry.se[ue])},{_fmt(entry.stderr[ue])}"
                )
    _write_atomic(out / "se_per_ue.csv", "\n".join(lines) + "\n")

    for (scheme, direction), entry in report.entries.items():
        ordered, levels, _ = cdf_statistics(entry.se)
        rows = ["se,cdf"]
        rows.extend(f"{_fmt(v)},{_fmt(c)}" for v, c in zip(ordered, levels))
        _write_atomic(out / f"cdf_{direction}_{scheme}.csv", "\n".join(rows) + "\n")

    meta = [
        "# campaign metadata",
        f"config_hash = {report.config_hash}",
        f"row_mapping = ue is setup_index * {report.ues_per_setup} + ue_index",
        "",
        "# config echo",
    ]
    meta.extend(report.config_lines)
    _write_atomic(out / "metadata.txt", "\n".join(meta) + "\n")
    _write_atomic(out / "assignments.json", "[" + ",".join(report.assignments) + "]" + "\n")
