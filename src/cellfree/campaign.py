"""Monte-Carlo campaign orchestration and result emission.

A campaign runs num_setups independent network drops; each setup admits the
UEs once and then averages the SE bounds over num_realizations channel draws,
processed in batches. Channel and noise draws come from counter-based streams
keyed by (seed, setup, purpose, batch), so batches can run on any number of
threads - partial results are merged in batch order and outputs are
byte-identical regardless of parallelism.

Each setup holds one accumulator per reported bound, keyed like the report
by (scheme, bound) and built with its constants; both passes merge their
batch partials in one loop (with two passes, pass 1 also merges the
combiner-norm sums there), and one loop finalizes every bound, tagging a
failure with its setup and scheme.

Pass 1 accumulates the uplink bound of every scheme. The downlink precoders
are the combiners normalized by E{v^H D v}, per UE in centralized operation
and per AP in distributed operation, as Monte-Carlo means over the whole
setup. The hardening bound is linear in those normalization scales, so
pass 1 can also accumulate it per precoder block (se.DownlinkBlockMoments)
and apply the scales once the setup's last batch is in. In distributed
operation the use-and-then-forget uplink then comes from the same block
sums by uplink-downlink duality (se.UatfAccumulator.block_partial): with
unit scales they are the uplink moments, so no uplink gains are formed. In
centralized operation the genie-aided reference (genie_dl) only needs each
realization's gain powers |h_k^H v_i|^2, n * K^2 values per setup and
scheme, which pass 1 keeps unless they take more memory than the second
pass would (_genie_powers_fit); the scales are applied to them at the end
as well.

Otherwise pass 1 sums the combiner norms (se.combiner_norms), which a
distributed uplink reuses, and a second pass re-generates the same
realizations to accumulate the hardening bound and the genie-aided
reference. That happens with the genie on in distributed operation, whose
genie needs each realization's complex gains per block and is not linear in
the per-AP scales; with the genie on in centralized operation when the gain
powers of all schemes are large (several schemes at full scale, or many
realizations); and when the block moments would be large
(_block_moments_fit): large distributed clusters, whose block moments cost
more than the second pass. In every case each batch's stderr replica uses
precoders normalized by that batch's own norm sums; both sets of scales go
to se.DownlinkAccumulator.batch_partial, which takes per-UE scales as
column scalings of one gain matrix h_k^H v_i and per-AP scales on the
combiners a row block of realizations at a time.

A batch's estimates are built once, for a demand declared before any batch
runs (the union of the schemes' demands, or every pair for a centralized
uplink, whose SINR reads them all): the EstimationBundle constructor
despreads the pilots, estimates that demand and drops the pilot signal,
and the combiners and SINRs only read the bundle.

A batch holds at most three (batch, K, L, N) arrays: its channels, its
estimates and one scheme's combiners. Every other per-batch temporary is
formed a row block of realizations (or of estimate pairs) at a time, about
topology.BLOCK_VALUES values (at least one realization). The estimates go
once the last scheme's combiners (and the centralized uplink, which reads
them) are done, so the single-pass downlink's block moments, whose chunk
takes up to one batch array, run next to two. Accumulators keep their
sums, and the genie's gain powers, across batches.
"""

import concurrent.futures
import ctypes
import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import build_assignment
from .combining import compute_combiners, estimate_demand_mask, precoder_scales
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
from .topology import generate_topology, sample_channels


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
        setup_results = _run_setup(cfg, s, threads, need_ul, need_dl)
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


def _run_setup(cfg: SimulationConfig, s: int, threads: int,
               need_ul: bool, need_dl: bool) -> dict:
    topology = generate_topology(cfg, stream(cfg.seed, s, TOPOLOGY))
    assignment = build_assignment(cfg, topology)
    p = ul_full_power(cfg)
    ctx = SetupContext(topology, assignment, p, cfg)
    sizes = _batch_sizes(cfg)
    prelog_ul = cfg.ul_data_len / cfg.coherence_len
    prelog_dl = cfg.dl_data_len / cfg.coherence_len
    centralized = cfg.mode == "centralized"

    # every estimate a batch uses (the centralized uplink's SINR reads them
    # all), computed once when the batch's bundle is built
    schemes_demand = np.logical_or.reduce([estimate_demand_mask(x, ctx) for x in cfg.schemes])
    pass1_demand = np.ones_like(schemes_demand) if centralized and need_ul else schemes_demand
    last = cfg.schemes[-1]

    def realizations(b, demand):
        h = sample_channels(topology, stream(cfg.seed, s, CHANNEL, b), sizes[b])
        bundle = EstimationBundle(ctx, h, stream(cfg.seed, s, PILOT_NOISE, b), demand)
        return h, bundle

    two_pass = False
    if need_dl:
        if centralized:
            rho = dl_centralized_equal(cfg)
        else:
            rho = dl_distributed_proportional(assignment, topology, cfg)
        # the genie reference needs each realization's gains after the
        # setup-wide normalization: pass 1 keeps their powers in centralized
        # operation, when they are small
        genie_fits = not cfg.genie_dl or (centralized and _genie_powers_fit(cfg))
        blocks = PrecoderBlocks(assignment, rho) if genie_fits else None
        two_pass = blocks is None or not _block_moments_fit(cfg, blocks, sizes[0])

    # one accumulator per bound, keyed like the report; with two passes,
    # pass 1 sums the combiner norms that normalize the precoders of pass 2:
    # per UE in centralized operation, per AP in distributed operation
    acc = {}
    for scheme in cfg.schemes:
        if need_ul and centralized:
            acc[(scheme, "ul")] = ErgodicLogAccumulator(prelog_ul)
        elif need_ul:
            acc[(scheme, "ul")] = UatfAccumulator(p, cfg.noise_ul_w, prelog_ul)
        if two_pass:
            acc[(scheme, "norm")] = BatchSums("norm")
            acc[(scheme, "dl")] = DownlinkAccumulator(cfg.noise_dl_w, prelog_dl)
        elif need_dl:
            acc[(scheme, "dl")] = DownlinkBlockMoments(blocks, cfg.noise_dl_w, prelog_dl,
                                                       cfg.genie_dl)

    # a batch holds at most its channels, its estimates and one scheme's
    # combiners: the estimates go once the last combiners (and the
    # centralized uplink, which reads them) are done, and each scheme's
    # combiners before the next scheme's are built
    def pass1(b):
        h, bundle = realizations(b, pass1_demand)
        out = {}
        for scheme in cfg.schemes:
            v = compute_combiners(scheme, bundle)
            ul = acc.get((scheme, "ul"))
            if ul is not None and centralized:
                out[(scheme, "ul")] = ul.batch_partial(instantaneous_sinr(v, bundle, p))
            if scheme == last:
                del bundle
            norm = None
            if two_pass:
                norm, norm_local = combiner_norms(v, per_ap=not centralized)
                out[(scheme, "norm")] = {"n": v.shape[0],
                                         "norm": norm if centralized else norm_local}
            elif need_dl:
                out[(scheme, "dl")] = acc[(scheme, "dl")].batch_partial(v, h)
            if ul is not None and not centralized:
                if (scheme, "dl") in out:
                    # uplink-downlink duality: the block sums give the moments
                    out[(scheme, "ul")] = ul.block_partial(out[(scheme, "dl")], blocks)
                else:
                    out[(scheme, "ul")] = ul.batch_partial(v, h, norm=norm)
            del v
        return out

    def pass2(b):
        h, bundle = realizations(b, schemes_demand)
        out = {}
        for scheme in cfg.schemes:
            v = compute_combiners(scheme, bundle)
            if scheme == last:
                del bundle
            norm, norm_local = combiner_norms(v, per_ap=not centralized)
            batch_norm = (norm if centralized else norm_local) / v.shape[0]
            out[(scheme, "dl")] = acc[(scheme, "dl")].batch_partial(
                v, h, precoder_scales(rho, global_norm[scheme]), precoder_scales(rho, batch_norm)
            )
            del v
        return out

    def merge(pass_fn):
        for partial in _map_batches(_with_context(pass_fn, s), len(sizes), threads):
            for key, entry in partial.items():
                acc[key].merge(entry)

    merge(pass1)
    if two_pass:
        global_norm = {scheme: acc.pop((scheme, "norm")).means()[0] for scheme in cfg.schemes}
        merge(pass2)

    results = {"assignment_json": assignment.to_json()}
    for (scheme, bound), bound_acc in acc.items():
        try:
            results[(scheme, bound)] = bound_acc.finalize()
            if bound == "dl" and cfg.genie_dl:
                results[(scheme, "dl_genie")] = bound_acc.finalize_genie()
        except Exception as exc:
            exc.args = (f"setup {s}, scheme {scheme}: {exc}",) + exc.args[1:]
            raise
    return results


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
            exc.args = (f"setup {setup}, batch {b}: {exc}",) + exc.args[1:]
            raise

    return wrapped


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
