"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the `cellfree` modules where their
callers look them up: every module attribute that refers to a wrapped
function is replaced, and methods are replaced on their class. Each call
records a span (name, start, end, parent) in memory, plus counters read from
the call's arguments. Spans are written out when the run ends.

A span's self time is its duration minus the time its direct child spans
cover. Per-layer metrics are aggregated per benchmark round, so that their
counts repeat exactly from round to round and from run to run.
"""

import contextlib
import functools
import json
import sys
import time
import tracemalloc

import numpy as np

MB = float(1 << 20)

ROUND = "round"


class NullTracer:
    """Stand-in for untraced runs: spans cost one context-manager entry."""

    @contextlib.contextmanager
    def span(self, name):
        yield

    @contextlib.contextmanager
    def paused(self):
        yield


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = []         # per round: {metric: count}
        self.peaks = []          # per round: {metric: MB}
        self._stack = []
        self._enabled = True

    # ---------------------------------------------------------------- spans

    @contextlib.contextmanager
    def span(self, name):
        if not self._enabled:
            yield
            return
        if name == ROUND:
            self.counts.append({})
            self.peaks.append({})
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made here (the benchmark's own checks) record nothing."""
        enabled, self._enabled = self._enabled, False
        try:
            yield
        finally:
            self._enabled = enabled

    def count(self, metric, n):
        current = self.counts[-1]
        current[metric] = current.get(metric, 0) + int(n)

    def peak(self, metric, nbytes):
        current = self.peaks[-1]
        current[metric] = max(current.get(metric, 0.0), nbytes / MB)

    # ------------------------------------------------------------- wrapping

    def wrap(self, name, fn, counts=None, transient_peak=None, held_peak=None):
        """Wrapped fn recording a span `name` (no span if name is None).

        counts(args, kwargs) -> {metric: n} is evaluated before the call.
        While tracemalloc runs, transient_peak names a metric taking the
        largest traced allocation above the level at call entry, and
        held_peak=(metric, filename) one taking the memory held by blocks
        allocated in that file, sampled at entry.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            if counts is not None:
                for metric, n in counts(args, kwargs).items():
                    self.count(metric, n)
            if name is None:
                return fn(*args, **kwargs)
            memory = tracemalloc.is_tracing()
            if memory and held_peak is not None:
                metric, filename = held_peak
                self.peak(metric, _held_bytes(filename))
            if memory and transient_peak is not None:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            with self.span(name):
                result = fn(*args, **kwargs)
            if memory and transient_peak is not None:
                self.peak(transient_peak, tracemalloc.get_traced_memory()[1] - base)
            return result

        return wrapper

    def patch_function(self, original, name, **kw):
        """Replace `original` in every loaded cellfree module that names it."""
        wrapper = self.wrap(name, original, **kw)
        patched = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cellfree" or modname.startswith("cellfree.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"{original.__qualname__} is not referenced by any cellfree module")

    def patch_method(self, cls, attr, name, **kw):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, **kw)))
        else:
            setattr(cls, attr, self.wrap(name, raw, **kw))

    def install(self):
        """Wrap each layer's public entry points."""
        from cellfree import accounting, clustering, combining, estimation, rng, se, topology

        def one(metric):
            return lambda args, kwargs: {metric: 1}

        def batch_of(args, kwargs):
            batch = args[2] if len(args) > 2 else kwargs.get("batch", 1)
            return {"topology.realizations_drawn": batch, "campaign.batches": 1}

        def samples_of(args, kwargs):
            shape = args[1] if len(args) > 1 else kwargs["shape"]
            return {"rng.complex_normal_samples": int(np.prod(shape))}

        def new_estimates(args, kwargs):
            # (realization, UE, AP) estimates this call materializes
            bundle, mask = args[0], (args[1] if len(args) > 1 else kwargs["mask"])
            fresh = np.count_nonzero(mask & ~bundle._computed)
            return {"estimation.estimates_demanded": fresh * bundle.channels.shape[0]}

        def realizations_of(args, kwargs):
            bundle = args[1] if len(args) > 1 else kwargs["bundle"]
            return {"combining.combiner_realizations": bundle.channels.shape[0]}

        self.patch_function(topology.generate_topology, "topology.generate_topology")
        self.patch_function(topology.sample_channels, "topology.sample_channels", counts=batch_of)
        self.patch_function(rng.complex_normal, "rng.complex_normal", counts=samples_of)
        self.patch_function(clustering.build_assignment, "clustering.build_assignment")
        self.patch_function(clustering.compute_partners, "clustering.compute_partners",
                            counts=one("clustering.compute_partners_calls"))
        self.patch_method(estimation.SetupContext, "__init__", "estimation.setup_context")
        self.patch_method(estimation.SetupContext, "noise_matrix", "estimation.noise_matrix",
                          counts=one("estimation.noise_matrix_calls"))
        self.patch_method(estimation.EstimationBundle, "__init__", "estimation.despread")
        self.patch_method(estimation.EstimationBundle, "ensure", "estimation.ensure",
                          counts=new_estimates)
        self.patch_function(combining.compute_combiners, "combining.compute_combiners",
                            counts=realizations_of, transient_peak="combining.peak_alloc_mb")
        for fn in (combining.build_precoders_centralized, combining.build_precoders_distributed):
            self.patch_function(fn, "combining.build_precoders")
        self.patch_function(se.instantaneous_sinr, "se.instantaneous_sinr")
        self.patch_method(se.UatfAccumulator, "batch_partial", "se.uatf_partial")
        self.patch_method(se.DownlinkAccumulator, "batch_partial", "se.downlink_partial")
        # finalization ends a setup while its SetupContext (and the noise
        # matrices it caches) is still alive: sample the estimation memory there
        held = ("estimation.peak_alloc_mb", estimation.__file__)
        for cls, attr in ((se.ErgodicLogAccumulator, "finalize"),
                          (se.UatfAccumulator, "finalize"),
                          (se.DownlinkAccumulator, "finalize"),
                          (se.DownlinkAccumulator, "finalize_genie")):
            self.patch_method(cls, attr, "se.finalize", held_peak=held)
        self.patch_function(accounting.cost_table_rows, "accounting.cost_table")
        self.patch_function(accounting.assert_scalable, "accounting.assert_scalable")
        self.patch_function(accounting.multiplication_count, None,
                            counts=one("accounting.multiplication_count_calls"))

    # --------------------------------------------------------------- output

    def round_metrics(self):
        """Self seconds per span name, one dict per round."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        rounds = []
        for (name, start, end, parent), covered in zip(self.spans, children):
            if name == ROUND:
                rounds.append({})
            else:
                rounds[-1][name] = rounds[-1].get(name, 0.0) + (end - start) - covered
        return rounds

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": self.counts, "peaks_mb": self.peaks}, f)


def _held_bytes(filename):
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, filename)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))
