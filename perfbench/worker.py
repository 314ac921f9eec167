"""One workload in a fresh process: set-up, timed rounds, checks.

Started by run.py with BLAS pinned to one thread. Prints one JSON object on
its last line of standard output. With --setup-only it stops right before
the first call into the workload's work and reports only the set-up time.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import spans


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="wall-clock time just before this process was started")
    parser.add_argument("--out", required=True, help="directory for result files and traces")
    args = parser.parse_args(argv)

    import workloads  # imports cellfree, and with it numpy and scipy

    out = Path(args.out)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, out / args.workload, tracer)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        tracer.install()
    op_seconds, work, attempted, failed, bad_checks, notes = {}, [], 0, 0, 0, []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        # tracemalloc slows Python-level code several times over, so memory
        # is traced in the first round only, and times come from the others
        if args.trace and not work:
            tracemalloc.start(1)
        with tracer.span(spans.ROUND):
            seconds, outputs, errors = workload.run_round()
        tracemalloc.stop()
        with tracer.paused():
            problems = workload.check(outputs)
        for name, t in seconds.items():
            op_seconds.setdefault(name, []).append(t)
        work.append(sum(seconds.values()))
        attempted += len(outputs) + len(errors)
        for name, message in errors.items():
            failed += 1
            notes.append(f"{name} raised {message}")
        for name, found in problems.items():
            if found:
                failed += 1
                bad_checks += 1
                notes.extend(found)
        now = time.perf_counter()
        if args.trace and len(work) == 1:
            start = now  # the memory round does not count towards --seconds
            continue
        # stop before a round that would end after the deadline
        if now - start + (now - round_start) > args.seconds:
            break

    result = {
        "rounds": len(work),
        "attempted": attempted,
        "failed": failed,
        "correct": bad_checks == 0,
        "notes": notes[:20],
        "setup_s": setup_s,
        # per-operation medians are robust to a burst of host load that
        # slows one operation of one round
        "wall_s": sum(statistics.median(t) for t in op_seconds.values()),
        "round_wall_s": work,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["per_layer"] = per_layer(tracer)
        tracer.write(out / f"trace-{args.workload}.json")
    print(json.dumps(result))
    return 0


def per_layer(tracer):
    """Self times as medians over the rounds run without tracemalloc, peaks
    from the first round; counts must not vary between rounds."""
    rounds = tracer.round_metrics()
    timed = rounds[1:] or rounds
    metrics = {}
    for name in sorted({n for r in rounds for n in r}):
        metrics[f"{name}_s"] = statistics.median(r.get(name, 0.0) for r in timed)
    metrics.update(tracer.peaks[0])
    for name in sorted({n for r in tracer.counts for n in r}):
        values = {r.get(name, 0) for r in tracer.counts}
        if len(values) != 1:
            raise RuntimeError(f"count {name} differs between rounds: {sorted(values)}")
        metrics[name] = values.pop()
    return metrics


if __name__ == "__main__":
    sys.exit(main())
