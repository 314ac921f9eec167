"""Benchmark of the cellfree library: one workload per invocation.

    python3 perfbench/run.py --workload ul-full --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Each workload runs in a fresh
worker process with BLAS pinned to one thread; two more processes only set
up, so that setup_s is a median of three. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics without tracing, the per-layer metrics with
`--trace 1`. Exits 1 if a check failed and 2 if there is no source tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("ul-full", "dl-desk", "mr-closed-form", "scalability")
DEFAULT_SEED = 1
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SLUGS = ("mmse-all", "p-mmse", "lp-mmse", "mr-all", "mr")
PER_LAYER_TIMES = (
    "topology.generate_topology", "topology.sample_channels", "rng.complex_normal",
    "clustering.build_assignment", "clustering.compute_partners",
    "estimation.setup_context", "estimation.despread", "estimation.ensure",
    "estimation.noise_matrix", "combining.compute_combiners", "combining.build_precoders",
    "se.instantaneous_sinr", "se.uatf_partial", "se.downlink_partial", "se.finalize",
    "accounting.cost_table", "accounting.assert_scalable",
    *(f"campaign.variant.{s}" for s in SLUGS), "campaign.emit_results",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in PER_LAYER_TIMES},
    "topology.realizations_drawn": "count",
    "rng.complex_normal_samples": "count",
    "clustering.compute_partners_calls": "count",
    "estimation.estimates_demanded": "count",
    "estimation.noise_matrix_calls": "count",
    "combining.combiner_realizations": "count",
    "accounting.multiplication_count_calls": "count",
    "campaign.batches": "count",
    "estimation.peak_alloc_mb": "MB",
    "combining.peak_alloc_mb": "MB",
}

# one thread everywhere: campaigns run with threads=1, BLAS is pinned here
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker(args, extra):
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(OUT), *extra, "--t0"]
    # the time argument is taken last, as close to the start as possible
    proc = subprocess.run(cmd + [repr(time.time())], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cellfree" / "__init__.py").is_file():
        print(f"no cellfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        setups = [worker(args, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
        run = worker(args, ["--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])

    if args.trace:
        measured = run["per_layer"]
        values = {name: measured.get(name, 0) for name in PER_LAYER}
        units = PER_LAYER
        unknown = sorted(set(measured) - set(PER_LAYER))
        if unknown:
            print(f"unlisted per-layer metrics: {unknown}", file=sys.stderr)
            return 1
    else:
        values = {"wall_s": run["wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": run["peak_rss_mb"]}
        units = END_TO_END

    for note in run["notes"]:
        print(f"check failed: {note}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {run['rounds']} rounds, "
          f"work per round {', '.join(f'{w:.3f}' for w in run['round_wall_s'])} s, "
          f"set-up {', '.join(f'{s:.3f}' for s in setups)} s")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
