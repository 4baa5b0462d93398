"""One workload in one fresh interpreter; started by run.py, not by hand.

Prints one JSON line.  With --setup-only it holds only ``ready``, the
CLOCK_MONOTONIC reading once polarkit is imported and the seeded inputs are
built, and ``ref``, the median time of the reference loop just after, and the
process exits.  Otherwise it also holds the measured passes,
the job outcomes, the peak RSS and, with --trace 1, the per-layer metrics.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import workloads
from reference import reference

SETUP_REFS = 5  # reference loops timed after set-up

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def outcomes(passes):
    return [[o.job, o.status, o.detail] for p in passes for o in p]


def median_wall(passes):
    return statistics.median(workloads.pass_wall(p) for p in passes)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    ref = statistics.median(reference() for _ in range(SETUP_REFS))
    if args.setup_only:
        print(json.dumps({"ready": ready, "ref": ref}))
        return 0

    result = {"ready": ready, "ref": ref, "env": environment(),
              "jobs": len(jobs)}
    # what one run of the workload takes: set up and a single pass; later
    # passes only add the allocator's fragmentation
    first = workloads.run_passes(jobs, 0)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    budget = args.seconds - (time.monotonic() - ready)
    if args.trace:
        import spans
        # a third untraced, a third with spans, then one pass with the
        # counters: the difference of the first two is the tracing overhead
        untraced = first + workloads.run_passes(jobs, budget - args.seconds * 2 / 3)
        rec = spans.Recorder()
        with spans.spanning(rec):
            traced = workloads.run_passes(jobs, args.seconds / 3, rec)
        with spans.counting(rec):
            counted = workloads.run_passes(jobs, 0, rec)
        passes = untraced + traced + counted
        layers = spans.layer_metrics(rec, len(traced))
        layers["trace.overhead_s"] = median_wall(traced) - median_wall(untraced)
        units = {**spans.LAYER_METRICS, "trace.overhead_s": "s"}
        result["layers"] = {k: {"value": v, "unit": units[k]}
                            for k, v in layers.items()}
        result["traced_passes"] = len(traced)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        with open(path, "w") as fh:
            for s in rec.spans:
                fh.write(json.dumps(s) + "\n")
        result["spans_file"] = os.path.relpath(path)
    else:
        passes = first + workloads.run_passes(jobs, budget)
    result["job_walls"] = [[o.wall for o in p] for p in passes]
    result["job_refs"] = [[o.ref for o in p] for p in passes]
    result["outcomes"] = outcomes(passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
