"""polarkit benchmark: one workload, one seed, one line of JSON.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload prime-orbits --seed 1 --seconds 30 --trace 0

The program is used from ``src/`` as it stands; nothing is installed.  Each
workload runs in fresh interpreters (perfbench/worker.py): several that only
set up, for ``setup_s``, half before and half after one that sets up and then
measures whole passes over the workload's job list.  The set-up-only
interpreters' time comes out of the measuring one's budget, so a run lasts
about ``--seconds`` in all.  Job and set-up times are reported at the speed
reference of reference.py.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The full record, environment included, goes to perfbench/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from reference import REFERENCE_S, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("prime-orbits", "ext-field", "large-space", "desk-corpus")
SETUP_ONLY = 6         # fresh interpreters that are only timed to "inputs
                       # ready", half before the measuring one, half after
SETUP_MARGIN_S = 60    # the run may take 2 * --seconds plus this margin
BLAS_THREADS = 1       # one thread: steadier when the other core is busy


def bench_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_commit():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def measure(args):
    """Set up SETUP_ONLY // 2 times, set up and measure once, then set up
    SETUP_ONLY - SETUP_ONLY // 2 times, each in a fresh interpreter; return
    the measuring worker's result with every setup sample."""
    env = bench_env()
    deadline = time.monotonic() + 2 * args.seconds + SETUP_MARGIN_S

    def worker(*extra):
        cmd = [sys.executable, WORKER, "--workload", args.workload,
               "--seed", str(args.seed), *extra]
        t0 = time.monotonic()
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             check=True, timeout=max(1.0, deadline - t0))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        setup.append([res["ready"] - t0, res["ref"]])
        return res

    # compile bytecode once so that no setup sample pays for it
    subprocess.run([sys.executable, "-c", "import polarkit.cli"], env=env,
                   check=True, timeout=60)
    setup = []
    before = SETUP_ONLY // 2
    t0 = time.monotonic()
    for _ in range(before):
        worker("--setup-only")
    # the samples after the measuring worker take about as long as these
    spent = (time.monotonic() - t0) * SETUP_ONLY / before
    budget = max(args.seconds / 2, args.seconds - spent)
    res = worker("--seconds", str(budget), "--trace", str(args.trace))
    for _ in range(SETUP_ONLY - before):
        worker("--setup-only")
    res["setup_samples"] = setup
    res["measure_s"] = budget
    return res


def wall_s(job_walls, job_refs):
    """Each job's median time at the reference speed, summed over the jobs
    of one pass; both arguments hold one list per pass."""
    jobs = len(job_walls[0])
    times = scaled([t for p in job_walls for t in p],
                   [r for p in job_refs for r in p])
    return sum(statistics.median(times[j::jobs]) for j in range(jobs))


def setup_s(samples):
    """The median set-up time at the reference speed, over [time, ref]
    samples, each from its own interpreter."""
    return statistics.median(t * REFERENCE_S / r for t, r in samples)


def summarize(args, res):
    outcomes = res["outcomes"]
    wrong = [o for o in outcomes if o[1] == "wrong"]
    failed = [o for o in outcomes if o[1] != "ok"]
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": wall_s(res["job_walls"], res["job_refs"]),
                       "unit": "s"},
            "setup_s": {"value": setup_s(res["setup_samples"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
    return {"correct": not wrong, "attempted": len(outcomes),
            "failed": len(failed), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "polarkit", "__init__.py")):
        print("error: run from the root of a polarkit checkout "
              "(src/polarkit not found)", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        res = measure(args)
    except (OSError, subprocess.SubprocessError, ValueError, KeyError,
            IndexError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    res["env"]["git_commit"] = git_commit()
    line = summarize(args, res)

    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "result": line, **res}, fh, indent=1)

    print("env " + json.dumps(res["env"], sort_keys=True))
    reported = set()
    for name, status, detail in res["outcomes"]:
        if status != "ok" and name not in reported:
            reported.add(name)
            print(f"job {name!r} {status}: {detail}")
    n = len(res["job_walls"])
    print(f"{args.workload} seed {args.seed}: {res['jobs']} jobs per pass, "
          f"{n} passes, record in {os.path.relpath(record)}")
    for name, m in line["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print("  unscaled: wall_s = %.6g s, setup_s = %.6g s" % (
            sum(statistics.median(t) for t in zip(*res["job_walls"])),
            statistics.median(t for t, _ in res["setup_samples"])))
    print(f"  fail_frac = {line['failed']}/{line['attempted']} ratio")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
