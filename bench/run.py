"""bifree benchmark: cold set-up versus warm throughput, per workload.

    python3 bench/run.py --workload lemmas|moments|series|cli|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter (bench/worker.py), so the package's lru_caches start cold; this
process only starts workers one after another and aggregates.  The last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}; the line before it records the Python version, nproc, the seed
and the job counts.  With --trace 0 the metrics are spec.END_TO_END, with
--trace 1 spec.PER_LAYER.  `--workload all` runs every workload and prints
each end-to-end metric by name and unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

from calibrate import slowdown
from cli_workload import ROUND, child_env
from spec import END_TO_END, PER_LAYER, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")

SETUP_SAMPLES = 4     # cold set-ups per run (the main worker's and 3 more)
IMPORT_SAMPLES = 5    # fresh `import bifree` timings per traced run
SESSION_JOBS = 10     # wall_s is the time of a session of this many jobs
BUDGET_S = 170        # a run ends within this, set-up included


class BenchError(Exception):
    pass


def _spawn(deadline, *args):
    """Run one worker to completion; its JSON result plus its spawn time."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"time budget of {BUDGET_S} s spent before {args}")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *map(str, args)],
                              stdout=subprocess.PIPE, text=True, env=child_env(ROOT),
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["t_spawn"] = t_spawn
    return result


def pin_to_one_cpu():
    """Run this process and every worker on one CPU.

    Calibration passes and the jobs they bracket then share a CPU; on a
    shared host each CPU sees its own contention.  Workers never run at
    the same time, so one CPU loses no parallelism.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def preflight():
    """The checkout's own bifree must import; nothing else will do."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bifree", "__init__.py")):
        raise BenchError(f"no bifree sources under {src}")
    proc = subprocess.run(
        [sys.executable, "-c", "import bifree, bifree.cli; print(bifree.__file__)"],
        capture_output=True, text=True, env=child_env(ROOT), timeout=60)
    where = proc.stdout.strip()
    if proc.returncode != 0 or not os.path.realpath(where).startswith(
            os.path.realpath(src) + os.sep):
        raise BenchError(f"bifree does not import from {src}: {proc.stderr.strip()}")


def untraced(workload, seed, seconds, deadline):
    """End-to-end metrics; times are normalized by bench/calibrate.py."""
    main = _spawn(deadline, "run", workload, seed, seconds)
    runs = [main]
    if workload == "cli":
        setup, setup_raw = main["setup_norm"], main["setup_s"]
        # one job is one command; a round runs each command once
        job_s = median(main["round_norm"]) / len(ROUND)
        job_raw = median(main["round_s"]) / len(ROUND)
        counts = {"rounds": len(main["round_s"]), "commands": main["attempted"]}
    else:
        runs += [_spawn(deadline, "setup", workload, seed, 0)
                 for _ in range(SETUP_SAMPLES - 1)]
        # the worker's first calibration pass runs inside the set-up span
        setup_raw = [r["t_first"] - r["t_spawn"] - r["loops"][0] for r in runs]
        setup = [t / slowdown(*r["loops"]) for t, r in zip(setup_raw, runs)]
        job_s, job_raw = median(main["job_norm"]), median(main["job_s"])
        counts = {"warm_jobs": len(main["job_s"])}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    setup_s = median(setup)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": 1 / job_s,
        "wall_s": setup_s + (SESSION_JOBS - 1) * job_s,
        "peak_rss_mb": median([r["rss_kb"] for r in runs]) / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }
    counts.update(setup_samples=len(setup), attempted=attempted)
    raw = {"setup_s": median(setup_raw), "setup_samples_s": setup_raw,
           "job_s": job_raw}
    return values, attempted, failed, counts, runs, raw


def traced(workload, seed, deadline):
    plain = _spawn(deadline, "plain", workload, seed, 0)
    trace = _spawn(deadline, "trace", workload, seed, 0)
    imports = [_spawn(deadline, "import", workload, seed, 0)["import_s"]
               for _ in range(IMPORT_SAMPLES)]
    values = dict(trace["layers"])
    values["cli.import_s"] = median(imports)
    values["trace.overhead_ratio"] = trace["wall_s"] / plain["wall_s"]
    runs = [plain, trace]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    counts = {"traced_jobs": trace["attempted"], "attempted": attempted}
    return values, attempted, failed, counts, runs, {}


def run_workload(workload, seed, seconds, trace):
    """(result line, info line) for one workload."""
    deadline = time.monotonic() + BUDGET_S
    if trace:
        values, attempted, failed, counts, runs, raw = traced(workload, seed, deadline)
        spec = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values, attempted, failed, counts, runs, raw = untraced(workload, seed, seconds,
                                                                deadline)
        spec = [(name, unit) for name, unit, _, _ in END_TO_END]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    failures = [f for r in runs for f in r["failures"]]
    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
            "jobs": counts, "raw_times": raw, "failures": failures}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    try:
        preflight()
        if args.workload != "all":
            result, info = run_workload(args.workload, args.seed, args.seconds,
                                        args.trace)
            print(json.dumps({"info": info}))
            print(json.dumps(result))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            result, info = run_workload(workload, args.seed, args.seconds,
                                        args.trace)
            print(json.dumps({"info": info}))
            for name, m in result["metrics"].items():
                print(f"{workload:<8} {name:<28} {m['value']:>14.6g} {m['unit']}")
                summary["metrics"][f"{workload}.{name}"] = m
            for key in ("attempted", "failed"):
                summary[key] += result[key]
            summary["correct"] = summary["correct"] and result["correct"]
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
