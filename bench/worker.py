"""One benchmark process, started fresh so every cache of bifree is cold.

    python bench/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of
    run        job 0 cold, then warm jobs for SECONDS (cli: set-up samples of
               the trivial command, then rounds of commands for SECONDS)
    setup      job 0 only (a set-up sample)
    plain      the traced job set without the profiler (for the overhead)
    trace      the traced job set under cProfile
    cli-trace  one cli command (WORKLOAD is its name, SEED the job seed)
               under cProfile; `trace cli` starts one of these per command
    import     time `import bifree`

The last line of stdout is one JSON object.  Times that run.py compares
across processes come from time.monotonic(), which on Linux reads the same
clock in every process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from statistics import fmean

import calibrate
from spec import make_job

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MIN_WARM_JOBS = 3      # warm jobs a run makes even when SECONDS is short
MIN_CLI_ROUNDS = 4     # rounds a cli run makes at least: its median needs them
CLI_SETUP_SAMPLES = 5  # trivial commands timed for the cli set-up
TRACE_JOBS = 3         # jobs in a traced run: the cold one and two warm
MAX_REPORTED = 5       # failure reasons carried back to run.py


class Run:
    """Jobs attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
            print(f"bench: FAILED {what}: {reason}", file=sys.stderr)

    def result(self, **extra):
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:MAX_REPORTED], **extra}


def _call(workload, job):
    """(output, None) or (None, reason) when the job raised."""
    from workloads import run_job
    try:
        return run_job(workload, job), None
    except Exception as exc:
        traceback.print_exc()
        return None, f"raised {type(exc).__name__}: {exc}"


def _check(run, workload, index, job, out, error, corrupt):
    from workloads import check_job
    if error is None:
        if corrupt is not None:
            out = corrupt(out)
        try:
            error = check_job(workload, job, out)
        except Exception as exc:
            traceback.print_exc()
            error = f"check raised {type(exc).__name__}: {exc}"
    run.record(f"{workload} job {index}", error)


def measure(workload, seed, seconds, min_warm=MIN_WARM_JOBS, corrupt=None):
    """Job 0 cold, then warm jobs until `seconds` of job time is spent.

    Only the calls into bifree are timed, each between two passes of the
    calibration loop; each output is checked right after, untimed.
    `corrupt`, if given, is applied to every output before its check (the
    benchmark's tests use it).
    """
    run = Run()
    loops = [calibrate.loop_s()]
    job_s, job_norm = [], []
    index = 0
    while True:
        job = make_job(workload, seed, index)
        t0 = time.perf_counter()
        out, error = _call(workload, job)
        elapsed = time.perf_counter() - t0
        if index == 0:
            t_first = time.monotonic()
            # read before any check runs, so the benchmark's own work is out
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        loops.append(calibrate.loop_s())
        if index:
            job_s.append(elapsed)
            job_norm.append(elapsed / calibrate.slowdown(*loops[-2:]))
        _check(run, workload, index, job, out, error, corrupt)
        index += 1
        if len(job_s) >= min_warm and sum(job_s) >= seconds:
            break
    return run.result(t_first=t_first, loops=loops[:2], job_s=job_s,
                      job_norm=job_norm, rss_kb=rss_kb)


def measure_cli(seed, seconds):
    """Trivial commands for set-up, then rounds until `seconds` are spent.

    Every command is timed between two passes of the calibration loop.
    """
    import cli_workload as cw
    env = cw.child_env(ROOT)
    run = Run()
    loops = [calibrate.loop_s()]

    def timed(argv, stdin):
        elapsed, code, out = cw.run_command(argv, stdin, env)
        loops.append(calibrate.loop_s())
        return elapsed, calibrate.slowdown(*loops[-2:]), code, out

    setup_s, setup_norm = [], []
    for i in range(CLI_SETUP_SAMPLES):
        elapsed, slowdown, code, out = timed(cw.TRIVIAL, "")
        setup_s.append(elapsed)
        setup_norm.append(elapsed / slowdown)
        run.record(f"cli trivial {i}", cw.check_trivial(code, out))
    # a round's normalized time divides its raw time by the mean slowdown
    # around its commands, which weighs long commands by their length
    round_s, round_norm = [], []
    while len(round_s) < MIN_CLI_ROUNDS or sum(round_s) < seconds:
        rounds = len(round_s)
        job = make_job("cli", seed, rounds)
        outs = {}
        raw, slowdowns = 0.0, []
        for name in cw.ROUND:
            elapsed, slowdown, code, out = timed(cw.command(name, job),
                                                 cw.stdin_for(name, job))
            raw += elapsed
            slowdowns.append(slowdown)
            outs[name] = (code, out)
        round_s.append(raw)
        round_norm.append(raw / fmean(slowdowns))
        failed = cw.check_round(outs)
        for name in cw.ROUND:
            run.record(f"cli round {rounds} {name}", failed.get(name))
    return run.result(setup_s=setup_s, setup_norm=setup_norm, round_s=round_s,
                      round_norm=round_norm,
                      rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def fixed(workload, seed, traced):
    """The first TRACE_JOBS jobs, cold, optionally under the profiler."""
    if workload == "cli":
        return fixed_cli(seed, traced)
    tracer = None
    if traced:
        from layers import Tracer
        tracer = Tracer()
    import workloads  # noqa: F401  (bifree is imported before the timed jobs)
    jobs, outs = [], []
    wall = 0.0
    for index in range(TRACE_JOBS):
        job = make_job(workload, seed, index)
        t0 = time.perf_counter()
        with tracer or contextlib.nullcontext():
            out, error = _call(workload, job)
        wall += time.perf_counter() - t0
        jobs.append(job)
        outs.append((out, error))
    run = Run()
    terms = 0
    for i, (job, (out, error)) in enumerate(zip(jobs, outs)):
        _check(run, workload, i, job, out, error, None)
        if isinstance(out, dict) and "T" in out:
            terms += len(out["T"].coeffs) + len(out["S"].coeffs)
    extra = {}
    if traced:
        from layers import finalize
        extra["layers"] = finalize(tracer.raw())
        extra["layers"]["series.output_terms"] = terms
    return run.result(wall_s=wall, **extra)


def fixed_cli(seed, traced):
    """The trivial command and one round, each in its own process."""
    import cli_workload as cw
    env = cw.child_env(ROOT)
    job = make_job("cli", seed, 0)
    prefix = None
    if traced:
        prefix = [sys.executable, os.path.abspath(__file__), "cli-trace"]
    commands = [("trivial", list(cw.TRIVIAL), "")]
    commands += [(name, cw.command(name, job), cw.stdin_for(name, job))
                 for name in cw.ROUND]
    run = Run()
    wall = 0.0
    outs, raws = {}, []
    for name, argv, stdin in commands:
        elapsed, code, out = cw.run_command(argv, stdin, env, prefix)
        wall += elapsed
        if traced:
            try:
                child = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                child = {"code": code, "stdout": "", "raw": {}}
            code, out = child["code"], child["stdout"]
            raws.append(child["raw"])
        if name == "trivial":
            run.record("cli trivial", cw.check_trivial(code, out))
        else:
            outs[name] = (code, out)
    failed = cw.check_round(outs)
    for name in cw.ROUND:
        run.record(f"cli {name}", failed.get(name))
    extra = {}
    if traced:
        from layers import finalize, merge
        extra["layers"] = finalize(merge(raws))
        extra["layers"]["series.output_terms"] = 0
    return run.result(wall_s=wall, **extra)


def trace_cli_command(argv):
    """Run one cli command in this process under the profiler."""
    from bifree.cli import main
    from layers import Tracer
    tracer = Tracer()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), tracer:
        code = main(argv)
    return {"code": code, "stdout": captured.getvalue(), "raw": tracer.raw()}


def time_import():
    t0 = time.perf_counter()
    import bifree  # noqa: F401
    return {"import_s": time.perf_counter() - t0}


def main(argv):
    mode = argv[0]
    if mode == "cli-trace":
        result = trace_cli_command(argv[1:])
    elif mode == "import":
        result = time_import()
    else:
        workload, seed, seconds = argv[1], int(argv[2]), float(argv[3])
        if mode == "run" and workload == "cli":
            result = measure_cli(seed, seconds)
        elif mode == "run":
            result = measure(workload, seed, seconds)
        elif mode == "setup":
            result = measure(workload, seed, 0, min_warm=0)
        elif mode in ("plain", "trace"):
            result = fixed(workload, seed, traced=mode == "trace")
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
