"""The cli workload: cold `python -m bifree.cli` processes and their checks.

A cli job is one command of the round below.  Every command runs in a
fresh interpreter at its default order; `--parallel` is never passed, so
the numbers do not measure the scheduler of a small shared machine.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

from spec import table_json

# the set-up command: interpreter start, import and argument parsing
TRIVIAL = ("nc", "kreweras", "{1,6|2,3,4|5|7}")
TRIVIAL_OUT = "{1,4,5|2|3|6,7}\n"

# name -> (arguments, expected exit code); "{seed}" is the job's seed
ROUND = {
    "verify-lemmas": (("verify", "lemmas", "--seed", "{seed}"), 0),
    "verify-identities": (("verify", "identities", "--seed", "{seed}"), 0),
    "verify-t-mult": (("verify", "t-mult", "--seed", "{seed}"), 0),
    "verify-s-mult": (("verify", "s-mult", "--seed", "{seed}"), 0),
    "verify-s-mult-b2b1": (("verify", "s-mult", "--seed", "{seed}",
                            "--right-order", "b2b1"), 1),
    "transform-t-analytic": (("transform", "t", "-", "--method", "analytic"), 0),
    "transform-t-cumulant": (("transform", "t", "-", "--method", "cumulant"), 0),
    "transform-s-analytic": (("transform", "s", "-", "--method", "analytic"), 0),
    "transform-s-cumulant": (("transform", "s", "-", "--method", "cumulant"), 0),
}

# stdout of the passing verify commands at their default orders, recorded
# from the seed commit; it does not depend on the seed
_LEMMAS_OUT = "".join(f"{name} order 8: PASS\n" for name in
                      ("S1", "S2", "S3", "S4", "S5", "S6", "T1", "T2", "T3"))
EXPECTED_OUT = {
    "verify-lemmas": _LEMMAS_OUT,
    "verify-identities": ("convolution-inversion order 8: PASS\n"
                          "inverse-product order 8: PASS\n"
                          "bimoment-factorization order 8: PASS\n"),
    "verify-t-mult": "T-multiplicativity order 6: PASS\n",
    "verify-s-mult": "S-multiplicativity [b1b2] order 6: PASS\n",
}
_B2B1_FAIL = re.compile(r"S-multiplicativity \[b2b1\] order 6: FAIL first "
                        r"difference at \((\d+),(\d+)\): lhs=(\S+) rhs=(\S+)\n")

COMMAND_TIMEOUT_S = 60


def child_env(root):
    """The caller's environment with the checkout's src first on the path.

    BIFREE_CAP is dropped so a cap set by the caller cannot turn every run
    into a usage error, and the hash seed is pinned so repeated runs do the
    same work.
    """
    env = dict(os.environ)
    env.pop("BIFREE_CAP", None)
    src = os.path.join(root, "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def command(name, job):
    args, _ = ROUND[name]
    return [a.replace("{seed}", str(job["verify_seed"])) for a in args]


def stdin_for(name, job):
    return table_json(job["order"], job["table"]) if name.startswith("transform") else ""


def run_command(argv, stdin, env, prefix=None):
    """Run one cold command; returns (seconds, exit code, stdout)."""
    cmd = prefix or [sys.executable, "-m", "bifree.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + list(argv), input=stdin, capture_output=True,
                          text=True, env=env, timeout=COMMAND_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return elapsed, proc.returncode, proc.stdout


def check_trivial(code, out):
    if code != 0 or out != TRIVIAL_OUT:
        return f"trivial command: exit {code}, stdout {out!r}"
    return None


def check_round(outs):
    """{name: reason} for the failed commands of one full round.

    outs maps every command name to its (exit code, stdout).  A transform
    by the analytic route is checked against the same transform by the
    cumulant route.
    """
    failed = {}
    for name, (code, out) in outs.items():
        want = ROUND[name][1]
        if code != want:
            failed[name] = f"exit {code}, expected {want}"
        elif name in EXPECTED_OUT and out != EXPECTED_OUT[name]:
            failed[name] = f"stdout {out!r}"
    m = _B2B1_FAIL.fullmatch(outs["verify-s-mult-b2b1"][1])
    if not m or m.group(3) == m.group(4):
        failed.setdefault("verify-s-mult-b2b1", "no counterexample witness")
    for which in ("t", "s"):
        analytic = outs[f"transform-{which}-analytic"][1]
        if not analytic.strip() or analytic != outs[f"transform-{which}-cumulant"][1]:
            failed.setdefault(f"transform-{which}-analytic",
                              "differs from the cumulant route")
    return failed
