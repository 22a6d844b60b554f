"""Tests of the benchmark itself, not of bifree.

    python -m pytest bench/tests

They read BENCHMARK.json at the root of the checkout and import the
benchmark's modules and the checkout's bifree directly.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import cli_workload as cw  # noqa: E402
import worker  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS, make_job, random_table  # noqa: E402
from workloads import check_job, run_job  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_follows_the_contract():
    spec = _spec()
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/")
        assert ".." not in path.split("/")
    assert len(spec["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") for arg in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_matches_what_the_runs_report():
    spec = _spec()
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert tuple((m["name"], m["unit"], m["better"], m["bound"])
                 for m in spec["end_to_end"]) == END_TO_END
    assert tuple((m["name"], m["unit"], m["better"])
                 for m in spec["per_layer"]) == PER_LAYER
    assert spec["command"][1] == "bench/run.py" and spec["paths"] == ["bench"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_jobs(workload):
    jobs = [make_job(workload, 7, i) for i in range(3)]
    assert jobs == [make_job(workload, 7, i) for i in range(3)]
    assert jobs[0] != jobs[1]
    assert jobs[0] != make_job(workload, 8, 0)


def _bump(series):
    series.coeffs[(1, 1)] = series.coeffs.get((1, 1), 0) + 1
    return series


def test_corrupted_output_is_counted_as_failed():
    def corrupt(out):
        _bump(out["T"])
        return out

    clean = worker.measure("series", 3, 0, min_warm=1)
    assert (clean["attempted"], clean["failed"]) == (2, 0)
    bad = worker.measure("series", 3, 0, min_warm=1, corrupt=corrupt)
    assert (bad["attempted"], bad["failed"]) == (2, 2)


def test_moments_check_rejects_a_corrupted_transform():
    job = {"order": 6, "table": random_table(random.Random(5), 6)}
    out = run_job("moments", job)
    assert check_job("moments", job, out) is None
    _bump(out["S"])
    assert check_job("moments", job, out) is not None


def test_lemmas_check_rejects_a_corrupted_report():
    job = make_job("lemmas", 2, 0)
    reports = run_job("lemmas", job)
    assert check_job("lemmas", job, reports) is None
    reports[4]["grid"][3]["rhs"] += "1"
    assert check_job("lemmas", job, reports) is not None


def _good_round():
    outs = {name: (0, cw.EXPECTED_OUT.get(name, "")) for name in cw.ROUND}
    outs["verify-s-mult-b2b1"] = (1, "S-multiplicativity [b2b1] order 6: FAIL "
                                     "first difference at (1,0): lhs=1 rhs=2\n")
    for which in ("t", "s"):
        outs[f"transform-{which}-analytic"] = (0, "1 + z\n")
        outs[f"transform-{which}-cumulant"] = (0, "1 + z\n")
    return outs


def test_cli_check_counts_each_corrupted_command():
    assert cw.check_round(_good_round()) == {}
    outs = _good_round()
    outs["transform-t-cumulant"] = (0, "1 + 2*z\n")
    outs["verify-t-mult"] = (1, outs["verify-t-mult"][1])
    outs["verify-s-mult-b2b1"] = (1, "S-multiplicativity [b2b1] order 6: FAIL "
                                     "first difference at (1,0): lhs=2 rhs=2\n")
    assert set(cw.check_round(outs)) == {"transform-t-analytic", "verify-t-mult",
                                         "verify-s-mult-b2b1"}
    assert cw.check_trivial(0, cw.TRIVIAL_OUT) is None
    assert cw.check_trivial(2, "") is not None


def test_child_env_keeps_path_and_drops_the_cap(monkeypatch):
    monkeypatch.setenv("BIFREE_CAP", "6")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    env = cw.child_env(ROOT)
    assert "BIFREE_CAP" not in env
    assert env["PYTHONPATH"] == os.path.join(ROOT, "src") + os.pathsep + "elsewhere"
    assert env["PATH"] == os.environ["PATH"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", ["series", "lemmas"])
def test_two_traced_runs_give_identical_counts(workload):
    results = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", workload, "--seed", "4", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert all(r["correct"] for r in results)
    exact = [name for name, unit, _ in PER_LAYER if unit in ("count", "ratio")
             and name != "trace.overhead_ratio"]
    first, second = ({n: r["metrics"][n]["value"] for n in exact} for r in results)
    assert first == second
    assert set(results[0]["metrics"]) == {name for name, _, _ in PER_LAYER}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "series", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
