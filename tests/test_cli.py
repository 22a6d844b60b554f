"""Command-line interface: golden output, exit codes, determinism."""

import hashlib
import json
import random
import subprocess
import sys

import pytest

from bifree import random_pair_distribution
from bifree._caps import MAX_TRUNC

TRIVIAL = ('{"trunc": 4, "kappa": ['
           '{"n": 1, "m": 0, "value": "1"}, {"n": 0, "m": 1, "value": "1"}]}')
LINEAR = ('{"trunc": 4, "kappa": ['
          '{"n": 1, "m": 0, "value": "1"}, {"n": 0, "m": 1, "value": "1"}, '
          '{"n": 1, "m": 1, "value": "2/3"}]}')
UNNORMALIZED = ('{"trunc": 4, "kappa": ['
                '{"n": 1, "m": 0, "value": "1"}, {"n": 0, "m": 1, "value": "3"}]}')


def run_cli(*args, stdin=None, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "bifree.cli", *args],
        capture_output=True, text=True, input=stdin)


def test_enumerate_counts_and_order():
    out = run_cli("nc", "enumerate", "4")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert len(lines) == 14
    assert lines[0] == "{1,2,3,4}"
    assert lines[-1] == "{1|2|3|4}"


def test_enumerate_prime():
    out = run_cli("nc", "enumerate-prime", "4")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("{1|") or line == "{1}" for line in lines)


def test_kreweras_golden():
    out = run_cli("nc", "kreweras", "{1,6|2,3,4|5|7}")
    assert out.returncode == 0
    assert out.stdout.strip() == "{1,4,5|2|3|6,7}"


def test_bnc_enumerate():
    out = run_cli("nc", "bnc-enumerate", "1", "1")
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["{1ℓ,1r}", "{1ℓ|1r}"]


def test_transform_golden(tmp_path):
    trivial = tmp_path / "trivial.json"
    trivial.write_text(TRIVIAL)
    out = run_cli("transform", "t", str(trivial))
    assert out.returncode == 0
    assert out.stdout.strip() == "1"

    linear = tmp_path / "linear.json"
    linear.write_text(LINEAR)
    out = run_cli("transform", "t", str(linear))
    assert out.stdout.strip() == "1 + 2/3*z"
    out = run_cli("transform", "t", str(linear), "--method", "analytic")
    assert out.stdout.strip() == "1 + 2/3*z"
    out = run_cli("transform", "s", str(linear))
    assert out.stdout.strip() == "5/3 + 2/3*z + 2/3*w"
    out = run_cli("transform", "r", str(linear))
    assert out.stdout.strip() == "z + w + 2/3*z*w"


def test_transform_reads_stdin():
    out = run_cli("transform", "t", "-", stdin=LINEAR)
    assert out.returncode == 0
    assert out.stdout.strip() == "1 + 2/3*z"


def test_unnormalized_table_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(UNNORMALIZED)
    out = run_cli("transform", "t", str(bad))
    assert out.returncode == 2
    assert "rescale" in out.stderr


def test_verify_t_mult_passes():
    out = run_cli("verify", "t-mult", "--order", "4", "--seed", "1")
    assert out.returncode == 0
    assert "PASS" in out.stdout


def test_verify_s_mult_reversed_order_fails():
    out = run_cli("verify", "s-mult", "--order", "4", "--seed", "1",
                  "--right-order", "b2b1")
    assert out.returncode == 1
    assert "FAIL" in out.stdout
    assert "first difference" in out.stdout


S_MULT_B2B1_TEXT = ("S-multiplicativity [b2b1] order 6: FAIL first difference "
                    "at (1,0): lhs=-63/25 rhs=-27/100\n")
S_MULT_B2B1_JSON = (
    '{"checks": [{"name": "mixed-cumulant identity", "witness": '
    '{"lhs": "-51/50", "m": 1, "n": 2, "rhs": "123/100"}}, '
    '{"name": "series product", "order": 4, "witness": '
    '{"lhs": "-63/25", "m": 0, "n": 1, "rhs": "-27/100"}}], "order": 6, '
    '"rect": 3, "right_order": "b2b1", "seed": 1, "status": "mismatch", '
    '"theorem": "S-multiplicativity", "witness": '
    '{"lhs": "-63/25", "m": 0, "n": 1, "rhs": "-27/100"}}\n')


@pytest.mark.parametrize("fmt, expected", [("text", S_MULT_B2B1_TEXT),
                                           ("json", S_MULT_B2B1_JSON)])
def test_verify_s_mult_witness_golden(fmt, expected):
    out = run_cli("verify", "s-mult", "--order", "6", "--right-order", "b2b1",
                  "--format", fmt)
    assert out.returncode == 1
    assert out.stdout == expected


def test_verify_lemmas_all_pass():
    out = run_cli("verify", "lemmas", "--order", "5", "--seed", "1")
    assert out.returncode == 0
    lines = [l for l in out.stdout.splitlines() if l]
    assert len(lines) == 9
    assert all("PASS" in l for l in lines)


def test_verify_identities_pass():
    out = run_cli("verify", "identities", "--order", "6", "--seed", "1")
    assert out.returncode == 0
    assert out.stdout.count("PASS") == 3


def test_json_format_is_machine_readable():
    out = run_cli("verify", "t-mult", "--order", "4", "--seed", "2",
                  "--format", "json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["status"] == "ok"
    assert data["seed"] == 2


def test_same_seed_same_bytes():
    a = run_cli("verify", "s-mult", "--order", "4", "--seed", "5")
    b = run_cli("verify", "s-mult", "--order", "4", "--seed", "5")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode


def test_usage_errors():
    assert run_cli("nc", "enumerate").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("transform", "t", "/nonexistent.json").returncode == 2
    assert run_cli("verify", "lemmas", "--parallel").returncode == 2


def test_malformed_table_schema():
    out = run_cli("transform", "t", "-",
                  stdin='{"trunc": 3, "kappa": {"1,0": "1"}}')
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    out = run_cli("transform", "t", "-", stdin="not json")
    assert out.returncode == 2
    assert out.stderr.startswith("error:")


def _table(trunc=2, n=1, value='"1/2"', extra=""):
    """Both means 1 and one mixed cell, so only the defect can fail."""
    return (f'{{"trunc": {trunc}, "kappa": ['
            f'{{"n": 1, "m": 0, "value": "1"}}, {{"n": 0, "m": 1, "value": "1"}}, '
            f'{{"n": {n}, "m": 1, "value": {value}}}{extra}]}}')


@pytest.mark.parametrize("table", [
    _table(value="0.1"),
    _table(value='"1/0"'),
    _table(value="true"),
    _table(extra=', {"n": 1, "m": 1, "value": "2"}'),
    _table(trunc="2.7"),
    _table(n="1.5"),
    _table(trunc=10 ** 6),
], ids=["float", "zero-denominator", "bool", "duplicate-cell",
        "float-trunc", "float-index", "order-above-limit"])
def test_inexact_or_ambiguous_table_is_usage_error(table):
    out = run_cli("transform", "t", "-", stdin=table)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:")


def test_cap_env_guard(monkeypatch):
    # The child inherits the caller's environment (so bifree stays
    # importable) with only the cap added; the CLI reads it at call time.
    monkeypatch.setenv("BIFREE_CAP", "6")
    out = run_cli("nc", "enumerate", "8")
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "cap" in out.stderr.lower()


def _seeded_table(order):
    """A dense table with both means 1, seeded by its order."""
    return random_pair_distribution(random.Random(order), order,
                                    means=(1, 1)).to_json()


T8_TEXT = (
    "1 + 1/4*z + 5*z^2 + 1/5*z*w + 5*z^3 + 4/3*z^2*w - 5/8*z*w^2 + 1/6*z^4 "
    "+ 1/6*z^3*w - 5/2*z^2*w^2 + 9/20*z*w^3 + 2/3*z^5 - 3/2*z^4*w "
    "+ 7/2*z^3*w^2 + 94/3*z^2*w^3 - 83/80*z*w^4 + 5/3*z^6 + 5/6*z^4*w^2 "
    "+ 95/3*z^3*w^3 + 89/4*z^2*w^4 - 247/30*z*w^5 + 2/5*z^7 + 5/3*z^6*w "
    "- 7/15*z^5*w^2 + 1/2*z^4*w^3 + 81/4*z^3*w^4 + 62/3*z^2*w^5 "
    "+ 1573/400*z*w^6\n")
S8_TEXT = (
    "5/4 + 83/16*z + 9/20*w + 243/32*z^2 + 1541/240*z*w - 17/40*w^2 "
    "+ 3809/768*z^3 + 1711/480*z^2*w - 809/480*z*w^2 - 7/40*w^3 "
    "- 22189/1536*z^4 + 5809/3840*z^3*w + 105/64*z^2*w^2 + 14077/480*z*w^3 "
    "- 47/80*w^4 - 83579/6144*z^5 - 56629/2560*z^4*w + 4303/7680*z^3*w^2 "
    "+ 49787/960*z^2*w^3 + 10117/192*z*w^4 - 445/48*w^5 "
    "- 2542699/61440*z^6 + 93839/18432*z^5*w + 47599/5120*z^4*w^2 "
    "+ 226993/7680*z^3*w^3 + 30251/640*z^2*w^4 + 35521/960*z*w^5 "
    "- 5161/1200*w^6\n")


@pytest.mark.parametrize("which, expected", [("t", T8_TEXT), ("s", S8_TEXT)])
@pytest.mark.parametrize("method", ["cumulant", "analytic"])
def test_transform_order_8_golden(which, expected, method):
    out = run_cli("transform", which, "-", "--method", method,
                  stdin=_seeded_table(8))
    assert out.returncode == 0
    assert out.stdout == expected


# sha256 and length of the exact stdout: the texts run to 6.5 and 10.6 kB
ORDER_24_DIGESTS = {
    "t": ("af7b8bf1f1508b8330ecaa37222dd71ac0ade9db0cf30a6ecaffaa46761964f8",
          6486),
    "s": ("c4d09bb40474e040ab0386e40978dcedc17545eb7ef9c372eaef07c2153f7a4c",
          10632),
}


@pytest.mark.parametrize("which", ["t", "s"])
def test_transform_order_24_golden(which):
    out = run_cli("transform", which, "-", stdin=_seeded_table(24))
    assert out.returncode == 0
    assert out.stderr == ""
    digest = hashlib.sha256(out.stdout.encode()).hexdigest()
    assert (digest, len(out.stdout)) == ORDER_24_DIGESTS[which]


def test_exit_codes_under_optimize():
    # `python -O` strips assert statements; no check or exit code may
    # depend on them
    assert run_cli("verify", "t-mult", flags=["-O"]).returncode == 0
    assert run_cli("verify", "s-mult", "--right-order", "b2b1",
                   flags=["-O"]).returncode == 1
    out = run_cli("transform", "t", "-", stdin=_table(value="0.1"),
                  flags=["-O"])
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    out = run_cli("transform", "t", "-", stdin=_table(trunc=MAX_TRUNC + 1),
                  flags=["-O"])
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
