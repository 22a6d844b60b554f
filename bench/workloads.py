"""In-process workloads: one job's call into bifree, and its check.

`run_job` is the timed part and goes through public functions of bifree
only.  `check_job` runs untimed afterwards and returns None for a correct
output or a one-line reason.  Each check uses a route independent of the
one that produced the output:

  lemmas   every report passes, and every grid cell holds lhs == rhs on the
           expected number of cells (check_lemma compares the class sweep
           against the series calculus)
  moments  the analytic (enumeration) transforms equal the cumulant
           (series) transforms exactly, the bimoment identity holds, and
           moments -> cumulants returns the input table
  series   the cumulant-route transforms are substituted back by the
           forward cumulant series, in plain dict arithmetic written here,
           and must reproduce the table's mixed cumulants
"""

from __future__ import annotations

from fractions import Fraction

from bifree import (
    LEMMAS,
    BiFreeFamily,
    PairDistribution,
    check_bimoment_factorization,
    check_lemma,
    cumulants_from_moments,
    moments_from_cumulants,
    partial_S,
    partial_T,
    trim_pair,
)

from spec import ROUND_TRIP_ORDER

# grid cells per lemma for order-10 families, recorded from the seed commit
EXPECTED_LEMMA_CELLS = {"S1": 10, "S2": 21, "S3": 21, "S4": 21, "S5": 21,
                        "S6": 10, "T1": 20, "T2": 27, "T3": 19}


def run_job(workload, job):
    order = job["order"]
    if workload == "lemmas":
        fam = BiFreeFamily(PairDistribution(order, job["pairs"][0]),
                           PairDistribution(order, job["pairs"][1]))
        return [check_lemma(name, fam) for name in sorted(LEMMAS)]
    d = PairDistribution(order, job["table"])
    if workload == "moments":
        small = trim_pair(d, ROUND_TRIP_ORDER)
        moments = {(n, m): moments_from_cumulants(small, n, m)
                   for n in range(ROUND_TRIP_ORDER + 1)
                   for m in range(ROUND_TRIP_ORDER + 1 - n) if n + m}
        return {"T": partial_T(d, "analytic"), "S": partial_S(d, "analytic"),
                "bimoment": check_bimoment_factorization(d),
                "round_trip": cumulants_from_moments(moments)}
    if workload == "series":
        return {"T": partial_T(d, "cumulant"), "S": partial_S(d, "cumulant")}
    raise ValueError(f"workload {workload!r} does not run in-process")


def check_job(workload, job, out):
    if workload == "lemmas":
        return _check_lemmas(out)
    d = PairDistribution(job["order"], job["table"])
    if workload == "moments":
        return _check_moments(d, out)
    return _check_series(d, out)


def _check_lemmas(reports):
    names = [r["lemma"] for r in reports]
    if names != sorted(EXPECTED_LEMMA_CELLS):
        return f"lemma reports {names}"
    for r in reports:
        name = r["lemma"]
        if r["status"] != "ok" or r["witness"] is not None:
            return f"{name}: status {r['status']} witness {r['witness']}"
        if r["cells"] != EXPECTED_LEMMA_CELLS[name] or len(r["grid"]) != r["cells"]:
            return f"{name}: {r['cells']} cells"
        for cell in r["grid"]:
            if cell["lhs"] != cell["rhs"]:
                return f"{name}: cell {cell}"
    return None


def _same_series(a, b):
    return a.trunc_order == b.trunc_order and a.coeffs == b.coeffs


def _check_moments(d, out):
    if not _same_series(out["T"], partial_T(d, "cumulant")):
        return "analytic T differs from the cumulant route"
    if not _same_series(out["S"], partial_S(d, "cumulant")):
        return "analytic S differs from the cumulant route"
    if out["bimoment"]["status"] != "ok":
        return f"bimoment factorization: {out['bimoment']['witness']}"
    if out["round_trip"] != trim_pair(d, ROUND_TRIP_ORDER):
        return "moments -> cumulants did not return the table"
    return None


# -- plain dict series arithmetic for the series check -----------------------
# Two-variable series are {(i, j): c}, one-variable series {i: c}, zeros
# dropped; `n` is the total-degree truncation.

def _mul(a, b, n):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if i + j + k + l <= n:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _powers(s, top, n):
    table = [{0: Fraction(1)}]
    for _ in range(top):
        prev, nxt = table[-1], {}
        for i, x in prev.items():
            for j, y in s.items():
                if i + j <= n:
                    nxt[i + j] = nxt.get(i + j, 0) + x * y
        table.append(nxt)
    return table


def _substitute(f, sz, sw, n):
    """f(sz(z), sw(w)) through total degree n; sz, sw vanish at 0."""
    zp = _powers(sz, max((i for i, _ in f), default=0), n)
    wp = _powers(sw, max((j for _, j in f), default=0), n)
    out = {}
    for (i, j), c in f.items():
        for a, x in zp[i].items():
            for b, y in wp[j].items():
                if a + b <= n:
                    out[(a, b)] = out.get((a, b), 0) + c * x * y
    return {k: v for k, v in out.items() if v}


def _check_series(d, out):
    N = d.trunc
    t, s = out["T"], out["S"]
    if t.trunc_order != N - 1 or s.trunc_order != N - 2:
        return f"truncation orders {t.trunc_order}, {s.trunc_order}"
    ca = {n: d.kappa(n, 0) for n in range(1, N + 1) if d.kappa(n, 0)}
    cb = {m: d.kappa(0, m) for m in range(1, N + 1) if d.kappa(0, m)}
    K = {(n, m): v for (n, m), v in d.items() if n and m}
    ident = {1: Fraction(1)}

    def minus_one(f):
        g = dict(f.coeffs)
        g[(0, 0)] = g.get((0, 0), 0) - 1
        return {k: v for k, v in g.items() if v}

    # T(z, w) - 1 = K(z, cb^{-1}(w)) / w, so cb(w) (T(z, cb(w)) - 1) = K
    back = _substitute(minus_one(t), ident, cb, N - 1)
    if _mul(back, {(0, j): v for j, v in cb.items()}, N) != K:
        return "T does not substitute back to the mixed cumulants"
    # S(z, w) - 1 = (1+z+w)/(zw) K(ca^{-1}(z), cb^{-1}(w)), so
    # ca(z) cb(w) (S(ca(z), cb(w)) - 1) = (1 + ca(z) + cb(w)) K
    back = _substitute(minus_one(s), ca, cb, N - 2)
    lhs = _mul(_mul(back, {(i, 0): v for i, v in ca.items()}, N),
               {(0, j): v for j, v in cb.items()}, N)
    lin = {(0, 0): Fraction(1)}
    for i, v in ca.items():
        lin[(i, 0)] = v
    for j, v in cb.items():
        lin[(0, j)] = v
    if lhs != _mul(lin, K, N):
        return "S does not substitute back to the mixed cumulants"
    return None
