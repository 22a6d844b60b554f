"""Workload and metric names, workload sizes, and seeded job generation.

Jobs are plain data (ints and Fractions), built with nothing from the
package under test, so the program only ever receives generated inputs.
Job `index` of a workload depends on (workload, seed, index) alone: a setup
worker that runs job 0 and a main worker that runs jobs 0, 1, 2, ... see
identical inputs, and the same seed always gives the same jobs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("lemmas", "moments", "series", "cli")

# truncation order of the cumulant tables each workload draws
ORDERS = {"lemmas": 10, "moments": 9, "series": 24, "cli": 6}

# the order of the moment -> cumulant round trip inside a moments job
ROUND_TRIP_ORDER = 6

# (name, unit, better, bound): the metrics of an untraced run.  ok_frac is
# the share of attempted jobs whose output checked out (1 - failed share);
# it is reported instead of the failed share because a metric must not be 0.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.2),
    ("wall_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.01),
)

# (name, unit, better): the metrics of a traced run, every one reported for
# every workload (0 where the workload does not reach the layer)
PER_LAYER = (
    ("ncpart.self_s", "s", "lower"),
    ("ncpart.partitions_built", "count", "lower"),
    ("ncpart.kreweras_calls", "count", "lower"),
    ("bnc.self_s", "s", "lower"),
    ("bnc.partitions_built", "count", "lower"),
    ("bnc.chi_permutation_calls", "count", "lower"),
    ("bnc.mobius_calls", "count", "lower"),
    ("classsum.self_s", "s", "lower"),
    ("classsum.cells_swept", "count", "lower"),
    ("classsum.sweep_nodes", "count", "lower"),
    ("classsum.sweep_leaves", "count", "lower"),
    ("classsum.leaves_per_catalan", "ratio", "lower"),
    ("classsum.cache_hit_ratio", "ratio", "higher"),
    ("multfn.self_s", "s", "lower"),
    ("multfn.convolve_calls", "count", "lower"),
    ("multfn.cache_hit_ratio", "ratio", "higher"),
    ("bicum.self_s", "s", "lower"),
    ("bicum.moment_cells", "count", "lower"),
    ("bicum.cumulant_cells", "count", "lower"),
    ("bicum.cache_hit_ratio", "ratio", "higher"),
    ("series.self_s", "s", "lower"),
    ("series.calls", "count", "lower"),
    ("series.output_terms", "count", "lower"),
    ("fractions.self_s", "s", "lower"),
    ("fractions.ops", "count", "lower"),
    ("transforms.self_s", "s", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.lhs_s", "s", "lower"),
    ("oracle.rhs_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# random entries are p/q with |p| <= 6, 1 <= q <= 6, as in the package's own
# seeded verify suites
_MAX_NUM = 6
_MAX_DEN = 6


def _rng(workload, seed, index):
    # string seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"bifree-bench:{workload}:{seed}:{index}")


def random_table(rng, order):
    """{(n, m): kappa_{n,m}} for 0 < n+m <= order, both face means 1."""
    table = {}
    for n in range(order + 1):
        for m in range(order + 1 - n):
            if n + m >= 1:
                table[(n, m)] = Fraction(rng.randint(-_MAX_NUM, _MAX_NUM),
                                         rng.randint(1, _MAX_DEN))
    table[(1, 0)] = Fraction(1)
    table[(0, 1)] = Fraction(1)
    return table


def table_json(order, table):
    """The CLI's table format: exact rationals as strings, zeros omitted."""
    entries = [{"n": n, "m": m, "value": str(v)}
               for (n, m), v in sorted(table.items()) if v]
    return json.dumps({"trunc": order, "kappa": entries}, sort_keys=True)


def make_job(workload, seed, index):
    """Job `index` of a workload under a seed, as a dict of plain data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed, index)
    order = ORDERS[workload]
    if workload == "lemmas":
        return {"order": order,
                "pairs": (random_table(rng, order), random_table(rng, order))}
    if workload == "cli":
        return {"order": order, "verify_seed": rng.randrange(1, 10 ** 6),
                "table": random_table(rng, order)}
    return {"order": order, "table": random_table(rng, order)}
