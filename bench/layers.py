"""Per-layer attribution of a traced run.

A `Tracer` profiles the jobs with cProfile and reduces the profile to
additive raw numbers per layer (a layer is a module of bifree, plus the
standard library's `fractions`):

  <layer>.self_s       self time of the functions defined in the module
  counters             call counts of named functions (partitions built,
                       Kreweras complements, sweep nodes and leaves, ...)
  <layer>.cache_*      hits and misses of the module's lru_cache, read from
                       outside through cache_info()
  classsum.catalan     sum of Catalan(K) over the cells the sweep built,
                       from a recording wrapper around the sweep's layout
                       helper (the cache hides which cells missed)

Raw numbers from several processes (one per cli command) add up with
`merge`; `finalize` turns them into the per-layer metrics of spec.PER_LAYER.
Counts depend only on the jobs, so two traced runs of one seed agree
exactly.  Prune-by-type counters and stage timers need hooks inside the
package and are not measured here.
"""

from __future__ import annotations

import cProfile
import fractions
import os
import pstats
import sys
from math import comb

from bifree import _classsum, bicum, bnc, cli, multfn, ncpart, oracle, series, transforms

_MODULES = {"ncpart": ncpart, "bnc": bnc, "classsum": _classsum,
            "multfn": multfn, "bicum": bicum, "series": series,
            "fractions": fractions, "transforms": transforms,
            "oracle": oracle, "cli": cli}

_CACHES = {"classsum": "class_profiles", "multfn": "_kreweras_profiles",
           "bicum": "_bnc_profiles"}


def _code(module, dotted):
    """Code object of module.dotted ('f', 'Cls.method' or 'f/nested')."""
    path, _, nested = dotted.partition("/")
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
    obj = getattr(obj, "__wrapped__", obj)
    code = getattr(obj, "__code__", None)
    if code is not None and nested:
        code = next((c for c in code.co_consts
                     if getattr(c, "co_name", None) == nested), None)
    if code is None:
        print(f"trace: {module.__name__}.{dotted} not found; counted as 0",
              file=sys.stderr)
    return code


# counter -> functions whose calls it sums
_COUNTERS = {
    "ncpart.partitions_built": [(ncpart, "NCPartition.__init__")],
    "ncpart.kreweras_calls": [(ncpart, "kreweras")],
    "bnc.partitions_built": [(bnc, "BNCPartition.__init__")],
    "bnc.chi_permutation_calls": [(bnc, "chi_permutation")],
    "bnc.mobius_calls": [(bnc, "mobius_bnc"), (bnc, "mobius_nc")],
    "classsum.sweep_nodes": [(_classsum, "class_profiles/dfs")],
    "classsum.sweep_leaves": [(_classsum, "class_profiles/leaf")],
    "multfn.convolve_calls": [(multfn, "convolve"), (multfn, "pinched_convolve")],
    "bicum.moment_cells": [(bicum, "moments_from_cumulants")],
    "bicum.cumulant_cells": [(bicum, "sum_product_pair_cumulants"),
                             (bicum, "product_pair_cumulants")],
}


def _key(code):
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Tracer:
    """Profiles the code run inside `with tracer:` blocks."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.swept_sizes = []
        layout = _classsum._layout

        def recording_layout(kind, n, m):
            out = layout(kind, n, m)
            self.swept_sizes.append(out[0])
            return out

        _classsum._layout = recording_layout

    def __enter__(self):
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()

    def raw(self):
        stats = pstats.Stats(self.profile).stats
        layer_of_file = {os.path.realpath(m.__file__): name
                         for name, m in _MODULES.items()}
        raw = {f"{name}.self_s": 0.0 for name in _MODULES}
        calls_in = {name: 0 for name in _MODULES}
        for (filename, _, _), (_, nc, tt, _, _) in stats.items():
            layer = layer_of_file.get(os.path.realpath(filename))
            if layer:
                raw[f"{layer}.self_s"] += tt
                calls_in[layer] += nc
        raw["series.calls"] = calls_in["series"]
        raw["fractions.ops"] = calls_in["fractions"]

        for counter, funcs in _COUNTERS.items():
            codes = [_code(m, name) for m, name in funcs]
            raw[counter] = sum(stats[_key(c)][1] for c in codes
                               if c is not None and _key(c) in stats)

        class_sum = _code(oracle, "class_sum")
        check_lemma = _code(oracle, "check_lemma")
        raw["oracle.lhs_s"] = (stats[_key(class_sum)][3]
                               if class_sum and _key(class_sum) in stats else 0.0)
        rhs = 0.0
        for lemma in oracle.LEMMAS.values():
            entry = stats.get(_key(lemma.rhs.__code__))
            if entry and check_lemma:
                edge = entry[4].get(_key(check_lemma))
                rhs += edge[3] if edge else 0.0
        raw["oracle.rhs_s"] = rhs

        for layer, fname in _CACHES.items():
            fn = getattr(_MODULES[layer], fname, None)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            raw[f"{layer}.cache_hits"] = info.hits if info else 0
            raw[f"{layer}.cache_misses"] = info.misses if info else 0
        raw["classsum.cells_swept"] = len(self.swept_sizes)
        raw["classsum.catalan"] = sum(comb(2 * k, k) // (k + 1)
                                      for k in self.swept_sizes)
        return raw


def merge(raws):
    out = {}
    for raw in raws:
        for k, v in raw.items():
            out[k] = out.get(k, 0) + v
    return out


def finalize(raw):
    """Per-layer metric values from merged raw numbers (plus the extras
    the caller adds: series.output_terms, cli.import_s,
    trace.overhead_ratio)."""
    out = {k: v for k, v in raw.items()
           if not k.endswith((".cache_hits", ".cache_misses"))
           and k != "classsum.catalan"}
    for layer in _CACHES:
        hits, misses = raw[f"{layer}.cache_hits"], raw[f"{layer}.cache_misses"]
        out[f"{layer}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    cat = raw["classsum.catalan"]
    out["classsum.leaves_per_catalan"] = raw["classsum.sweep_leaves"] / cat if cat else 0.0
    return out
