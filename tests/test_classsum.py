"""Incremental class sweep vs filtered enumeration of the same classes."""

import random

import pytest

from bifree import (
    FAMILIES,
    MultFn,
    PartitionClassSpec,
    class_count,
    class_sum,
    convolve,
    cumulants_from_moments,
    enumerate_class,
    moments_from_cumulants,
    pinched_convolve,
    product_pair_cumulants,
    psi_sum,
    random_family,
    random_pair_distribution,
    sum_product_pair_cumulants,
)
from bifree._classsum import class_profiles
from bifree.errors import (
    CapExceeded,
    InvalidSize,
    InvalidSubclass,
    TruncationExceeded,
)
from bifree.oracle import _SUBCLASSES


def small_cells(family):
    """Cells whose doubled ground set stays within cheap enumeration."""
    out = []
    for n in range(0, 5):
        for m in range(0, 5):
            if family == "T":
                ground, ok = n + 2 * m, m >= 1
            elif family == "T_primed":
                ground, ok = n + 2 * m + 1, True
            elif family == "S":
                ground, ok = 2 * n + 2 * m, n + m >= 1
            else:
                ground, ok = 2 * n + 2 * m + 2, True
            if ok and 1 <= ground <= 7:
                out.append((n, m))
    return out


def test_counts_match_enumeration():
    for family in FAMILIES:
        for n, m in small_cells(family):
            spec = PartitionClassSpec(family, n, m)
            assert class_count(spec) == len(list(enumerate_class(spec)))


def test_subclass_counts_are_exhaustive():
    for family in ("T", "S", "S_primed"):
        for n, m in small_cells(family):
            if family in ("T", "S") and (n < 1 or (family == "S" and m < 1)):
                continue
            total = class_count(PartitionClassSpec(family, n, m))
            parts = sum(
                class_count(PartitionClassSpec(family, n, m, sub))
                for sub in _SUBCLASSES[family]
                if sub != "all"
            )
            assert parts == total


def test_sums_match_enumeration():
    rng = random.Random(13)
    fam = random_family(rng, 8)
    for family in FAMILIES:
        for n, m in small_cells(family):
            for sub in _SUBCLASSES[family]:
                if sub != "all" and family in ("T", "S") and n < 1:
                    continue
                if sub != "all" and family == "S" and m < 1:
                    continue
                spec = PartitionClassSpec(family, n, m, sub)
                assert class_sum(spec, fam) == psi_sum(spec, fam), (family, n, m, sub)


def test_lone_block_symmetry():
    # gluing neither lone letter is as frequent as gluing both
    for n in range(0, 3):
        for m in range(0, 3):
            if 2 * n + 2 * m + 2 > 8:
                continue
            both = class_count(PartitionClassSpec("S_primed", n, m, "olr"))
            neither = class_count(PartitionClassSpec("S_primed", n, m, "o0"))
            assert both == neither


def test_invalid_specs():
    with pytest.raises(InvalidSize):
        PartitionClassSpec("T", 1, 0)
    with pytest.raises(InvalidSize):
        PartitionClassSpec("S", 0, 0)
    with pytest.raises(InvalidSubclass):
        PartitionClassSpec("T", 1, 1, "olr")
    with pytest.raises(InvalidSubclass):
        PartitionClassSpec("T", 0, 1, "e")
    with pytest.raises(ValueError):
        PartitionClassSpec("Q", 1, 1)


def test_truncation_guard():
    rng = random.Random(5)
    fam = random_family(rng, 3)
    # a (4,1) T-cell can hold a block with 4 lefts and a right
    with pytest.raises(TruncationExceeded):
        class_sum(PartitionClassSpec("T", 4, 1), fam)


def test_cap_bounds_the_lattice_not_the_sweep(monkeypatch):
    d = random_pair_distribution(random.Random(3), 9)
    # swept and cached at the default cap; the lower cap must still refuse it
    moments_from_cumulants(d, 5, 4)
    # a "kreweras" cell sweeps 2(n+m) points for a lattice on n+m; the cap
    # counts the lattice, so order 8 passes under BIFREE_CAP=8
    monkeypatch.setenv("BIFREE_CAP", "8")
    ones = MultFn([1] * 8)
    assert convolve(ones, ones).value(8) == 1430  # |NC(8)|
    assert pinched_convolve(ones, ones).value(8) == 429  # |NC'(8)|
    moments_from_cumulants(d, 4, 4)
    with pytest.raises(CapExceeded):
        convolve(MultFn([1] * 9), MultFn([1] * 9))
    with pytest.raises(CapExceeded):
        pinched_convolve(MultFn([1] * 9), MultFn([1] * 9))
    with pytest.raises(CapExceeded):
        moments_from_cumulants(d, 5, 4)
    with pytest.raises(CapExceeded):
        cumulants_from_moments({(n, m): 1 for n in range(10)
                                for m in range(10 - n) if n + m >= 1})


def test_sweeps_are_shared_across_table_orders():
    # a cell is swept once, whatever the order of the tables weighed on it
    class_profiles.cache_clear()
    rng = random.Random(21)
    for trunc in (6, 8):
        fam = random_family(rng, trunc)
        sum_product_pair_cumulants(fam, 2, 2)
        product_pair_cumulants(fam, "b1b2", 2, 2)
    assert class_profiles.cache_info().misses == 2
