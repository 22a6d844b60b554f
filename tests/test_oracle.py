"""Class-sum lemmas: closed forms vs weighted partition sums."""

import random
from fractions import Fraction

import pytest

from bifree import (
    LEMMAS,
    BiFreeFamily,
    PairDistribution,
    PartitionClassSpec,
    check_lemma,
    class_count,
    class_sum,
    psi_sum,
    partial_S,
    partial_T,
    random_family,
    trim_pair,
)
from bifree.errors import NotNormalized
from bifree.oracle import _pinched
from bifree.transforms import _theta_pieces

F = Fraction


def test_lemma_table_is_complete():
    assert sorted(LEMMAS) == ["S1", "S2", "S3", "S4", "S5", "S6",
                              "T1", "T2", "T3"]
    for lemma_id, entry in LEMMAS.items():
        assert entry.family in ("T", "T_primed", "S", "S_primed")
        assert entry.description


def test_all_lemmas_on_one_table():
    rng = random.Random(3)
    fam = random_family(rng, 6, means=(1, 1))
    for lemma in sorted(LEMMAS):
        rep = check_lemma(lemma, fam)
        assert rep["status"] == "ok", rep
        assert rep["witness"] is None
        assert rep["cells"] == len(rep["grid"])
        assert rep["cells"] > 0


def test_lemmas_across_tables():
    for seed in (5, 11):
        rng = random.Random(seed)
        fam = random_family(rng, 7, means=(1, 1))
        for lemma in sorted(LEMMAS):
            assert check_lemma(lemma, fam)["status"] == "ok", (seed, lemma)


def test_lemma_requires_unit_means():
    rng = random.Random(9)
    fam = random_family(rng, 5, means=(1, 2))
    with pytest.raises(NotNormalized):
        check_lemma("T1", fam)


def test_smallest_class_counts():
    # the distinguished block of the lowest mixed cell lands on either pair
    assert class_count(PartitionClassSpec("T", 1, 1, "o")) == 1
    assert class_count(PartitionClassSpec("T", 1, 1, "e")) == 1
    assert class_count(PartitionClassSpec("S", 1, 1, "o")) == 2
    assert class_count(PartitionClassSpec("S", 1, 1, "e")) == 1
    # with no regular letters at all the two lone blocks either merge or not
    assert class_count(PartitionClassSpec("S_primed", 0, 0, "o0")) == 1
    assert class_count(PartitionClassSpec("S_primed", 0, 0, "olr")) == 1
    assert class_count(PartitionClassSpec("S_primed", 0, 0, "or")) == 0
    assert class_count(PartitionClassSpec("S_primed", 0, 0, "ol")) == 0


def test_lowest_cells_by_hand():
    p1 = PairDistribution(3, {(1, 0): F(1), (0, 1): F(1), (1, 1): F(2)})
    p2 = PairDistribution(3, {(1, 0): F(1), (0, 1): F(1), (1, 1): F(3)})
    fam = BiFreeFamily(p1, p2)
    # T(1,1): 'o' keeps the block of the left node on pair 1
    assert class_sum(PartitionClassSpec("T", 1, 1, "o"), fam) == 2
    assert class_sum(PartitionClassSpec("T", 1, 1, "e"), fam) == 3
    # S(1,1): 'o' adds the nested configuration kappa11^1 * kappa11^2
    assert class_sum(PartitionClassSpec("S", 1, 1, "o"), fam) == 2 * (1 + 3)
    assert class_sum(PartitionClassSpec("S", 1, 1, "e"), fam) == 3


def test_class_sum_equals_filtered_sum_on_lemma_grids():
    rng = random.Random(19)
    fam = random_family(rng, 6, means=(1, 1))
    for lemma in ("T1", "S1", "S3"):
        entry = LEMMAS[lemma]
        for n, m in entry.grid(fam.trunc):
            if 2 * (n + m) > 8:
                continue
            spec = PartitionClassSpec(entry.family, n, m, entry.subclass)
            assert class_sum(spec, fam) == psi_sum(spec, fam)


def _agree_to_order(full, trimmed):
    """Coefficients of `full` and `trimmed` agree through trimmed's order."""
    keys = set(full.coeffs) | set(trimmed.coeffs)
    return all(full.coeff(*k) == trimmed.coeff(*k) for k in keys
               if sum(k) <= trimmed.trunc_order)


def test_truncation_orders_never_overclaim():
    # a series labelled exact to order N must not change below N when the
    # table grows: rebuild every right side from the order-6 trim of an
    # order-8 family and compare
    fam = random_family(random.Random(4), 8, means=(1, 1))
    small = BiFreeFamily(trim_pair(fam.pair1, 6), trim_pair(fam.pair2, 6))
    p, p_small = _pinched(fam), _pinched(small)
    for lemma in sorted(LEMMAS):
        rhs = LEMMAS[lemma].rhs
        assert _agree_to_order(rhs(fam, p), rhs(small, p_small)), lemma
    d, d_small = fam.pair1, small.pair1
    for transform in (partial_T, partial_S):
        for method in ("cumulant", "analytic"):
            assert _agree_to_order(transform(d, method),
                                   transform(d_small, method)), (transform, method)
    for full, trimmed in zip(_theta_pieces(d, 8), _theta_pieces(d_small, 6)):
        assert _agree_to_order(full, trimmed)
