"""Two-faced cumulant tables: moment transforms and product-word cells."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree import (
    BiFreeFamily,
    BNCPartition,
    BNCShape,
    PairDistribution,
    cumulants_from_moments,
    enumerate_bnc,
    mobius_bnc,
    moments_from_cumulants,
    product_pair_cumulants,
    product_pair_distribution,
    random_pair_distribution,
    series_C,
    series_H,
    series_K,
    sum_product_pair_cumulants,
    sum_product_pair_distribution,
)
from bifree._caps import MAX_TRUNC
from bifree.errors import CapExceeded, TruncationExceeded

F = Fraction


def simple_pair(c, trunc=4):
    return PairDistribution(
        trunc, {(1, 0): F(1), (0, 1): F(1), (1, 1): F(c)})


def test_moments_low_cells():
    d = PairDistribution(4, {
        (1, 0): F(2), (0, 1): F(3), (1, 1): F(5),
        (2, 0): F(7), (2, 1): F(11),
    })
    assert moments_from_cumulants(d, 1, 0) == 2
    assert moments_from_cumulants(d, 1, 1) == 5 + 2 * 3
    # BNC(LLR): blocks refine across {2 lefts, 1 right}
    assert moments_from_cumulants(d, 2, 0) == 7 + 4
    expected_21 = 11 + 7 * 3 + 2 * (5 * 2) + 4 * 3
    assert moments_from_cumulants(d, 2, 1) == expected_21


def _block_sides(n, blk):
    nl = sum(1 for p in blk if p <= n)
    return nl, len(blk) - nl


def test_moments_match_bnc_enumeration():
    rng = random.Random(41)
    d = random_pair_distribution(rng, 7)
    for n in range(8):
        for m in range(8 - n):
            if n + m < 1:
                continue
            expected = F(0)
            for pi in enumerate_bnc(BNCShape.chi(n, m)):
                term = F(1)
                for blk in pi.blocks:
                    term *= d.kappa(*_block_sides(n, blk))
                expected += term
            assert moments_from_cumulants(d, n, m) == expected, (n, m)


def test_cumulants_match_mobius_sum():
    # an arbitrary table, not the moments of any cumulant table
    rng = random.Random(43)
    moments = {(n, m): F(rng.randint(-6, 6), rng.randint(1, 5))
               for n in range(7) for m in range(7 - n) if n + m >= 1}
    got = cumulants_from_moments(moments)
    for (n, m) in moments:
        shape = BNCShape.chi(n, m)
        one = BNCPartition(shape, (tuple(range(1, n + m + 1)),))
        expected = F(0)
        for pi in enumerate_bnc(shape):
            term = mobius_bnc(pi, one)
            for blk in pi.blocks:
                term *= moments[_block_sides(n, blk)]
            expected += term
        assert got.kappa(n, m) == expected, (n, m)


def test_round_trip_random_tables():
    rng = random.Random(31)
    for _ in range(5):
        d = random_pair_distribution(rng, 5)
        moments = {
            (n, m): moments_from_cumulants(d, n, m)
            for n in range(6) for m in range(6 - n) if n + m >= 1
        }
        assert cumulants_from_moments(moments) == d


def test_cumulants_from_moments_needs_all_cells():
    with pytest.raises(ValueError):
        cumulants_from_moments({(1, 0): F(1), (2, 0): F(1)})


def test_series_for_simplest_mixed_table():
    c = F(1, 2)
    d = simple_pair(c)
    h = series_H(d)
    assert h.coeff(0, 0) == 1
    assert h.coeff(1, 0) == 1
    assert h.coeff(0, 1) == 1
    assert h.coeff(1, 1) == c + 1
    k = series_K(d)
    assert k.coeff(1, 1) == c
    assert k.coeff(1, 0) == 0
    cc = series_C(d)
    assert cc.coeff(1, 0) == 1
    assert cc.coeff(1, 1) == c
    assert cc.coeff(0, 0) == 1  # C carries the leading 1 by convention


def test_kappa_accessor_guards():
    d = simple_pair(1, trunc=3)
    assert d.kappa(2, 0) == 0
    with pytest.raises(TruncationExceeded):
        d.kappa(3, 1)


def test_json_round_trip():
    d = simple_pair(F(-3, 7))
    assert PairDistribution.from_json(d.to_json()) == d


def test_sum_product_lowest_mixed_cell():
    fam = BiFreeFamily(simple_pair(2), simple_pair(3))
    assert sum_product_pair_cumulants(fam, 1, 1) == 5
    assert sum_product_pair_cumulants(fam, 1, 0) == 2
    assert sum_product_pair_cumulants(fam, 0, 1) == 1  # kappa_1(b1 b2) with means 1


def test_product_word_order_matters():
    fam = BiFreeFamily(simple_pair(2), simple_pair(3))
    assert product_pair_cumulants(fam, "b1b2", 1, 1) == 2 + 3 + 2 * 3
    assert product_pair_cumulants(fam, "b2b1", 1, 1) == 2 + 3


def test_distribution_builders_agree_with_cells():
    rng = random.Random(8)
    fam = BiFreeFamily(
        random_pair_distribution(rng, 4, means=(1, 1)),
        random_pair_distribution(rng, 4, means=(1, 1)),
    )
    combined = sum_product_pair_distribution(fam)
    for n in range(5):
        for m in range(5 - n):
            if n + m >= 1:
                assert combined.kappa(n, m) == sum_product_pair_cumulants(fam, n, m)
    prod = product_pair_distribution(fam, "b1b2")
    for n in range(5):
        for m in range(5 - n):
            if n + m >= 1:
                assert prod.kappa(n, m) == product_pair_cumulants(fam, "b1b2", n, m)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_round_trip_property(seed):
    rng = random.Random(seed)
    d = random_pair_distribution(rng, 4)
    moments = {
        (n, m): moments_from_cumulants(d, n, m)
        for n in range(5) for m in range(5 - n) if n + m >= 1
    }
    assert cumulants_from_moments(moments) == d


def test_random_tables_honor_pinned_means():
    rng = random.Random(77)
    d = random_pair_distribution(rng, 5, means=(1, F(2)))
    assert d.kappa(1, 0) == 1
    assert d.kappa(0, 1) == 2


def test_table_order_limit():
    # the limit is checked before any cell is read, so a huge order fails
    # at once, with its own text
    with pytest.raises(CapExceeded) as exc:
        PairDistribution(10 ** 6, {(1, 0): 1, (0, 1): 1})
    assert "MAX_TRUNC" in str(exc.value)
    assert "BIFREE_CAP" not in str(exc.value)
    big = PairDistribution(MAX_TRUNC, {(1, 0): 1, (0, 1): 1})
    assert big.trunc == MAX_TRUNC
    with pytest.raises(CapExceeded):
        PairDistribution.from_json(
            '{"trunc": %d, "kappa": [{"n": 1, "m": 0, "value": "1"}]}'
            % (MAX_TRUNC + 1))
