"""Non-crossing partition lattice: enumeration, Kreweras, Moebius."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree import (
    catalan,
    enumerate_nc,
    enumerate_nc_prime,
    full_partition,
    join_is_full,
    kreweras,
    leq,
    mobius_nc,
    partition_from_text,
    partition_to_text,
    singletons_partition,
    unique_complement_check,
)
from bifree.errors import NotComparable


def test_counts_are_catalan():
    for n in range(1, 9):
        assert len(list(enumerate_nc(n))) == catalan(n)


def test_nc3_listing():
    got = [partition_to_text(p) for p in enumerate_nc(3)]
    assert got == [
        "{1,2,3}",
        "{1,2|3}",
        "{1,3|2}",
        "{1|2,3}",
        "{1|2|3}",
    ]


def test_prime_counts():
    # partitions where 1 is a singleton: Catalan(n-1) of them
    for n in range(1, 8):
        assert len(list(enumerate_nc_prime(n))) == catalan(n - 1)


def test_crossing_rejected():
    with pytest.raises(ValueError):
        partition_from_text("{1,3|2,4}")


def test_kreweras_example():
    p = partition_from_text("{1,6|2,3,4|5|7}")
    assert partition_to_text(kreweras(p)) == "{1,4,5|2|3|6,7}"


def test_kreweras_extremes():
    for n in range(1, 7):
        assert kreweras(full_partition(n)) == singletons_partition(n)
        assert kreweras(singletons_partition(n)) == full_partition(n)


def nc_partitions(max_n):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.sampled_from(list(enumerate_nc(n)))
    )


@settings(max_examples=60, deadline=None)
@given(nc_partitions(7))
def test_kreweras_block_count(p):
    assert len(p.blocks) + len(kreweras(p).blocks) == p.n + 1


@settings(max_examples=60, deadline=None)
@given(nc_partitions(7))
def test_kreweras_squared_is_rotation(p):
    # K^2 rotates labels down by one step
    q = kreweras(kreweras(p))
    rot = [tuple(sorted((i - 2) % p.n + 1 for i in b)) for b in p.blocks]
    assert sorted(q.blocks) == sorted(rot)


def test_unique_complement_small():
    # for every pi in NC(n), exactly one tau interleaves non-crossingly with
    # pi and joins the doubling pairing to the full partition -- and it is
    # the Kreweras complement
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert unique_complement_check(p) == kreweras(p)


def test_join_is_full():
    assert join_is_full([(1, 2), (3,)], [(2, 3), (1,)])
    assert not join_is_full([(1,), (2,), (3,)], [(1, 2), (3,)])


def _mobius_recursive(pi, sigma, cache=None):
    """Independent oracle: delta/zeta recursion over the interval."""
    if cache is None:
        cache = {}
    key = (pi, sigma)
    if key in cache:
        return cache[key]
    if pi == sigma:
        return Fraction(1)
    total = Fraction(0)
    for tau in enumerate_nc(pi.n):
        if leq(pi, tau) and leq(tau, sigma) and tau != sigma:
            total += _mobius_recursive(pi, tau, cache)
    cache[key] = -total
    return -total


def test_mobius_against_recursion():
    for n in range(1, 5):
        for pi in enumerate_nc(n):
            for sigma in enumerate_nc(n):
                if leq(pi, sigma):
                    assert mobius_nc(pi, sigma) == _mobius_recursive(pi, sigma)


def test_mobius_full_interval_values():
    # mu(0_n, 1_n) = (-1)^(n-1) * Catalan(n-1)
    for n in range(1, 8):
        got = mobius_nc(singletons_partition(n), full_partition(n))
        assert got == (-1) ** (n - 1) * catalan(n - 1)


def test_mobius_not_comparable():
    pi = partition_from_text("{1,2|3}")
    sigma = partition_from_text("{1,3|2}")
    with pytest.raises(NotComparable):
        mobius_nc(pi, sigma)


def test_mobius_row_sums_vanish():
    # sum over [pi, 1_n] of mu is zero unless the interval is a point
    for n in range(2, 6):
        top = full_partition(n)
        for pi in enumerate_nc(n):
            if pi == top:
                continue
            total = sum(
                mobius_nc(pi, tau)
                for tau in enumerate_nc(n)
                if leq(pi, tau)
            )
            assert total == 0
