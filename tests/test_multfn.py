"""Multiplicative functions on NC and their two convolutions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree import (
    MultFn,
    convolve,
    enumerate_nc,
    enumerate_nc_prime,
    eval_on,
    kreweras,
    partition_from_text,
    phi_series,
    pinched_convolve,
)
from bifree.errors import NotNormalized

F = Fraction


def test_eval_on_blocks():
    f = MultFn([F(1), F(2), F(3)])
    pi = partition_from_text("{1,2|3|4}")
    assert eval_on(f, pi) == 2
    assert eval_on(f, partition_from_text("{1,2,3}")) == 3


def test_convolve_low_orders():
    f = MultFn([F(2), F(3), F(5)])
    g = MultFn([F(5), F(7), F(11)])
    c = convolve(f, g)
    assert c.value(1) == 10
    assert c.value(2) == f.value(2) * g.value(1) ** 2 + f.value(1) ** 2 * g.value(2)
    # NC(3): full, three (2,1) shapes, singletons
    expected = (
        f.value(3) * g.value(1) ** 3
        + 3 * f.value(2) * f.value(1) * g.value(2) * g.value(1)
        + f.value(1) ** 3 * g.value(3)
    )
    assert c.value(3) == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                min_size=6, max_size=6),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                min_size=6, max_size=6))
def test_convolve_commutes(fv, gv):
    f = MultFn([F(1)] + fv)
    g = MultFn([F(1)] + gv)
    assert convolve(f, g) == convolve(g, f)


def test_convolutions_match_brute_force():
    # the sweep's "kreweras" cells against NC(n) objects and their complements
    rng = random.Random(29)

    def rand_multfn(trunc):
        return MultFn([F(1)] + [F(rng.randint(-5, 5), rng.randint(1, 4))
                                for _ in range(trunc - 1)])

    for trunc in range(1, 8):
        f, g = rand_multfn(trunc), rand_multfn(trunc)
        c, p = convolve(f, g), pinched_convolve(f, g)
        for n in range(1, trunc + 1):
            assert c.value(n) == sum(eval_on(f, pi) * eval_on(g, kreweras(pi))
                                     for pi in enumerate_nc(n))
            assert p.value(n) == sum(eval_on(f, pi) * eval_on(g, kreweras(pi))
                                     for pi in enumerate_nc_prime(n))


def test_pinched_low_orders():
    f = MultFn([F(1), F(2), F(3)])
    g = MultFn([F(1), F(5), F(7)])
    p = pinched_convolve(f, g)
    assert p.value(1) == 1
    assert p.value(2) == g.value(2)
    assert p.value(3) == g.value(3) + f.value(2) * g.value(2)


def test_pinched_not_commutative():
    f = MultFn([F(1), F(1), F(0)])
    g = MultFn([F(1), F(0), F(0)])
    assert pinched_convolve(f, g) != pinched_convolve(g, f)


def test_pinched_requires_normalization():
    f = MultFn([F(2), F(1)])
    g = MultFn([F(1), F(1)])
    with pytest.raises(NotNormalized):
        pinched_convolve(f, g)
    with pytest.raises(NotNormalized):
        pinched_convolve(g, f)


def test_phi_series():
    f = MultFn([F(1), F(-2), F(1, 3)])
    s = phi_series(f)
    assert s.coeff(0) == 0
    assert s.coeff(1) == 1
    assert s.coeff(2) == -2
    assert s.coeff(3) == F(1, 3)
    assert s.trunc_order == 3


def test_identity_element():
    # delta = (1, 0, 0, ...) is the unit for plain convolution
    delta = MultFn([F(1), F(0), F(0), F(0)])
    f = MultFn([F(1), F(2), F(-1), F(5)])
    assert convolve(f, delta) == f
    assert convolve(delta, f) == f
