"""Truncated formal power series: arithmetic, composition, inversion."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree.series import (
    TruncatedSeries1,
    TruncatedSeries2,
    s1_comp_inverse,
    s1_compose,
    s1_reciprocal,
    s1_shift_down,
    s2_compose_each_variable,
    s2_divide_monomial,
    s2_from_s1,
    s2_reciprocal,
    render_series_1,
    render_series_2,
    as_rational,
)
from bifree._caps import MAX_TRUNC
from bifree.errors import (
    CapExceeded,
    NonzeroConstantTerm,
    NotInvertible,
    WDivisionError,
    ZeroConstantTerm,
)

from _reference import comp_inverse_fixed_point

F = Fraction


def s1(coeffs, trunc):
    return TruncatedSeries1({k: F(v) for k, v in coeffs.items()}, trunc)


def s2(coeffs, trunc):
    return TruncatedSeries2({k: F(v) for k, v in coeffs.items()}, trunc)


def test_comp_inverse_catalan_signs():
    # inverse of z + z^2 has signed Catalan coefficients
    f = s1({1: 1, 2: 1}, 5)
    g = s1_comp_inverse(f)
    assert g.coeffs == {1: 1, 2: -1, 3: 2, 4: -5, 5: 14}


def test_comp_inverse_round_trip():
    f = s1({1: 2, 2: -1, 3: F(1, 3), 4: 5}, 6)
    g = s1_comp_inverse(f)
    assert s1_compose(f, g).coeffs == {1: 1}
    assert s1_compose(g, f).coeffs == {1: 1}


def test_reciprocal_square():
    f = s1({0: 1, 1: 2, 2: 1}, 2)
    assert s1_reciprocal(f).coeffs == {0: 1, 1: -2, 2: 3}


def test_compose_restores_identity():
    f = s1({1: 1, 2: 1}, 3)
    g = s1({1: 1, 2: -1, 3: 2}, 3)
    assert s1_compose(f, g).coeffs == {1: 1}


def test_mul_basic():
    f = s1({1: 1, 2: 1}, 4)
    g = s1({1: 1, 2: -1}, 4)
    assert (f * g).coeffs == {2: 1, 4: -1}


def test_compose_with_monomial():
    f = s1({0: 1, 1: 1, 2: 1}, 4)
    assert s1_compose(f, s1({2: 1}, 4)).coeffs == {0: 1, 2: 1, 4: 1}


def test_shift_down():
    f = s1({1: 3, 4: -2}, 5)
    assert s1_shift_down(f).coeffs == {0: 3, 3: -2}
    assert s1_shift_down(f).trunc_order == 4


def test_mul_truncation_takes_min():
    a = s1({1: 1}, 5)
    b = s1({1: 1}, 3)
    assert (a * b).trunc_order == 3


def test_error_paths():
    with pytest.raises(ZeroConstantTerm):
        s1_reciprocal(s1({1: 1}, 3))
    with pytest.raises(NotInvertible):
        s1_comp_inverse(s1({0: 1, 1: 1}, 3))
    with pytest.raises(NotInvertible):
        s1_comp_inverse(s1({2: 1}, 3))
    with pytest.raises(NonzeroConstantTerm):
        s1_compose(s1({1: 1}, 3), s1({0: 1}, 3))


def test_two_var_compose_each_variable():
    f = s2({(1, 1): 1}, 3)
    sub_z = s1({1: 1}, 3)
    sub_w = s1({1: 1, 2: -1}, 3)
    out = s2_compose_each_variable(f, sub_z, sub_w)
    assert out.coeff(1, 1) == 1
    assert out.coeff(1, 2) == -1

    g = s2({(2, 0): 1, (0, 2): 1}, 4)
    out = s2_compose_each_variable(g, s1({1: 2}, 4), s1({}, 4))
    assert out.coeff(2, 0) == 4
    assert out.coeff(0, 2) == 0


def test_two_var_reciprocal():
    f = s2({(0, 0): 1, (1, 0): 1, (0, 1): 1}, 2)
    g = s2_reciprocal(f)
    prod = f * g
    assert prod.coeff(0, 0) == 1
    assert prod.coeff(1, 0) == 0
    assert prod.coeff(1, 1) == 0


def test_divide_monomial():
    f = s2({(1, 1): 2, (2, 1): -3}, 4)
    g = s2_divide_monomial(f, 1, 1)
    assert g.coeff(0, 0) == 2
    assert g.coeff(1, 0) == -3
    assert g.trunc_order == 2
    with pytest.raises(WDivisionError):
        s2_divide_monomial(s2({(1, 0): 1}, 3), 0, 1)


def test_s2_from_s1():
    f = s1({1: 1, 2: F(1, 2)}, 4)
    g = s2_from_s1(f, "w")
    assert g.coeff(0, 2) == F(1, 2)
    assert g.coeff(2, 0) == 0


def test_render():
    assert render_series_1(s1({0: 1, 1: -1, 2: 2}, 2)) == "1 - z + 2*z^2"
    assert render_series_1(s1({}, 2)) == "0"
    assert render_series_1(s1({1: F(2, 3)}, 2)) == "2/3*z"
    assert render_series_2(s2({(0, 0): 1, (1, 1): F(2, 3)}, 3)) == "1 + 2/3*z*w"


def test_as_rational():
    assert as_rational("3/4") == F(3, 4)
    assert as_rational(2) == F(2)
    assert as_rational(F(1, 3)) == F(1, 3)


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _build_series(vals, keys, trunc, unit_linear):
    coeffs = dict(zip(keys, vals))
    if unit_linear:
        coeffs[1] = F(1)
    return TruncatedSeries1(coeffs, trunc)


def series_strategy(trunc, zero_const=False, unit_linear=False):
    lo = 1 if zero_const else 0
    keys = list(range(lo, trunc + 1))
    return st.lists(small_fraction, min_size=len(keys), max_size=len(keys)).map(
        lambda vals: _build_series(vals, keys, trunc, unit_linear)
    )


@settings(max_examples=40, deadline=None)
@given(series_strategy(5), series_strategy(5), series_strategy(5))
def test_ring_axioms(a, b, c):
    ab = a * b
    ba = b * a
    assert ab.coeffs == ba.coeffs
    left = a * (b + c)
    right = a * b + a * c
    assert left.coeffs == right.coeffs


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 12).flatmap(
    lambda trunc: series_strategy(trunc, zero_const=True, unit_linear=True)))
def test_comp_inverse_is_two_sided(f):
    g = s1_comp_inverse(f)
    assert s1_compose(f, g).coeffs == {1: F(1)}
    assert s1_compose(g, f).coeffs == {1: F(1)}


@settings(max_examples=25, deadline=None)
@given(series_strategy(5))
def test_reciprocal_identity(f):
    if f.coeff(0) == 0:
        return
    g = s1_reciprocal(f)
    assert (f * g).coeffs == {0: F(1)}


def _random_series(rng, trunc, density, lo=0):
    """Entries p/q with |p| <= 6, q <= 6 at each degree >= lo with the
    given probability; zero entries are dropped by the constructor."""
    return TruncatedSeries1(
        {d: F(rng.randint(-6, 6), rng.randint(1, 6))
         for d in range(lo, trunc + 1) if rng.random() < density}, trunc)


def _invertible_cases():
    rng = random.Random(2024)
    # every order to 16, then a few up to 30: the reference is O(N^4)
    for trunc in [*range(1, 17), 20, 24, 30]:
        for density in (1.0, 0.25):
            f = _random_series(rng, trunc, density, lo=2)
            # a linear coefficient other than 1, of either sign
            f1 = F(rng.choice([-3, -2, 2, 5]), rng.randint(1, 4))
            yield f + TruncatedSeries1({1: f1}, trunc)
            yield f + TruncatedSeries1.identity(trunc)
    yield TruncatedSeries1({1: 1, 7: 1}, 30)
    yield TruncatedSeries1({1: F(-1, 2), 3: -4, 11: F(5, 3)}, 30)


def test_lagrange_inverse_matches_fixed_point():
    for f in _invertible_cases():
        g = s1_comp_inverse(f)
        ref = comp_inverse_fixed_point(f)
        assert g.trunc_order == ref.trunc_order == f.trunc_order
        assert g.coeffs == ref.coeffs, str(f)


def test_inverse_of_the_variable_is_the_variable():
    z = TruncatedSeries1.identity(60)
    assert s1_comp_inverse(z).coeffs == {1: 1}
    # a sparse series stays sparse: the inverse of z + z^7 has terms in
    # degrees 1 mod 6 only
    g = s1_comp_inverse(TruncatedSeries1({1: 1, 7: 1}, 60))
    assert all(d % 6 == 1 for d in g.coeffs)


def _exact(*series):
    return all(type(v) is Fraction for f in series for v in f.coeffs.values())


def test_every_result_coefficient_is_a_fraction():
    # an int `/` slipped into an integer kernel would give a float
    rng = random.Random(7)
    for trunc in (1, 2, 5, 9):
        for _ in range(5):
            a = _random_series(rng, trunc, 0.8)
            b = _random_series(rng, trunc, 0.8)
            inner = _random_series(rng, trunc, 0.8, lo=1)
            unit = (_random_series(rng, trunc, 0.8, lo=2)
                    + TruncatedSeries1({1: F(rng.randint(1, 5), 3)}, trunc))
            one = TruncatedSeries1.one(trunc)
            two = TruncatedSeries2(
                {(p, q): F(rng.randint(-6, 6), rng.randint(1, 6))
                 for p in range(trunc + 1) for q in range(trunc + 1 - p)}, trunc)
            two2 = s2_from_s1(a, "w")
            z = TruncatedSeries2({(1, 0): 1}, trunc)
            assert _exact(a * b, a + b, s1_compose(a, inner),
                          s1_comp_inverse(unit), s1_reciprocal(one + inner),
                          two * two2, two + two2,
                          s2_reciprocal(TruncatedSeries2.one(trunc) + two * z),
                          s2_compose_each_variable(two, inner, unit))


def test_series_order_limit():
    TruncatedSeries1({1: 1}, MAX_TRUNC)
    TruncatedSeries2({(1, 0): 1}, MAX_TRUNC)
    for build in (lambda n: TruncatedSeries1({1: 1}, n),
                  lambda n: TruncatedSeries2({(1, 0): 1}, n)):
        with pytest.raises(CapExceeded) as exc:
            build(MAX_TRUNC + 1)
        assert "MAX_TRUNC" in str(exc.value)
        assert "BIFREE_CAP" not in str(exc.value)
