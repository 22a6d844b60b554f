"""One- and two-variable transforms and the theorem-level checkers."""

import random
from fractions import Fraction

import pytest

from bifree import (
    BiFreeFamily,
    PairDistribution,
    check_S_multiplicativity,
    check_T_multiplicativity,
    check_bimoment_factorization,
    check_convolution_inversion,
    check_inverse_product,
    left_marginal,
    moment_series_1var,
    partial_S,
    partial_T,
    phi_series,
    random_pair_distribution,
    rescale_pair,
    right_marginal,
    MultFn,
    s_transform_1var,
    s1_compose,
    trim_pair,
    x_series,
)
from bifree.errors import NotNormalized, TruncationExceeded, ZeroMean, ZeroScale
from bifree.transforms import _compare_cells

F = Fraction


def simple_pair(c, trunc=4):
    return PairDistribution(
        trunc, {(1, 0): F(1), (0, 1): F(1), (1, 1): F(c)})


def simplex(order):
    return [(n, m) for n in range(order + 1) for m in range(order + 1 - n)]


def test_free_poisson_s_transform():
    # kappa_n = 1 for n <= 2 then 0: S has signed Catalan tail
    d = MultFn([F(1), F(1), F(0), F(0)])
    for method in ("cumulant", "analytic"):
        s = s_transform_1var(d, method)
        assert s.coeffs == {0: 1, 1: -1, 2: 2, 3: -5}


def test_moment_series_motzkin():
    d = MultFn([F(1), F(1), F(0), F(0), F(0)])
    psi = moment_series_1var(d)
    assert psi.coeffs == {1: 1, 2: 2, 3: 4, 4: 9, 5: 21}


def test_x_series_inverts_psi():
    d = MultFn([F(2), F(-1), F(1, 3)])
    x = x_series(d)
    psi = moment_series_1var(d)
    assert s1_compose(psi, x).coeffs == {1: 1}


def test_one_var_errors():
    with pytest.raises(ZeroMean):
        s_transform_1var(MultFn([F(0), F(1)]))
    d = MultFn([F(1), F(2)])
    with pytest.raises(TruncationExceeded):
        d.value(3)
    with pytest.raises(ValueError):
        s_transform_1var(MultFn([F(1)]))


def test_marginals():
    d = PairDistribution(3, {
        (1, 0): F(2), (0, 1): F(3), (2, 0): F(5), (0, 2): F(7), (1, 1): F(11)})
    assert [left_marginal(d).value(k) for k in (1, 2)] == [2, 5]
    assert [right_marginal(d).value(k) for k in (1, 2)] == [3, 7]
    assert phi_series(left_marginal(d)).coeffs == {1: 2, 2: 5}


def test_rescale_pair():
    d = PairDistribution(3, {(1, 0): F(2), (0, 1): F(3), (2, 1): F(5)})
    r = rescale_pair(d, F(1, 2), F(1, 3))
    assert r.kappa(1, 0) == 1
    assert r.kappa(0, 1) == 1
    assert r.kappa(2, 1) == F(5, 12)
    with pytest.raises(ZeroScale):
        rescale_pair(d, F(0), F(1))


def test_trim_pair():
    d = simple_pair(1, trunc=5)
    t = trim_pair(d, 3)
    assert t.trunc == 3
    assert t.kappa(1, 1) == 1
    with pytest.raises(TruncationExceeded):
        trim_pair(d, 7)


def test_partial_t_trivial_and_linear():
    d = PairDistribution(4, {(1, 0): F(1), (0, 1): F(1)})
    for method in ("cumulant", "analytic"):
        t = partial_T(d, method)
        assert t.coeff(0, 0) == 1
        assert all(v == 0 for (n, m), v in t.coeffs.items() if (n, m) != (0, 0))
    c = F(2, 3)
    d = simple_pair(c)
    for method in ("cumulant", "analytic"):
        t = partial_T(d, method)
        assert t.coeff(0, 0) == 1
        assert t.coeff(1, 0) == c
        assert t.coeff(0, 1) == 0


def test_partial_s_linear():
    c = F(2, 3)
    d = simple_pair(c)
    for method in ("cumulant", "analytic"):
        s = partial_S(d, method)
        assert s.coeff(0, 0) == 1 + c
        assert s.coeff(1, 0) == c
        assert s.coeff(0, 1) == c
        assert s.coeff(1, 1) == 0


def test_partial_transforms_need_normalization():
    bad = PairDistribution(3, {(1, 0): F(1), (0, 1): F(2)})
    with pytest.raises(NotNormalized):
        partial_T(bad)
    with pytest.raises(NotNormalized):
        partial_S(bad)
    with pytest.raises(ValueError):
        partial_T(PairDistribution(1, {(1, 0): F(1), (0, 1): F(1)}))
    with pytest.raises(ValueError):
        partial_S(PairDistribution(2, {(1, 0): F(1), (0, 1): F(1)}))


def test_methods_agree_on_random_tables():
    rng = random.Random(17)
    for _ in range(4):
        d = random_pair_distribution(rng, 6)
        dt = rescale_pair(d, F(1), 1 / d.kappa(0, 1))
        a, b = partial_T(dt, "cumulant"), partial_T(dt, "analytic")
        witness, _ = _compare_cells(a, b, simplex(5))
        assert witness is None, witness
        ds = rescale_pair(d, 1 / d.kappa(1, 0), 1 / d.kappa(0, 1))
        a, b = partial_S(ds, "cumulant"), partial_S(ds, "analytic")
        witness, _ = _compare_cells(a, b, simplex(4))
        assert witness is None, witness


def normalized_family(rng, trunc, left_too):
    pairs = []
    for _ in range(2):
        d = random_pair_distribution(rng, trunc)
        lam = 1 / d.kappa(1, 0) if left_too else F(1)
        pairs.append(rescale_pair(d, lam, 1 / d.kappa(0, 1)))
    return BiFreeFamily(*pairs)


def test_t_multiplicativity_small():
    rng = random.Random(23)
    fam = normalized_family(rng, 5, left_too=False)
    rep = check_T_multiplicativity(fam, 4)
    assert rep["status"] == "ok"
    assert rep["witness"] is None
    assert {(c["n"], c["m"]) for c in rep["grid"]} == {
        (n, m) for n in range(5) for m in range(5 - n)}


def test_t_multiplicativity_rejects_short_tables():
    rng = random.Random(23)
    fam = normalized_family(rng, 4, left_too=False)
    with pytest.raises(TruncationExceeded):
        check_T_multiplicativity(fam, 4)


def test_s_multiplicativity_small():
    rng = random.Random(29)
    fam = normalized_family(rng, 4, left_too=True)
    rep = check_S_multiplicativity(fam, 4)
    assert rep["status"] == "ok"
    assert {c["name"] for c in rep["checks"]} == {
        "mixed-cumulant identity", "series product"}


def test_s_multiplicativity_fails_for_reversed_product():
    d = simple_pair(1)
    fam = BiFreeFamily(d, d)
    rep = check_S_multiplicativity(fam, 4, right_order="b2b1")
    assert rep["status"] == "mismatch"
    # S-tilde constant term is 1 + kappa11(b2 b1 word) = 3, product gives 4
    assert rep["witness"] == {"n": 0, "m": 0, "lhs": "3", "rhs": "4"}


def test_identity_checks_on_random_inputs():
    rng = random.Random(41)
    for _ in range(5):
        fv = [F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(6)]
        gv = [F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(6)]
        f, g = MultFn(fv), MultFn(gv)
        assert check_convolution_inversion(f, g)["status"] == "ok"
        assert check_inverse_product(f, g)["status"] == "ok"
        d = random_pair_distribution(rng, 6)
        assert check_bimoment_factorization(d)["status"] == "ok"


def test_inverse_product_pinched_variant_is_wrong():
    # the z^3 coefficient of z*phi^{<-1>} drops the f_2 contribution if the
    # left side is built from the pinched convolution instead of the plain one
    from bifree import pinched_convolve
    from bifree.series import TruncatedSeries1, s1_comp_inverse

    f = MultFn([F(1), F(1), F(0)])
    g = MultFn([F(1), F(0), F(0)])
    z = TruncatedSeries1.identity(3)
    lhs = z * s1_comp_inverse(phi_series(pinched_convolve(f, g)))
    rhs = s1_comp_inverse(phi_series(f)) * s1_comp_inverse(phi_series(g))
    assert lhs.coeff(3) != rhs.coeff(3)
    assert check_inverse_product(f, g)["status"] == "ok"


def test_compare_cells_one_variable_witness():
    from bifree.series import TruncatedSeries1

    lhs = TruncatedSeries1({1: 1, 2: 3}, 3)
    rhs = TruncatedSeries1({1: 1, 2: 2}, 3)
    witness, grid = _compare_cells(lhs, rhs, range(4))
    assert witness == {"degree": 2, "lhs": "3", "rhs": "2"}
    assert [cell["degree"] for cell in grid] == [0, 1, 2, 3]
