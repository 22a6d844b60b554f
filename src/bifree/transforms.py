"""Partial transforms of two-faced pairs and the product-identity checks.

The one-variable S-transform comes in two independently computed forms: the
moment route S(z) = ((1+z)/z) X(z) with h(X(z)) = 1+z, and the cumulant
route S(z) = c^{<-1>}(z)/z.  The two-variable partial transforms follow the
same pattern.  With H the ordered moment series, C = 1 + c_a + c_b + K the
cumulant series, u(z) = z/(1+c_a(z)) and X the inverses of the one-variable
moment series:

    T(z,w) = ((1+w)/w) (1 - (1+c_a(z)) / H(u(z), X_b(w)))          [moments]
           = 1 + (1/w) K(z, c_b^{<-1>}(w))                         [cumulants]

    S(z,w) = ((1+z)(1+w)/(zw)) (1 - (1+z+w) / H(X_a(z), X_b(w)))   [moments]
           = 1 + ((1+z+w)/(zw)) K(c_a^{<-1>}(z), c_b^{<-1>}(w))    [cumulants]

(The moment form of S is sometimes displayed with a bare z where 1+z+w is
meant; the form above is the one the cumulant identity, and the trivial
pair, force.)  The cumulant forms need the relevant face means to be 1,
which `rescale_pair` arranges; the moment forms only need nonzero means.

Divisibility by w (resp. zw) before the closing division is a structural
consequence of the vanishing slice identities h_a(u(z)) = 1 + c_a(z) and
h(X(z)) = 1 + z; `s2_divide_monomial` checks it and raises on a violation,
so it is never assumed.

`check_T_multiplicativity` and `check_S_multiplicativity` compare the
transform of a combined pair ((a1+a2, b1 b2), resp. (a1 a2, b1 b2)) with the
product of the pairs' transforms.  The combined pair's cumulants come from
constrained partition enumeration (bicum), the transforms from the series
pipeline; neither side reuses the other's machinery.  The S check also
verifies the equivalent mixed-cumulant form

    Kt(ca^{<-1>}, cb^{<-1>}) = Th_1 + Th_2 + ((1+z+w)/(zw)) Th_1 Th_2,

whose coefficient at (n,m) needs product cumulants only up to (n,m); this
reaches rectangle cells the literal series comparison cannot reach without
enumerating ground sets past the default cap.
"""

from __future__ import annotations

from .bicum import (
    PairDistribution,
    product_pair_distribution,
    series_C,
    series_H,
    series_K,
    sum_product_pair_distribution,
)
from .errors import NotNormalized, TruncationExceeded, ZeroMean, ZeroScale
from .multfn import MultFn, convolve, phi_series, pinched_convolve
from .series import (
    TruncatedSeries1,
    TruncatedSeries2,
    as_rational,
    s1_comp_inverse,
    s1_compose,
    s1_reciprocal,
    s1_shift_down,
    s2_compose_each_variable,
    s2_divide_monomial,
    s2_from_s1,
    s2_reciprocal,
)

METHODS = ("cumulant", "analytic")


def left_marginal(d):
    """The left face of a pair: its free cumulants kappa_{n,0} as a
    multiplicative function, whose phi_series is the cumulant series."""
    return MultFn([d.kappa(n, 0) for n in range(1, d.trunc + 1)])


def right_marginal(d):
    return MultFn([d.kappa(0, m) for m in range(1, d.trunc + 1)])


def moment_series_1var(d):
    """psi(z) = sum M_n z^n for a face d given by its free cumulants.

    Moments are the convolution of the cumulant function with the all-ones
    function, summed over NC(n); this stays on the enumeration side of the
    house and never touches series inversion.
    """
    return phi_series(convolve(d, MultFn([1] * d.trunc)))


def x_series(d):
    """X(z) = psi^{<-1>}(z), defined when the mean kappa_1 is nonzero."""
    if d.value(1) == 0:
        raise ZeroMean("mean is zero; the moment series has no inverse")
    return s1_comp_inverse(moment_series_1var(d))


def s_transform_1var(d, method="cumulant"):
    """S(z) through order trunc-1, by either of two independent routes."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if d.trunc < 2:
        raise ValueError("need cumulants through order 2 for a nontrivial S")
    if d.value(1) == 0:
        raise ZeroMean("mean is zero; no S-transform")
    if method == "cumulant":
        return s1_shift_down(s1_comp_inverse(phi_series(d)))
    x = x_series(d)
    one_plus_z = TruncatedSeries1({0: 1, 1: 1}, d.trunc - 1)
    return s1_shift_down(x) * one_plus_z


def rescale_pair(d, lam, mu):
    """The pair (lam*a, mu*b): kappa_{n,m} -> lam^n mu^m kappa_{n,m}."""
    lam, mu = as_rational(lam), as_rational(mu)
    if lam == 0 or mu == 0:
        raise ZeroScale("rescaling factors must be nonzero")
    return PairDistribution(
        d.trunc, {(n, m): lam ** n * mu ** m * v for (n, m), v in d.items()})


def _require_right_mean(d):
    if d.kappa(0, 1) != 1:
        raise NotNormalized(
            "right mean must be 1; apply rescale_pair(d, 1, 1/d.kappa(0,1))")


def _require_means(d):
    if d.kappa(1, 0) != 1 or d.kappa(0, 1) != 1:
        raise NotNormalized(
            "both means must be 1; apply "
            "rescale_pair(d, 1/d.kappa(1,0), 1/d.kappa(0,1))")


def partial_T(d, method="cumulant"):
    """Two-variable partial T-transform, exact through total order trunc-1.

    Needs the right mean equal to 1.  The moment route substitutes into the
    moment series H and divides by w, which fails unless the w^0 slice
    vanishes; the cumulant route reads the mixed-cumulant series directly.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    N = d.trunc
    if N < 2:
        raise ValueError("need a table of order >= 2")
    _require_right_mean(d)

    if method == "cumulant":
        cb = phi_series(right_marginal(d))
        expr = s2_compose_each_variable(
            series_K(d), TruncatedSeries1.identity(N), s1_comp_inverse(cb))
        t = s2_divide_monomial(expr, 0, 1)
        return TruncatedSeries2.one(t.trunc_order) + t

    ca = phi_series(left_marginal(d))
    one_plus_ca = TruncatedSeries1.one(N) + ca
    u = TruncatedSeries1.identity(N) * s1_reciprocal(one_plus_ca)
    comp = s2_compose_each_variable(series_H(d), u, x_series(right_marginal(d)))
    e = (TruncatedSeries2.one(N)
         - s2_from_s1(one_plus_ca, "z") * s2_reciprocal(comp))
    quot = s2_divide_monomial(e, 0, 1)
    one_plus_w = TruncatedSeries2({(0, 0): 1, (0, 1): 1}, quot.trunc_order)
    return one_plus_w * quot


def partial_S(d, method="cumulant"):
    """Two-variable partial S-transform, exact through total order trunc-2.

    Needs both means equal to 1.  The moment route divides the numerator
    by zw, which fails unless both axis slices vanish.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    N = d.trunc
    if N < 3:
        raise ValueError("need a table of order >= 3")
    _require_means(d)

    if method == "cumulant":
        cai = s1_comp_inverse(phi_series(left_marginal(d)))
        cbi = s1_comp_inverse(phi_series(right_marginal(d)))
        expr = s2_compose_each_variable(series_K(d), cai, cbi)
        quot = s2_divide_monomial(expr, 1, 1)
        lin = TruncatedSeries2({(0, 0): 1, (1, 0): 1, (0, 1): 1},
                               quot.trunc_order)
        return TruncatedSeries2.one(quot.trunc_order) + lin * quot

    comp = s2_compose_each_variable(
        series_H(d), x_series(left_marginal(d)), x_series(right_marginal(d)))
    lin = TruncatedSeries2({(0, 0): 1, (1, 0): 1, (0, 1): 1}, N)
    e = TruncatedSeries2.one(N) - lin * s2_reciprocal(comp)
    quot = s2_divide_monomial(e, 1, 1)
    n2 = quot.trunc_order
    corner = (TruncatedSeries2({(0, 0): 1, (1, 0): 1}, n2)
              * TruncatedSeries2({(0, 0): 1, (0, 1): 1}, n2))
    return corner * quot


# ---------------------------------------------------------------------------
# multiplicativity checks
# ---------------------------------------------------------------------------

def trim_pair(d, trunc):
    """The same pair distribution truncated to a lower order."""
    if trunc > d.trunc:
        raise TruncationExceeded(
            f"cannot extend a table of order {d.trunc} to {trunc}")
    return PairDistribution(
        trunc, {(n, m): v for (n, m), v in d.items() if n + m <= trunc})


def _sorted_cells(cells):
    return sorted(cells, key=lambda c: (c[0] + c[1], -c[0]))


def _compare_cells(lhs, rhs, cells):
    """Grid of coefficient comparisons; witness is the first mismatch.

    A cell is (n, m) for two-variable series, or a degree for one-variable
    series, which the grid and witness report under "degree".
    """
    witness = None
    grid = []
    for cell in cells:
        if isinstance(cell, tuple):
            a, b = lhs.coeff(*cell), rhs.coeff(*cell)
            entry = {"n": cell[0], "m": cell[1]}
        else:
            a, b = lhs.coeff(cell), rhs.coeff(cell)
            entry = {"degree": cell}
        entry.update(lhs=str(a), rhs=str(b))
        grid.append(entry)
        if witness is None and a != b:
            witness = entry
    return witness, grid


def check_T_multiplicativity(fam, order):
    """Compare T of (a1+a2, b1 b2) with the product of the pairs' T's.

    Coefficientwise through total degree `order`; the family tables must
    extend one order further (the closing division by w costs one order).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    need = order + 1
    if fam.trunc < need:
        raise TruncationExceeded(
            f"family tables of order {need} needed to compare at {order}")
    for i in (1, 2):
        _require_right_mean(fam.pair(i))
    combined = sum_product_pair_distribution(fam, need)
    lhs = partial_T(combined, "cumulant")
    rhs = (partial_T(trim_pair(fam.pair1, need), "cumulant")
           * partial_T(trim_pair(fam.pair2, need), "cumulant"))
    cells = _sorted_cells((n, m) for n in range(order + 1)
                          for m in range(order + 1 - n))
    witness, grid = _compare_cells(lhs, rhs, cells)
    return {
        "theorem": "T-multiplicativity",
        "order": order,
        "status": "ok" if witness is None else "mismatch",
        "witness": witness,
        "grid": grid,
    }


def _theta_pieces(d, big):
    """Th = K(c_a^{<-1>}(z), c_b^{<-1>}(w)), exact to big, and its
    zw-quotient Th-hat, exact to big-2."""
    theta = s2_compose_each_variable(
        series_K(d, big), s1_comp_inverse(phi_series(left_marginal(d))),
        s1_comp_inverse(phi_series(right_marginal(d))))
    return theta, s2_divide_monomial(theta, 1, 1)


def check_S_multiplicativity(fam, order, right_order="b1b2", rect=None):
    """Compare S of (a1 a2, b1 b2) (or b2 b1) with the pairs' S product.

    Two comparisons, independent in mechanism:

      * the mixed-cumulant identity Th~ = Th_1 + Th_2 + ((1+z+w)/zw) Th_1 Th_2
        on the simplex n+m <= order together with the rectangle
        1 <= n,m <= rect (default order // 2) -- cell (n,m) of the identity
        needs combined cumulants only up to (n,m), so the rectangle gives
        the literal n,m-bounded multiplicativity statement at enumeration
        cost 2(n+m) per cell;
      * the series comparison S~ = S_1 S_2 through total order order-2,
        which exercises the whole transform pipeline including the
        divisibility checks.

    Expected to fail for right_order='b2b1'; the report carries the first
    differing coefficient.
    """
    if order < 3:
        raise ValueError("order must be >= 3")
    if rect is None:
        rect = order // 2
    big = max(order, 2 * rect)
    if fam.trunc < big:
        raise TruncationExceeded(
            f"family tables of order {big} needed for this comparison")
    for i in (1, 2):
        _require_means(fam.pair(i))

    region = {(n, m) for n in range(1, order) for m in range(1, order + 1 - n)}
    region |= {(n, m) for n in range(1, rect + 1) for m in range(1, rect + 1)}
    region = _sorted_cells(region)
    n_max = max(max(n for n, _ in region), order)
    m_max = max(max(m for _, m in region), order)
    cells = set(region)
    cells |= {(k, 0) for k in range(1, n_max + 1)}
    cells |= {(0, k) for k in range(1, m_max + 1)}
    # cells outside this set stay unknown; every compared coefficient below
    # only reads cells inside it
    combined = product_pair_distribution(fam, right_order, big,
                                         _sorted_cells(cells))

    theta_c, _ = _theta_pieces(combined, big)
    theta_1, hat_1 = _theta_pieces(fam.pair1, big)
    theta_2, hat_2 = _theta_pieces(fam.pair2, big)
    prod_hat = hat_1 * hat_2
    shifted = TruncatedSeries2(
        {(i + 1, j + 1): v for (i, j), v in prod_hat.coeffs.items()
         if i + j + 2 <= big},
        big)
    lin = TruncatedSeries2({(0, 0): 1, (1, 0): 1, (0, 1): 1}, big)
    rhs = theta_1 + theta_2 + lin * shifted
    id_witness, id_grid = _compare_cells(theta_c, rhs, region)

    s_combined = partial_S(trim_pair(combined, order), "cumulant")
    s_pairs = (partial_S(trim_pair(fam.pair1, order), "cumulant")
               * partial_S(trim_pair(fam.pair2, order), "cumulant"))
    direct_cells = _sorted_cells((n, m) for n in range(order - 1)
                                 for m in range(order - 1 - n))
    s_witness, s_grid = _compare_cells(s_combined, s_pairs, direct_cells)

    witness = s_witness if s_witness is not None else id_witness
    return {
        "theorem": "S-multiplicativity",
        "right_order": right_order,
        "order": order,
        "rect": rect,
        "status": "ok" if witness is None else "mismatch",
        "witness": witness,
        "checks": [
            {"name": "mixed-cumulant identity", "witness": id_witness,
             "grid": id_grid},
            {"name": "series product", "order": order - 2,
             "witness": s_witness, "grid": s_grid},
        ],
    }


# ---------------------------------------------------------------------------
# foundational series identities
# ---------------------------------------------------------------------------

def _identity_report(identity, order, lhs, rhs, cells):
    witness, _ = _compare_cells(lhs, rhs, cells)
    return {
        "identity": identity,
        "order": order,
        "status": "ok" if witness is None else "mismatch",
        "witness": witness,
    }


def check_convolution_inversion(f, g):
    """phi_{f pinched* g} composed with phi_{f*g}^{<-1>} equals phi_f^{<-1>}."""
    lhs = s1_compose(phi_series(pinched_convolve(f, g)),
                     s1_comp_inverse(phi_series(convolve(f, g))))
    rhs = s1_comp_inverse(phi_series(f))
    order = min(lhs.trunc_order, rhs.trunc_order)
    return _identity_report("convolution-inversion", order, lhs, rhs,
                            range(order + 1))


def check_inverse_product(f, g):
    """z phi_{f*g}^{<-1>}(z) = phi_f^{<-1>}(z) phi_g^{<-1>}(z).

    Some statements of this identity show the pinched convolution on the
    left, but that version already fails at order 3 (the z^3 coefficient of
    z phi_{f pinched* g}^{<-1>} is -g_2, not -(f_2+g_2)); the plain
    convolution is what the surrounding derivations actually use, e.g. when
    splitting zw/(phi_{f2}^{<-1>} phi_{g2}^{<-1>}) into lone-pair factors.
    """
    z = TruncatedSeries1.identity(f.trunc)
    lhs = z * s1_comp_inverse(phi_series(convolve(f, g)))
    rhs = s1_comp_inverse(phi_series(f)) * s1_comp_inverse(phi_series(g))
    order = min(lhs.trunc_order, rhs.trunc_order)
    return _identity_report("inverse-product", order, lhs, rhs,
                            range(order + 1))


def check_bimoment_factorization(d):
    """h_a(z) + h_b(w) = h_a h_b / H + C(z h_a(z), w h_b(w)) for the pair d."""
    N = d.trunc
    one1 = TruncatedSeries1.one(N)
    ha = one1 + moment_series_1var(left_marginal(d))
    hb = one1 + moment_series_1var(right_marginal(d))
    ha2 = s2_from_s1(ha, "z")
    hb2 = s2_from_s1(hb, "w")
    lhs = ha2 + hb2
    z = TruncatedSeries1.identity(N)
    composed = s2_compose_each_variable(series_C(d), z * ha, z * hb)
    rhs = ha2 * hb2 * s2_reciprocal(series_H(d)) + composed
    cells = [(n, m) for n in range(N + 1) for m in range(N + 1 - n)]
    return _identity_report("bimoment-factorization", N, lhs, rhs, cells)
