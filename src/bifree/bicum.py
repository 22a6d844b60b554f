"""Cumulant tables of two-faced pairs, their moments, and product formulas.

A two-faced pair is described here purely by its table of (left, right)
cumulants kappa_{n,m} for 0 < n+m <= trunc.  Moments and cumulants determine
each other through the bi-non-crossing lattice:

    M_{n,m} = sum over pi in BNC(n,m) of prod over blocks V of kappa_{|V_l|,|V_r|}
    kappa_{n,m} = sum over pi of mu(pi, 1) prod over blocks of M_{|V_l|,|V_r|}

Both are weighings of the `_classsum` sweep: the moment sum weighs the
"bnc" cell (n, m), and the inversion weighs the "kreweras" cell, where
mu(pi, 1) is the product over the blocks W of K(pi) of mu(0_|W|, 1_|W|).

For two pairs (a1,b1), (a2,b2) with vanishing mixed cumulants, the cumulants
of combined pairs are class sums over constrained partitions (see _classsum):

  * (a1+a2, b1*b2): kappa_{n,m} sums over BNC(n, 2m) partitions joining the
    right doubling to the full partition, with no block mixing the two
    right-index parities; the parity of a block's rights decides which
    pair's table it reads, and the left entries collapse by multilinearity.
  * (a1*a2, b1*b2): the same over BNC(2n, 2m) with both sides doubled and
    parity purity on both sides.  The reversed right product b2*b1 flips
    which family the right parities feed, which genuinely changes the
    result (the families are not interchangeable once both faces double).
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._caps import check_trunc
from ._classsum import weigh
from .bnc import _mobius_0_1
from .errors import SizeMismatch, TruncationExceeded
from .series import TruncatedSeries2, as_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)

RIGHT_ORDERS = ("b1b2", "b2b1")


class PairDistribution:
    """Exact table of bi-free cumulants kappa_{n,m}, 0 < n+m <= trunc."""

    __slots__ = ("trunc", "_table")

    def __init__(self, trunc, kappa):
        trunc = int(trunc)
        if trunc < 1:
            raise ValueError("truncation order must be >= 1")
        check_trunc(trunc, "table")
        table = {}
        for (n, m), value in dict(kappa).items():
            n, m = int(n), int(m)
            if n < 0 or m < 0 or n + m < 1:
                raise ValueError(f"bad cumulant index ({n},{m})")
            if n + m > trunc:
                raise TruncationExceeded(
                    f"kappa({n},{m}) beyond truncation order {trunc}")
            value = as_rational(value)
            if value:
                table[(n, m)] = value
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_table", table)

    def __setattr__(self, name, value):
        raise AttributeError("PairDistribution is immutable")

    def kappa(self, n, m):
        if n < 0 or m < 0 or n + m < 1:
            raise ValueError(f"bad cumulant index ({n},{m})")
        if n + m > self.trunc:
            raise TruncationExceeded(
                f"kappa({n},{m}) beyond truncation order {self.trunc}")
        return self._table.get((n, m), _ZERO)

    def items(self):
        return sorted(self._table.items())

    def __eq__(self, other):
        if not isinstance(other, PairDistribution):
            return NotImplemented
        return self.trunc == other.trunc and self._table == other._table

    __hash__ = None

    def __repr__(self):
        return f"PairDistribution(trunc={self.trunc}, kappa={self._table!r})"

    def to_json(self):
        entries = [{"n": n, "m": m, "value": str(v)}
                   for (n, m), v in self.items()]
        return json.dumps({"trunc": self.trunc, "kappa": entries},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Parse to_json's format strictly: integer trunc, n and m, values
        given as ints or "p/q" strings, and each cell at most once."""
        data = json.loads(text)
        try:
            kappa = {}
            for e in data["kappa"]:
                cell = (_json_int(e["n"]), _json_int(e["m"]))
                if cell in kappa:
                    raise ValueError(f"duplicate cell {cell} in table")
                kappa[cell] = as_rational(e["value"])
            return cls(_json_int(data["trunc"]), kappa)
        except (TypeError, KeyError) as exc:
            raise ValueError(
                'table must be {"trunc": N, "kappa": [{"n": ..., "m": ..., '
                f'"value": ...}}, ...]}} ({exc})') from exc


def _json_int(x):
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"not an integer: {x!r}")


class BiFreeFamily:
    """Two bi-free two-faced pairs with cumulant tables of equal truncation."""

    __slots__ = ("pair1", "pair2")

    def __init__(self, pair1, pair2):
        if pair1.trunc != pair2.trunc:
            raise SizeMismatch("pair truncation orders differ")
        object.__setattr__(self, "pair1", pair1)
        object.__setattr__(self, "pair2", pair2)

    def __setattr__(self, name, value):
        raise AttributeError("BiFreeFamily is immutable")

    @property
    def trunc(self):
        return self.pair1.trunc

    def pair(self, index):
        if index == 1:
            return self.pair1
        if index == 2:
            return self.pair2
        raise ValueError("pair index must be 1 or 2")


def moments_from_cumulants(d, n, m):
    """The ordered moment M_{n,m} = phi(a^n b^m) of the pair d.

    Plain sum over BNC(n,m); exact, and independent of the series pipeline.
    """
    if n < 0 or m < 0:
        raise ValueError("moment indices must be >= 0")
    if n + m == 0:
        return _ONE
    if n + m > d.trunc:
        raise TruncationExceeded(
            f"moment ({n},{m}) needs cumulants beyond order {d.trunc}")
    return weigh("bnc", n, m, lambda _, nl, nr: d.kappa(nl, nr))


def cumulants_from_moments(moments):
    """Invert the moment formula by Mobius inversion on BNC.

    `moments` maps (n,m) -> M_{n,m} for all 0 < n+m <= N; the value at (0,0)
    is implicitly 1.  Returns the PairDistribution with the same order N.
    """
    moments = {(int(n), int(m)): as_rational(v)
               for (n, m), v in dict(moments).items() if (n, m) != (0, 0)}
    trunc = max(n + m for n, m in moments)
    for n in range(trunc + 1):
        for m in range(trunc + 1 - n):
            if n + m >= 1 and (n, m) not in moments:
                raise ValueError(f"moment table is missing ({n},{m})")

    def block_value(color, nl, nr):
        # color 1: a block of pi; color 2: a block of K(pi)
        return moments[(nl, nr)] if color == 1 else _mobius_0_1(nl + nr)

    return PairDistribution(trunc, {
        (n, m): weigh("kreweras", n, m, block_value)
        for (n, m) in moments})


def series_H(d, trunc=None):
    """Ordered moment series H(z,w) = sum M_{n,m} z^n w^m, constant 1."""
    trunc = d.trunc if trunc is None else int(trunc)
    if trunc > d.trunc:
        raise TruncationExceeded("moment series order exceeds the table")
    coeffs = {(0, 0): _ONE}
    for n in range(trunc + 1):
        for m in range(trunc + 1 - n):
            if n + m >= 1:
                coeffs[(n, m)] = moments_from_cumulants(d, n, m)
    return TruncatedSeries2(coeffs, trunc)


def series_C(d, trunc=None):
    """Cumulant series C(z,w) = 1 + sum kappa_{n,m} z^n w^m."""
    trunc = d.trunc if trunc is None else int(trunc)
    if trunc > d.trunc:
        raise TruncationExceeded("cumulant series order exceeds the table")
    coeffs = {(0, 0): _ONE}
    for (n, m), v in d.items():
        if n + m <= trunc:
            coeffs[(n, m)] = v
    return TruncatedSeries2(coeffs, trunc)


def series_K(d, trunc=None):
    """Mixed-cumulant series K(z,w) = C(z,w) - c_a(z) - c_b(w) - 1."""
    trunc = d.trunc if trunc is None else int(trunc)
    if trunc > d.trunc:
        raise TruncationExceeded("cumulant series order exceeds the table")
    coeffs = {}
    for (n, m), v in d.items():
        if n >= 1 and m >= 1 and n + m <= trunc:
            coeffs[(n, m)] = v
    return TruncatedSeries2(coeffs, trunc)


def _check_cell(fam, n, m):
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError(f"bad cumulant index ({n},{m})")
    if n + m > fam.trunc:
        raise TruncationExceeded(
            f"cell ({n},{m}) needs blocks beyond table order {fam.trunc}")


def _class_cumulant(fam, kind, n, m):
    """Weigh every bucket of a cell's class profiles; block color i reads
    the table of pair i."""
    pairs = {1: fam.pair1, 2: fam.pair2}

    def block_value(color, nl, nr):
        return pairs[color].kappa(nl, nr)

    return weigh(kind, n, m, block_value)


def sum_product_pair_cumulants(fam, n, m):
    """kappa_{n,m} of the pair (a1+a2, b1*b2) from the family's tables.

    The left face adds (left cumulants of a1+a2 are the sums), while a cell
    with m >= 1 expands b1*b2 into 2m right entries and sums the admissible
    partition class; the parity of a block's rights picks the table.
    """
    _check_cell(fam, n, m)
    if m == 0:
        return fam.pair1.kappa(n, 0) + fam.pair2.kappa(n, 0)
    return _class_cumulant(fam, "T", n, m)


def product_pair_cumulants(fam, right_order, n, m):
    """kappa_{n,m} of the pair (a1*a2, b1*b2) or (a1*a2, b2*b1).

    Both faces double, so the class lives in BNC(2n, 2m) with blocks pure on
    both sides.  Under right_order='b2b1' the right parities feed the
    opposite family, which changes which blocks are admissible.
    """
    if right_order not in RIGHT_ORDERS:
        raise ValueError(f"right_order must be one of {RIGHT_ORDERS}")
    _check_cell(fam, n, m)
    kind = "S" if right_order == "b1b2" else "S_flip_right"
    return _class_cumulant(fam, kind, n, m)


def _pair_table(fam, trunc, cells, cumulant):
    """PairDistribution of cumulant(n, m) on the given cells, or on the
    whole simplex 0 < n+m <= trunc."""
    trunc = fam.trunc if trunc is None else int(trunc)
    if trunc > fam.trunc:
        raise TruncationExceeded("requested order exceeds the family tables")
    if cells is None:
        cells = [(n, m) for n in range(trunc + 1)
                 for m in range(trunc + 1 - n) if n + m >= 1]
    return PairDistribution(trunc, {(n, m): cumulant(n, m) for n, m in cells})


def sum_product_pair_distribution(fam, trunc=None):
    """Full cumulant table of (a1+a2, b1*b2) up to the given order."""
    return _pair_table(fam, trunc, None,
                       lambda n, m: sum_product_pair_cumulants(fam, n, m))


def product_pair_distribution(fam, right_order, trunc=None, cells=None):
    """Cumulant table of (a1*a2, right product) on a simplex or given cells."""
    return _pair_table(
        fam, trunc, cells,
        lambda n, m: product_pair_cumulants(fam, right_order, n, m))


def random_pair_distribution(rng, trunc, means=None, max_num=6, max_den=6):
    """Seeded random rational cumulant table; means optionally pinned.

    means=None leaves kappa_{1,0}, kappa_{0,1} random but nonzero; otherwise
    a pair (left_mean, right_mean) fixes them exactly.
    """
    kappa = {}
    for n in range(trunc + 1):
        for m in range(trunc + 1 - n):
            if n + m >= 1:
                kappa[(n, m)] = Fraction(rng.randint(-max_num, max_num),
                                         rng.randint(1, max_den))
    if means is None:
        while kappa[(1, 0)] == 0:
            kappa[(1, 0)] = Fraction(rng.randint(-max_num, max_num),
                                     rng.randint(1, max_den))
        while kappa[(0, 1)] == 0:
            kappa[(0, 1)] = Fraction(rng.randint(-max_num, max_num),
                                     rng.randint(1, max_den))
    else:
        kappa[(1, 0)] = as_rational(means[0])
        kappa[(0, 1)] = as_rational(means[1])
    return PairDistribution(trunc, kappa)


def random_family(rng, trunc, means=None, max_num=6, max_den=6):
    return BiFreeFamily(
        random_pair_distribution(rng, trunc, means, max_num, max_den),
        random_pair_distribution(rng, trunc, means, max_num, max_den))
