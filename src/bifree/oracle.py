"""Partition-class sums behind the transform multiplicativity proofs.

A class here is a set of bi-non-crossing partitions pinned down by three
constraints: the join with a fixed doubling partition is full (the blocks
glue the doubled word back together), every block is pure in the pair it
draws entries from, and a distinguished block lands in a prescribed spot
(the subclass).  Four families arise:

    T        BNC(n, 2m)      against left singletons + right pairs
    T_primed BNC(n, 2m+1)    same with a lone first right letter
    S        BNC(2n, 2m)     against pairs on both sides
    S_primed BNC(2n+1, 2m+1) pairs on both sides, lone first letters glued

For T and S the subclass of a partition is read off the distinguished
block -- the block of the first left node (T), or the two-sided block with
the smallest node label (S; there is exactly one) -- and named 'o' or 'e'
for whether that block sits in the first or second pair.  For S_primed the
four subclasses o0 / or / ol / olr record whether the blocks of the two
lone letters stay one-sided or merge.

Each weighted class sum has a closed form: a substitution of pinched
convolution series into a mixed-cumulant series.  `check_lemma` compares
the two routes coefficientwise; the left side comes from the incremental
sweep (`class_sum`), the right side from the series calculus, and
`psi_sum` recomputes the left side by filtering a full enumeration so the
sweep itself never goes unchecked.
"""

from __future__ import annotations

from typing import NamedTuple

from fractions import Fraction

from ._classsum import weigh
from .bicum import BiFreeFamily, PairDistribution, series_K
from .bnc import enumerate_bnc, sigma_doubling
from .errors import (
    InvalidSize,
    InvalidSubclass,
    InvariantViolation,
    NotNormalized,
    TruncationExceeded,
)
from .multfn import MultFn, phi_series, pinched_convolve
from .ncpart import join_is_full
from .series import (
    TruncatedSeries1,
    TruncatedSeries2,
    s1_compose,
    s1_reciprocal,
    s1_shift_down,
    s2_compose_each_variable,
    s2_divide_monomial,
    s2_from_s1,
)
from .transforms import _compare_cells, left_marginal, right_marginal

FAMILIES = ("T", "T_primed", "S", "S_primed")

_SUBCLASSES = {
    "T": ("all", "e", "o"),
    "T_primed": ("all",),
    "S": ("all", "e", "o"),
    "S_primed": ("all", "o0", "or", "ol", "olr"),
}

# which pair a block of engine color 1/2 draws its cumulant from; the primed
# words start with the second factor, so label parity flips there
_PAIR_OF_COLOR = {
    "T": {1: 1, 2: 2},
    "T_primed": {1: 2, 2: 1},
    "S": {1: 1, 2: 2},
    "S_primed": {1: 2, 2: 1},
}

_SIGMA_KIND = {
    "T": "left_single_right_double",
    "T_primed": "primed_T",
    "S": "both_double",
    "S_primed": "primed_S",
}


class PartitionClassSpec:
    """One cell of one class family, optionally restricted to a subclass."""

    __slots__ = ("family", "n", "m", "subclass")

    def __init__(self, family, n, m, subclass="all"):
        if family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        n, m = int(n), int(m)
        if family == "T" and (n < 0 or m < 1):
            raise InvalidSize("family T needs n >= 0, m >= 1")
        if family == "S" and (n < 0 or m < 0 or n + m < 1):
            raise InvalidSize("family S needs n, m >= 0 with n + m >= 1")
        if family in ("T_primed", "S_primed") and (n < 0 or m < 0):
            raise InvalidSize(f"family {family} needs n, m >= 0")
        if subclass not in _SUBCLASSES[family]:
            raise InvalidSubclass(
                f"family {family} has subclasses {_SUBCLASSES[family]}, "
                f"not {subclass!r}")
        if subclass != "all":
            if family == "T" and n < 1:
                raise InvalidSubclass("T subclasses need a left node")
            if family == "S" and (n < 1 or m < 1):
                raise InvalidSubclass("S subclasses need nodes on both sides")
        self.family = family
        self.n = n
        self.m = m
        self.subclass = subclass

    def __repr__(self):
        return (f"PartitionClassSpec({self.family!r}, {self.n}, {self.m}, "
                f"{self.subclass!r})")


def _side_maps(family, n, m):
    """(L, number of rights, pair-of-left-label, pair-of-right-label)."""
    flip = family in ("T_primed", "S_primed")

    def by_parity(lab):
        c = 1 if lab % 2 else 2
        return 3 - c if flip else c

    if family == "T":
        return n, 2 * m, None, by_parity
    if family == "T_primed":
        return n, 2 * m + 1, None, by_parity
    if family == "S":
        return 2 * n, 2 * m, by_parity, by_parity
    return 2 * n + 1, 2 * m + 1, by_parity, by_parity


def _block_split(L, block):
    lefts = [x for x in block if x <= L]
    rights = [x - L for x in block if x > L]
    return lefts, rights


def _purity_and_tag(family, n, m, pi):
    """(pure?, subclass tag) of a join-connected partition, tag '' if impure.

    Tags follow the distinguished-block conventions in the module
    docstring; label parity (not the pair index) decides 'o' versus 'e' so
    that the convention is the same for plain and primed families.
    """
    L, _, pol, por = _side_maps(family, n, m)
    rights_only_purity = family in ("T", "T_primed")
    block_of = {}
    for b in pi.blocks:
        lefts, rights = _block_split(L, b)
        rp = {por(j) for j in rights}
        if len(rp) > 1:
            return False, ""
        if not rights_only_purity:
            lp = {pol(k) for k in lefts}
            if len(lp) > 1 or (lp and rp and lp != rp):
                return False, ""
        for x in b:
            block_of[x] = b

    if family == "T":
        if n == 0:
            return True, "all"
        _, rights = _block_split(L, block_of[1])
        if not rights:
            raise InvariantViolation(
                "join-connected T block of the first left has no rights")
        return True, "o" if rights[0] % 2 else "e"
    if family == "T_primed":
        return True, "all"
    if family == "S":
        if n == 0 or m == 0:
            return True, "all"
        best = None
        for b in pi.blocks:
            lefts, rights = _block_split(L, b)
            if lefts and rights:
                lab = min(min(lefts), min(rights))
                if best is None or lab < best[0]:
                    best = (lab, lefts[0])
        if best is None:
            raise InvariantViolation("no two-sided block in a connected S class")
        return True, "o" if best[1] % 2 else "e"
    b0 = block_of[1]
    blast = block_of[L + 1]
    if b0 is blast:
        return True, "olr"
    b0_rights = any(x > L for x in b0)
    blast_lefts = any(x <= L for x in blast)
    if not b0_rights and not blast_lefts:
        return True, "o0"
    if not b0_rights:
        return True, "or"
    if not blast_lefts:
        return True, "ol"
    raise InvariantViolation("both lone-letter blocks two-sided yet distinct")


def enumerate_class(spec):
    """Filter the full BNC enumeration down to the class. Brute force."""
    sigma = sigma_doubling(_SIGMA_KIND[spec.family], spec.n, spec.m)
    out = []
    for pi in enumerate_bnc(sigma.shape):
        if not join_is_full(pi, sigma):
            continue
        pure, tag = _purity_and_tag(spec.family, spec.n, spec.m, pi)
        if not pure:
            continue
        if spec.subclass == "all" or tag == spec.subclass:
            out.append(pi)
    return out


def psi_sum(spec, fam):
    """Weighted class sum by explicit enumeration.

    Each block contributes the cumulant of its pair at (lefts, rights);
    blocks without a pair of their own (all-left blocks of the T families)
    cannot occur in a join-connected partition.
    """
    L, _, pol, por = _side_maps(spec.family, spec.n, spec.m)
    total = Fraction(0)
    for pi in enumerate_class(spec):
        term = Fraction(1)
        for b in pi.blocks:
            lefts, rights = _block_split(L, b)
            if rights:
                pair = por(rights[0])
            elif pol is None:
                raise InvariantViolation("all-left block in a T-family class")
            else:
                pair = pol(lefts[0])
            term *= fam.pair(pair).kappa(len(lefts), len(rights))
        total += term
    return total


def _max_block(family, n, m):
    """Largest pure block a cell can hold (lefts plus one parity of rights)."""
    if family == "T":
        return n + m
    if family == "T_primed":
        return n + m + 1
    if family == "S":
        return n + m
    return n + m + 2


def class_sum(spec, fam):
    """Weighted class sum via the incremental sweep (the fast route).

    The sweep depends only on the cell, so it is shared between tables of
    different truncation orders.
    """
    bound = _max_block(spec.family, spec.n, spec.m)
    if bound > fam.trunc:
        raise TruncationExceeded(
            f"cell ({spec.n},{spec.m}) of family {spec.family} holds blocks "
            f"of size {bound}, beyond tables of order {fam.trunc}")
    pair_of = _PAIR_OF_COLOR[spec.family]

    def block_value(color, nl, nr):
        return fam.pair(pair_of[color]).kappa(nl, nr)

    tag = None if spec.subclass == "all" else spec.subclass
    return weigh(spec.family, spec.n, spec.m, block_value, tag)


def class_count(spec):
    """Number of partitions in the class, via the sweep."""
    tag = None if spec.subclass == "all" else spec.subclass
    return int(weigh(spec.family, spec.n, spec.m, lambda *_: 1, tag))


# ---------------------------------------------------------------------------
# the nine class-sum identities
# ---------------------------------------------------------------------------

class _Pinched(NamedTuple):
    """The faces of a family and the pinched series built from them.

    f1, f2 (g1, g2) are the left (right) cumulant sequences of pairs 1 and
    2 as multiplicative functions; f12 is phi_{f1 pinched* f2}, f21 is
    phi_{f2 pinched* f1}, and likewise g12, g21.
    """
    f1: MultFn
    f2: MultFn
    g1: MultFn
    g2: MultFn
    f12: TruncatedSeries1
    f21: TruncatedSeries1
    g12: TruncatedSeries1
    g21: TruncatedSeries1


def _pinched(fam):
    f1, f2 = left_marginal(fam.pair1), left_marginal(fam.pair2)
    g1, g2 = right_marginal(fam.pair1), right_marginal(fam.pair2)
    return _Pinched(f1, f2, g1, g2,
                    phi_series(pinched_convolve(f1, f2)),
                    phi_series(pinched_convolve(f2, f1)),
                    phi_series(pinched_convolve(g1, g2)),
                    phi_series(pinched_convolve(g2, g1)))


def _over_var(phi):
    """var / phi(var) as a series in var; needs phi normalized."""
    return s1_reciprocal(s1_shift_down(phi))


def _swap_zw(f):
    return TruncatedSeries2({(j, i): v for (i, j), v in f.coeffs.items()},
                            f.trunc_order)


def _reflect(fam):
    """Swap the faces of both pairs: kappa'_{n,m} = kappa_{m,n}."""
    pairs = []
    for i in (1, 2):
        d = fam.pair(i)
        pairs.append(PairDistribution(
            d.trunc, {(m, n): v for (n, m), v in d.items()}))
    return BiFreeFamily(pairs[0], pairs[1])


# Each right side takes the family and its _pinched(fam).

def _rhs_T1(fam, p):
    return s2_compose_each_variable(
        series_K(fam.pair(2)), TruncatedSeries1.identity(fam.trunc), p.g21)


def _rhs_T2(fam, p):
    return s2_from_s1(_over_var(p.g21), "w") * _rhs_T1(fam, p)


def _rhs_T3(fam, p):
    attached = (s2_from_s1(_over_var(p.g12), "w")
                * s2_divide_monomial(_rhs_T2(fam, p), 0, 1))
    bracket = TruncatedSeries2.one(attached.trunc_order) + attached
    outer = s2_compose_each_variable(
        series_K(fam.pair(1)), TruncatedSeries1.identity(fam.trunc), p.g12)
    return bracket * outer


def _rhs_S1(fam, p):
    return s2_compose_each_variable(series_K(fam.pair(2)), p.f21, p.g21)


def _lone_factor(outer, phi):
    """phi_{outer}(phi(v)) / (phi(v) / v) for a pinched series phi.

    This is the one-variable factor of a lone letter staying one-sided,
    with the leading v taken off (the caller reinstates it as the +1 shift
    of the monomial).
    """
    comp = s1_compose(phi_series(outer), phi)
    return s1_shift_down(comp) * _over_var(phi)


def _rhs_S2(fam, p):
    za = _lone_factor(p.f2, p.f21)
    wb = _lone_factor(p.g2, p.g21)
    order = min(za.trunc_order, wb.trunc_order) + 2
    coeffs = {}
    for i, vi in za.coeffs.items():
        for j, vj in wb.coeffs.items():
            if i + j + 2 <= order:
                coeffs[(i + 1, j + 1)] = vi * vj
    return TruncatedSeries2(coeffs, order)


def _rhs_S3(fam, p):
    pre = s2_from_s1(p.f12, "z") * s2_from_s1(_over_var(p.g21), "w")
    return pre * _rhs_S1(fam, p)


def _rhs_S4(fam, p):
    pre = s2_from_s1(p.g12, "w") * s2_from_s1(_over_var(p.f21), "z")
    direct = pre * _rhs_S1(fam, p)
    # the left-attached sum is the z<->w mirror of the right-attached one
    # with every pair's faces swapped; computing it both ways guards the
    # asymmetric bookkeeping above.  Swapping faces swaps the f and g
    # fields of the pinched series.
    swapped = _Pinched(*p[2:4], *p[:2], *p[6:], *p[4:6])
    mirrored = _swap_zw(_rhs_S3(_reflect(fam), swapped))
    if direct != mirrored:
        raise InvariantViolation("left/right mirror of the attached sums broke")
    return direct


def _rhs_S5(fam, p):
    pre = s2_from_s1(_over_var(p.f21), "z") * s2_from_s1(_over_var(p.g21), "w")
    return pre * _rhs_S1(fam, p)


def _rhs_S6(fam, p):
    lone = (_rhs_S2(fam, p) + _rhs_S3(fam, p) + _rhs_S4(fam, p)
            + _rhs_S5(fam, p))
    quot = s2_divide_monomial(lone, 1, 1)
    pre = s2_from_s1(_over_var(p.f12), "z") * s2_from_s1(_over_var(p.g12), "w")
    outer = s2_compose_each_variable(series_K(fam.pair(1)), p.f12, p.g12)
    return pre * quot * outer


def _grid_T1(T):
    return [(n, m) for n in range(1, T) for m in range(1, (T - n) // 2 + 1)]


def _grid_T2(T):
    return [(n, m) for n in range(1, T + 1) for m in range((T - n) // 2 + 1)
            if n + m + 1 <= T - 1]


def _grid_T3(T):
    return [(n, m) for (n, m) in _grid_T1(T) if n + m <= T - 2]


def _grid_S1(T):
    return [(n, m) for n in range(1, T) for m in range(1, T // 2 - n + 1)]


def _grid_Sprime(T):
    return [(n, m) for n in range(T // 2 + 1) for m in range(T // 2 - n + 1)
            if n + m + 2 <= T - 1]


def _grid_S2(T):
    return [(n, m) for n in range(T // 2 + 1) for m in range(T // 2 - n + 1)
            if n + m + 2 <= T]


def _grid_S6(T):
    return [(n, m) for (n, m) in _grid_S1(T) if n + m <= T - 3]


class Lemma(NamedTuple):
    family: str
    subclass: str
    shift: tuple
    rhs: object
    grid: object
    description: str


LEMMAS = {
    "T1": Lemma("T", "e", (0, 0), _rhs_T1, _grid_T1,
           "even sums against singles|pairs hit the second mixed series"),
    "T2": Lemma("T_primed", "all", (0, 1), _rhs_T2, _grid_T2,
           "lone-letter sums carry an extra w over the pinched series"),
    "T3": Lemma("T", "o", (0, 0), _rhs_T3, _grid_T3,
           "odd sums stack the lone-letter bracket on the first series"),
    "S1": Lemma("S", "e", (0, 0), _rhs_S1, _grid_S1,
           "even sums against pairs|pairs hit the second mixed series"),
    "S2": Lemma("S_primed", "o0", (1, 1), _rhs_S2, _grid_S2,
           "lone letters staying one-sided factor into two single-variable "
           "pieces"),
    "S3": Lemma("S_primed", "or", (1, 1), _rhs_S3, _grid_Sprime,
           "lone right letter merging two-sided picks up w over the pinched "
           "series"),
    "S4": Lemma("S_primed", "ol", (1, 1), _rhs_S4, _grid_Sprime,
           "mirror of the right-merging case, checked both ways"),
    "S5": Lemma("S_primed", "olr", (1, 1), _rhs_S5, _grid_Sprime,
           "lone letters merging together divide out both pinched series"),
    "S6": Lemma("S", "o", (0, 0), _rhs_S6, _grid_S6,
           "odd sums assemble the four lone-letter cases on the first "
           "series"),
}


def check_lemma(lemma, fam):
    """Compare a class sum against its closed form, coefficientwise.

    The left side of every cell comes from the constrained sweep; the right
    side from pinched-convolution series substituted into mixed-cumulant
    series.  Needs all four face means equal to 1 (the pinched convolution
    is only defined there) and returns a report dict with the first
    mismatch, if any.
    """
    if lemma not in LEMMAS:
        raise ValueError(f"lemma must be one of {sorted(LEMMAS)}")
    family, subclass, (dz, dw), rhs_fn, grid_fn, _ = LEMMAS[lemma]
    for i in (1, 2):
        d = fam.pair(i)
        if d.kappa(1, 0) != 1 or d.kappa(0, 1) != 1:
            raise NotNormalized(
                "class-sum identities need all face means 1; apply "
                "rescale_pair(d, 1/d.kappa(1,0), 1/d.kappa(0,1))")
    rhs_series = rhs_fn(fam, _pinched(fam))
    cells = grid_fn(fam.trunc)
    lhs = TruncatedSeries2(
        {(n, m): class_sum(PartitionClassSpec(family, n, m, subclass), fam)
         for n, m in cells}, fam.trunc)
    rhs = TruncatedSeries2(
        {(n, m): rhs_series.coeff(n + dz, m + dw) for n, m in cells},
        fam.trunc)
    witness, grid = _compare_cells(lhs, rhs, cells)
    return {
        "lemma": lemma,
        "cells": len(grid),
        "status": "ok" if witness is None else "mismatch",
        "witness": witness,
        "grid": grid,
    }
