"""Bi-non-crossing partitions.

A shape is a word over {L, R}; a partition of the word's positions is
bi-non-crossing when it becomes non-crossing after the chi-permutation
(all left positions in increasing order, then all right positions in
decreasing order).  The special shapes chi_{n,m} (n lefts then m rights),
the doubling partitions used to expand cumulants of products, and the
Mobius function of the lattice live here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._caps import check_cap
from .errors import InvalidSize, NotComparable, SizeMismatch
from .ncpart import NCPartition, _is_noncrossing, enumerate_nc, kreweras, leq


def catalan(n):
    return comb(2 * n, n) // (n + 1)


class BNCShape:
    """A word over {L, R}; chi_{n,m} is n L's followed by m R's."""

    __slots__ = ("word",)

    def __init__(self, word):
        w = tuple(str(c).upper() for c in word)
        if not w or any(c not in ("L", "R") for c in w):
            raise ValueError(f"shape must be a nonempty word over L/R: {word!r}")
        self.word = w

    @classmethod
    def chi(cls, n, m):
        return cls("L" * n + "R" * m)

    def __len__(self):
        return len(self.word)

    @property
    def n_left(self):
        return sum(1 for c in self.word if c == "L")

    @property
    def n_right(self):
        return len(self.word) - self.n_left

    def side(self, pos):
        return self.word[pos - 1]

    def label(self, pos):
        """Human label of a position: k-th left is "kℓ", k-th right "kr"."""
        side = self.word[pos - 1]
        k = sum(1 for c in self.word[:pos] if c == side)
        return f"{k}ℓ" if side == "L" else f"{k}r"

    def position(self, side, k):
        """Position of the k-th node on a side ('L' or 'R')."""
        count = 0
        for i, c in enumerate(self.word, start=1):
            if c == side:
                count += 1
                if count == k:
                    return i
        raise ValueError(f"no {k}-th {side} node in shape {''.join(self.word)}")

    def __eq__(self, other):
        return isinstance(other, BNCShape) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"BNCShape({''.join(self.word)!r})"


def chi_permutation(shape):
    """Positions in chi-order: lefts ascending, then rights descending."""
    lefts = [i for i in range(1, len(shape) + 1) if shape.side(i) == "L"]
    rights = [i for i in range(1, len(shape) + 1) if shape.side(i) == "R"]
    return lefts + rights[::-1]


class BNCPartition:
    """A partition of a shape's positions, non-crossing in chi-order."""

    __slots__ = ("shape", "blocks")

    def __init__(self, shape, blocks):
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        k = len(shape)
        seen = sorted(x for b in canon for x in b)
        if seen != list(range(1, k + 1)):
            raise ValueError(f"blocks do not partition positions 1..{k}: {blocks}")
        perm = chi_permutation(shape)
        slot_of = {pos: j + 1 for j, pos in enumerate(perm)}
        permuted = sorted((tuple(sorted(slot_of[x] for x in b)) for b in canon),
                          key=lambda b: b[0])
        if not _is_noncrossing(permuted, k):
            raise ValueError(f"partition is not bi-non-crossing: {blocks}")
        self.shape = shape
        self.blocks = canon

    def to_nc(self):
        """Transport through the chi-permutation into NC(len)."""
        perm = chi_permutation(self.shape)
        slot_of = {pos: j + 1 for j, pos in enumerate(perm)}
        return NCPartition(len(self.shape),
                           [[slot_of[x] for x in b] for b in self.blocks])

    def __eq__(self, other):
        return (isinstance(other, BNCPartition)
                and self.shape == other.shape and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.shape, self.blocks))

    def __repr__(self):
        return f"BNCPartition({''.join(self.shape.word)!r}, {bnc_to_text(self)!r})"

    def __str__(self):
        return bnc_to_text(self)


def bnc_from_nc(shape, nc):
    """Inverse transport: an NC partition of slots back to shape positions."""
    perm = chi_permutation(shape)
    return BNCPartition(shape, [[perm[s - 1] for s in b] for b in nc.blocks])


def enumerate_bnc(shape):
    """All bi-non-crossing partitions of the shape (count: Catalan)."""
    k = len(shape)
    check_cap(k, f"enumerate_bnc on {k} nodes")
    return [bnc_from_nc(shape, nc) for nc in enumerate_nc(k)]


def leq_bnc(pi, sigma):
    if pi.shape != sigma.shape:
        raise SizeMismatch("shapes differ")
    holder = {}
    for j, b in enumerate(sigma.blocks):
        for x in b:
            holder[x] = j
    return all(len({holder[x] for x in b}) == 1 for b in pi.blocks)


# -- the doubling partitions -------------------------------------------------

def sigma_doubling(kind, n, m):
    """The four fixed partitions that encode products inside cumulants.

    left_single_right_double: on chi_{n,2m}, left singletons and right
        pairs {2k-1, 2k} (sums against a squared right face);
    both_double: on chi_{2n,2m}, pairs on both sides;
    primed_T: on chi_{n,2m+1}, left singletons, {1r}, right pairs
        {2k, 2k+1};
    primed_S: on chi_{2n+1,2m+1}, the block {1l, 1r}, left pairs
        {2l, 2l+1} and right pairs {2k, 2k+1}.
    """
    if kind == "left_single_right_double":
        if n < 0 or m < 1:
            raise InvalidSize("left_single_right_double needs n >= 0, m >= 1")
        shape = BNCShape.chi(n, 2 * m)
        blocks = [[k] for k in range(1, n + 1)]
        blocks += [[n + 2 * k - 1, n + 2 * k] for k in range(1, m + 1)]
    elif kind == "both_double":
        if n < 0 or m < 0 or n + m < 1:
            raise InvalidSize("both_double needs n, m >= 0 with n + m >= 1")
        shape = BNCShape.chi(2 * n, 2 * m)
        blocks = [[2 * k - 1, 2 * k] for k in range(1, n + 1)]
        blocks += [[2 * n + 2 * k - 1, 2 * n + 2 * k] for k in range(1, m + 1)]
    elif kind == "primed_T":
        if n < 0 or m < 0:
            raise InvalidSize("primed_T needs n, m >= 0")
        shape = BNCShape.chi(n, 2 * m + 1)
        blocks = [[k] for k in range(1, n + 1)]
        blocks.append([n + 1])
        blocks += [[n + 1 + 2 * k - 1, n + 1 + 2 * k] for k in range(1, m + 1)]
    elif kind == "primed_S":
        if n < 0 or m < 0:
            raise InvalidSize("primed_S needs n, m >= 0")
        shape = BNCShape.chi(2 * n + 1, 2 * m + 1)
        blocks = [[1, 2 * n + 2]]
        blocks += [[2 * l, 2 * l + 1] for l in range(1, n + 1)]
        blocks += [[2 * n + 1 + 2 * k, 2 * n + 1 + 2 * k + 1] for k in range(1, m + 1)]
    else:
        raise ValueError(f"unknown doubling kind {kind!r}")
    return BNCPartition(shape, blocks)


# -- Mobius function ----------------------------------------------------------

def _mobius_0_1(k):
    """mu(0_k, 1_k) = (-1)^(k-1) Catalan(k-1) in NC(k)."""
    return -catalan(k - 1) if (k - 1) % 2 else catalan(k - 1)


def _mobius_nc_to_full(nc):
    """mu(pi, 1_n) in NC(n) via the Kreweras factorization of [pi, 1_n]."""
    out = Fraction(1)
    for v in kreweras(nc).blocks:
        out *= _mobius_0_1(len(v))
    return out


def mobius_bnc(pi, sigma):
    """Mobius function of the interval [pi, sigma] in BNC(shape).

    Transported to NC through the chi-permutation, where `mobius_nc`
    evaluates it.
    """
    if pi.shape != sigma.shape:
        raise SizeMismatch("shapes differ")
    if not leq_bnc(pi, sigma):
        raise NotComparable(f"{pi} is not below {sigma}")
    return mobius_nc(pi.to_nc(), sigma.to_nc())


def mobius_nc(pi, sigma):
    """Mobius function of the interval [pi, sigma] in NC(n).

    Evaluated blockwise: the interval factors over the blocks of sigma, and
    each factor [pi restricted to a block, full] is handled by the Kreweras
    factorization with mu(0_k, 1_k) = (-1)^(k-1) Catalan(k-1).
    """
    if pi.n != sigma.n:
        raise SizeMismatch("ground sets differ")
    if not leq(pi, sigma):
        raise NotComparable(f"{pi} is not below {sigma}")
    out = Fraction(1)
    for w in sigma.blocks:
        rank = {x: i + 1 for i, x in enumerate(w)}
        inner = [[rank[x] for x in b] for b in pi.blocks if b[0] in rank]
        out *= _mobius_nc_to_full(NCPartition(len(w), inner))
    return out


# -- text and diagrams --------------------------------------------------------

def bnc_to_text(pi):
    return "{" + "|".join(
        ",".join(pi.shape.label(x) for x in b) for b in pi.blocks) + "}"


def bnc_from_text(text, shape=None):
    """Parse "{1l,1r|2l}" (or with the unicode ell) on a chi_{n,m} shape."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"bad partition literal: {text!r}")
    raw_blocks = []
    n_left = 0
    n_right = 0
    for chunk in s[1:-1].split("|"):
        nodes = []
        for tok in chunk.split(","):
            tok = tok.strip().replace("ℓ", "l")
            side = tok[-1]
            k = int(tok[:-1])
            if side == "l":
                n_left = max(n_left, k)
                nodes.append(("L", k))
            elif side == "r":
                n_right = max(n_right, k)
                nodes.append(("R", k))
            else:
                raise ValueError(f"bad node label {tok!r}")
        raw_blocks.append(nodes)
    if shape is None:
        shape = BNCShape.chi(n_left, n_right)
    blocks = [[shape.position(side, k) for side, k in b] for b in raw_blocks]
    return BNCPartition(shape, blocks)


def ascii_diagram_bnc(pi):
    """Two-column rendering: each node tagged with its block number."""
    shape = pi.shape
    owner = {}
    for j, b in enumerate(pi.blocks, start=1):
        for x in b:
            owner[x] = j
    lefts = [i for i in range(1, len(shape) + 1) if shape.side(i) == "L"]
    rights = [i for i in range(1, len(shape) + 1) if shape.side(i) == "R"]
    rows = []
    for r in range(max(len(lefts), len(rights))):
        lcell = ""
        if r < len(lefts):
            pos = lefts[r]
            lcell = f"{shape.label(pos)} ({owner[pos]})"
        rcell = ""
        if r < len(rights):
            pos = rights[r]
            rcell = f"({owner[pos]}) {shape.label(pos)}"
        rows.append(f"{lcell:<12}:{rcell:>12}")
    return "\n".join(rows)
