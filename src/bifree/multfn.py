"""Multiplicative functions on non-crossing partition intervals.

A multiplicative function is determined by its values f_n = f(0_n, 1_n);
evaluation on (0_n, pi) is the product over the blocks of pi.  The two
convolutions implemented here are

    (f * g)(0_n, 1_n)    = sum over pi in NC(n)  of f(0, pi) g(0, K(pi))
    (f *v g)(0_n, 1_n)   = sum over pi in NC'(n) of f(0, pi) g(0, K(pi))

(*v is the "pinched" variant restricted to partitions with {1} a singleton;
it is not commutative).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._caps import check_cap
from .errors import NotNormalized, TruncationExceeded
from .ncpart import enumerate_nc, kreweras
from .series import TruncatedSeries1, as_rational


class MultFn:
    """Values f_1 .. f_N of a multiplicative function."""

    __slots__ = ("values", "trunc")

    def __init__(self, values):
        vals = tuple(as_rational(v) for v in values)
        if not vals:
            raise ValueError("need at least f_1")
        self.values = vals
        self.trunc = len(vals)

    def value(self, n):
        if n < 1 or n > self.trunc:
            raise TruncationExceeded(f"f_{n} outside stored range 1..{self.trunc}")
        return self.values[n - 1]

    def is_normalized(self):
        return self.values[0] == 1

    def __eq__(self, other):
        return isinstance(other, MultFn) and self.values == other.values

    def __repr__(self):
        return f"MultFn({[str(v) for v in self.values]})"


def eval_on(f, pi):
    """f(0_n, pi): the product of f over the block sizes of pi."""
    out = Fraction(1)
    for b in pi.blocks:
        out *= f.value(len(b))
    return out


@lru_cache(maxsize=None)
def _kreweras_profiles(n):
    """Aggregated (block sizes of pi, block sizes of K(pi)) data for NC(n).

    Returns {(sizes_pi, sizes_K, pinched): count} where pinched records
    whether {1} is a singleton block of pi.  Convolutions only consume block
    sizes, so this collapses the lattice once per n.
    """
    profiles = {}
    for pi in enumerate_nc(n):
        k = kreweras(pi)
        key = (tuple(pi.block_sizes()), tuple(k.block_sizes()),
               pi.blocks[0] == (1,))
        profiles[key] = profiles.get(key, 0) + 1
    return profiles


def _product(f, sizes):
    out = Fraction(1)
    for s in sizes:
        out *= f.value(s)
    return out


def _convolve(f, g, name, pinched_only):
    """Sum over NC(n) (NC'(n) when pinched_only) of f(0, pi) g(0, K(pi))."""
    if f.trunc != g.trunc:
        raise TruncationExceeded(
            f"truncation mismatch: {f.trunc} vs {g.trunc}")
    if pinched_only and not (f.is_normalized() and g.is_normalized()):
        raise NotNormalized("pinched convolution needs f_1 = g_1 = 1")
    check_cap(f.trunc, f"{name} at order {f.trunc}")
    out = []
    for n in range(1, f.trunc + 1):
        acc = Fraction(0)
        for (sp, sk, pinched), cnt in _kreweras_profiles(n).items():
            if pinched or not pinched_only:
                acc += cnt * _product(f, sp) * _product(g, sk)
        out.append(acc)
    return MultFn(out)


def convolve(f, g):
    """The convolution f * g, computed degree by degree."""
    return _convolve(f, g, "convolve", pinched_only=False)


def pinched_convolve(f, g):
    """The pinched convolution f *v g over NC'(n); order matters."""
    return _convolve(f, g, "pinched_convolve", pinched_only=True)


def phi_series(f):
    """phi_f(z) = sum_n f_n z^n as a truncated series (zero constant term)."""
    return TruncatedSeries1({n: f.value(n) for n in range(1, f.trunc + 1)},
                            f.trunc)


def multfn_to_json(f):
    return [str(v) for v in f.values]


def multfn_from_json(data):
    return MultFn([as_rational(v) for v in data])
