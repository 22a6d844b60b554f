"""Multiplicative functions on non-crossing partition intervals.

A multiplicative function is determined by its values f_n = f(0_n, 1_n);
evaluation on (0_n, pi) is the product over the blocks of pi.  The two
convolutions implemented here are

    (f * g)(0_n, 1_n)    = sum over pi in NC(n)  of f(0, pi) g(0, K(pi))
    (f *v g)(0_n, 1_n)   = sum over pi in NC'(n) of f(0, pi) g(0, K(pi))

(*v is the "pinched" variant restricted to partitions with {1} a singleton;
it is not commutative).  Both weigh the "kreweras" cell (n, 0) of the class
sweep in `_classsum`, whose color-1 blocks are those of pi and whose color-2
blocks are those of K(pi): f reads color 1, g color 2, and the pinched
variant keeps the "pinched" bucket only.
"""

from __future__ import annotations

from fractions import Fraction

from ._classsum import weigh
from .errors import NotNormalized, TruncationExceeded
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


def _convolve(f, g, pinched_only):
    """Sum over NC(n) (NC'(n) when pinched_only) of f(0, pi) g(0, K(pi))."""
    if f.trunc != g.trunc:
        raise TruncationExceeded(
            f"truncation mismatch: {f.trunc} vs {g.trunc}")
    if pinched_only and not (f.is_normalized() and g.is_normalized()):
        raise NotNormalized("pinched convolution needs f_1 = g_1 = 1")

    def block_value(color, size, _):
        return (f if color == 1 else g).value(size)

    tag = "pinched" if pinched_only else None
    return MultFn([weigh("kreweras", n, 0, block_value, tag)
                   for n in range(1, f.trunc + 1)])


def convolve(f, g):
    """The convolution f * g, computed degree by degree."""
    return _convolve(f, g, pinched_only=False)


def pinched_convolve(f, g):
    """The pinched convolution f *v g over NC'(n); order matters."""
    return _convolve(f, g, pinched_only=True)


def phi_series(f):
    """phi_f(z) = sum_n f_n z^n as a truncated series (zero constant term)."""
    return TruncatedSeries1({n: f.value(n) for n in range(1, f.trunc + 1)},
                            f.trunc)
