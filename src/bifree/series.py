"""Truncated formal power series with exact rational coefficients.

One variable (``TruncatedSeries1``) and two commuting variables
(``TruncatedSeries2``; the truncation bound is on *total* degree).  Every
transform downstream reduces to the handful of operations implemented here:
ring arithmetic, composition, compositional inverse, reciprocal, and for the
two-variable kind substitution of a one-variable series into each slot.

All coefficients are ``fractions.Fraction``.  Nothing here (or anywhere in
the package) touches floating point: the acceptance checks are exact
coefficient identities.  Operations between series of different truncation
orders truncate to the minimum order; comparisons are made on the common
prefix, and ``compare`` reports the order actually used.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import (
    NonzeroConstantTerm,
    NotInvertible,
    TruncationExceeded,
    WDivisionError,
    ZeroConstantTerm,
    ZWDivisionError,
)

_ZERO = Fraction(0)


def as_rational(x) -> Fraction:
    """Coerce ints, "p/q" strings and Fractions to Fraction.

    Floats and bools are rejected with TypeError, a zero denominator with
    ValueError: inputs are exact or refused, never converted.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


class _TruncatedSeries:
    """Ring code shared by the one- and two-variable series.

    A subclass supplies its constructor, ``coeff``, the origin key of the
    constant term, ``_degree`` (total degree of a key), the product kernel
    ``_product(a, b, n)`` on coefficient dicts, and ``__str__``.  Sums and
    products truncate to the smaller order of the two operands.
    """

    __slots__ = ("trunc_order", "coeffs")

    @classmethod
    def one(cls, n: int):
        return cls({cls._ORIGIN: 1}, n)

    def _combine(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        n = min(self.trunc_order, other.trunc_order)
        deg = self._degree
        out = {k: v for k, v in self.coeffs.items() if deg(k) <= n}
        for k, v in other.coeffs.items():
            if deg(k) <= n:
                out[k] = op(out.get(k, _ZERO), v)
        return type(self)(out, n)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.coeffs.items()},
                          self.trunc_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        n = min(self.trunc_order, other.trunc_order)
        return type(self)(self._product(self.coeffs, other.coeffs, n), n)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = as_rational(c)
        return type(self)({k: c * v for k, v in self.coeffs.items()},
                          self.trunc_order)

    def compare(self, other) -> tuple[bool, int]:
        """Coefficientwise comparison on the common (total-degree) prefix.

        Returns (equal, order_used) where order_used = min of the two
        truncation orders.
        """
        n = min(self.trunc_order, other.trunc_order)
        deg = self._degree
        keys = {k for k in self.coeffs if deg(k) <= n}
        keys |= {k for k in other.coeffs if deg(k) <= n}
        return all(self.coeffs.get(k, 0) == other.coeffs.get(k, 0)
                   for k in keys), n

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.compare(other)[0]

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self!s}; order {self.trunc_order})"


# ---------------------------------------------------------------------------
# one variable
# ---------------------------------------------------------------------------

def _mul1(a: dict, b: dict, n: int) -> dict:
    out = {}
    for da, va in a.items():
        for db, vb in b.items():
            d = da + db
            if d <= n:
                out[d] = out.get(d, Fraction(0)) + va * vb
    return out


class TruncatedSeries1(_TruncatedSeries):
    """A series sum_{d=0}^{N} c_d z^d known exactly through degree N.

    ``coeffs`` maps degree -> Fraction with zero coefficients omitted;
    ``trunc_order`` is N.  Instances are immutable by convention: every
    operation returns a new object.
    """

    __slots__ = ()
    _ORIGIN = 0
    _product = staticmethod(_mul1)

    def __init__(self, coeffs, trunc_order: int):
        n = int(trunc_order)
        if n < 1:
            raise ValueError("truncation order must be at least 1")
        if isinstance(coeffs, (list, tuple)):
            coeffs = dict(enumerate(coeffs))
        clean = {}
        for d, v in coeffs.items():
            d = int(d)
            if not 0 <= d <= n:
                raise ValueError(f"degree {d} outside 0..{n}")
            v = as_rational(v)
            if v:
                clean[d] = v
        self.trunc_order = n
        self.coeffs = clean

    @classmethod
    def identity(cls, n: int) -> "TruncatedSeries1":
        """The series z."""
        return cls({1: 1}, n)

    @staticmethod
    def _degree(d):
        return d

    def coeff(self, d: int) -> Fraction:
        if d > self.trunc_order:
            raise TruncationExceeded(
                f"degree {d} beyond truncation order {self.trunc_order}")
        if d < 0:
            return Fraction(0)
        return self.coeffs.get(d, Fraction(0))

    def __str__(self):
        return render_series_1(self)


def s1_compose(outer: TruncatedSeries1, inner: TruncatedSeries1) -> TruncatedSeries1:
    """outer(inner(z)), requiring inner(0) = 0."""
    if inner.coeff(0) != 0:
        raise NonzeroConstantTerm("inner series must have zero constant term")
    n = min(outer.trunc_order, inner.trunc_order)
    out = {0: outer.coeffs.get(0, Fraction(0))}
    power = {0: Fraction(1)}
    for k in range(1, n + 1):
        power = _mul1(power, inner.coeffs, n)
        ck = outer.coeffs.get(k)
        if ck:
            for d, v in power.items():
                out[d] = out.get(d, Fraction(0)) + ck * v
    return TruncatedSeries1(out, n)


def s1_comp_inverse(f: TruncatedSeries1) -> TruncatedSeries1:
    """Compositional inverse g with f(g(z)) = g(f(z)) = z (mod z^{N+1})."""
    if f.coeff(0) != 0 or f.coeff(1) == 0:
        raise NotInvertible("need f(0) = 0 and nonzero linear coefficient")
    n = f.trunc_order
    f1 = f.coeff(1)
    g = {1: Fraction(1) / f1}
    for k in range(2, n + 1):
        # coefficient of z^k in f(g) with g known below degree k
        power = {0: Fraction(1)}
        acc = Fraction(0)
        for j in range(1, k + 1):
            power = _mul1(power, g, k)
            cj = f.coeffs.get(j)
            if cj:
                acc += cj * power.get(k, Fraction(0))
        g[k] = -acc / f1
    return TruncatedSeries1(g, n)


def s1_reciprocal(f: TruncatedSeries1) -> TruncatedSeries1:
    """Multiplicative inverse: f * result = 1 up to truncation."""
    c0 = f.coeff(0)
    if c0 == 0:
        raise ZeroConstantTerm("series with zero constant term has no reciprocal")
    n = f.trunc_order
    r = {0: Fraction(1) / c0}
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            cj = f.coeffs.get(j)
            if cj:
                acc += cj * r.get(k - j, Fraction(0))
        if acc:
            r[k] = -acc / c0
    return TruncatedSeries1(r, n)


def s1_shift_down(f: TruncatedSeries1) -> TruncatedSeries1:
    """Divide by the variable: z^d -> z^{d-1}.  Requires f(0) = 0.

    The result is exact one order lower than the input.
    """
    if f.coeff(0) != 0:
        raise ValueError("series is not divisible by its variable")
    if f.trunc_order < 2:
        raise ValueError("cannot shift below truncation order 1")
    return TruncatedSeries1({d - 1: v for d, v in f.coeffs.items() if d >= 1},
                            f.trunc_order - 1)


# ---------------------------------------------------------------------------
# two commuting variables
# ---------------------------------------------------------------------------

class TruncatedSeries2(_TruncatedSeries):
    """A series sum c_{n,m} z^n w^m known exactly for n + m <= N.

    ``coeffs`` maps (n, m) -> Fraction (zero entries omitted);
    ``trunc_order`` is the total-degree cap N.
    """

    __slots__ = ()
    _ORIGIN = (0, 0)

    def __init__(self, coeffs, trunc_order: int):
        n = int(trunc_order)
        if n < 1:
            raise ValueError("truncation order must be at least 1")
        clean = {}
        for key, v in coeffs.items():
            dz, dw = int(key[0]), int(key[1])
            if dz < 0 or dw < 0 or dz + dw > n:
                raise ValueError(f"monomial {(dz, dw)} outside total degree 0..{n}")
            v = as_rational(v)
            if v:
                clean[(dz, dw)] = v
        self.trunc_order = n
        self.coeffs = clean

    @staticmethod
    def _degree(key):
        return key[0] + key[1]

    @staticmethod
    def _product(a: dict, b: dict, n: int) -> dict:
        out = {}
        for (za, wa), va in a.items():
            for (zb, wb), vb in b.items():
                dz, dw = za + zb, wa + wb
                if dz + dw <= n:
                    out[(dz, dw)] = out.get((dz, dw), Fraction(0)) + va * vb
        return out

    def coeff(self, dz: int, dw: int) -> Fraction:
        if dz + dw > self.trunc_order:
            raise TruncationExceeded(
                f"monomial {(dz, dw)} beyond total degree {self.trunc_order}")
        if dz < 0 or dw < 0:
            return Fraction(0)
        return self.coeffs.get((dz, dw), Fraction(0))

    def __str__(self):
        return render_series_2(self)


def s2_compose_each_variable(f: TruncatedSeries2,
                             sub_z: TruncatedSeries1,
                             sub_w: TruncatedSeries1) -> TruncatedSeries2:
    """Simultaneous substitution z <- sub_z(z), w <- sub_w(w).

    Both substituted series must vanish at 0, so the substitution is a
    well-defined operation on truncations: the result is exact to
    min(f.trunc_order, sub_z.trunc_order, sub_w.trunc_order).
    """
    if sub_z.coeff(0) != 0:
        raise NonzeroConstantTerm("substitution for z must have zero constant term")
    if sub_w.coeff(0) != 0:
        raise NonzeroConstantTerm("substitution for w must have zero constant term")
    n = min(f.trunc_order, sub_z.trunc_order, sub_w.trunc_order)

    max_z = max((k[0] for k in f.coeffs), default=0)
    max_w = max((k[1] for k in f.coeffs), default=0)
    zpow = _power_table(sub_z.coeffs, min(max_z, n), n)
    wpow = _power_table(sub_w.coeffs, min(max_w, n), n)

    out = {}
    for (p, q), c in f.coeffs.items():
        if p > n or q > n:
            continue
        for dz, vz in zpow[p].items():
            rest = n - dz
            for dw, vw in wpow[q].items():
                if dw <= rest:
                    key = (dz, dw)
                    out[key] = out.get(key, Fraction(0)) + c * vz * vw
    return TruncatedSeries2(out, n)


def _power_table(base: dict, top: int, n: int) -> list:
    """[base^0, base^1, ..., base^top] as coefficient dicts truncated at n."""
    table = [{0: Fraction(1)}]
    for _ in range(top):
        table.append(_mul1(table[-1], base, n))
    return table


def s2_reciprocal(f: TruncatedSeries2) -> TruncatedSeries2:
    """Multiplicative inverse of a two-variable series with f(0,0) != 0."""
    c00 = f.coeff(0, 0)
    if c00 == 0:
        raise ZeroConstantTerm("series with zero constant term has no reciprocal")
    n = f.trunc_order
    r = {(0, 0): Fraction(1) / c00}
    for total in range(1, n + 1):
        for dz in range(total + 1):
            dw = total - dz
            acc = Fraction(0)
            for (i, j), c in f.coeffs.items():
                if (i, j) != (0, 0) and i <= dz and j <= dw:
                    prev = r.get((dz - i, dw - j))
                    if prev:
                        acc += c * prev
            if acc:
                r[(dz, dw)] = -acc / c00
    return TruncatedSeries2(r, n)


def s2_divide_monomial(f: TruncatedSeries2, dz: int, dw: int) -> TruncatedSeries2:
    """Exact division by z^dz w^dw.

    Divisibility is a structural fact of the transform formulas, not a
    numerical accident; a violation is reported as a hard error
    (WDivisionError / ZWDivisionError), never silently truncated.
    """
    for (p, q), v in f.coeffs.items():
        if p < dz or q < dw:
            if dz == 0:
                raise WDivisionError(
                    f"coefficient at z^{p} w^{q} is {v}, not divisible by w^{dw}")
            raise ZWDivisionError(
                f"coefficient at z^{p} w^{q} is {v}, not divisible by z^{dz} w^{dw}")
    n = f.trunc_order - dz - dw
    if n < 1:
        raise ValueError("division would drop truncation order below 1")
    return TruncatedSeries2({(p - dz, q - dw): v for (p, q), v in f.coeffs.items()}, n)


def s2_from_s1(f: TruncatedSeries1, var: str, trunc_order: int | None = None) -> TruncatedSeries2:
    """Embed a one-variable series as a two-variable series in z or in w."""
    n = f.trunc_order if trunc_order is None else min(trunc_order, f.trunc_order)
    if var == "z":
        return TruncatedSeries2({(d, 0): v for d, v in f.coeffs.items() if d <= n}, n)
    if var == "w":
        return TruncatedSeries2({(0, d): v for d, v in f.coeffs.items() if d <= n}, n)
    raise ValueError("var must be 'z' or 'w'")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _m1(d: int) -> str:
    if d == 0:
        return ""
    if d == 1:
        return "z"
    return f"z^{d}"


def _m2(dz: int, dw: int) -> str:
    parts = []
    if dz:
        parts.append("z" if dz == 1 else f"z^{dz}")
    if dw:
        parts.append("w" if dw == 1 else f"w^{dw}")
    return "*".join(parts)


def _join_terms(terms) -> str:
    """terms: list of (coefficient, monomial-string) in print order."""
    if not terms:
        return "0"
    chunks = []
    for i, (c, mono) in enumerate(terms):
        neg = c < 0
        mag = -c if neg else c
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if i == 0:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


def render_series_1(f: TruncatedSeries1) -> str:
    terms = [(f.coeffs[d], _m1(d)) for d in sorted(f.coeffs)]
    return _join_terms(terms)


def render_series_2(f: TruncatedSeries2) -> str:
    # graded order; within a total degree the higher z-power comes first
    keys = sorted(f.coeffs, key=lambda k: (k[0] + k[1], -k[0]))
    terms = [(f.coeffs[k], _m2(*k)) for k in keys]
    return _join_terms(terms)
