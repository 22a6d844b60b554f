"""Truncated formal power series with exact rational coefficients.

One variable (``TruncatedSeries1``) and two commuting variables
(``TruncatedSeries2``; the truncation bound is on *total* degree).  Every
transform downstream reduces to the handful of operations implemented here:
ring arithmetic, composition, compositional inverse, reciprocal, and for the
two-variable kind substitution of a one-variable series into each slot.

At the API every coefficient is a ``fractions.Fraction``: ``coeffs`` maps a
degree (or an (n, m) pair) to its nonzero value.  Inside, the products,
compositions, reciprocals and inverses are fraction-free: the operands'
coefficients are written as Python ints over one common denominator
(``_to_ints``), the loops multiply and add ints only (``_mac``), and each
result is turned back into Fractions once (``_from_ints``), so a gcd is
taken per result coefficient, not per term (Knuth, TAOCP Vol. 2, 4.5.1).
The compositional inverse is Lagrange inversion,

    g_k = (1/k) [w^(k-1)] (w / f(w))^k,

one integer reciprocal followed by incremental powers, O(N^3) with zero
coefficients skipped.  Nothing here (or anywhere in the package) touches
floating point: the acceptance checks are exact coefficient identities.
Operations between series of different truncation orders truncate to the
minimum order; comparisons are made on the common prefix, and ``compare``
reports the order actually used.  No series is longer than the fixed limit
``_caps.MAX_TRUNC``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from ._caps import check_trunc
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


# ---------------------------------------------------------------------------
# the fraction-free kernel
# ---------------------------------------------------------------------------

def _to_ints(f, n):
    """f through total degree n as (nums, D): each coefficient is its entry
    of nums over the one denominator D, the lcm of their denominators.

    nums is dense.  For a one-variable series it lists the numerators of
    z^0 .. z^n; for a two-variable series it lists rows, row p holding
    those of z^p w^0 .. z^p w^(n-p).
    """
    kept = [(k, v) for k, v in f.coeffs.items() if f._degree(k) <= n]
    den = lcm(*(v.denominator for _, v in kept))
    if isinstance(f, TruncatedSeries1):
        nums = [0] * (n + 1)
        for d, v in kept:
            nums[d] = v.numerator * (den // v.denominator)
    else:
        nums = [[0] * (n + 1 - p) for p in range(n + 1)]
        for (p, q), v in kept:
            nums[p][q] = v.numerator * (den // v.denominator)
    return nums, den


def _from_ints(cls, nums, den, n):
    """The series of type cls and order n whose coefficients are nums / den,
    laid out as in _to_ints; each Fraction takes its gcd once, here."""
    if cls is TruncatedSeries1:
        cells = ((d, a) for d, a in enumerate(nums) if a)
    else:
        cells = (((p, q), a) for p, row in enumerate(nums)
                 for q, a in enumerate(row) if a)
    return cls({k: Fraction(a, den) for k, a in cells}, n)


def _mac(out, a, b):
    """out[i + j] += a[i] * b[j] for every i + j < len(out): the integer
    product kernel.  Zero entries of a and b cost nothing."""
    n = len(out)
    nz = [(j, y) for j, y in enumerate(b[:n]) if y]
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in nz:
                if i + j >= n:
                    break
                out[i + j] += x * y


def _mul1(a: list, b: list, n: int) -> list:
    """Product of two dense int lists, truncated at degree n."""
    out = [0] * (n + 1)
    _mac(out, a, b)
    return out


def _mul2(a: list, b: list, n: int) -> list:
    """Product of two lists of rows (see _to_ints), truncated at total
    degree n: row p of a times row q of b feeds row p + q."""
    out = [[0] * (n + 1 - p) for p in range(n + 1)]
    for p, ra in enumerate(a):
        if any(ra):
            for q, rb in enumerate(b[:n + 1 - p]):
                if any(rb):
                    _mac(out[p + q], ra, rb)
    return out


def _reduced(nums: list, den: int):
    """nums / den with the common factor of all entries divided out.

    Powers are reduced as they are formed: den^k grows with k, but the
    true common denominator of a power truncated at degree n does not.
    """
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _reciprocal_ints(a: list):
    """1/a to the length of a, for an int list with a[0] != 0: (nums, D).

    Writing r_j = R_j / a0^(j+1) turns the recurrence
    r_j = -(1/a0) sum_{i>=1} a_i r_{j-i} into one over the integers,
    R_j = -sum_{i>=1} a_i a0^(i-1) R_{j-i}.
    """
    m, a0 = len(a), a[0]
    pw = [1]
    for _ in range(m):
        pw.append(pw[-1] * a0)
    terms = [(i, x * pw[i - 1]) for i, x in enumerate(a) if i and x]
    R = [1]
    for j in range(1, m):
        acc = 0
        for i, y in terms:
            if i > j:
                break
            acc -= y * R[j - i]
        R.append(acc)
    sign = -1 if pw[m] < 0 else 1
    return _reduced([sign * R[j] * pw[m - 1 - j] for j in range(m)],
                    sign * pw[m])


def _power_table(base: list, den: int, top: int, n: int):
    """[b^0, b^1, ..., b^top] for b = base / den, truncated at degree n and
    written over one common denominator: (table, D)."""
    powers = [([1] + [0] * n, 1)]
    for _ in range(top):
        nums, d = powers[-1]
        powers.append(_reduced(_mul1(nums, base, n), d * den))
    common = lcm(*(d for _, d in powers))
    table = []
    for nums, d in powers:
        scale = common // d
        table.append([x * scale for x in nums])
    return table, common


def _substitute(coeffs: list, powers: list, n: int) -> list:
    """sum_k coeffs[k] * powers[k] through degree n: a polynomial with int
    coefficients evaluated at a series, given that series' power table."""
    out = [0] * (n + 1)
    for k, c in enumerate(coeffs):
        if c:
            for d, x in enumerate(powers[k][:n + 1]):
                if x:
                    out[d] += c * x
    return out


class _TruncatedSeries:
    """Ring code shared by the one- and two-variable series.

    A subclass supplies its constructor, ``coeff``, the origin key of the
    constant term, ``_degree`` (total degree of a key), the product kernel
    ``_product(a, b, n)`` on the dense int layout of ``_to_ints``, and
    ``__str__``.  Sums and products truncate to the smaller order of the
    two operands.
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
        a, da = _to_ints(self, n)
        b, db = _to_ints(other, n)
        return _from_ints(type(self), self._product(a, b, n), da * db, n)

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
        check_trunc(n, "series")
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
    c, dc = _to_ints(outer, n)
    b, db = _to_ints(inner, n)
    top = max((k for k, ck in enumerate(c) if ck), default=0)
    powers, dp = _power_table(b, db, top, n)
    return _from_ints(TruncatedSeries1, _substitute(c, powers, n), dc * dp, n)


def s1_comp_inverse(f: TruncatedSeries1) -> TruncatedSeries1:
    """Compositional inverse g with f(g(z)) = g(f(z)) = z (mod z^{N+1}).

    Lagrange inversion: g_k = (1/k) [w^(k-1)] h(w)^k with h = w / f(w),
    whose powers are needed through degree N-1 only.
    """
    if f.coeff(0) != 0 or f.coeff(1) == 0:
        raise NotInvertible("need f(0) = 0 and nonzero linear coefficient")
    n = f.trunc_order
    a, den = _to_ints(f, n)
    r, e = _reciprocal_ints(a[1:])
    h, dh = _reduced([den * x for x in r], e)
    g = {}
    power, dp = [1] + [0] * (n - 1), 1
    for k in range(1, n + 1):
        power, dp = _reduced(_mul1(power, h, n - 1), dp * dh)
        if power[k - 1]:
            g[k] = Fraction(power[k - 1], k * dp)
    return TruncatedSeries1(g, n)


def s1_reciprocal(f: TruncatedSeries1) -> TruncatedSeries1:
    """Multiplicative inverse: f * result = 1 up to truncation."""
    if f.coeff(0) == 0:
        raise ZeroConstantTerm("series with zero constant term has no reciprocal")
    n = f.trunc_order
    a, den = _to_ints(f, n)
    r, e = _reciprocal_ints(a)
    return _from_ints(TruncatedSeries1, [den * x for x in r], e, n)


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
    _product = staticmethod(_mul2)

    def __init__(self, coeffs, trunc_order: int):
        n = int(trunc_order)
        if n < 1:
            raise ValueError("truncation order must be at least 1")
        check_trunc(n, "series")
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
    rows, den = _to_ints(f, n)
    used = [p for p, row in enumerate(rows) if any(row)]
    top_w = max((q for row in rows for q, c in enumerate(row) if c), default=0)
    zpow, dz = _power_table(*_to_ints(sub_z, n), max(used, default=0), n)
    wpow, dw = _power_table(*_to_ints(sub_w, n), top_w, n)

    out = [[0] * (n + 1 - p) for p in range(n + 1)]
    for p in used:
        # f's z^p row at w <- sub_w(w), formed once for every z-degree
        wsum = _substitute(rows[p], wpow, n)
        terms = [(d, x) for d, x in enumerate(wsum) if x]
        for e, y in enumerate(zpow[p]):
            if y:
                row = out[e]
                for d, x in terms:
                    if d >= len(row):
                        break
                    row[d] += y * x
    return _from_ints(TruncatedSeries2, out, den * dz * dw, n)


def s2_reciprocal(f: TruncatedSeries2) -> TruncatedSeries2:
    """Multiplicative inverse of a two-variable series with f(0,0) != 0.

    With f = F / D and F = sum_p z^p F_p(w), the rows of 1/F are
    N_p / e^(p+1), where r0 / e = 1 / F_0, N_0 = r0 and
    N_p = -r0 sum_{i=1}^{p} e^(i-1) F_i N_{p-i}.
    """
    if f.coeff(0, 0) == 0:
        raise ZeroConstantTerm("series with zero constant term has no reciprocal")
    n = f.trunc_order
    rows, den = _to_ints(f, n)
    r0, e = _reciprocal_ints(rows[0])
    scaled = [None]
    for i in range(1, n + 1):
        scale = e ** (i - 1)
        scaled.append([x * scale for x in rows[i]])
    out = [r0]
    for p in range(1, n + 1):
        acc = [0] * (n + 1 - p)
        for i in range(1, p + 1):
            _mac(acc, scaled[i], out[p - i])
        row = [0] * (n + 1 - p)
        _mac(row, r0, acc)
        out.append([-x for x in row])
    nums = []
    for p, row in enumerate(out):
        scale = den * e ** (n - p)
        nums.append([scale * x for x in row])
    return _from_ints(TruncatedSeries2, nums, e ** (n + 1), n)


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
