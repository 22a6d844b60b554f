"""Test-only reference implementations, written for plainness, not speed.

Each one computes by a route independent of the package's own kernel, in
plain Fraction arithmetic on coefficient dicts, so that a test can compare
the two exactly.
"""

from fractions import Fraction

from bifree.series import TruncatedSeries1


def _mul(a, b, n):
    """Product of two {degree: Fraction} dicts, truncated at degree n."""
    out = {}
    for da, va in a.items():
        for db, vb in b.items():
            if da + db <= n:
                out[da + db] = out.get(da + db, Fraction(0)) + va * vb
    return out


def comp_inverse_fixed_point(f):
    """Compositional inverse of f (f(0) = 0, f'(0) != 0) by the fixed-point
    recursion: with g known below degree k, the coefficient of z^k in f(g)
    must vanish (k >= 2), which fixes g_k.  O(N^4)."""
    n = f.trunc_order
    f1 = f.coeff(1)
    g = {1: Fraction(1) / f1}
    for k in range(2, n + 1):
        power = {0: Fraction(1)}
        acc = Fraction(0)
        for j in range(1, k + 1):
            power = _mul(power, g, k)
            cj = f.coeffs.get(j)
            if cj:
                acc += cj * power.get(k, Fraction(0))
        g[k] = -acc / f1
    return TruncatedSeries1(g, n)
