"""Slow, independent routes to results the package computes another way.

``body_char_poly`` and ``resultant`` decide whether two block spectra meet
the long way round: each body characteristic polynomial as a determinant
over univariate polynomials with zero-generator Multivector coefficients,
then the Sylvester resultant of the two.  ``superch.check_degenerate`` must
reach the same decision on every sample.
"""

from fractions import Fraction

from superch import Multivector, det
from superch.charfn import char_poly_block


def body_char_poly(block):
    """Rational coefficient list (ascending) of det(xI - body(block))."""
    body_entries = [
        [Multivector.scalar(0, e.body()) for e in row] for row in block
    ]
    poly = char_poly_block(body_entries, 0)
    return [c.body() for c in poly.coeffs]


def resultant(f, g) -> Fraction:
    """Resultant of two rational polynomials (ascending coefficient lists)."""
    f = list(f)
    g = list(g)
    while f and not f[-1]:
        f.pop()
    while g and not g[-1]:
        g.pop()
    if not f or not g:
        return Fraction(0)
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    frev = f[::-1]
    grev = g[::-1]
    for i in range(n):
        rows.append([Fraction(0)] * i + frev + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + grev + [Fraction(0)] * (size - i - n - 1))
    return Fraction(det(rows))
