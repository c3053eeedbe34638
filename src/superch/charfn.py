"""Characteristic functions of supermatrices.

h(x) = sdet(xI - M) is a ratio of polynomials in x; it admits two
equivalent numerator/denominator presentations, one through the D-block
characteristic polynomial d(x) and one through the A-block a(x).  No
rational normal form is attempted (the coefficient ring has zero
divisors); equality is always tested by cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .grassmann import Multivector, ParityError
from .matrices import SuperMatrix, adjugate, det, mat_mul_entries
from .poly import _Sparse


class UniPoly(_Sparse):
    """Polynomial in a central variable x with Multivector coefficients,
    stored as {degree: nonzero Multivector}.

    Coefficient multiplication preserves operand order, so matrices of
    UniPoly entries with odd Multivector coefficients multiply correctly.
    A Multivector with the same generator count is a scalar of this ring.
    """

    __slots__ = ()
    _mismatch = "generator count mismatch"

    def __init__(self, n_gen: int, coeffs):
        self._dim = n_gen
        self.terms = {k: c for k, c in enumerate(coeffs) if c}

    n_gen = property(attrgetter("_dim"), doc="Number of generators of the coefficients.")

    @property
    def coeffs(self):
        """Dense list of the coefficients, lowest degree first; a copy."""
        return [self.coeff(k) for k in range(self.degree() + 1)]

    @classmethod
    def zero(cls, n_gen: int) -> "UniPoly":
        return cls(n_gen, [])

    @classmethod
    def one(cls, n_gen: int) -> "UniPoly":
        return cls(n_gen, [Multivector.one(n_gen)])

    @classmethod
    def const(cls, value: Multivector) -> "UniPoly":
        return cls(value.n_gen, [value])

    @classmethod
    def x(cls, n_gen: int) -> "UniPoly":
        return cls(n_gen, [Multivector.zero(n_gen), Multivector.one(n_gen)])

    def _coeff(self, value):
        if isinstance(value, Multivector):
            return value if value.n_gen == self._dim else None
        if isinstance(value, (int, Fraction)):
            return Multivector.scalar(self._dim, value)
        return None

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.terms, default=-1)

    def coeff(self, k: int) -> Multivector:
        return self.terms.get(k) or Multivector.zero(self._dim)

    # bound in the class itself: the bench tracer wraps only a class's own methods
    __mul__ = _Sparse.__mul__
    __rmul__ = _Sparse.__rmul__

    def __str__(self):
        parts = []
        for k in sorted(self.terms, reverse=True):
            xs = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            ctext = str(self.terms[k])
            if xs and ctext == "1":
                parts.append(xs)
            elif xs:
                parts.append(f"({ctext})*{xs}")
            else:
                parts.append(f"({ctext})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"UniPoly({self!s})"

    def to_json(self):
        return [c.to_json() for c in self.coeffs]


@dataclass
class RatioForm:
    """h(x) presented as numerator/denominator; no cancellation performed."""

    numerator: UniPoly
    denominator: UniPoly
    variant: str  # "via-d" or "via-a"

    def cross_equal(self, other: "RatioForm") -> bool:
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __str__(self):
        return f"[{self.variant}] ({self.numerator}) / ({self.denominator})"


def char_poly_block(entries, n_gen: int) -> UniPoly:
    """det(xI - E) for a square grid of even Multivectors; monic."""
    size = len(entries)
    for i, row in enumerate(entries):
        if len(row) != size:
            raise ValueError("matrix must be square")
        for j, e in enumerate(row):
            if not e.is_even():
                raise ParityError(f"parity error: entry ({i},{j}) is not even")
    return det(_x_minus(entries, n_gen), one=UniPoly.one(n_gen))


def _x_minus(entries, n_gen):
    """The grid xI - E with UniPoly entries."""
    size = len(entries)
    x = UniPoly.x(n_gen)
    return [
        [x - UniPoly.const(entries[i][j]) if i == j else -UniPoly.const(entries[i][j])
         for j in range(size)]
        for i in range(size)
    ]


def _const_grid(entries):
    return [[UniPoly.const(e) for e in row] for row in entries]


def _schur(outer, inner, left, right, n_gen):
    """(c, det[c(x)(xI - outer) - left adj(xI - inner) right]), c = det(xI - inner).

    An empty inner block has c = 1 and no correction, and an empty outer
    block gives the empty determinant 1, so no block size needs a branch.
    """
    one = UniPoly.one(n_gen)
    zero = UniPoly.zero(n_gen)
    c = char_poly_block(inner, n_gen)
    adj_right = mat_mul_entries(adjugate(_x_minus(inner, n_gen), one), _const_grid(right))
    grid = [
        [c * e - sum((u * v[j] for u, v in zip(left_row, adj_right)), zero)
         for j, e in enumerate(row)]
        for left_row, row in zip(_const_grid(left), _x_minus(outer, n_gen))
    ]
    return c, det(grid, one=one)


def h_via_d(m: SuperMatrix) -> RatioForm:
    """h(x) = det[d(x)(xI - A) - B adj(xI - D) C] / d(x)^(p+1)."""
    d, num = _schur(m.block_a(), m.block_d(), m.block_b(), m.block_c(), m.n_gen)
    return RatioForm(num, d ** (m.p + 1), "via-d")


def h_via_a(m: SuperMatrix) -> RatioForm:
    """h(x) = a(x)^(q+1) / det[a(x)(xI - D) - C adj(xI - A) B]."""
    a, den = _schur(m.block_d(), m.block_a(), m.block_c(), m.block_b(), m.n_gen)
    return RatioForm(a ** (m.q + 1), den, "via-a")


def check_equivalence(m: SuperMatrix) -> bool:
    """Exact cross-multiplied equality of the two h(x) presentations."""
    return h_via_d(m).cross_equal(h_via_a(m))


def full_char_poly(m: SuperMatrix) -> UniPoly:
    """P(x) = a(x)^(q+1) * d(x)^(p+1); monic of degree 2pq + p + q."""
    a = char_poly_block(m.block_a(), m.n_gen)
    d = char_poly_block(m.block_d(), m.n_gen)
    return (a ** (m.q + 1)) * (d ** (m.p + 1))
