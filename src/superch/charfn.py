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

from .grassmann import Multivector, ParityError
from .matrices import SuperMatrix, adjugate, det, mat_mul_entries
from .poly import _power


class UniPoly:
    """Polynomial in a central variable x with Multivector coefficients.

    Coefficient multiplication preserves operand order, so matrices of
    UniPoly entries with odd Multivector coefficients multiply correctly.
    """

    __slots__ = ("n_gen", "coeffs")

    def __init__(self, n_gen: int, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.n_gen = n_gen
        self.coeffs = coeffs

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

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Multivector:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Multivector.zero(self.n_gen)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(Multivector.scalar(self.n_gen, other))
        elif isinstance(other, Multivector):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.n_gen, [self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.n_gen, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Multivector)):
            return UniPoly(self.n_gen, [c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero(self.n_gen)
        out = [Multivector.zero(self.n_gen) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.n_gen, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, Multivector):
            return UniPoly(self.n_gen, [other * c for c in self.coeffs])
        return NotImplemented

    def __pow__(self, k: int):
        return _power(self, k, UniPoly.one(self.n_gen))

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.n_gen == other.n_gen and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            xs = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            ctext = str(c)
            if xs and ctext == "1":
                parts.append(xs)
            elif xs:
                parts.append(f"({ctext})*{xs}")
            else:
                parts.append(f"({ctext})")
        return " + ".join(parts)

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
        [c * e - sum((u * v[j] for u, v in zip(left[i], adj_right)), zero)
         for j, e in enumerate(row)]
        for i, row in enumerate(_x_minus(outer, n_gen))
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
