"""Sparse multivariate polynomials in the supertrace symbols S1..Sn.

The symbol Sj carries weight j, so the weighted degree of a monomial
S1^e1 * ... * Sn^en is sum(j * ej).  Coefficients are exact rationals.
Also provides rational pairs and order-truncated power series in a formal
variable t, which is all the generating-function machinery needs, and the
rules the other algebras of the package share: coefficient coercion
(``_as_fraction``), sparse addition (``_add_terms``), powering (``_power``)
and plain-text rendering of a sum of terms (``_render_terms``).

Every sparse product runs in one kernel, ``_mul_terms``, on packed monomial
keys (Kronecker substitution).  With a slot width of w bits the monomial
S1^e1 * ... * Sn^en packs to the integer e1 + (e2 << w) + ... +
(en << (n-1)*w), so multiplying two monomials is adding their keys.  This
is exact as long as no exponent of a product reaches 2^w, since a larger
one would carry into the next symbol's slot; ``_Packing`` therefore takes
w from the largest exponent a product can hold.  ``SPoly.__mul__`` packs
its operands for each product; the derivation instead works in ``_ZPoly``,
integer polynomials that stay packed throughout, with the bound taken from
the largest weighted degree D it reaches (no exponent of a polynomial of
weighted degree at most D exceeds D).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add


class NotDivisibleError(ValueError):
    """Exact polynomial division left a nonzero remainder."""


class NotPerfectSquareError(ValueError):
    """Polynomial square-root extraction failed."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected rational coefficient, got {type(value).__name__}")


def grlex_key(exps):
    """Graded lexicographic sort key (larger key = leading)."""
    return (sum(exps), exps)


def _mul_terms(a: dict, b: dict) -> dict:
    """Sparse product of two {packed key: coeff} dicts."""
    acc = {}
    get = acc.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            prev = get(k)
            acc[k] = c1 * c2 if prev is None else prev + c1 * c2
    return {k: c for k, c in acc.items() if c}


def _add_terms(a: dict, b: dict) -> dict:
    """Sparse sum of two {key: coeff} dicts (monomials or blades)."""
    out = dict(a)
    for k, c in b.items():
        prev = out.get(k)
        if prev is None:
            out[k] = c
        else:
            s = prev + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _power(base, k: int, one):
    """base**k by repeated squaring; ``one`` is the unit of base's ring.

    Only associativity is used, so this serves every ring here, the
    noncommutative ones included.
    """
    if k < 0:
        raise ValueError("negative power")
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _render_terms(terms):
    """Plain-text sum of (coeff, monomial text) pairs, "" for the unit.

    Unit coefficients are dropped from the monomial and a negative term is
    joined with "- " instead of "+ "; the empty sum is "0".
    """
    parts = []
    for coeff, mono in terms:
        if not mono:
            text = str(coeff)
        elif coeff == 1:
            text = mono
        elif coeff == -1:
            text = f"-{mono}"
        else:
            text = f"{coeff}*{mono}"
        if parts and not text.startswith("-"):
            parts.append("+ " + text)
        elif parts:
            parts.append("- " + text[1:])
        else:
            parts.append(text)
    return " ".join(parts) if parts else "0"


class _Packing:
    """Packs exponent vectors of ``nsym`` symbols into integer keys.

    ``max_exp`` bounds every exponent of every polynomial packed with this
    instance, products included; the slot width is its bit length.
    """

    __slots__ = ("nsym", "shifts", "mask")

    def __init__(self, nsym: int, max_exp: int):
        width = max(max_exp, 1).bit_length()
        self.nsym = nsym
        self.shifts = [width * j for j in range(nsym)]
        self.mask = (1 << width) - 1

    def pack(self, exps) -> int:
        return sum(e << s for e, s in zip(exps, self.shifts))

    def unpack(self, key: int) -> tuple:
        mask = self.mask
        return tuple((key >> s) & mask for s in self.shifts)

    def symbol(self, j: int) -> "_ZPoly":
        """Sj as an integer polynomial."""
        return _ZPoly({1 << self.shifts[j - 1]: 1})

    def to_spoly(self, poly: "_ZPoly", denominator: int) -> "SPoly":
        """poly / denominator as an SPoly over Q."""
        out = SPoly.__new__(SPoly)
        out.nsym = self.nsym
        out.terms = {
            self.unpack(k): Fraction(c, denominator) for k, c in poly.terms.items()
        }
        return out


class _ZPoly:
    """Polynomial over Z on packed keys; the ring the derivation runs in.

    Supports +, unary - and * only, which is all ``det``, ``adjugate`` and
    ``TruncSeries`` need; the ``_Packing`` that built it converts it to SPoly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """``terms`` maps packed keys to nonzero ints; it is not copied."""
        self.terms = {} if terms is None else terms

    def __add__(self, other):
        return _ZPoly(_add_terms(self.terms, other.terms))

    def __neg__(self):
        return _ZPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        return _ZPoly(_mul_terms(self.terms, other.terms))

    def __eq__(self, other):
        if not isinstance(other, _ZPoly):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)


class SPoly:
    """Polynomial over Q in symbols S1..Sn, stored as exponent-tuple -> coeff."""

    __slots__ = ("nsym", "terms")

    def __init__(self, nsym: int, terms=None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nsym:
                    raise ValueError("exponent vector length mismatch")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                coeff = _as_fraction(coeff)
                if coeff:
                    clean[tuple(exps)] = coeff
        self.nsym = nsym
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nsym: int) -> "SPoly":
        return cls(nsym, {})

    @classmethod
    def const(cls, nsym: int, value) -> "SPoly":
        return cls(nsym, {(0,) * nsym: _as_fraction(value)})

    @classmethod
    def one(cls, nsym: int) -> "SPoly":
        return cls.const(nsym, 1)

    @classmethod
    def symbol(cls, nsym: int, j: int) -> "SPoly":
        if not 1 <= j <= nsym:
            raise ValueError("symbol index out of range")
        exps = [0] * nsym
        exps[j - 1] = 1
        return cls(nsym, {tuple(exps): Fraction(1)})

    @classmethod
    def symbols(cls, nsym: int):
        """All of S1..Sn, handy for building fixture expressions."""
        return [cls.symbol(nsym, j) for j in range(1, nsym + 1)]

    # -- ring operations ---------------------------------------------------

    def _check_same(self, other: "SPoly"):
        if self.nsym != other.nsym:
            raise ValueError("symbol count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SPoly.const(self.nsym, other)
        if not isinstance(other, SPoly):
            return NotImplemented
        self._check_same(other)
        out = SPoly.__new__(SPoly)
        out.nsym = self.nsym
        out.terms = _add_terms(self.terms, other.terms)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = SPoly.__new__(SPoly)
        out.nsym = self.nsym
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SPoly.const(self.nsym, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            out = SPoly.__new__(SPoly)
            out.nsym = self.nsym
            out.terms = {e: k * c for e, k in self.terms.items()} if c else {}
            return out
        if not isinstance(other, SPoly):
            return NotImplemented
        self._check_same(other)
        out = SPoly.__new__(SPoly)
        out.nsym = self.nsym
        if not self.terms or not other.terms:
            out.terms = {}
            return out
        packing = _Packing(self.nsym, _max_exponent(self.terms) + _max_exponent(other.terms))
        pack, unpack = packing.pack, packing.unpack
        product = _mul_terms(
            {pack(e): c for e, c in self.terms.items()},
            {pack(e): c for e, c in other.terms.items()},
        )
        out.terms = {unpack(k): c for k, c in product.items()}
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, SPoly.one(self.nsym))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SPoly.const(self.nsym, other)
        if not isinstance(other, SPoly):
            return NotImplemented
        return self.nsym == other.nsym and self.terms == other.terms

    def __hash__(self):
        return hash((self.nsym, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------

    def weighted_degree(self):
        """(min, max) of sum(j * ej) over the terms; errors on the zero poly."""
        if not self.terms:
            raise ValueError("weighted degree of the zero polynomial is undefined")
        degs = [sum((j + 1) * e for j, e in enumerate(exps)) for exps in self.terms]
        return min(degs), max(degs)

    def is_weighted_homogeneous(self, degree=None) -> bool:
        lo, hi = self.weighted_degree()
        if lo != hi:
            return False
        return degree is None or lo == degree

    def lead(self):
        """Leading (exponents, coeff) under graded lex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def coeff_of(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def flip_signs(self) -> "SPoly":
        """Substitute Sj -> -Sj for every j."""
        out = SPoly.__new__(SPoly)
        out.nsym = self.nsym
        out.terms = {
            e: (-c if sum(e) & 1 else c) for e, c in self.terms.items()
        }
        return out

    def zero_odd_symbols(self) -> "SPoly":
        """Set S1, S3, S5, ... to zero (OSp specialization)."""
        out = SPoly.__new__(SPoly)
        out.nsym = self.nsym
        out.terms = {
            e: c
            for e, c in self.terms.items()
            if not any(e[j] for j in range(0, self.nsym, 2))
        }
        return out

    def divide_exact(self, divisor: "SPoly") -> "SPoly":
        """Return q with self = q * divisor, else raise NotDivisibleError."""
        self._check_same(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        lexp, lcoeff = divisor.lead()
        rem = self
        quot = {}
        while rem:
            rexp, rcoeff = rem.lead()
            qexp = tuple(a - b for a, b in zip(rexp, lexp))
            if any(x < 0 for x in qexp):
                raise NotDivisibleError("not divisible")
            qc = rcoeff / lcoeff
            quot[qexp] = quot.get(qexp, Fraction(0)) + qc
            mono = SPoly(self.nsym, {qexp: qc})
            rem = rem - mono * divisor
        return SPoly(self.nsym, quot)

    def sqrt_exact(self) -> "SPoly":
        """Exact polynomial square root, or NotPerfectSquareError."""
        if not self:
            return self
        lexp, lcoeff = self.lead()
        if any(e & 1 for e in lexp) or lcoeff < 0:
            raise NotPerfectSquareError("not a perfect square")
        num, den = lcoeff.numerator, lcoeff.denominator
        rn, rd = _isqrt_exact(num), _isqrt_exact(den)
        if rn is None or rd is None:
            raise NotPerfectSquareError("not a perfect square")
        half = tuple(e // 2 for e in lexp)
        root = SPoly(self.nsym, {half: Fraction(rn, rd)})
        lead2 = root * 2
        budget = len(self.terms) * (len(self.terms) + 2)
        while True:
            rem = self - root * root
            if not rem:
                return root
            rexp, rcoeff = rem.lead()
            lexp2, lcoeff2 = lead2.lead()
            qexp = tuple(a - b for a, b in zip(rexp, lexp2))
            if any(x < 0 for x in qexp):
                raise NotPerfectSquareError("not a perfect square")
            root = root + SPoly(self.nsym, {qexp: rcoeff / lcoeff2})
            budget -= 1
            if budget < 0:
                raise NotPerfectSquareError("not a perfect square")

    def evaluate(self, values, one):
        """Evaluate with values[j-1] substituted for Sj.

        ``values`` are elements of any commutative ring accepting * between
        themselves and * by Fraction; ``one`` is that ring's unit.

        The terms are nested in Horner form with Sn outermost: terms that
        agree in their exponents of Sj..Sn share one product by their power
        of Sj.  The innermost symbol only multiplies single scaled terms,
        so S1, whose exponents vary most, goes there.
        """
        if len(values) != self.nsym:
            raise ValueError("wrong number of values")
        powers = [[one] for _ in range(self.nsym)]

        def nested(terms, j):
            # the terms agree in the exponents of S(j+2)..Sn
            if j < 0:
                return one * terms[0][1]  # no two terms share all exponents
            groups = {}
            for exps, coeff in terms:
                groups.setdefault(exps[j], []).append((exps, coeff))
            total = None
            for e, group in groups.items():
                value = nested(group, j - 1)
                if e:
                    cache = powers[j]
                    while len(cache) <= e:
                        cache.append(cache[-1] * values[j])
                    value = value * cache[e]
                total = value if total is None else total + value
            return total

        if not self.terms:
            return one * 0
        return nested(list(self.terms.items()), self.nsym - 1)

    # -- rendering / serialization ------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __str__(self):
        return _render_terms(
            (coeff, "*".join(
                f"S{j + 1}" if e == 1 else f"S{j + 1}^{e}"
                for j, e in enumerate(exps) if e
            ))
            for exps, coeff in self._sorted_terms()
        )

    def __repr__(self):
        return f"SPoly({self.nsym}, {self!s})"

    def to_latex(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for j, e in enumerate(exps):
                if e == 1:
                    factors.append(f"\\str_{{{j + 1}}}")
                elif e > 1:
                    factors.append(f"{{\\str_{{{j + 1}}}}}^{{{e}}}")
            mono = "\\, ".join(factors)
            if coeff.denominator == 1:
                ctext = str(abs(coeff.numerator))
            else:
                ctext = f"\\frac{{{abs(coeff.numerator)}}}{{{coeff.denominator}}}"
            if mono and ctext == "1":
                body = mono
            elif mono:
                body = f"{ctext}\\, {mono}"
            else:
                body = ctext
            sign = "-" if coeff < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return " ".join(parts)

    def to_json(self):
        return [
            {"exponents": list(exps), "coeff": str(coeff)}
            for exps, coeff in self._sorted_terms()
        ]

    @classmethod
    def from_json(cls, nsym: int, data) -> "SPoly":
        return cls(nsym, {tuple(t["exponents"]): Fraction(t["coeff"]) for t in data})


def _max_exponent(terms) -> int:
    return max(max(exps, default=0) for exps in terms)


def _isqrt_exact(n: int):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True)
class SRational:
    """Unreduced quotient of two SPoly values (denominator nonzero)."""

    numerator: SPoly
    denominator: SPoly

    def __post_init__(self):
        if not self.denominator:
            raise ZeroDivisionError("zero denominator")

    def __eq__(self, other):
        if not isinstance(other, SRational):
            return NotImplemented
        # cross-multiplied equality: well defined over an integral domain
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __str__(self):
        return f"({self.numerator}) / ({self.denominator})"


class TruncSeries:
    """Power series in t truncated after t^order.

    The coefficients may lie in any commutative ring with + and *: SPoly,
    or the integer kernel _ZPoly that the derivation runs on.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_polys(cls, order: int, polys, nsym: int) -> "TruncSeries":
        polys = list(polys)[: order + 1]
        polys += [SPoly.zero(nsym)] * (order + 1 - len(polys))
        return cls(order, polys)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("order mismatch")
        a, b = self.coeffs, other.coeffs
        return TruncSeries(
            self.order,
            [reduce(add, (a[i] * b[k - i] for i in range(k + 1))) for k in range(self.order + 1)],
        )

    def square(self) -> "TruncSeries":
        """self * self, computing each cross term a_i * a_j (i < j) once."""
        a = self.coeffs
        out = []
        for k in range(self.order + 1):
            term = None
            if k:
                cross = reduce(add, (a[i] * a[k - i] for i in range((k + 1) // 2)))
                term = cross + cross
            if k % 2 == 0:
                diagonal = a[k // 2] * a[k // 2]
                term = diagonal if term is None else term + diagonal
            out.append(term)
        return TruncSeries(self.order, out)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self):
        return " + ".join(f"({c})*t^{k}" for k, c in enumerate(self.coeffs))
