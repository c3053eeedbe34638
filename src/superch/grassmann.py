"""Exact arithmetic in a finitely generated Grassmann (exterior) algebra.

Elements live in the algebra generated by ``n_gen`` anticommuting generators
e1..eN over arbitrary-precision rationals.  Blades are stored internally as
bitmasks (bit i-1 set <-> generator ei present); the public/serialized form
is the strictly increasing index tuple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

from .poly import _as_fraction, _json_count, _json_fields, _render_terms, _Sparse, _terms_from_json


class ParityError(ValueError):
    """An operation required homogeneous (usually even) parity."""


class NotInvertibleError(ValueError):
    """Inversion was attempted on an element with zero body."""


def mask_from_indices(indices) -> int:
    mask = 0
    prev = 0
    for i in indices:
        if i <= prev:
            raise ValueError("blade indices must be strictly increasing and >= 1")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def indices_from_mask(mask: int) -> tuple:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _merge_sign(m1: int, m2: int) -> int:
    """Sign picked up interleaving two disjoint blades (m1 on the left)."""
    swaps = 0
    m = m2
    while m:
        low = m & -m
        # generators of m1 strictly above this generator of m2 must hop over it
        swaps += (m1 >> low.bit_length()).bit_count()
        m ^= low
    return -1 if swaps & 1 else 1


class Multivector(_Sparse):
    """Sparse Grassmann-algebra element: map blade-mask -> rational coefficient."""

    __slots__ = ()
    _mismatch = "generator count mismatch"

    def __init__(self, n_gen: int, terms=None):
        if n_gen < 0:
            raise ValueError("n_gen must be >= 0")
        clean = {}
        if terms:
            limit = 1 << n_gen
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError("blade uses a generator beyond n_gen")
                coeff = _as_fraction(coeff)
                if coeff:
                    clean[mask] = coeff
        self._dim = n_gen
        self.terms = clean

    n_gen = property(attrgetter("_dim"), doc="Number of generators e1..eN.")

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, n_gen: int, value) -> "Multivector":
        return cls(n_gen, {0: _as_fraction(value)})

    @classmethod
    def zero(cls, n_gen: int) -> "Multivector":
        return cls(n_gen, {})

    @classmethod
    def one(cls, n_gen: int) -> "Multivector":
        return cls.scalar(n_gen, 1)

    @classmethod
    def generator(cls, n_gen: int, i: int) -> "Multivector":
        if not 1 <= i <= n_gen:
            raise ValueError("generator index out of range")
        return cls(n_gen, {1 << (i - 1): Fraction(1)})

    @classmethod
    def from_blades(cls, n_gen: int, blades) -> "Multivector":
        """Build from an iterable of (index-tuple, coefficient) pairs."""
        terms = {}
        for indices, coeff in blades:
            mask = mask_from_indices(indices)
            terms[mask] = terms.get(mask, Fraction(0)) + _as_fraction(coeff)
        return cls(n_gen, terms)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _product(a, b):
        """Blade product: overlapping blades vanish, disjoint ones merge with
        the sign of the interleaving."""
        acc = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                c = c1 * c2
                if _merge_sign(m1, m2) < 0:
                    c = -c
                prev = acc.get(m)
                if prev is None:
                    acc[m] = c
                else:
                    s = prev + c
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
        return acc

    # bound in the class itself: the bench tracer wraps only a class's own methods
    __add__ = __radd__ = _Sparse.__add__
    __mul__ = _Sparse.__mul__

    # -- structure ---------------------------------------------------------

    def body(self) -> Fraction:
        return self.terms.get(0, Fraction(0))

    def soul(self) -> "Multivector":
        return self._like({m: c for m, c in self.terms.items() if m})

    def grades(self):
        return {m.bit_count() for m in self.terms}

    def parity(self):
        """0 (even), 1 (odd), or None if mixed.  The zero element counts even."""
        pars = {g & 1 for g in self.grades()}
        if not pars:
            return 0
        if len(pars) == 1:
            return pars.pop()
        return None

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self.terms)

    def is_odd(self) -> bool:
        return all(m.bit_count() % 2 == 1 for m in self.terms)

    def even_inverse(self) -> "Multivector":
        """Exact inverse of an even element with nonzero body."""
        if not self.is_even():
            raise ParityError("parity error: inverse needs an even element")
        b = self.body()
        if not b:
            raise NotInvertibleError("not invertible: zero body")
        inv_b = 1 / b
        s = self.soul()
        result = Multivector.scalar(self.n_gen, inv_b)
        power = Multivector.one(self.n_gen)
        sign = 1
        scale = inv_b
        while True:
            power = power * s
            if not power:
                break
            sign = -sign
            scale = scale * inv_b
            result = result + power * (scale if sign > 0 else -scale)
        return result

    # -- serialization / rendering -----------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    def to_json(self):
        return {
            "N": self.n_gen,
            "terms": [
                {"blade": list(indices_from_mask(m)), "coeff": str(c)}
                for m, c in self._sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data) -> "Multivector":
        _, terms = _json_fields(data, "multivector", "N", "terms")
        n_gen = _json_count(data, "multivector", "N")
        return cls.from_blades(n_gen, _terms_from_json(terms, "blade"))

    def __str__(self):
        return _render_terms(
            (coeff, "*".join(f"e{i}" for i in indices_from_mask(mask)))
            for mask, coeff in self._sorted_terms()
        )

    def __repr__(self):
        return f"Multivector({self.n_gen}, {self!s})"

