"""Slow, independent routes to results the package computes another way.

``body_char_poly`` and ``resultant`` decide whether two block spectra meet
the long way round: each body characteristic polynomial as a determinant
over univariate polynomials with zero-generator Multivector coefficients,
then the Sylvester resultant of the two.  ``superch.check_degenerate`` must
reach the same decision on every sample.

``oracle_det_permutation`` is the Leibniz permutation sum, checked against
the memoized Laplace expansion of ``superch.det``; ``verify_factorization``
multiplies two matrix-polynomial factors out and compares the product with
an identity; ``blade_mul`` multiplies two index-tuple blades, as a
reference for the bitmask sign rule inside ``Multivector.__mul__``.

``osp_specialize_gcd`` reaches the OSp identity the long way: it sets the
odd supertraces to zero in the full identity and divides out the sympy gcd
of the surviving coefficients; ``superch.osp_specialize`` must give the same
bytes, or the same error, from the half-size identity.
"""

import itertools
from fractions import Fraction

from superch import CHIdentity, DerivationError, Multivector, SPoly, det
from superch.charfn import char_poly_block
from superch.grassmann import _merge_sign, indices_from_mask, mask_from_indices


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


def oracle_det_permutation(entries):
    """Independent Leibniz permutation-sum determinant (sizes <= 5)."""
    n = len(entries)
    if n > 5:
        raise ValueError("permutation oracle limited to size <= 5")
    if any(len(r) != n for r in entries):
        raise ValueError("matrix must be square")
    total = None
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = None
        for i in range(n):
            e = entries[i][perm[i]]
            term = e if term is None else term * e
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def _perm_sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def verify_factorization(ident, left, right) -> bool:
    """Does the coefficient convolution of the two factors equal the identity?"""
    if len(left) - 1 + len(right) - 1 != ident.n:
        raise ValueError("factor degrees must sum to the identity degree")
    nsym = ident.nsym

    conv = [SPoly.zero(nsym) for _ in range(ident.n + 1)]
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            conv[i + j] = conv[i + j] + a * b
    return conv == ident.coeffs


def blade_mul(b1, b2):
    """Multiply two blades given as increasing index tuples.

    Returns ``(sign, blade)``; sign is 0 when the blades share a generator
    (nilpotency), otherwise +-1 with the merged, sorted blade.
    """
    m1 = mask_from_indices(b1)
    m2 = mask_from_indices(b2)
    if m1 & m2:
        return 0, ()
    return _merge_sign(m1, m2), indices_from_mask(m1 | m2)


def _to_sympy(poly: SPoly, syms):
    import sympy

    acc = sympy.Integer(0)
    for exps, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(syms, exps):
            if e:
                term *= s ** e
        acc += term
    return acc


def _from_sympy(expr, nsym, syms) -> SPoly:
    import sympy

    p = sympy.Poly(expr, *syms)
    terms = {}
    for exps, coeff in p.terms():
        coeff = sympy.Rational(coeff)
        terms[tuple(int(e) for e in exps)] = Fraction(int(coeff.p), int(coeff.q))
    return SPoly(nsym, terms)


def osp_specialize_gcd(ident: CHIdentity) -> CHIdentity:
    """Specialize to OSp: kill odd-index supertraces, strip common factor.

    All odd powers of an OSp matrix have vanishing supertrace, so S1, S3,
    ... are set to zero; the surviving coefficients then share a polynomial
    factor which is divided out, and the result is rescaled so the leading
    (graded-lex) monomial of the top coefficient has coefficient +1.
    """
    import sympy

    specialized = [c.zero_odd_symbols() for c in ident.coeffs]
    nonzero = [c for c in specialized if c]
    if not nonzero:
        raise ValueError("vacuous OSp identity")
    nsym = ident.nsym
    syms = [sympy.Symbol(f"S{j}") for j in range(1, nsym + 1)]
    gcd_expr = sympy.Integer(0)
    for c in nonzero:
        gcd_expr = sympy.gcd(gcd_expr, _to_sympy(c, syms))
    common = _from_sympy(sympy.expand(gcd_expr), nsym, syms)
    reduced = [c.divide_exact(common) if c else c for c in specialized]
    if not reduced[0]:
        raise DerivationError("leading OSp coefficient vanished")
    _, lead_coeff = reduced[0].lead()
    inv = 1 / lead_coeff
    return CHIdentity(ident.p, ident.q, [c * inv for c in reduced])
