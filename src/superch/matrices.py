"""Supermatrices over the Grassmann algebra and division-free linear algebra.

A (p,q) supermatrix has even entries in the diagonal A (p x p) and D (q x q)
blocks and odd entries in the off-diagonal B, C blocks.  Determinants and
adjugates are only taken over square matrices with pairwise commuting
entries (even Multivectors, univariate polynomials over them, polynomials
in the supertraces, or rationals); they are computed division-free because
the even subring contains nilpotents.
"""

from __future__ import annotations

import random

from .grassmann import Multivector, ParityError
from .poly import SPoly, _json_count, _json_fields, _power

# Seeded attempts per sample before giving up on a nondegenerate one
SAMPLE_ATTEMPTS = 100


def det(rows, one=None):
    """Division-free determinant via memoized Laplace expansion.

    Works over any ring whose elements support +, unary -, and *.  ``one``
    is only consulted for the empty matrix (det of nothing is 1).
    """
    n = len(rows)
    if n == 0:
        if one is None:
            raise ValueError("empty determinant needs an explicit unit")
        return one
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    memo = {}

    def minor(cols):
        r = n - len(cols)
        if len(cols) == 1:
            return rows[r][cols[0]]
        cached = memo.get(cols)
        if cached is not None:
            return cached
        acc = None
        for idx, c in enumerate(cols):
            entry = rows[r][c]
            sub = minor(cols[:idx] + cols[idx + 1:])
            term = entry * sub
            if idx & 1:
                term = -term
            acc = term if acc is None else acc + term
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


def adjugate(rows, one):
    """Adjugate (signed-cofactor transpose): adj(E) * E = det(E) * I."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = det(sub, one)
            if (i + j) & 1:
                cof = -cof
            adj[j][i] = cof
    return adj


def mat_mul_entries(a, b):
    """Row-by-column product of generic entry grids (order preserved)."""
    n, k = len(a), len(a[0]) if a else 0
    if b and len(b) != k:
        raise ValueError("dimension mismatch")
    m = len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = a[i][t] * b[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


class SuperMatrix:
    """(p+q) x (p+q) matrix of Multivectors with the super parity pattern."""

    __slots__ = ("p", "q", "n_gen", "entries")

    def __init__(self, p: int, q: int, n_gen: int, entries, validate: bool = True):
        n = p + q
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError("entry grid must be (p+q) x (p+q)")
        self.p = p
        self.q = q
        self.n_gen = n_gen
        self.entries = [list(r) for r in entries]
        if validate:
            self.validate()

    @property
    def n(self) -> int:
        return self.p + self.q

    def validate(self):
        for i in range(self.n):
            for j in range(self.n):
                e = self.entries[i][j]
                if e.n_gen != self.n_gen:
                    raise ValueError(f"entry ({i},{j}) has wrong generator count")
                diagonal_block = (i < self.p) == (j < self.p)
                if diagonal_block and not e.is_even():
                    raise ParityError(f"parity error: entry ({i},{j}) must be even")
                if not diagonal_block and not e.is_odd():
                    raise ParityError(f"parity error: entry ({i},{j}) must be odd")

    # -- block access --------------------------------------------------------

    def block_a(self):
        return [row[: self.p] for row in self.entries[: self.p]]

    def block_b(self):
        return [row[self.p:] for row in self.entries[: self.p]]

    def block_c(self):
        return [row[: self.p] for row in self.entries[self.p:]]

    def block_d(self):
        return [row[self.p:] for row in self.entries[self.p:]]

    # -- algebra ---------------------------------------------------------------

    @classmethod
    def identity(cls, p: int, q: int, n_gen: int) -> "SuperMatrix":
        n = p + q
        one = Multivector.one(n_gen)
        zero = Multivector.zero(n_gen)
        return cls(p, q, n_gen, [[one if i == j else zero for j in range(n)] for i in range(n)], validate=False)

    @classmethod
    def zeros(cls, p: int, q: int, n_gen: int) -> "SuperMatrix":
        n = p + q
        zero = Multivector.zero(n_gen)
        return cls(p, q, n_gen, [[zero] * n for _ in range(n)], validate=False)

    def __mul__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if (self.p, self.q, self.n_gen) != (other.p, other.q, other.n_gen):
            raise ValueError("dimension mismatch")
        return SuperMatrix(
            self.p, self.q, self.n_gen,
            mat_mul_entries(self.entries, other.entries),
            validate=False,
        )

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if (self.p, self.q, self.n_gen) != (other.p, other.q, other.n_gen):
            raise ValueError("dimension mismatch")
        return SuperMatrix(
            self.p, self.q, self.n_gen,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            validate=False,
        )

    def scale(self, value) -> "SuperMatrix":
        """Multiply every entry on the left by an even scalar."""
        return SuperMatrix(
            self.p, self.q, self.n_gen,
            [[value * e for e in row] for row in self.entries],
            validate=False,
        )

    def pow(self, k: int) -> "SuperMatrix":
        return _power(self, k, SuperMatrix.identity(self.p, self.q, self.n_gen))

    def power_table(self, k: int):
        """[I, M, M^2, ..., M^k] computed with k products."""
        out = [SuperMatrix.identity(self.p, self.q, self.n_gen)]
        for _ in range(k):
            out.append(out[-1] * self)
        return out

    def supertrace(self) -> Multivector:
        acc = Multivector.zero(self.n_gen)
        for i in range(self.p):
            acc = acc + self.entries[i][i]
        for i in range(self.p, self.n):
            acc = acc - self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (
            (self.p, self.q, self.n_gen) == (other.p, other.q, other.n_gen)
            and self.entries == other.entries
        )

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return {
            "p": self.p,
            "q": self.q,
            "N": self.n_gen,
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, data) -> "SuperMatrix":
        *_, rows = _json_fields(data, "supermatrix", "p", "q", "N", "entries")
        p, q, n_gen = (_json_count(data, "supermatrix", k) for k in ("p", "q", "N"))
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("supermatrix JSON 'entries' must be a list of lists")
        entries = [[Multivector.from_json(e) for e in row] for row in rows]
        return cls(p, q, n_gen, entries)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)


def _blade_pool(n_gen: int, max_grade: int, parity: int):
    """Masks of the non-scalar blades with grade parity ``parity`` and
    grade <= max_grade, in increasing mask order."""
    return [
        m for m in range(1, 1 << n_gen)
        if m.bit_count() % 2 == parity and m.bit_count() <= max_grade
    ]


def _random_entry(rng, n_gen, max_grade, parity):
    """Random entry of grade parity ``parity``: an even one first draws a
    body in [-9, 9], then each takes up to two distinct blades of its pool
    with coefficients in [-3, 3]."""
    terms = {} if parity else {0: rng.randint(-9, 9)}
    pool = _blade_pool(n_gen, max_grade, parity)
    for mask in rng.sample(pool, min(2, len(pool))):
        terms[mask] = rng.randint(-3, 3)
    return Multivector(n_gen, terms)


def check_sampler_args(n_gen, max_soul_grade):
    """Reject a generator count or soul grade the samplers cannot honour.

    Without this, blade pools are silently clipped to the n_gen generators.
    """
    if n_gen < 1:
        raise ValueError("n_gen must be >= 1")
    if max_soul_grade > n_gen:
        raise ValueError(f"max_soul_grade {max_soul_grade} exceeds n_gen {n_gen}")


def random_supermatrix_raw(p, q, n_gen, seed, max_soul_grade=3) -> SuperMatrix:
    """One seeded random sample; may be degenerate (no resampling)."""
    rng = random.Random(seed)
    n = p + q
    entries = [
        [_random_entry(rng, n_gen, max_soul_grade, int((i < p) != (j < p))) for j in range(n)]
        for i in range(n)
    ]
    return SuperMatrix(p, q, n_gen, entries, validate=False)


def check_degenerate(m: SuperMatrix) -> bool:
    """True iff the body spectra of the A and D blocks share a root.

    Decided on the rational body blocks A0 and D0.  With
    chi_A(x) = det(xI - A0), the matrix chi_A(D0) has eigenvalues
    prod_i (delta_k - lambda_i), so its determinant is +- the resultant of
    the two body characteristic polynomials, and it is zero exactly when
    the spectra meet.  An empty block needs no special case: the
    determinant of a 0 x 0 matrix is the unit.
    """
    a0 = [[e.body() for e in row] for row in m.block_a()]
    d0 = [[e.body() for e in row] for row in m.block_d()]
    x_minus_a0 = [
        [SPoly(1, {(0,): -a, (1,): int(i == j)}) for j, a in enumerate(row)]
        for i, row in enumerate(a0)
    ]
    chi = det(x_minus_a0, one=SPoly.one(1))
    # Horner's rule from the monic top coefficient down
    value = [[int(i == k) for k in range(len(d0))] for i in range(len(d0))]
    for power in range(len(a0) - 1, -1, -1):
        value = mat_mul_entries(value, d0)
        for i, row in enumerate(value):
            row[i] += chi.terms.get((power,), 0)
    return det(value, one=1) == 0


def nondegenerate_sample(p, q, n_gen, seed, max_soul_grade=3):
    """(sample, resamples) for the first nondegenerate of SAMPLE_ATTEMPTS
    seeded attempts, or (None, SAMPLE_ATTEMPTS) if every one is degenerate.

    Attempt a uses the raw seed seed * 1000003 + a, so the samples of
    nearby seeds do not overlap.
    """
    for attempt in range(SAMPLE_ATTEMPTS):
        m = random_supermatrix_raw(p, q, n_gen, seed * 1000003 + attempt, max_soul_grade)
        if not check_degenerate(m):
            return m, attempt
    return None, SAMPLE_ATTEMPTS


def random_supermatrix(p, q, n_gen, seed, max_soul_grade=3) -> SuperMatrix:
    """Seeded random supermatrix with A/D body spectra guaranteed disjoint."""
    check_sampler_args(n_gen, max_soul_grade)
    m, _ = nondegenerate_sample(p, q, n_gen, seed, max_soul_grade)
    if m is None:
        raise RuntimeError("could not generate nondegenerate sample")
    return m
