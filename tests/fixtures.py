"""Golden coefficient fixtures for the published low-dimension identities.

Each identity is a list of SPoly coefficients, index j multiplying
M^(p+q-j), normalized so the S1^(2pq) monomial of the top coefficient is
+1 (OSp cases: leading graded-lex monomial +1).

``factorize_small`` returns the published matrix-polynomial factors of the
(1,1), (2,1) and (1,2) identities.  ``osp_random_pair`` and its helpers
sample orthosymplectic supermatrices M = Omega * Z; they draw their entries
with ``superch.matrices._random_entry``, so they consume the RNG in the
same order as the package's own sampler.
"""

import random
from fractions import Fraction as F

from superch import Multivector, SPoly, SuperMatrix
from superch.matrices import _random_entry


def _syms(n):
    return SPoly.symbols(n)


def identity_11():
    s1, s2 = _syms(2)
    return [
        s1 ** 2,
        -s1 * s2,
        (s2 ** 2 - s1 ** 4) * F(1, 4),
    ]


def identity_21():
    s1, s2, s3 = _syms(3)
    return [
        (s1 ** 2 - s2) ** 2,
        (s1 ** 2 - s2) * (s1 ** 3 + 3 * s1 * s2 - 4 * s3) * F(-1, 3),
        (
            s1 ** 6 - 9 * s1 ** 4 * s2 + 16 * s1 ** 3 * s3
            - 9 * s1 ** 2 * s2 ** 2 + 9 * s2 ** 3 - 8 * s3 ** 2
        ) * F(-1, 18),
        (s1 ** 4 - 4 * s1 * s3 + 3 * s2 ** 2)
        * (s1 ** 3 - 3 * s1 * s2 + 2 * s3) * F(1, 18),
    ]


def identity_12():
    s1, s2, s3 = _syms(3)
    return [
        (s1 ** 2 + s2) ** 2,
        (s1 ** 2 + s2) * (s1 ** 3 - 3 * s1 * s2 - 4 * s3) * F(1, 3),
        (
            s1 ** 6 + 9 * s1 ** 4 * s2 + 16 * s1 ** 3 * s3
            - 9 * s1 ** 2 * s2 ** 2 - 9 * s2 ** 3 - 8 * s3 ** 2
        ) * F(-1, 18),
        (s1 ** 4 - 4 * s1 * s3 + 3 * s2 ** 2)
        * (s1 ** 3 + 3 * s1 * s2 + 2 * s3) * F(-1, 18),
    ]


def identity_31():
    s1, s2, s3, s4 = _syms(4)
    c0 = (s1 ** 3 - 3 * s1 * s2 + 2 * s3) ** 2
    c1 = (s1 ** 3 - 3 * s1 * s2 + 2 * s3) * (
        s1 ** 4 - 4 * s1 * s3 - 3 * s2 ** 2 + 6 * s4
    ) * F(-1, 2)
    c2 = (
        s1 ** 8
        + 4 * s1 ** 6 * s2
        - 32 * s1 ** 5 * s3
        - 6 * s1 ** 4 * (s2 ** 2 - 6 * s4)
        + 64 * s1 ** 3 * s2 * s3
        - 4 * s1 ** 2 * (9 * s2 ** 3 + 18 * s2 * s4 + 8 * s3 ** 2)
        + 96 * s1 * s2 ** 2 * s3
        + 9 * s2 ** 4
        - 32 * s2 * s3 ** 2
        + 36 * s4 ** 2
        - 36 * s2 ** 2 * s4
    ) * F(1, 16)
    c3 = (
        s1 ** 9
        - 12 * s1 ** 7 * s2
        + 24 * s1 ** 6 * s3
        + 18 * s1 ** 5 * (s2 ** 2 - 2 * s4)
        + 24 * s1 ** 4 * s2 * s3
        - 12 * s1 ** 3 * (3 * s2 ** 3 - 6 * s2 * s4 + 8 * s3 ** 2)
        - 72 * s1 ** 2 * s3 * (s2 ** 2 - 2 * s4)
        - 8 * s3 * (9 * s2 ** 3 - 18 * s2 * s4 + 8 * s3 ** 2)
        + 3 * s1 * (27 * s2 ** 4 - 36 * s2 ** 2 * s4 + 32 * s2 * s3 ** 2 - 36 * s4 ** 2)
    ) * F(1, 48)
    c4 = (
        (s1 ** 4 - 6 * s1 ** 2 * s2 + 3 * s2 ** 2 + 8 * s1 * s3 - 6 * s4)
        * (
            s1 ** 6
            - 3 * s1 ** 4 * s2
            + 9 * s1 ** 2 * s2 ** 2
            + 9 * s2 ** 3
            - 24 * s1 * s2 * s3
            - 8 * s1 ** 3 * s3
            + 16 * s3 ** 2
            + 18 * s4 * (s1 ** 2 - s2)
        )
    ) * F(-1, 96)
    return [c0, c1, c2, c3, c4]


def identity_22():
    s1, s2, s3, s4 = _syms(4)
    c0 = (s1 ** 4 - 4 * s1 * s3 + 3 * s2 ** 2) ** 2
    c1 = -2 * (s1 ** 4 - 4 * s1 * s3 + 3 * s2 ** 2) * (
        s1 ** 3 * s2 - 3 * s1 * s4 + 2 * s2 * s3
    )
    c2 = (
        s1 ** 10 * F(-1, 12)
        + s1 ** 6 * s2 ** 2 * F(3, 2)
        + s1 ** 4 * (4 * s3 ** 2 - 9 * s2 * s4)
        - s1 * s3 ** 3 * F(32, 3)
        + s1 ** 2 * (s2 ** 4 + 4 * s4 ** 2) * F(9, 4)
        + 3 * s2 ** 2 * (4 * s3 ** 2 - 3 * s2 * s4)
    )
    c3 = (
        s1 ** 9 * s2 * F(1, 12)
        - s1 ** 7 * s4
        + s1 * (8 * s3 ** 2 * s4 - s2 ** 5 * F(9, 4) - 9 * s2 * s4 ** 2)
        + 2 * s1 ** 6 * s2 * s3
        + 2 * s1 ** 4 * s3 * s4
        + s1 ** 3 * s2 * (3 * s2 * s4 - 8 * s3 ** 2)
        + 6 * s1 ** 2 * s2 ** 3 * s3
        - s1 ** 5 * s2 ** 3 * F(3, 2)
        + s2 * s3 * (9 * s2 * s4 - 8 * s3 ** 2) * F(2, 3)
    )
    c4 = (
        (s1 ** 6 + 9 * s1 ** 2 * s2 ** 2 - 8 * s1 ** 3 * s3 + 16 * s3 ** 2 - 18 * s2 * s4) ** 2
        - 9 * (s1 ** 4 * s2 - 3 * s2 ** 3 + 8 * s1 * s2 * s3 - 6 * s1 ** 2 * s4) ** 2
    ) * F(1, 144)
    return [c0, c1, c2, c3, c4]


def identity_22_osp():
    s1, s2, s3, s4 = _syms(4)
    zero = SPoly.zero(4)
    return [
        s2 ** 2,
        zero,
        -s2 * s4,
        zero,
        (4 * s4 ** 2 - s2 ** 4) * F(1, 16),
    ]


def identity_24_osp():
    s1, s2, s3, s4, s5, s6 = _syms(6)
    zero = SPoly.zero(6)
    c0 = (s2 ** 2 + 2 * s4) ** 2
    c2 = (s2 ** 2 + 2 * s4) * (s2 ** 3 - 6 * s2 * s4 - 16 * s6) * F(1, 6)
    c4 = (
        s2 ** 6
        + 18 * s2 ** 4 * s4
        - 36 * s2 ** 2 * s4 ** 2
        + 64 * s2 ** 3 * s6
        - 72 * s4 ** 3
        - 128 * s6 ** 2
    ) * F(-1, 72)
    c6 = (
        s2 ** 7
        + 6 * s2 ** 5 * s4
        + 12 * s2 ** 3 * s4 ** 2
        + 72 * s2 * s4 ** 3
        - 8 * s2 ** 4 * s6
        - 96 * s2 ** 2 * s4 * s6
        + 96 * s4 ** 2 * s6
        - 128 * s2 * s6 ** 2
    ) * F(-1, 144)
    return [c0, zero, c2, zero, c4, zero, c6]


def factors_21():
    """The published degree-2 and degree-1 matrix-polynomial factors."""
    s1, s2, s3 = _syms(3)
    p2 = [
        s1 ** 2 - s2,
        (s1 ** 3 - s3) * F(-2, 3),
        (s1 ** 4 - 4 * s1 * s3 + 3 * s2 ** 2) * F(1, 6),
    ]
    p1 = [
        s1 ** 2 - s2,
        (s1 ** 3 - 3 * s1 * s2 + 2 * s3) * F(1, 3),
    ]
    return p2, p1


def factorize_small(ident):
    """Matrix-polynomial factors (degrees p and q) for the small cases.

    Returns (left, right) coefficient lists (descending powers of M, central
    SPoly entries) whose convolution reproduces ident.coeffs, or None when
    the case is not one of (1,1), (2,1), (1,2).
    """
    pq = (ident.p, ident.q)
    if pq == (1, 1):
        s1, s2 = SPoly.symbols(2)
        half = F(1, 2)
        left = [s1, (s2 + s1 ** 2) * (-half)]
        right = [s1, (s2 - s1 ** 2) * (-half)]
        return left, right
    if pq == (2, 1):
        return factors_21()
    if pq == (1, 2):
        p2, p1 = factors_21()
        return [c.flip_signs() for c in p2], [c.flip_signs() for c in p1]
    return None


def transpose(entries):
    return [list(col) for col in zip(*entries)]


def osp_random_pair(p, q, n_gen, seed, max_soul_grade=3):
    """Random (M, Z) with Z graded antisymmetric and M = Omega * Z.

    Z has A antisymmetric, D symmetric, B = C^t; Omega = diag(1, J) with J
    the standard antisymmetric form, so q must be even.
    """
    if q % 2:
        raise ValueError("no symplectic form: q must be even")
    rng = random.Random(seed)
    zero = Multivector.zero(n_gen)

    a = [[zero] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            v = _random_entry(rng, n_gen, max_soul_grade, 0)
            a[i][j] = v
            a[j][i] = -v
    d = [[zero] * q for _ in range(q)]
    for i in range(q):
        d[i][i] = _random_entry(rng, n_gen, max_soul_grade, 0)
        for j in range(i + 1, q):
            v = _random_entry(rng, n_gen, max_soul_grade, 0)
            d[i][j] = v
            d[j][i] = v
    c = [[_random_entry(rng, n_gen, max_soul_grade, 1) for _ in range(p)] for _ in range(q)]
    b = transpose(c)

    z_entries = [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]
    z = SuperMatrix(p, q, n_gen, z_entries, validate=False)
    return (omega_matrix(p, q, n_gen) * z), z


def osp_random(p, q, n_gen, seed, max_soul_grade=3) -> SuperMatrix:
    """Random OSp supermatrix M = Omega * Z (q must be even)."""
    return osp_random_pair(p, q, n_gen, seed, max_soul_grade)[0]


def omega_matrix(p, q, n_gen) -> SuperMatrix:
    """Omega = diag(I_p, J) with J = [[0, I], [-I, 0]] (q even)."""
    if q % 2:
        raise ValueError("no symplectic form: q must be even")
    n = p + q
    one = Multivector.one(n_gen)
    zero = Multivector.zero(n_gen)
    entries = [[zero] * n for _ in range(n)]
    for i in range(p):
        entries[i][i] = one
    h = q // 2
    for i in range(h):
        entries[p + i][p + h + i] = one
        entries[p + h + i][p + i] = -one
    return SuperMatrix(p, q, n_gen, entries, validate=False)


def supertranspose(m: SuperMatrix) -> SuperMatrix:
    """Supertranspose with the block rule (A^t, -C^t; B^t, D^t).

    This sign convention is the one under which the graded antisymmetry
    Omega*M + supertranspose(M)*Omega = 0 holds exactly for M = Omega*Z
    built by osp_random (calibrated numerically, all tested (p,q)).
    """
    at = transpose(m.block_a())
    bt = transpose(m.block_b())
    ct = transpose(m.block_c())
    dt = transpose(m.block_d())
    top = [ra + [-e for e in rc] for ra, rc in zip(at, ct)]
    bottom = [list(rb) + list(rd) for rb, rd in zip(bt, dt)]
    return SuperMatrix(m.p, m.q, m.n_gen, top + bottom, validate=False)


GOLDEN = {
    (1, 1): identity_11,
    (2, 1): identity_21,
    (1, 2): identity_12,
    (3, 1): identity_31,
    (2, 2): identity_22,
}
