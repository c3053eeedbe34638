import hashlib
from fractions import Fraction as F

import pytest

from superch import (
    Multivector,
    ParityError,
    SuperMatrix,
    UniPoly,
    char_poly_block,
    check_equivalence,
    full_char_poly,
    h_via_a,
    h_via_d,
    random_supermatrix,
)
from superch.matrices import random_supermatrix_raw


def scal(v, n=4):
    return Multivector.scalar(n, v)


def blade(indices, c=1, n=4):
    return Multivector.from_blades(n, [(tuple(indices), c)])


def block_diag(p, q, diag, n=4):
    zero = Multivector.zero(n)
    size = p + q
    entries = [[scal(diag[i], n) if i == j else zero for j in range(size)] for i in range(size)]
    return SuperMatrix(p, q, n, entries)


class TestUniPoly:
    def test_arithmetic(self):
        x = UniPoly.x(4)
        p = (x - scal(2)) * (x - scal(3))
        assert p.coeffs == [scal(6), scal(-5), scal(1)]
        assert p.degree() == 2

    def test_trailing_zeros_pruned(self):
        z = UniPoly(4, [scal(1), Multivector.zero(4)])
        assert z.degree() == 0

    def test_noncommutative_coefficients(self):
        # odd coefficients anticommute; x stays central
        b = UniPoly.const(blade([1]))
        c = UniPoly.const(blade([2]))
        assert b * c == -(c * b)


class TestCharPolyBlock:
    def test_1x1(self):
        p = char_poly_block([[scal(5)]], 4)
        assert p == UniPoly.x(4) - scal(5)

    def test_diagonal(self):
        p = char_poly_block([[scal(1), Multivector.zero(4)], [Multivector.zero(4), scal(2)]], 4)
        x = UniPoly.x(4)
        assert p == (x - scal(1)) * (x - scal(2))

    def test_rotation_block(self):
        e = [[scal(0), scal(1)], [scal(-1), scal(0)]]
        p = char_poly_block(e, 4)
        x = UniPoly.x(4)
        assert p == x * x + UniPoly.one(4)

    def test_monic(self):
        m = random_supermatrix(2, 1, 4, seed=31)
        p = char_poly_block(m.block_a(), 4)
        assert p.degree() == 2
        assert p.coeffs[-1] == Multivector.one(4)

    def test_parity_error(self):
        with pytest.raises(ParityError):
            char_poly_block([[blade([1])]], 4)


class TestRatioForms:
    def test_block_diagonal_via_d(self):
        m = block_diag(2, 1, [1, 2, 3])
        rd = h_via_d(m)
        a = char_poly_block(m.block_a(), 4)
        d = char_poly_block(m.block_d(), 4)
        assert rd.numerator == a * d ** m.p
        assert rd.denominator == d ** (m.p + 1)

    def test_block_diagonal_via_a(self):
        m = block_diag(2, 1, [1, 2, 3])
        ra = h_via_a(m)
        a = char_poly_block(m.block_a(), 4)
        d = char_poly_block(m.block_d(), 4)
        assert ra.numerator == a ** (m.q + 1)
        assert ra.denominator == a ** m.q * d

    def test_11_grassmann(self):
        m = SuperMatrix(1, 1, 4, [[scal(2), blade([1])], [blade([2]), scal(3)]])
        rd = h_via_d(m)
        x = UniPoly.x(4)
        # det[d(x)(xI-A) - B adj(xI-D) C] with 1x1 blocks and adj = [1]
        expect = (x - scal(3)) * (x - scal(2)) - UniPoly.const(blade([1])) * UniPoly.const(blade([2]))
        assert rd.numerator == expect
        assert rd.cross_equal(h_via_a(m))

    def test_degrees(self):
        for (p, q) in [(1, 1), (2, 1), (2, 2)]:
            m = random_supermatrix(p, q, 4, seed=32)
            rd = h_via_d(m)
            ra = h_via_a(m)
            assert rd.numerator.degree() == p * (q + 1)
            assert rd.denominator.degree() == q * (p + 1)
            assert ra.numerator.degree() == p * (q + 1)
            assert ra.denominator.degree() == q * (p + 1)


class TestEquivalence:
    def test_block_diagonal(self):
        assert check_equivalence(block_diag(1, 2, [5, 1, 2]))

    @pytest.mark.parametrize("pq", [(2, 1), (2, 2)])
    def test_random_samples(self, pq):
        p, q = pq
        for seed in range(3):
            assert check_equivalence(random_supermatrix(p, q, 6, seed=seed))


# sha256 of str(h_via_d(m)) and str(h_via_a(m)) on raw samples with an
# empty D block, recorded when that block size took a branch of its own.
EMPTY_D_DIGESTS = {
    (2, 0): (
        "9256cbf69c54bcc57108e44461f5be60f4482b9464421724a807d31d10cf0307",
        "e7c0d1b959f6c55bb23f4205beb346ae386ba61c12a418684f246309dc8cb72a",
    ),
    (3, 0): (
        "0e95669de07ac437f65d88bc229e836d4d60afd983d312bb399073af05d0f7c7",
        "67d790af23b6b0fe23b4590997ce3c793493ce27d730ed3f22fe143873943146",
    ),
    (4, 0): (
        "0c49fea10813e0b1e22179944e8091d1f96165448291594295c262fbbf49d1cb",
        "b77d47e16c6df97813080e737e6565423bcb6ff1e9cc47948747483faf5a8fa7",
    ),
}


class TestEmptyBlocks:
    @pytest.mark.parametrize("pq", sorted(EMPTY_D_DIGESTS))
    def test_empty_d_pinned(self, pq):
        m = random_supermatrix_raw(*pq, 6, 0)
        digests = tuple(hashlib.sha256(str(h(m)).encode()).hexdigest() for h in (h_via_d, h_via_a))
        assert digests == EMPTY_D_DIGESTS[pq]

    @pytest.mark.parametrize("pq", [(0, 2), (0, 3)])
    def test_empty_a_equivalent(self, pq):
        for seed in range(3):
            assert check_equivalence(random_supermatrix_raw(*pq, 6, seed))


class TestFullCharPoly:
    def test_diagonal_11(self):
        m = block_diag(1, 1, [2, 3])
        x = UniPoly.x(4)
        assert full_char_poly(m) == ((x - scal(2)) ** 2) * ((x - scal(3)) ** 2)

    def test_degree(self):
        for (p, q) in [(1, 1), (2, 1), (1, 3), (2, 2)]:
            m = random_supermatrix(p, q, 4, seed=33)
            pc = full_char_poly(m)
            assert pc.degree() == 2 * p * q + p + q
            assert pc.coeffs[-1] == Multivector.one(4)


class TestUniPolyPower:
    def test_zero_power_is_one(self):
        assert (UniPoly.x(4) - scal(3)) ** 0 == UniPoly.one(4)
        assert UniPoly.zero(4) ** 0 == UniPoly.one(4)

    def test_matches_repeated_product(self):
        x = UniPoly.x(4)
        for a in (x - scal(2) - blade([1, 2]), x * x + blade([2, 3], 3) * x + scal(F(1, 2))):
            product = UniPoly.one(4)
            for k in range(7):
                assert a ** k == product
                product = product * a

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            UniPoly.x(4) ** -1
