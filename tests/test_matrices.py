import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from oracles import body_char_poly, resultant
from superch import (
    Multivector,
    ParityError,
    SuperMatrix,
    adjugate,
    check_degenerate,
    det,
    even_det,
    omega_matrix,
    osp_random,
    osp_random_pair,
    random_supermatrix,
    supertranspose,
)
from superch.matrices import nondegenerate_sample, random_supermatrix_raw


def scal(v, n=4):
    return Multivector.scalar(n, v)


def blade(indices, c=1, n=4):
    return Multivector.from_blades(n, [(tuple(indices), c)])


def diag_11(a, d, n=4):
    zero = Multivector.zero(n)
    return SuperMatrix(1, 1, n, [[scal(a, n), zero], [zero, scal(d, n)]])


def random_even_matrix(rng, size, n_gen=4):
    even_masks = [m for m in range(1 << n_gen) if m.bit_count() % 2 == 0]
    out = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                terms[rng.choice(even_masks)] = F(rng.randint(-4, 4))
            row.append(Multivector(n_gen, terms))
        out.append(row)
    return out


class TestParityValidation:
    def test_valid(self):
        m = SuperMatrix(1, 1, 4, [[scal(2), blade([1])], [blade([2]), scal(3)]])
        assert m.n == 2

    def test_odd_in_diagonal_block(self):
        with pytest.raises(ParityError):
            SuperMatrix(1, 1, 4, [[blade([1]), blade([2])], [blade([3]), scal(1)]])

    def test_even_in_off_diagonal_block(self):
        with pytest.raises(ParityError):
            SuperMatrix(1, 1, 4, [[scal(1), scal(1)], [blade([1]), scal(1)]])


class TestSupertrace:
    def test_numeric(self):
        assert diag_11(2, 3).supertrace() == scal(-1)

    def test_block_cross_terms(self):
        # A=[2], D=[3], B=[e1], C=[e2]: str(M^2) = -5 + 2 e1 e2
        m = SuperMatrix(1, 1, 4, [[scal(2), blade([1])], [blade([2]), scal(3)]])
        m2 = m * m
        assert m2.supertrace() == scal(-5) + blade([1, 2], 2)

    def test_super_cyclic(self):
        m1 = random_supermatrix_raw(2, 1, 4, seed=1)
        m2 = random_supermatrix_raw(2, 1, 4, seed=2)
        assert (m1 * m2).supertrace() == (m2 * m1).supertrace()


class TestMatMul:
    def test_identity(self):
        m = random_supermatrix_raw(2, 1, 4, seed=3)
        i = SuperMatrix.identity(2, 1, 4)
        assert m * i == m
        assert m.pow(0) == i

    def test_product_parity_valid(self):
        m1 = random_supermatrix_raw(1, 1, 4, seed=4)
        m2 = random_supermatrix_raw(1, 1, 4, seed=5)
        (m1 * m2).validate()  # must not raise

    def test_power_additivity(self):
        m = random_supermatrix_raw(1, 2, 4, seed=6)
        assert m.pow(2) * m.pow(3) == m.pow(5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            random_supermatrix_raw(1, 1, 4, 0) * random_supermatrix_raw(2, 1, 4, 0)


class TestDet:
    def test_identity(self):
        one = Multivector.one(4)
        zero = Multivector.zero(4)
        i3 = [[one if i == j else zero for j in range(3)] for i in range(3)]
        assert det(i3) == one

    def test_2x2(self):
        rng = random.Random(11)
        for _ in range(10):
            e = random_even_matrix(rng, 2)
            assert det(e) == e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def test_nilpotent_entries(self):
        one = Multivector.one(4)
        rows = [
            [one + blade([1, 2]), blade([1, 3])],
            [blade([2, 3]), one],
        ]
        assert det(rows) == one + blade([1, 2])

    def test_multiplicative(self):
        from superch.matrices import mat_mul_entries

        rng = random.Random(12)
        for size in (2, 3, 4):
            for _ in range(5):
                a = random_even_matrix(rng, size)
                b = random_even_matrix(rng, size)
                assert det(mat_mul_entries(a, b)) == det(a) * det(b)

    def test_parity_error(self):
        with pytest.raises(ParityError):
            even_det([[blade([1])]])


class TestAdjugate:
    def test_1x1(self):
        one = Multivector.one(4)
        assert adjugate([[scal(7)]], one) == [[one]]

    def test_2x2(self):
        rng = random.Random(13)
        e = random_even_matrix(rng, 2)
        adj = adjugate(e, Multivector.one(4))
        assert adj == [[e[1][1], -e[0][1]], [-e[1][0], e[0][0]]]

    def test_adjugate_law(self):
        from superch.matrices import mat_mul_entries

        rng = random.Random(14)
        one = Multivector.one(4)
        zero = Multivector.zero(4)
        for size in (2, 3, 4):
            e = random_even_matrix(rng, size)
            adj = adjugate(e, one)
            d = det(e)
            expect = [[d if i == j else zero for j in range(size)] for i in range(size)]
            assert mat_mul_entries(adj, e) == expect
            assert mat_mul_entries(e, adj) == expect


class TestRandomSampling:
    def test_deterministic(self):
        a = random_supermatrix(2, 1, 6, seed=99)
        b = random_supermatrix(2, 1, 6, seed=99)
        assert a == b

    def test_parity_valid(self):
        random_supermatrix(2, 2, 6, seed=1).validate()

    def test_nondegenerate(self):
        from superch import check_degenerate

        for seed in range(5):
            assert not check_degenerate(random_supermatrix(2, 1, 6, seed=seed))

    def test_bad_params(self):
        with pytest.raises(ValueError):
            random_supermatrix(1, 1, 0, seed=0)
        with pytest.raises(ValueError):
            random_supermatrix(1, 1, 2, seed=0, max_soul_grade=3)


# sha256 of the compact JSON of the resample counts of seeds 0..299 at N = 6,
# recorded when the rule was decided through the body characteristic
# polynomials' resultant
RESAMPLE_DIGESTS = {
    (2, 1): "ff1b6107579daf4c45c6862ed0eaea0a21ef0c9be6d2fd42f0d92ae81219ca5f",
    (2, 2): "f87319549bc34139562cb0fb636eba5eaf42e52f805007d4a16d5b2a2f8d9ca5",
    (3, 2): "290b8b84264188522ca11bd4888ef3062d6d0134b591bb833d0516bc48762188",
}


class TestDegeneracyRule:
    @pytest.mark.parametrize("pq", sorted(RESAMPLE_DIGESTS))
    def test_resample_counts_pinned(self, pq):
        counts = [nondegenerate_sample(*pq, 6, seed)[1] for seed in range(300)]
        text = json.dumps(counts, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == RESAMPLE_DIGESTS[pq]

    @pytest.mark.parametrize("pq", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3)])
    def test_agrees_with_resultant_oracle(self, pq):
        for seed in range(100):
            m = random_supermatrix_raw(*pq, 6, seed)
            shared = resultant(body_char_poly(m.block_a()), body_char_poly(m.block_d())) == 0
            assert check_degenerate(m) == shared, seed

    def test_empty_block_is_never_degenerate(self):
        for pq in ((2, 0), (0, 2)):
            assert not check_degenerate(random_supermatrix_raw(*pq, 6, 0))


class TestOSp:
    def test_q_must_be_even(self):
        with pytest.raises(ValueError):
            osp_random(2, 3, 6, seed=0)

    def test_odd_supertraces_vanish(self):
        for (p, q) in [(2, 2), (3, 2), (2, 4)]:
            m = osp_random(p, q, 6, seed=21)
            powers = m.power_table(5)
            for k in (1, 3, 5):
                assert not powers[k].supertrace()

    def test_graded_antisymmetry(self):
        for (p, q) in [(2, 2), (3, 2)]:
            m = osp_random(p, q, 6, seed=22)
            om = omega_matrix(p, q, 6)
            assert ((om * m) + (supertranspose(m) * om)).is_zero()

    def test_z_block_constraints(self):
        from superch.matrices import transpose

        _, z = osp_random_pair(3, 2, 6, seed=23)
        a = z.block_a()
        assert transpose(a) == [[-e for e in row] for row in a]
        d = z.block_d()
        assert transpose(d) == d
        assert z.block_b() == transpose(z.block_c())


class TestSerialization:
    def test_roundtrip(self):
        m = random_supermatrix_raw(2, 1, 4, seed=17)
        assert SuperMatrix.from_json(m.to_json()) == m

    def test_parity_validated_on_load(self):
        m = random_supermatrix_raw(1, 1, 4, seed=18)
        data = m.to_json()
        data["entries"][0][0] = blade([1]).to_json()
        with pytest.raises(ParityError, match=r"\(0,0\)"):
            SuperMatrix.from_json(data)

    def test_from_json_names_missing_key(self):
        with pytest.raises(ValueError, match="'q'"):
            SuperMatrix.from_json({"p": 1})


class TestMatrixPower:
    def test_zero_power_is_identity(self):
        m = random_supermatrix(2, 1, 4, seed=5)
        assert m.pow(0) == SuperMatrix.identity(2, 1, 4)

    def test_matches_repeated_product(self):
        for p, q, seed in ((1, 1, 2), (2, 1, 3), (1, 2, 4)):
            m = random_supermatrix(p, q, 4, seed=seed)
            product = SuperMatrix.identity(p, q, 4)
            for k in range(7):
                assert m.pow(k) == product
                product = product * m

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            diag_11(2, 3).pow(-1)
