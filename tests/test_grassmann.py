import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import blade_mul
from superch import (
    Multivector,
    NotInvertibleError,
    ParityError,
)


def mv(*blades, n=4):
    return Multivector.from_blades(n, blades)


class TestBladeMul:
    def test_anticommutation(self):
        assert blade_mul((1,), (2,)) == (1, (1, 2))
        assert blade_mul((2,), (1,)) == (-1, (1, 2))

    def test_nilpotency(self):
        sign, _ = blade_mul((1,), (1,))
        assert sign == 0

    def test_interleave_sign(self):
        # moving e2 past e3 costs one transposition
        assert blade_mul((1, 3), (2,)) == (-1, (1, 2, 3))

    def test_scalar_blade(self):
        assert blade_mul((), (1, 2)) == (1, (1, 2))

    @given(st.data())
    @settings(max_examples=200)
    def test_graded_commutation_sign(self, data):
        n = 6
        b1 = tuple(sorted(data.draw(st.sets(st.integers(1, n), max_size=n))))
        b2 = tuple(sorted(data.draw(st.sets(st.integers(1, n), max_size=n))))
        s12, prod = blade_mul(b1, b2)
        s21, _ = blade_mul(b2, b1)
        if s12 == 0:
            assert s21 == 0
        else:
            expect = (-1) ** (len(b1) * len(b2))
            assert s12 == expect * s21
            assert prod == tuple(sorted(b1 + b2))


def random_mv(rng, n=4, max_terms=4):
    blades = []
    for _ in range(rng.randint(0, max_terms)):
        indices = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        blades.append((indices, F(rng.randint(-5, 5), rng.randint(1, 4))))
    return Multivector.from_blades(n, blades)


class TestArithmetic:
    def test_add_zero(self):
        a = mv(((1, 2), 3), ((), 1))
        assert a + Multivector.zero(4) == a

    def test_add_cancels(self):
        t = mv(((1,), 1))
        assert not (t + mv(((1,), -1)))

    def test_add_scalars(self):
        a = mv(((), 1), ((1, 2), 1)) + mv(((), 2), ((1, 2), -1))
        assert a == Multivector.scalar(4, 3)

    def test_mismatched_generators(self):
        with pytest.raises(ValueError):
            Multivector.one(3) + Multivector.one(4)
        with pytest.raises(ValueError):
            Multivector.one(3) * Multivector.one(4)

    def test_mul_nilpotent(self):
        e1 = Multivector.generator(4, 1)
        one = Multivector.one(4)
        assert (one + e1) * (one - e1) == one

    def test_mul_blades(self):
        assert mv(((1,), 1)) * mv(((2, 3), 1)) == mv(((1, 2, 3), 1))
        assert not (mv(((1, 2), 1)) * mv(((1, 3), 1)))

    def test_associative_distributive(self):
        rng = random.Random(0)
        for _ in range(60):
            a, b, c = (random_mv(rng, n=6) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_parity_grading(self):
        rng = random.Random(1)
        for _ in range(100):
            a, b = random_mv(rng), random_mv(rng)
            pa, pb = a.parity(), b.parity()
            if pa is None or pb is None:
                continue
            prod = a * b
            if prod:
                assert prod.parity() == (pa + pb) % 2

    def test_pow(self):
        e12 = mv(((1, 2), 1))
        x = Multivector.scalar(4, 2) + e12
        assert x ** 3 == Multivector.scalar(4, 8) + 12 * e12


class TestBodySoul:
    def test_body_soul_split(self):
        a = mv(((), 3), ((1, 2), 2))
        assert a.body() == 3
        assert a.soul() == mv(((1, 2), 2))
        assert a == Multivector.scalar(4, a.body()) + a.soul()

    def test_body_of_soulful(self):
        assert mv(((1,), 1)).body() == 0

    def test_soul_nilpotent(self):
        rng = random.Random(2)
        for _ in range(20):
            a = random_mv(rng, n=4)
            s = a.soul()
            assert not s ** 5  # soul^(N+1) = 0 for N = 4


class TestEvenInverse:
    def test_one_plus_nilpotent(self):
        one = Multivector.one(4)
        n = mv(((1, 2), 1))
        assert (one + n).even_inverse() == one - n

    def test_scalar(self):
        assert Multivector.scalar(4, 2).even_inverse() == Multivector.scalar(4, F(1, 2))

    def test_zero_body(self):
        with pytest.raises(NotInvertibleError):
            mv(((1, 2), 1)).even_inverse()

    def test_odd_parity(self):
        with pytest.raises(ParityError):
            mv(((1,), 1), ((), 1)).even_inverse()

    def test_inverse_roundtrip(self):
        rng = random.Random(3)
        tried = 0
        while tried < 25:
            a = random_mv(rng, n=6)
            ae = Multivector(6, {m: c for m, c in a.terms.items() if m.bit_count() % 2 == 0})
            if not ae.body():
                continue
            tried += 1
            assert ae.even_inverse() * ae == Multivector.one(6)


class TestSerialization:
    def test_roundtrip(self):
        a = mv(((), F(3, 2)), ((1, 3), -2))
        assert Multivector.from_json(a.to_json()) == a

    def test_schema(self):
        a = mv(((1, 2), F(1, 3)))
        data = a.to_json()
        assert data == {"N": 4, "terms": [{"blade": [1, 2], "coeff": "1/3"}]}

    @pytest.mark.parametrize("data, match", [
        ([], "object"),
        ({"terms": []}, "'N'"),
        ({"N": 2}, "'terms'"),
        ({"N": 2, "terms": {"blade": [1]}}, "JSON list"),
        ({"N": 2, "terms": [{"blade": [1]}]}, "'coeff'"),
        ({"N": 2, "terms": [{"coeff": "1"}]}, "'blade'"),
        ({"N": 2, "terms": [{"blade": [1], "coeff": 0.5}]}, "string or an integer"),
    ])
    def test_from_json_rejects_bad_payload(self, data, match):
        with pytest.raises(ValueError, match=match):
            Multivector.from_json(data)


class TestPower:
    def test_zero_power_is_one(self):
        assert mv(((1, 2), 3), ((), 2)) ** 0 == Multivector.one(4)
        assert Multivector.zero(4) ** 0 == Multivector.one(4)

    def test_matches_repeated_product(self):
        rng = random.Random(32)
        for _ in range(10):
            a = random_mv(rng)
            product = Multivector.one(4)
            for k in range(7):
                assert a ** k == product
                product = product * a

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Multivector.scalar(4, 2) ** -1
