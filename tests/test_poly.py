import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from superch import (
    Multivector,
    NotDivisibleError,
    NotPerfectSquareError,
    SPoly,
    SRational,
    TruncSeries,
)
from superch.poly import _Packing, _ZPoly


def syms(n=3):
    return SPoly.symbols(n)


def random_spoly(rng, nsym=3, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nsym))
        terms[exps] = F(rng.randint(-5, 5))
    return SPoly(nsym, terms)


class TestArithmetic:
    def test_product_of_symbols(self):
        s1, s2, s3 = syms()
        assert s1 * s1 == s1 ** 2
        assert (s1 ** 2 - s2) + s2 == s1 ** 2
        assert (s1 - s2) * (s1 + s2) == s1 ** 2 - s2 ** 2

    def test_symbol_count_mismatch(self):
        with pytest.raises(ValueError):
            SPoly.symbol(2, 1) + SPoly.symbol(3, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SPoly(2, {(1, -1): 1})

    def test_ring_axioms_random(self):
        rng = random.Random(4)
        for _ in range(60):
            a, b, c = (random_spoly(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a


class TestWeightedDegree:
    def test_basic(self):
        s1, s2, s3 = syms()
        assert (s1 ** 2).weighted_degree() == (2, 2)
        assert (s1 * s2).weighted_degree() == (3, 3)

    def test_known_constant_term(self):
        # the (1,1) constant coefficient (S2^2 - S1^4)/4 is homogeneous of 4
        s1, s2 = syms(2)
        c = (s2 ** 2 - s1 ** 4) * F(1, 4)
        assert c.weighted_degree() == (4, 4)
        assert c.is_weighted_homogeneous(4)

    def test_zero_undefined(self):
        with pytest.raises(ValueError):
            SPoly.zero(3).weighted_degree()

    def test_degrees_add_under_mul(self):
        rng = random.Random(5)
        checked = 0
        while checked < 40:
            a, b = random_spoly(rng), random_spoly(rng)
            if not a or not b:
                continue
            checked += 1
            lo_a, hi_a = a.weighted_degree()
            lo_b, hi_b = b.weighted_degree()
            if a.is_weighted_homogeneous() and b.is_weighted_homogeneous():
                assert (a * b).weighted_degree() == (lo_a + lo_b, hi_a + hi_b)


class TestDivision:
    def test_monomial(self):
        s1, s2, s3 = syms()
        assert (s2 ** 2 * s3).divide_exact(s2 ** 2) == s3

    def test_difference_of_squares(self):
        s1, s2, s3 = syms()
        assert (s1 ** 2 - s2 ** 2).divide_exact(s1 - s2) == s1 + s2

    def test_not_divisible(self):
        s1, s2, s3 = syms()
        with pytest.raises(NotDivisibleError):
            s1.divide_exact(s2)

    def test_roundtrip_random(self):
        rng = random.Random(6)
        checked = 0
        while checked < 40:
            a, b = random_spoly(rng), random_spoly(rng)
            if not b:
                continue
            checked += 1
            assert (a * b).divide_exact(b) == a


class TestSqrt:
    def test_perfect_square(self):
        s1, s2, s3 = syms()
        p = (s1 ** 2 - 3 * s2 + F(1, 2) * s3) ** 2
        r = p.sqrt_exact()
        assert r * r == p

    def test_not_square(self):
        s1, s2, s3 = syms()
        with pytest.raises(NotPerfectSquareError):
            (s1 * s2).sqrt_exact()

    def test_random_squares(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_spoly(rng)
            sq = a * a
            if not sq:
                continue
            r = sq.sqrt_exact()
            assert r * r == sq


class TestFlipAndSpecialize:
    def test_involution(self):
        rng = random.Random(8)
        for _ in range(20):
            a = random_spoly(rng)
            assert a.flip_signs().flip_signs() == a

    def test_flip_value(self):
        s1, s2, s3 = syms()
        assert (s1 ** 2 - s2 + s1 * s3).flip_signs() == s1 ** 2 + s2 + s1 * s3

    def test_zero_odd_symbols(self):
        s1, s2, s3 = syms()
        p = s1 * s2 + s2 ** 2 - s3
        assert p.zero_odd_symbols() == s2 ** 2


class TestEvaluate:
    def test_multivector_values(self):
        s1, s2 = syms(2)
        p = s1 ** 2 - 2 * s2
        one = Multivector.one(2)
        e12 = Multivector.from_blades(2, [((1, 2), 1)])
        v1 = Multivector.scalar(2, 3) + e12
        v2 = Multivector.scalar(2, 1)
        got = p.evaluate([v1, v2], one)
        assert got == Multivector.scalar(2, 7) + 6 * e12

    def test_rational_values(self):
        s1, s2, s3 = syms()
        p = s1 * s2 - s3 ** 2
        vals = [F(1, 2), F(3), F(-1)]
        assert p.evaluate(vals, F(1)) == F(1, 2)

    def test_matches_term_by_term_sum(self):
        # the nested Horner form against sum of coeff * prod(value ** exponent)
        rng = random.Random(31)
        for _ in range(40):
            nsym = rng.randint(1, 4)
            terms = {
                tuple(rng.randint(0, 3) for _ in range(nsym)): F(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(rng.randint(0, 8))
            }
            vals = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nsym)]
            poly = SPoly(nsym, terms)
            expected = F(0)
            for exps, coeff in poly.terms.items():
                for v, e in zip(vals, exps):
                    coeff *= v ** e
                expected += coeff
            assert poly.evaluate(vals, F(1)) == expected


class TestTruncSeries:
    def test_square(self):
        nsym = 1
        s1 = SPoly.symbol(nsym, 1)
        a = TruncSeries(2, [SPoly.one(nsym), -s1, SPoly.zero(nsym)])
        sq = a.square()
        assert sq.coeffs == [SPoly.one(nsym), -2 * s1, s1 ** 2]

    def test_mul_by_one(self):
        nsym = 2
        one = TruncSeries.from_polys(3, [SPoly.one(nsym)], nsym)
        rng = random.Random(9)
        a = TruncSeries(3, [random_spoly(rng, nsym=nsym) for _ in range(4)])
        assert a * one == a

    def test_truncation(self):
        nsym = 1
        one = SPoly.one(nsym)
        plus = TruncSeries(1, [one, one])
        minus = TruncSeries(1, [one, -one])
        assert (plus * minus).coeffs == [one, SPoly.zero(nsym)]

    def test_order_mismatch(self):
        nsym = 1
        one = SPoly.one(nsym)
        with pytest.raises(ValueError):
            TruncSeries(1, [one, one]) * TruncSeries(2, [one, one, one])

    def test_agrees_with_full_product(self):
        rng = random.Random(10)
        nsym = 2
        t = 4
        a = [random_spoly(rng, nsym=nsym) for _ in range(t + 1)]
        b = [random_spoly(rng, nsym=nsym) for _ in range(t + 1)]
        full = [SPoly.zero(nsym) for _ in range(2 * t + 1)]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                full[i + j] = full[i + j] + x * y
        got = TruncSeries(t, a) * TruncSeries(t, b)
        assert got.coeffs == full[: t + 1]


class TestSRational:
    def test_cross_equality(self):
        s1, s2 = syms(2)
        assert SRational(s1 * s2, s2) == SRational(s1 * s2 ** 2, s2 ** 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            SRational(SPoly.one(2), SPoly.zero(2))


class TestRendering:
    def test_text(self):
        s1, s2, s3 = syms()
        assert str(s1 ** 2 - s2) == "S1^2 - S2"

    def test_json_roundtrip(self):
        s1, s2, s3 = syms()
        p = F(1, 6) * (s1 ** 4 - 4 * s1 * s3 + 3 * s2 ** 2)
        assert SPoly.from_json(3, p.to_json()) == p

    def test_latex(self):
        s1, s2 = syms(2)
        assert "\\str_{1}" in (s1 ** 2 - s2).to_latex()


def schoolbook(a, b):
    """Reference product of {exponent tuple: coeff} dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@st.composite
def factor_pairs(draw):
    """(nsym, top, a, b): every exponent sum of a product is at most top,
    and top = 2^w - 1 fills a w-bit slot, so sums reach the packing boundary."""
    nsym = draw(st.integers(1, 4))
    top = (1 << draw(st.integers(1, 4))) - 1
    split = draw(st.integers(0, top))

    def terms(hi):
        exps = st.tuples(*[st.integers(0, hi)] * nsym)
        return st.dictionaries(exps, st.integers(-9, 9).filter(bool), max_size=5)

    return nsym, top, draw(terms(split)), draw(terms(top - split))


BOUNDARY = (2, 3, {(1, 3): 2, (0, 0): 1}, {(2, 0): -1, (0, 0): 3})


class TestPackedKernel:
    @given(factor_pairs())
    @example(BOUNDARY)
    @example((1, 1, {}, {(1,): 1}))
    @example((3, 7, {(0, 0, 0): 5}, {(0, 0, 0): -2}))
    def test_spoly_mul_matches_schoolbook(self, case):
        nsym, _, a, b = case
        got = SPoly(nsym, a) * SPoly(nsym, b)
        assert got == SPoly(nsym, schoolbook(a, b))

    @given(factor_pairs())
    @example(BOUNDARY)
    def test_integer_kernel_matches_schoolbook(self, case):
        nsym, top, a, b = case
        packing = _Packing(nsym, top)

        def packed(terms):
            return _ZPoly({packing.pack(e): c for e, c in terms.items()})

        product = packed(a) * packed(b)
        got = {packing.unpack(k): c for k, c in product.terms.items()}
        assert got == schoolbook(a, b)

    def test_slot_width_holds_max_exponent(self):
        for top in (1, 3, 7, 8, 15, 16):
            packing = _Packing(3, top)
            exps = (top, top, top)
            assert packing.unpack(packing.pack(exps)) == exps
            assert packing.mask == (1 << top.bit_length()) - 1

    def test_boundary_product_fills_slots_without_carry(self):
        packing = _Packing(2, 3)
        s1, s2 = packing.symbol(1), packing.symbol(2)
        product = (s1 * s2 * s2 * s2) * (s1 * s1)
        assert [packing.unpack(k) for k in product.terms] == [(3, 3)]

    def test_to_spoly_divides(self):
        packing = _Packing(2, 2)
        poly = packing.symbol(1) * packing.symbol(2) + _ZPoly({0: 4})
        assert packing.to_spoly(poly, 6) == SPoly(2, {(1, 1): F(1, 6), (0, 0): F(2, 3)})


def _series_cases(nsym, order, max_exp):
    exps = st.tuples(*[st.integers(0, max_exp)] * nsym)
    poly = st.dictionaries(exps, st.integers(-9, 9).filter(bool), max_size=4)
    return st.lists(poly, min_size=order + 1, max_size=order + 1)


class TestSymmetricSquare:
    @given(st.integers(0, 5).flatmap(lambda order: _series_cases(2, order, 3)))
    def test_spoly_series(self, coeffs):
        series = TruncSeries(len(coeffs) - 1, [SPoly(2, c) for c in coeffs])
        assert series.square() == series * series

    @given(st.integers(0, 5).flatmap(lambda order: _series_cases(3, order, 3)))
    def test_integer_kernel_series(self, coeffs):
        # each coefficient has exponents <= 3; two factors sum to at most 6
        packing = _Packing(3, 6)
        series = TruncSeries(
            len(coeffs) - 1,
            [_ZPoly({packing.pack(e): c for e, c in terms.items()}) for terms in coeffs],
        )
        assert series.square() == series * series


class TestPower:
    def test_zero_power_is_one(self):
        s1, s2, _ = syms()
        assert (s1 - 2 * s2) ** 0 == SPoly.one(3)
        assert SPoly.zero(3) ** 0 == SPoly.one(3)

    def test_matches_repeated_product(self):
        rng = random.Random(31)
        for _ in range(10):
            a = random_spoly(rng, max_exp=2)
            product = SPoly.one(3)
            for k in range(7):
                assert a ** k == product
                product = product * a

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            syms()[0] ** -1
