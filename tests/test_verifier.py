import random
from fractions import Fraction as F

import pytest

from oracles import resultant
from superch import (
    CHIdentity,
    Multivector,
    SPoly,
    SuperMatrix,
    check_degenerate,
    det,
    evaluate_identity,
    identity_coeffs,
    oracle_det_permutation,
    osp_random,
    osp_specialize,
    random_supermatrix,
    verify_batch,
    verify_factorization,
)
from superch.matrices import random_supermatrix_raw


def scal(v, n=4):
    return Multivector.scalar(n, v)


def diag_11(a, d, n=4):
    zero = Multivector.zero(n)
    return SuperMatrix(1, 1, n, [[scal(a, n), zero], [zero, scal(d, n)]])


class TestEvaluateIdentity:
    def test_numeric_11(self):
        # diag(2,3): str1=-1, str2=-5; the identity reduces to M^2-5M+6I
        m = diag_11(2, 3)
        assert evaluate_identity(m, identity_coeffs(1, 1)).is_zero()

    def test_degenerate_coefficients_have_zero_body(self):
        m = diag_11(2, 2)
        assert check_degenerate(m)
        ident = identity_coeffs(1, 1)
        strs = [m.pow(j).supertrace() for j in (1, 2)]
        one = Multivector.one(4)
        for c in ident.coeffs:
            assert c.evaluate(strs, one).body() == 0
        # the residual is still exactly zero, but vacuously so
        assert evaluate_identity(m, ident).is_zero()

    def test_random_grassmann_21(self):
        ident = identity_coeffs(2, 1)
        for seed in range(3):
            m = random_supermatrix(2, 1, 6, seed=seed)
            assert evaluate_identity(m, ident).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_identity(diag_11(1, 2), identity_coeffs(2, 1))

    def test_coefficient_count_must_be_n_plus_one(self):
        # (2,1) needs four coefficients; an extra one would multiply M^3 again
        m = random_supermatrix(2, 1, 6, seed=0)
        good = identity_coeffs(2, 1)
        one = SPoly.one(good.nsym)
        for coeffs in (good.coeffs + [SPoly.zero(good.nsym)], good.coeffs + [one], good.coeffs[:-1]):
            with pytest.raises(ValueError, match="coefficients"):
                evaluate_identity(m, CHIdentity(2, 1, coeffs))


class TestCheckDegenerate:
    def test_distinct(self):
        assert not check_degenerate(diag_11(2, 3))

    def test_equal(self):
        assert check_degenerate(diag_11(2, 2))

    def test_irrational_spectrum(self):
        # A with char poly x^2 - 2, D = [1]: resultant -1, not degenerate
        zero = Multivector.zero(4)
        m = SuperMatrix(
            2, 1, 4,
            [
                [zero, scal(1), zero],
                [scal(2), zero, zero],
                [zero, zero, scal(1)],
            ],
        )
        assert not check_degenerate(m)
        assert resultant([F(-2), F(0), F(1)], [F(-1), F(1)]) == -1

    def test_soul_ignored(self):
        e12 = Multivector.from_blades(4, [((1, 2), 1)])
        zero = Multivector.zero(4)
        m = SuperMatrix(1, 1, 4, [[scal(2) + e12, zero], [zero, scal(2)]])
        assert check_degenerate(m)


class TestResultant:
    def test_common_root(self):
        # (x-1)(x-2) and (x-2)(x-3)
        assert resultant([F(2), F(-3), F(1)], [F(6), F(-5), F(1)]) == 0

    def test_no_common_root(self):
        assert resultant([F(2), F(-3), F(1)], [F(12), F(-7), F(1)]) != 0

    def test_product_of_root_differences(self):
        # res((x-a)(x-b), (x-c)) with lead 1 = (c-a)(c-b)
        a, b, c = F(1), F(2), F(5)
        f = [a * b, -(a + b), F(1)]
        g = [-c, F(1)]
        assert resultant(f, g) == (c - a) * (c - b)


class TestDetOracle:
    def test_agrees_with_cofactor(self):
        rng = random.Random(16)
        even_masks = [m for m in range(16) if m.bit_count() % 2 == 0]
        for size in (1, 2, 3):
            for _ in range(20):
                rows = []
                for _ in range(size):
                    row = []
                    for _ in range(size):
                        terms = {rng.choice(even_masks): F(rng.randint(-4, 4)) for _ in range(2)}
                        row.append(Multivector(4, terms))
                    rows.append(row)
                assert oracle_det_permutation(rows) == det(rows)

    def test_identity(self):
        one = Multivector.one(4)
        zero = Multivector.zero(4)
        i2 = [[one, zero], [zero, one]]
        assert oracle_det_permutation(i2) == one

    def test_1x1(self):
        assert oracle_det_permutation([[scal(7)]]) == scal(7)

    def test_size_limit(self):
        one = Multivector.one(2)
        rows = [[one] * 6 for _ in range(6)]
        with pytest.raises(ValueError):
            oracle_det_permutation(rows)


class TestVerifyBatch:
    def test_11_batch(self):
        report = verify_batch(1, 1, trials=25, seed=7)
        assert report.passes == 25
        assert report.failures == 0
        assert report.all_passed()
        assert report.trials == report.passes + report.failures + report.skips

    def test_deterministic(self):
        a = verify_batch(1, 1, trials=5, seed=3)
        b = verify_batch(1, 1, trials=5, seed=3)
        assert a.to_json_string() == b.to_json_string()

    def test_trials_precondition(self):
        with pytest.raises(ValueError):
            verify_batch(1, 1, trials=0, seed=0)

    def test_sampler_preconditions(self):
        # the same checks random_supermatrix makes, not a clipped blade pool
        with pytest.raises(ValueError, match="n_gen"):
            verify_batch(1, 1, trials=1, seed=0, n_gen=0)
        with pytest.raises(ValueError, match="exceeds"):
            verify_batch(2, 1, trials=1, seed=0, n_gen=2, max_soul_grade=5)

    def test_corrupted_identity_fails(self):
        good = identity_coeffs(1, 1)
        bad = CHIdentity(1, 1, [good.coeffs[0], good.coeffs[1], good.coeffs[2] + 1])
        report = verify_batch(1, 1, trials=3, seed=0, identity=bad)
        assert report.failures == 3
        assert not report.all_passed()
        assert report.outcomes[0].residual is not None

    def test_report_json_schema(self):
        report = verify_batch(1, 1, trials=2, seed=1)
        data = report.to_json()
        for key in ("p", "q", "seed", "trials", "passes", "failures",
                    "degenerate_skips", "outcomes"):
            assert key in data


class TestOSpVerification:
    def test_osp_22_annihilation(self):
        ident = osp_specialize(identity_coeffs(2, 2))
        for seed in range(5):
            m = osp_random(2, 2, 6, seed=seed)
            if check_degenerate(m):
                continue
            assert evaluate_identity(m, ident).is_zero()


class TestVerifyFactorization:
    def test_perturbed_factor_rejected(self):
        from superch import factorize_small

        ident = identity_coeffs(2, 1)
        left, right = factorize_small(ident)
        assert verify_factorization(ident, left, right)
        bad_right = [right[0], right[1] + SPoly.symbol(3, 1)]
        assert not verify_factorization(ident, left, bad_right)

    def test_degree_mismatch(self):
        ident = identity_coeffs(2, 1)
        with pytest.raises(ValueError):
            verify_factorization(ident, [SPoly.one(3)], [SPoly.one(3)])


class TestResultantAgainstRoots:
    @staticmethod
    def monic(roots):
        """Ascending coefficients of prod (x - r)."""
        coeffs = [F(1)]
        for r in roots:
            shifted = [F(0)] + coeffs
            coeffs = [s - r * c for s, c in zip(shifted, coeffs + [F(0)])]
        return coeffs

    @pytest.mark.parametrize("total", range(2, 9))
    def test_product_of_root_differences(self, total):
        rng = random.Random(total)
        for m in range(1, total):
            rs = [rng.randint(-4, 4) for _ in range(m)]
            ss = [rng.randint(-4, 4) for _ in range(total - m)]
            expected = F(1)
            for r in rs:
                for s in ss:
                    expected *= r - s
            assert resultant(self.monic(rs), self.monic(ss)) == expected
