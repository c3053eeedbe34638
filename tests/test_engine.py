import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from fixtures import GOLDEN, factors_21, identity_22_osp, identity_24_osp
from superch import (
    CHIdentity,
    DerivationError,
    SPoly,
    SRational,
    adjugate,
    build_b_matrix,
    det,
    factorize_small,
    identity_coeffs,
    newton_coeffs,
    osp_specialize,
    solve_mu,
)
from superch.charfn import char_poly_block
from superch.grassmann import Multivector


class TestNewtonCoeffs:
    def test_first_orders(self):
        s1, s2, s3, s4 = SPoly.symbols(4)
        b = newton_coeffs(4, 3)
        assert b[0] == SPoly.one(4)
        assert b[1] == -s1
        assert b[2] == (s1 ** 2 - s2) * F(1, 2)
        assert b[3] == (-(s1 ** 3) + 3 * s1 * s2 - 2 * s3) * F(1, 6)

    def test_homogeneous(self):
        b = newton_coeffs(6, 6)
        for j in range(1, 7):
            assert b[j].is_weighted_homogeneous(j)

    def test_trace_oracle(self):
        # b_j evaluated at power-sum traces reproduce det(xI - A) for
        # ordinary rational matrices (independent cofactor expansion).
        rng = random.Random(15)
        for _ in range(10):
            n = rng.randint(1, 5)
            a = [[Multivector.scalar(0, rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            char = char_poly_block(a, 0)
            from superch.matrices import mat_mul_entries

            power = a
            traces = []
            for _ in range(n):
                traces.append(sum((power[i][i].body() for i in range(n)), F(0)))
                power = mat_mul_entries(power, a)
            b = newton_coeffs(n, n)
            for j in range(n + 1):
                assert char.coeff(n - j).body() == b[j].evaluate(traces, F(1))


class TestBMatrix:
    def test_11(self):
        s1, s2 = SPoly.symbols(2)
        assert build_b_matrix(1, 1) == [[-s1]]

    def test_21(self):
        s1, s2, s3 = SPoly.symbols(3)
        assert build_b_matrix(2, 1) == [[(s1 ** 2 - s2) * F(1, 2)]]

    def test_22_toeplitz(self):
        b = newton_coeffs(4, 4)
        assert build_b_matrix(2, 2) == [[b[2], b[1]], [b[3], b[2]]]

    def test_q_greater_than_p(self):
        with pytest.raises(ValueError, match="sign-flip"):
            build_b_matrix(1, 2)


class TestSolveMu:
    def test_q1_is_ratio(self):
        b = newton_coeffs(2, 2)
        (mu1,) = solve_mu(1, 1)
        assert mu1 == SRational(b[2], b[1])

    def test_11_simplified(self):
        # mu1 = (S2 - S1^2) / (2 S1) after cancelling b2/b1
        s1, s2 = SPoly.symbols(2)
        (mu1,) = solve_mu(1, 1)
        assert mu1 == SRational((s2 - s1 ** 2), 2 * s1)

    def test_21(self):
        b = newton_coeffs(3, 3)
        (mu1,) = solve_mu(2, 1)
        assert mu1 == SRational(b[3], b[2])

    def test_q2_closed_form(self):
        # mu2 = (b_p b_(p+2) - b_(p+1)^2) / (b_p^2 - b_(p-1) b_(p+1))
        for p in (2, 3):
            n = p + 2
            b = newton_coeffs(n, n)
            mus = solve_mu(p, 2)
            den = b[p] ** 2 - b[p - 1] * b[p + 1]
            assert mus[0] == SRational(b[p] * b[p + 1] - b[p - 1] * b[p + 2], den)
            assert mus[1] == SRational(b[p] * b[p + 2] - b[p + 1] ** 2, den)


class TestGoldenIdentities:
    @pytest.mark.parametrize("pq", sorted(GOLDEN))
    def test_matches_published(self, pq):
        assert identity_coeffs(*pq).coeffs == GOLDEN[pq]()


class TestStructure:
    @pytest.mark.parametrize("pq", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
    def test_invariants(self, pq):
        p, q = pq
        ident = identity_coeffs(p, q)
        n = p + q
        assert len(ident.coeffs) == n + 1
        for j, c in enumerate(ident.coeffs):
            assert c.is_weighted_homogeneous(2 * p * q + j)
        # top coefficient is a perfect square of weighted degree pq
        root = ident.coeffs[0].sqrt_exact()
        assert root.is_weighted_homogeneous(p * q)
        # next coefficient is divisible by that root (up to normalization,
        # the root is det B)
        ident.coeffs[1].divide_exact(root)

    def test_normalization(self):
        for pq in [(1, 1), (2, 1), (2, 2), (1, 3)]:
            p, q = pq
            ident = identity_coeffs(p, q)
            nsym = p + q
            target = tuple([2 * p * q] + [0] * (nsym - 1))
            assert ident.coeffs[0].coeff_of(target) == 1

    def test_q0_is_classical(self):
        ident = identity_coeffs(3, 0)
        assert ident.coeffs == newton_coeffs(3, 3)


class TestFlipDuality:
    @pytest.mark.parametrize("pq", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
    def test_flip_swaps_pq(self, pq):
        p, q = pq
        assert identity_coeffs(p, q).flip_signs() == identity_coeffs(q, p)

    def test_flip_involution(self):
        ident = identity_coeffs(2, 1)
        assert ident.flip_signs().flip_signs() == ident

    def test_11_self_dual(self):
        ident = identity_coeffs(1, 1)
        assert ident.flip_signs() == CHIdentity(1, 1, ident.coeffs)


class TestOSp:
    def test_22(self):
        assert osp_specialize(identity_coeffs(2, 2)).coeffs == identity_22_osp()

    def test_24(self):
        ident = identity_coeffs(4, 2).flip_signs()
        assert osp_specialize(ident).coeffs == identity_24_osp()

    def test_odd_power_coefficients_vanish(self):
        for ident in (osp_specialize(identity_coeffs(2, 2)),):
            n = ident.n
            for j, c in enumerate(ident.coeffs):
                if (n - j) % 2 == 1:
                    assert not c

    def test_vacuous(self):
        # an identity whose coefficients all die under the specialization
        s1 = SPoly.symbol(2, 1)
        fake = CHIdentity(1, 1, [s1, s1 ** 2, s1 ** 3])
        with pytest.raises(ValueError, match="vacuous"):
            osp_specialize(fake)


class TestFactorization:
    def test_21_published_factors(self):
        from superch import verify_factorization

        left, right = factors_21()
        assert verify_factorization(identity_coeffs(2, 1), left, right)

    def test_factorize_small_cases(self):
        from superch import verify_factorization

        for pq in [(1, 1), (2, 1), (1, 2)]:
            ident = identity_coeffs(*pq)
            left, right = factorize_small(ident)
            assert verify_factorization(ident, left, right)

    def test_not_attempted(self):
        assert factorize_small(identity_coeffs(2, 2)) is None


class TestRendering:
    def test_json_roundtrip(self):
        ident = identity_coeffs(2, 1)
        assert CHIdentity.from_json(ident.to_json()) == ident

    def test_from_json_names_missing_key(self):
        with pytest.raises(ValueError, match="'coeffs'"):
            CHIdentity.from_json({"p": 1, "q": 1})

    def test_latex_mentions_strs(self):
        tex = identity_coeffs(1, 1).to_latex()
        assert "\\str_{1}" in tex and "M^{2}" in tex

    def test_text_has_all_powers(self):
        text = identity_coeffs(2, 1).to_text()
        for token in ("[M^3]", "[M^2]", "[M]", "[I]"):
            assert token in text


def _digest(data):
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the compact sorted-key JSON of each output, recorded from the
# Fraction-arithmetic implementation; any change to a derived byte fails.
IDENTITY_DIGESTS = {
    (1, 1): "81df7394147ff1169673786a0dfe8d40e4da67bda46434fa6156dc354615520f",
    (1, 2): "3f7d5b4cc7f3edbbabb735b3dd8223b6d33306eb9f13f7da11f4bb706a135ea5",
    (1, 3): "c792e9e788fbfa38ae1b14449d096050acb821bbf5d98dffa23fe94e3ba347ff",
    (1, 4): "cc2ea5dc0f47d85b511defcb6bcc38815cd4336b0754a49e273609e491598b1b",
    (1, 5): "3534ddeb72410bb8b84df0115cbc3b1bd7f5e72108314c8e4061f813c958375b",
    (2, 1): "76efcc27a15c60ff42a1aa7d7ff1a91f68a8b12a7e4f2cfa3bfbb3a0236cf113",
    (2, 2): "ae9ca2b825a7951d1633c50cae4dac4bf97c00b6ddef1e7684eb56808ffea895",
    (2, 3): "170d97a8b53f72ca51e09938e646a41ec29f223134b6db73740213d8374e7f9e",
    (2, 4): "75c340428110a587748e7b09b1abe317214235e333af860b671a210e51d8d245",
    (3, 1): "5bfacfe9ea306f111c3dcf04188ad0fd8768ae14117571f0b2f1e9d98836dd3d",
    (3, 2): "744fb9883d62cce9ab775e32c9d8fcf94b6680d6398c0a1cfa299234abad9886",
    (3, 3): "70b8ce39e33f245ad4ef1a67a9c2729d882382b6d035c804091c3b9a2109d877",
    (4, 1): "189bec741c3a7568fb54d74ee66520f55b854e257b6452345d0178afdafbcaab",
    (4, 2): "b6adef49e1852e531617810edc81de17ee4a9a79b782e9110c27442e74bdeb23",
    (5, 1): "c2a969ee3f7880585813c3d5186162bccd005a54728c27cc405fbf255e2aa9ef",
}

OSP_DIGESTS = {
    (2, 2): "f5a8f4ded2613b153163b1e8b59450de2f9d5adfebcb4f0c4abe86655e5b0ec4",
    (2, 4): "6ab5ac38e6a3de5a11040054cfca4ba59cbe910abeb5cf7640c1625609ea5524",
    (3, 2): "f80a66b45597051f880a874a701ef1fb1904732fabed357214ebd8f4cfccf69e",
    (4, 2): "81d792f4e790479cb46e41250d025c3acf861be8432cc5d18393ae71410eed36",
    (4, 4): "6e00bdd916cb7d08e7548ef91cd5ac250c01b42a5ac4aaaf55b57e173dcd027e",
    (5, 2): "9b2e32fd8867ff60a086162e7b9689e1f362c3594ced9ca17d9ed38c0259f0fb",
    (6, 2): "d0d1b00bb6ac25f48365a388c950fa3172159eaaf00475ca87f74e7539b6acca",
}

# With q odd there is no symplectic form: the top coefficient vanishes once
# the odd supertraces are set to zero.
OSP_ODD_Q = [(1, 1), (3, 1), (3, 3)]

NEWTON_DIGESTS = {
    1: "746a01da290434562eb369692dfc3d3c81b2f5e8de7e6e0355e935b89c167d70",
    2: "2ead7e9eaac3699865fd8d0f6c342e63eb220c8f6dc82027c3de66a17bc134b2",
    3: "3c2cc76dc612da3c12907f08f6ddf9ca39de1a4db9c5bc589213dca6f548218e",
    4: "2ccfb3a01f7df32ca5f428cc94784ff4bdc0f8b6c58881ac2862df9347c82d01",
    5: "69935b2829e836db1edb7eac3c84303679921415da9fcc9aecc7c530e4b8545d",
    6: "13eead10c489c7ab47988e300f330676c112f9f1fb9cbac0f1e0a344d1e8b251",
}

B_MATRIX_DIGESTS = {
    (1, 1): "707ebd88bd265e318a7af84380959c5b89ca35cdcb3d6e3971592a23f3a578c5",
    (2, 1): "e2c68829ce6eddaac9d354fa294b02f71009f8545dd07058e6240ecb883fe490",
    (2, 2): "1985184213a3be1ab5768b01196401d1aa622bd2cadb57a74a369e7b22eb277f",
    (3, 1): "34aa5866c790c7118033a1506074a615b4244310cd14782c1562082072b69aa8",
    (3, 2): "f39a00d18878f306f033986294933114878af196c7f8a96addc421f5df74e5f7",
    (3, 3): "79b2bb5d3234c32f3e1cd07670ccf06c03ecf9ef342a422ec702acc9d66d964b",
    (4, 1): "1e0a0ad6e137a82f04fe54904eae2523a8e3ab26834cd10dafb63a9f35e7d85b",
    (4, 2): "0be7ad7aa8cd9dd9cf1b2532e534c89f8d540cc1cc7ff40a88eb98b59e0fbc47",
    (5, 1): "11f0b1841f3e61b60754aee2bacd7125b8d063588348d7aa08272915b62d19d1",
}

MU_DIGESTS = {
    (1, 1): "f91603f6f7335511d2a2531372414d57190ff71b4d2c10f52717604b759577a2",
    (2, 1): "3f89b158d907d3758f519fdc6f53c7ff92f0babd5f965d0a093a567c0107a767",
    (2, 2): "6670b0985b370125f7ade7f14dd97b0e588ce0389eb8de829b35f66d1cbb0c3a",
    (3, 1): "2b4eaf4c87473cc33cfea503c4aa469c4bdaccf1721f6839e1bbbaca3d040a59",
    (3, 2): "fd3727fd0b794e3ff118290bab2e1dc97cbedaa881eec5d4bd351f4aa432993b",
    (3, 3): "1efe9d3cb70aae13cadc177405ef015be31cc8d23e36f8fab526c1b2a32c2dfe",
    (4, 1): "b10bf4a2e7c0450c6956f213b5ef256d3a98f5eaadc4a8bbccbdf6dc7be00c4f",
    (4, 2): "53b79d705c7342b179d9fc900e46a8fd332d3c76eadb9a2fe9ce8c2eb2b373be",
    (5, 1): "ef2c5844a9061cac2cfeaa926a8e92da9b81d21c2a38098474b572cc2187b895",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("pq", sorted(IDENTITY_DIGESTS))
    def test_identity(self, pq):
        assert _digest(identity_coeffs(*pq).to_json()) == IDENTITY_DIGESTS[pq]

    @pytest.mark.parametrize("pq", sorted(OSP_DIGESTS))
    def test_osp(self, pq):
        ident = osp_specialize(identity_coeffs(*pq))
        assert _digest(ident.to_json()) == OSP_DIGESTS[pq]

    @pytest.mark.parametrize("pq", OSP_ODD_Q)
    def test_osp_odd_q_raises(self, pq):
        with pytest.raises(DerivationError, match="leading OSp coefficient vanished"):
            osp_specialize(identity_coeffs(*pq))

    @pytest.mark.parametrize("n", sorted(NEWTON_DIGESTS))
    def test_newton(self, n):
        coeffs = newton_coeffs(n, n + 2)
        assert _digest([c.to_json() for c in coeffs]) == NEWTON_DIGESTS[n]

    @pytest.mark.parametrize("pq", sorted(B_MATRIX_DIGESTS))
    def test_b_matrix(self, pq):
        bmat = build_b_matrix(*pq)
        assert _digest([[e.to_json() for e in row] for row in bmat]) == B_MATRIX_DIGESTS[pq]

    @pytest.mark.parametrize("pq", sorted(MU_DIGESTS))
    def test_solve_mu(self, pq):
        mus = solve_mu(*pq)
        pairs = [[m.numerator.to_json(), m.denominator.to_json()] for m in mus]
        assert _digest(pairs) == MU_DIGESTS[pq]

    @pytest.mark.parametrize("pq", sorted(MU_DIGESTS))
    def test_solve_mu_against_rational_cramer(self, pq):
        # reference: det and adjugate of the public B-matrix over Q
        p, q = pq
        nsym = p + q
        bmat = build_b_matrix(p, q)
        b = newton_coeffs(nsym, nsym)
        one = SPoly.one(nsym)
        det_b = det(bmat, one=one)
        adj = adjugate(bmat, one)
        for i, mu in enumerate(solve_mu(p, q)):
            nu = SPoly.zero(nsym)
            for j in range(q):
                nu = nu + adj[i][j] * b[p + j + 1]
            assert mu == SRational(nu, det_b)


# sha256 of to_text() and to_latex(), recorded before the shared renderer
# replaced the per-class copies; any change to a rendered byte fails.
RENDER_DIGESTS = {
    (1, 1): ("d854810818a18a934e6f64be24d852a7b35b75f841ff0972b523132b81bddcd1", "bc4205d883eed6e377ff9d841a7074001d88edb4d006465751857ff02794b122"),
    (1, 2): ("044303b75cff77a7b914b0d50c37afa4153e6cd1aebe21d62620d3a15e116c86", "1629795d91c4e3e730b4d3828528b0106b4bc3806c7e6fcda204766bf61e4e3a"),
    (1, 3): ("8635671e6f764ce3252dea451cb43d011434b62fff3f3cd313b61f38bc88d7b3", "27843367730e7a5762eed28fb33234da1ec023ae96d6fa908d163f0b8d02fcc2"),
    (1, 4): ("ade079ac5a7a7bcb205598e1bd8aba60c81d0f13b19a03a7072d54eb45e2dd46", "0af923b18b81527257bf7e6b05cc3ab7c6778c398e2e413439ec249348339ce9"),
    (2, 1): ("25b0c23d286b0de268e44c3577d5e137f6f3d6c498c9af62cf3c4c30e63279ee", "a182ac500b0c859161eb7df6884e0df70d26287401a835b663680496acfa3235"),
    (2, 2): ("1fe46bef0015ec9775056f4c68872631e0d3a05c2f7b0e6cec2906f9ccc4ac98", "639bc60e598c4fbf0ef099a4e836970b0e0af849249ca4c042d91501b9fac865"),
    (2, 3): ("0bcf0f02dea1d39150bd65bc3c89209ee15f95bf929cba43cc2bc6c2c1133846", "8872e2a20a2e228470fed1c30f26d11c5b21746de2ed6a2b9bbf51615b7ab915"),
    (3, 1): ("d17abf89375d3eee3acbd10713d0d4f464e6f49b4aedead62fa758d92b3db680", "de3cef82e762b8b6cb6d8f7c5f3374d993209f2c20af6b18cbee9b1337b9cf51"),
    (3, 2): ("72a32e3cbae14dcb2dfd0e95806c1b1b7fc1862dd0a0bb05205c1991be2570e6", "67196f5dad90ac3beabc6f7bd69ff81f58571b44353c36c9d2b3a671b8d2c864"),
    (4, 1): ("ab2da48c65bccff281934986f48910bf45e6957dce573864f135140ada98374a", "384bfa6348404450feb63dc40317d461bb5e99130fb89d44fe3cc1be77660a60"),
}


class TestPinnedRendering:
    @pytest.mark.parametrize("pq", sorted(RENDER_DIGESTS))
    def test_text(self, pq):
        text = identity_coeffs(*pq).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == RENDER_DIGESTS[pq][0]

    @pytest.mark.parametrize("pq", sorted(RENDER_DIGESTS))
    def test_latex(self, pq):
        latex = identity_coeffs(*pq).to_latex()
        assert hashlib.sha256(latex.encode()).hexdigest() == RENDER_DIGESTS[pq][1]
