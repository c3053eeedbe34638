"""End-to-end acceptance suite.

Each test exercises one externally visible guarantee of the package and
emits a single ``acceptance: <name>: PASS|FAIL`` line on the real stdout
(bypassing capture) so that a plain ``pytest -v`` run shows the verdicts
inline.  All checks are exact: no tolerances anywhere.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction as F

from fixtures import (
    GOLDEN,
    factorize_small,
    factors_21,
    identity_22_osp,
    identity_24_osp,
)
from oracles import oracle_det_permutation, verify_factorization
from superch import (
    Multivector,
    SuperMatrix,
    char_poly_block,
    check_degenerate,
    check_equivalence,
    det,
    evaluate_identity,
    identity_coeffs,
    newton_coeffs,
    osp_specialize,
    random_supermatrix,
    verify_batch,
)
from superch.matrices import mat_mul_entries

SHAPES_UP_TO_5 = [
    (p, q)
    for n in range(2, 6)
    for p in range(1, n)
    for q in [n - p]
]


def _report(capsys, name, ok):
    with capsys.disabled():
        print(f"acceptance: {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, name


def test_golden_small_identities(capsys):
    start = time.monotonic()
    ok = all(identity_coeffs(p, q).coeffs == make() for (p, q), make in GOLDEN.items())
    elapsed = time.monotonic() - start
    _report(capsys, "golden identities (1,1),(2,1),(1,2),(3,1),(2,2)", ok and elapsed < 10.0)


def test_osp_specializations(capsys):
    start = time.monotonic()
    ok22 = osp_specialize(identity_coeffs(2, 2)).coeffs == identity_22_osp()
    ok24 = osp_specialize(identity_coeffs(4, 2).flip_signs()).coeffs == identity_24_osp()
    elapsed = time.monotonic() - start
    _report(capsys, "orthosymplectic specializations (2,2) and (2,4)", ok22 and ok24 and elapsed < 300.0)


def test_annihilation_all_shapes(capsys):
    start = time.monotonic()
    ok = True
    for (p, q) in SHAPES_UP_TO_5:
        report = verify_batch(p, q, trials=25, seed=1000 * p + q, n_gen=6, max_soul_grade=3)
        ok = ok and report.all_passed() and report.passes == 25
    elapsed = time.monotonic() - start
    _report(capsys, "identity annihilates 25 samples for every shape with p+q<=5", ok and elapsed < 300.0)


def test_char_function_equivalence_same_samples(capsys):
    # the same matrices the annihilation batches used: trial t of a batch
    # seeded s draws with per-matrix seed s + t
    ok = True
    for (p, q) in SHAPES_UP_TO_5:
        base = 1000 * p + q
        for t in range(25):
            m = random_supermatrix(p, q, 6, seed=base + t, max_soul_grade=3)
            ok = ok and check_equivalence(m)
    _report(capsys, "both characteristic-function forms agree on the same samples", ok)


def test_newton_coefficients_against_cofactor_oracle(capsys):
    rng = random.Random(2024)
    ok = True
    for _ in range(50):
        n = rng.randint(1, 6)
        a = [
            [Multivector.scalar(0, F(rng.randint(-6, 6))) for _ in range(n)]
            for _ in range(n)
        ]
        char = char_poly_block(a, 0)
        power = a
        traces = []
        for _ in range(n):
            traces.append(sum((power[i][i].body() for i in range(n)), F(0)))
            power = mat_mul_entries(power, a)
        b = newton_coeffs(n, n)
        for j in range(n + 1):
            ok = ok and char.coeff(n - j).body() == b[j].evaluate(traces, F(1))
    _report(capsys, "trace-recursion coefficients match cofactor characteristic polynomials", ok)


def test_structural_invariants(capsys):
    ok = True
    for (p, q) in SHAPES_UP_TO_5:
        ident = identity_coeffs(p, q)
        ok = ok and all(
            c.is_weighted_homogeneous(2 * p * q + j) for j, c in enumerate(ident.coeffs)
        )
        root = ident.coeffs[0].sqrt_exact()
        ok = ok and root.is_weighted_homogeneous(p * q)
        try:
            ident.coeffs[1].divide_exact(root)
        except Exception:
            ok = False
        ok = ok and ident.flip_signs() == identity_coeffs(q, p)
    _report(capsys, "homogeneity, perfect-square top, divisibility, sign-flip duality", ok)


def test_factorizations(capsys):
    ident21 = identity_coeffs(2, 1)
    left, right = factors_21()
    ok = verify_factorization(ident21, left, right)
    for pq in [(1, 1), (2, 1), (1, 2)]:
        ident = identity_coeffs(*pq)
        l, r = factorize_small(ident)
        ok = ok and verify_factorization(ident, l, r)
    _report(capsys, "low-order factorizations reproduce the full identities", ok)


def test_degenerate_detection(capsys):
    n = 4
    c = Multivector.scalar(n, 3)
    zero = Multivector.zero(n)
    m = SuperMatrix(1, 1, n, [[c, zero], [zero, c]])
    ok = check_degenerate(m)
    ident = identity_coeffs(1, 1)
    strs = [m.pow(j).supertrace() for j in (1, 2)]
    one = Multivector.one(n)
    ok = ok and all(coeff.evaluate(strs, one).body() == 0 for coeff in ident.coeffs)
    _report(capsys, "matched even spectra are flagged and kill every coefficient body", ok)


def test_determinant_against_permutation_oracle(capsys):
    rng = random.Random(99)
    even_masks = [mask for mask in range(16) if bin(mask).count("1") % 2 == 0]
    ok = True
    for _ in range(100):
        size = rng.randint(1, 4)
        rows = []
        for _ in range(size):
            row = []
            for _ in range(size):
                terms = {}
                for _ in range(2):
                    terms[rng.choice(even_masks)] = F(rng.randint(-5, 5))
                row.append(Multivector(4, terms))
            rows.append(row)
        ok = ok and det(rows) == oracle_det_permutation(rows)
    _report(capsys, "cofactor determinant equals permutation-sum oracle on 100 matrices", ok)


def test_stress_51_and_15_time_boxed(capsys):
    # a deliberately heavy derive-and-verify run; a timeout is recorded as
    # an observation, never as a failure
    script = (
        "from superch.cli import main; import sys; "
        "sys.exit(main(['verify','5','1','--trials','3','--seed','0']) "
        "or main(['verify','1','5','--trials','3','--seed','0']))"
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=600,
        )
        ok = proc.returncode == 0
        verdict = "PASS" if ok else "FAIL"
    except subprocess.TimeoutExpired:
        ok = True
        verdict = "TIMEOUT (recorded, not failed)"
    with capsys.disabled():
        print(f"acceptance: (5,1) and (1,5) stress within 10 minutes: {verdict}", flush=True)
    assert ok
