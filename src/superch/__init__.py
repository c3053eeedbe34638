"""Exact super-Cayley-Hamilton identities for (p,q) supermatrices.

Derives the coefficient polynomials from the generating-function
construction and verifies the resulting identities by exact evaluation on
supermatrices with Grassmann-valued entries.
"""

from .charfn import (
    RatioForm,
    UniPoly,
    char_poly_block,
    check_equivalence,
    full_char_poly,
    h_via_a,
    h_via_d,
)
from .engine import (
    CHIdentity,
    DerivationError,
    build_b_matrix,
    factorize_small,
    identity_coeffs,
    newton_coeffs,
    osp_specialize,
    solve_mu,
)
from .grassmann import (
    Multivector,
    NotInvertibleError,
    ParityError,
    blade_mul,
)
from .matrices import (
    SuperMatrix,
    adjugate,
    det,
    even_det,
    omega_matrix,
    osp_random,
    osp_random_pair,
    random_supermatrix,
    supertranspose,
)
from .poly import (
    NotDivisibleError,
    NotPerfectSquareError,
    SPoly,
    SRational,
    TruncSeries,
)
from .verifier import (
    VerificationReport,
    check_degenerate,
    evaluate_identity,
    oracle_det_permutation,
    resultant,
    verify_batch,
    verify_factorization,
)

__version__ = "0.1.0"
