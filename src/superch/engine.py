"""Derivation of super-Cayley-Hamilton coefficient polynomials.

For a (p,q) supermatrix the identity
    a_0 M^(p+q) + a_1 M^(p+q-1) + ... + a_(p+q) I = 0
holds with a_j a weighted-homogeneous polynomial of degree 2pq+j in the
supertrace symbols S1..Sn (n = p+q).  The coefficients come from the
generating function F(S,t) = (1 - sum mu_k t^k)^2 G(S,t) with
G(S,t) = exp(-sum S_i t^i / i); the mu_k solve a Toeplitz linear system in
the classical Newton coefficients b_j, and scaling by (det B)^2 clears the
denominators of the mu_k.

The whole pipeline runs over Z, not Q.  The Newton coefficient b_j is a
sum over partitions lambda of j of (-1)^len(lambda) S_lambda / z_lambda,
and j!/z_lambda is the size of a conjugacy class of the symmetric group,
so j!*b_j has integer coefficients, and so does n!*b_j for every j <= n.
_b_matrix_z and _mu_z therefore compute n!*b_j, the B-matrix n!*B,
det(n!*B) = (n!)^q det B and the numerators (n!)^q nu_k, and
identity_coeffs forms the series product (n!)^(2q+1) (det B)^2 F, all as
integer polynomials on packed monomial keys.  The one division happens in
_renormalize, which divides every coefficient by the S1^(2pq) coefficient
of the top one: the common scale cancels there, and rationals first
appear there.  newton_coeffs, build_b_matrix and solve_mu read
the same integer results and divide by their own power of n! on the way
out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from .matrices import adjugate, det
from .poly import SPoly, SRational, TruncSeries, _json_count, _json_fields, _Packing, _ZPoly


class DerivationError(RuntimeError):
    """The generating-function pipeline produced an inconsistent result."""


def _newton_z(packing: _Packing, count: int):
    """count! * b_j for j = 0..count, as integer polynomials.

    From j*b_j = -sum_i S_i b_(j-i): the sum is exactly divisible by j
    because count! * b_j is integral (see the module docstring).
    """
    scale = factorial(count)
    b = [_ZPoly({0: scale})]
    syms = [packing.symbol(i) for i in range(1, min(count, packing.nsym) + 1)]
    for j in range(1, count + 1):
        acc = _ZPoly()
        for i in range(1, min(j, packing.nsym) + 1):
            acc = acc + syms[i - 1] * b[j - i]
        terms = {}
        for k, c in acc.terms.items():
            quot, rem = divmod(-c, j)
            if rem:
                raise DerivationError("Newton coefficient is not integral")
            terms[k] = quot
        b.append(_ZPoly(terms))
    return b


def _b_matrix_z(p: int, q: int):
    """(packing, [n! b_j for j <= n], n! B): the B-matrix over Z."""
    if p < 1 or q < 0:
        raise ValueError("need p >= 1 and q >= 0")
    if q > p:
        raise ValueError("use sign-flip dual")
    n = p + q
    # 2pq + n is the largest weighted degree in the pipeline (that of a_n)
    packing = _Packing(n, 2 * p * q + n)
    b = _newton_z(packing, n)
    zero = _ZPoly()
    bmat = [[b[p + i - j] if p + i - j >= 0 else zero for j in range(q)] for i in range(q)]
    return packing, b, bmat


def _mu_z(p: int, q: int):
    """(packing, [n! b_j], (n!)^q det B, [(n!)^q nu_k]) with nu_k = det(B) mu_k."""
    packing, b, bmat = _b_matrix_z(p, q)
    one = _ZPoly({0: 1})
    det_b = det(bmat, one=one)
    if not det_b:
        raise DerivationError("B-matrix determinant vanished identically")
    adj = adjugate(bmat, one)
    rhs = [b[p + k] for k in range(1, q + 1)]
    nus = [sum((adj[i][j] * rhs[j] for j in range(q)), _ZPoly()) for i in range(q)]
    return packing, b, det_b, nus


def newton_coeffs(nsym: int, count: int):
    """b_0..b_count of G(S,t) = exp(-sum_i S_i t^i / i).

    These are the classical characteristic-polynomial coefficients in terms
    of power sums: j*b_j = -sum_{i=1..j} S_i b_{j-i}.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    packing = _Packing(nsym, count)
    scale = factorial(count)
    return [packing.to_spoly(c, scale) for c in _newton_z(packing, count)]


def build_b_matrix(p: int, q: int):
    """The q x q Toeplitz matrix with entry(i,j) = b_(p+i-j), 1-indexed."""
    packing, _, bmat = _b_matrix_z(p, q)
    scale = factorial(p + q)
    return [[packing.to_spoly(e, scale) for e in row] for row in bmat]


def solve_mu(p: int, q: int):
    """The mu_k correction terms as unreduced quotients over det(B)."""
    packing, _, det_b, nus = _mu_z(p, q)
    scale = factorial(p + q) ** q
    den = packing.to_spoly(det_b, scale)
    return [SRational(packing.to_spoly(nu, scale), den) for nu in nus]


@dataclass
class CHIdentity:
    """Coefficients of the super-Cayley-Hamilton identity for (p,q).

    coeffs[j] multiplies M^(n-j), n = p+q; coeffs[0] carries the
    S1^(2pq) monomial with coefficient +1 (generic normalization).
    """

    p: int
    q: int
    coeffs: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def nsym(self) -> int:
        return self.coeffs[0].nsym

    def flip_signs(self) -> "CHIdentity":
        # S1^(2pq) has even degree, so Sj -> -Sj keeps its coefficient +1
        return CHIdentity(self.q, self.p, [c.flip_signs() for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, CHIdentity):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and self.coeffs == other.coeffs

    def to_text(self) -> str:
        lines = [f"super-Cayley-Hamilton identity for (p,q) = ({self.p},{self.q}):"]
        for j, c in enumerate(self.coeffs):
            power = self.n - j
            mono = "I" if power == 0 else ("M" if power == 1 else f"M^{power}")
            lines.append(f"  [{mono}] {c}")
        lines.append("  (sum of all terms = 0)")
        return "\n".join(lines)

    def to_latex(self) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            power = self.n - j
            mono = "I" if power == 0 else ("M" if power == 1 else f"M^{{{power}}}")
            parts.append(f"\\left({c.to_latex()}\\right) {mono}")
        return " + ".join(parts) + " = 0"

    def to_json(self):
        return {
            "p": self.p,
            "q": self.q,
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data) -> "CHIdentity":
        _, _, coeffs = _json_fields(data, "identity", "p", "q", "coeffs")
        if not isinstance(coeffs, list):
            raise ValueError(f"identity JSON 'coeffs' must be a list, got {type(coeffs).__name__}")
        p, q = (_json_count(data, "identity", k) for k in ("p", "q"))
        if len(coeffs) != p + q + 1:
            raise ValueError(f"identity JSON 'coeffs' must hold p + q + 1 = {p + q + 1} entries")
        return cls(p, q, [SPoly.from_json(p + q, c) for c in coeffs])

    def render(self, fmt: str) -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "latex":
            return self.to_latex()
        if fmt == "json":
            import json

            return json.dumps(self.to_json(), indent=2)
        raise ValueError(f"unknown format {fmt!r}")


def _renormalize(packing: _Packing, coeffs, lead_degree):
    """coeffs as SPolys, scaled so coeffs[0] has S1^lead_degree coefficient +1."""
    c = coeffs[0].terms.get(packing.pack((lead_degree,) + (0,) * (packing.nsym - 1)))
    if not c:
        raise DerivationError("leading S1 monomial vanished; cannot normalize")
    return [packing.to_spoly(x, c) for x in coeffs]


def identity_coeffs(p: int, q: int) -> CHIdentity:
    """Derive the (p,q) identity from the generating function."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p + q >= 1 with p, q >= 0")
    if q > p:
        return identity_coeffs(q, p).flip_signs()

    n = p + q
    packing, b, det_b, nus = _mu_z(p, q)
    # det(B) * (1 - sum mu_k t^k) = det(B) - sum nu_k t^k stays polynomial,
    # so squaring and multiplying by G gives (det B)^2 * F directly, here
    # times (n!)^(2q+1), which _renormalize divides out.
    zero = _ZPoly()
    scaled = [det_b] + [-nu for nu in nus] + [zero] * (n - q)
    f_scaled = TruncSeries(n, scaled).square() * TruncSeries(n, b)

    coeffs = _renormalize(packing, f_scaled.coeffs, 2 * p * q)

    for j, c in enumerate(coeffs):
        if not c.is_weighted_homogeneous(2 * p * q + j):
            raise DerivationError("conjecture violation: coefficient not homogeneous")
    return CHIdentity(p, q, coeffs)


def osp_specialize(ident: CHIdentity) -> CHIdentity:
    """Specialize to OSp, where the odd supertraces S1, S3, ... vanish.

    On OSp the body spectra pair up as +-lambda_i and +-delta_k (plus a 0 in
    a block of odd size), so M^2 acts like a (p//2, q//2) supermatrix with
    each eigenvalue taken twice, whose supertraces are S_2k / 2.  The result
    is that identity with S_k -> S_2k / 2 and M -> M^2, times M when p + q
    is odd, scaled so the leading (graded-lex) monomial of the top
    coefficient is +1.  With p and q both odd, 0 lies in both spectra and
    the top coefficient vanishes.  The given identity, with S1, S3, ... set
    to zero, must be a multiple of the result.
    """
    specialized = [c.zero_odd_symbols() for c in ident.coeffs]
    if not any(specialized):
        raise ValueError("vacuous OSp identity")
    p, q, nsym = ident.p, ident.q, ident.nsym
    if not specialized[0] or p % 2 and q % 2:
        raise DerivationError("leading OSp coefficient vanished")
    half = identity_coeffs(p // 2, q // 2).coeffs if p + q > 1 else [SPoly.one(0)]
    coeffs = []
    for c in half:
        terms = {}
        for e, x in c.terms.items():
            exps = [0] * nsym
            exps[1::2] = e
            terms[tuple(exps)] = x / 2 ** sum(e)
        coeffs += [SPoly(nsym, terms), SPoly.zero(nsym)]
    inv = 1 / coeffs[0].lead()[1]
    coeffs = [c * inv for c in coeffs[: ident.n + 1]]
    for c, s in zip(coeffs, specialized, strict=True):
        if c * specialized[0] != s * coeffs[0]:
            raise DerivationError("identity does not restrict to a multiple of the OSp identity")
    return CHIdentity(p, q, coeffs)
