"""End-to-end verification of derived identities on concrete supermatrices.

Evaluates an identity on a supermatrix, and runs it on seeded samples in a
batch harness producing machine-readable reports; the samples come from
``matrices.nondegenerate_sample``, which owns the degenerate-spectrum rule.
Also holds an independent Leibniz-sum determinant oracle.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field

from .engine import CHIdentity, identity_coeffs
from .grassmann import Multivector
from .matrices import SuperMatrix, check_sampler_args, nondegenerate_sample


def evaluate_identity(m: SuperMatrix, ident: CHIdentity) -> SuperMatrix:
    """sum_j a_j(str_1..str_n) M^(n-j); exact zero for nondegenerate M."""
    if (m.p, m.q) != (ident.p, ident.q):
        raise ValueError("identity was derived for different block dimensions")
    n = ident.n
    if len(ident.coeffs) != n + 1:
        raise ValueError(f"identity needs {n + 1} coefficients, got {len(ident.coeffs)}")
    powers = m.power_table(n)
    strs = [powers[j].supertrace() for j in range(1, n + 1)]
    one = Multivector.one(m.n_gen)
    acc = SuperMatrix.zeros(m.p, m.q, m.n_gen)
    for j, coeff in enumerate(ident.coeffs):
        value = coeff.evaluate(strs, one)
        if value:
            acc = acc + powers[n - j].scale(value)
    return acc


def oracle_det_permutation(entries):
    """Independent Leibniz permutation-sum determinant (sizes <= 5)."""
    n = len(entries)
    if n > 5:
        raise ValueError("permutation oracle limited to size <= 5")
    if any(len(r) != n for r in entries):
        raise ValueError("matrix must be square")
    total = None
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        term = None
        for i in range(n):
            e = entries[i][perm[i]]
            term = e if term is None else term * e
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def _perm_sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def verify_factorization(ident: CHIdentity, left, right) -> bool:
    """Does the coefficient convolution of the two factors equal the identity?"""
    if len(left) - 1 + len(right) - 1 != ident.n:
        raise ValueError("factor degrees must sum to the identity degree")
    nsym = ident.nsym
    from .poly import SPoly

    conv = [SPoly.zero(nsym) for _ in range(ident.n + 1)]
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            conv[i + j] = conv[i + j] + a * b
    return conv == ident.coeffs


@dataclass
class TrialOutcome:
    trial: int
    status: str  # "pass" | "fail" | "skip"
    residual: object = None  # SuperMatrix JSON when status == "fail"

    def to_json(self):
        out = {"trial": self.trial, "status": self.status}
        if self.residual is not None:
            out["residual"] = self.residual
        return out


@dataclass
class VerificationReport:
    p: int
    q: int
    seed: int
    trials: int
    passes: int = 0
    failures: int = 0
    skips: int = 0
    resamples: int = 0
    wall_time: float = 0.0
    outcomes: list = field(default_factory=list)

    def all_passed(self) -> bool:
        return self.failures == 0 and self.passes > 0

    def to_json(self):
        return {
            "p": self.p,
            "q": self.q,
            "seed": self.seed,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "degenerate_skips": self.skips,
            "resamples": self.resamples,
            "wall_time_seconds": round(self.wall_time, 3),
            "outcomes": [o.to_json() for o in self.outcomes],
        }

    def to_json_string(self) -> str:
        data = self.to_json()
        data["wall_time_seconds"] = 0.0  # keep reruns byte-identical
        return json.dumps(data, indent=2)

    def summary(self) -> str:
        return (
            f"(p,q)=({self.p},{self.q}) seed={self.seed}: "
            f"{self.passes}/{self.trials} passed, "
            f"{self.failures} failed, {self.skips} skipped "
            f"({self.resamples} degenerate resamples, {self.wall_time:.2f}s)"
        )


def verify_batch(
    p: int,
    q: int,
    trials: int,
    seed: int,
    n_gen: int = 6,
    max_soul_grade: int = 3,
    identity: CHIdentity | None = None,
) -> VerificationReport:
    """Derive the (p,q) identity once, then test seeded random samples."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_sampler_args(n_gen, max_soul_grade)
    start = time.perf_counter()
    if identity is None:
        identity = identity_coeffs(p, q)
    report = VerificationReport(p=p, q=q, seed=seed, trials=trials)
    for t in range(trials):
        sample, resamples = nondegenerate_sample(p, q, n_gen, seed + t, max_soul_grade)
        if sample is None:
            report.skips += 1
            report.outcomes.append(TrialOutcome(t, "skip"))
            continue
        report.resamples += resamples
        residual = evaluate_identity(sample, identity)
        if residual.is_zero():
            report.passes += 1
            report.outcomes.append(TrialOutcome(t, "pass"))
        else:
            report.failures += 1
            report.outcomes.append(TrialOutcome(t, "fail", residual.to_json()))
    report.wall_time = time.perf_counter() - start
    return report
