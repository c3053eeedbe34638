"""End-to-end verification of derived identities on concrete supermatrices.

Evaluates an identity on a supermatrix, and runs it on seeded samples in a
batch harness producing machine-readable reports; the samples come from
``matrices.nondegenerate_sample``, which owns the degenerate-spectrum rule.
"""

from __future__ import annotations

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
