"""The three benchmark workloads: inputs, timed operation, correctness gate.

Each workload object is built once per worker process (its set-up), then
serves operations by index.  ``prepare(i)`` makes the input of operation i
(untimed); ``run(x, pause)`` makes the calls into the library and returns
the result with the seconds they took, calling ``pause()`` (untimed)
between the steps of a long operation; ``check(x, result)`` is the
untimed gate against references recorded from the seed commit.
``controls()`` runs the negative controls: each returns True when the
library rejected a wrong answer, as it must.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from common import derive_order, digest_json, digest_text, pool_seed, shape_key


def _no_pause(step_s=0.0):
    pass


class Workload:
    max_ops_per_worker = None
    pauses = False  # whether run() calls pause() between its own steps

    def __init__(self, superch, spec, ref, seed):
        self.lib = superch
        self.spec = spec
        self.ref = ref
        self.seed = seed

    def stages(self, result):
        return {}

    def layer_counts(self, result, counts):
        pass

    def controls(self):
        return {}


class Derive(Workload):
    """One operation is a pass: identity_coeffs on every shape, then OSp."""

    max_ops_per_worker = 1  # each pass runs in a fresh process, like `superch derive`
    pauses = True

    def __init__(self, superch, spec, ref, seed):
        import sympy  # noqa: F401  osp_specialize imports it; charge it to set-up

        super().__init__(superch, spec, ref, seed)
        derive_shapes = set(spec["derive_shapes"])
        self.osp_inputs = {
            s: superch.engine.identity_coeffs(*s)
            for s in spec["osp_shapes"]
            if s not in derive_shapes
        }

    def prepare(self, index):
        return derive_order(self.seed, index, self.spec["derive_shapes"])

    def run(self, shapes, pause=_no_pause):
        engine = self.lib.engine
        idents, osp = {}, {}
        derive_s = osp_s = step_s = 0.0
        for s in shapes:
            pause(step_s)
            t0 = perf_counter()
            idents[s] = engine.identity_coeffs(*s)
            step_s = perf_counter() - t0
            derive_s += step_s
        for s in self.spec["osp_shapes"]:
            pause(step_s)
            t0 = perf_counter()
            osp[s] = engine.osp_specialize(idents[s] if s in idents else self.osp_inputs[s])
            step_s = perf_counter() - t0
            osp_s += step_s
        pause(step_s)
        result = {"idents": idents, "osp": osp, "derive_s": derive_s, "osp_s": osp_s}
        return result, derive_s + osp_s

    def check(self, shapes, result):
        return all(
            digest_json(ident.to_json()) == self.ref[kind][shape_key(s)]
            for kind, key in (("identity", "idents"), ("osp", "osp"))
            for s, ident in result[key].items()
        )

    def stages(self, result):
        return {"derive_s": result["derive_s"], "osp_s": result["osp_s"]}

    def layer_counts(self, result, counts):
        for ident in result["idents"].values():
            for c in ident.coeffs:
                counts["engine.terms"] += len(c.terms)
                for v in c.terms.values():
                    bits = max(v.numerator.bit_length(), v.denominator.bit_length())
                    counts["engine.max_coeff_bits"] = max(counts["engine.max_coeff_bits"], bits)


class Verify(Workload):
    """One operation is a one-trial verify_batch against a derived identity."""

    def __init__(self, superch, spec, ref, seed):
        super().__init__(superch, spec, ref, seed)
        self.identity = superch.engine.identity_coeffs(*spec["verify_shape"])

    def prepare(self, index):
        return pool_seed("verify", self.seed, index, self.ref["trial_strata"])

    def run(self, trial, pause=_no_pause):
        t0 = perf_counter()
        report = self.verify(trial)
        return report, perf_counter() - t0

    def verify(self, trial, identity=None, trials=1):
        p, q = self.spec["verify_shape"]
        return self.lib.verifier.verify_batch(
            p, q, trials=trials, seed=trial, n_gen=self.spec["n_gen"],
            max_soul_grade=self.spec["soul_grade"],
            identity=identity or self.identity,
        )

    def check(self, trial, report):
        return digest_text(report.to_json_string()) == self.ref["trials"][str(trial)]

    def perturbed_identity(self):
        """The identity with its S1^(2pq) coefficient in coeffs[0] raised by one."""
        ident = self.identity
        lead = (2 * ident.p * ident.q,) + (0,) * (ident.nsym - 1)
        first = self.lib.poly.SPoly(ident.nsym, dict(ident.coeffs[0].terms))
        first.terms[lead] = first.terms.get(lead, Fraction(0)) + 1
        return self.lib.engine.CHIdentity(ident.p, ident.q, [first] + list(ident.coeffs[1:]))

    def controls(self):
        # On a sample whose str(M) has zero body, S1 is nilpotent and S1^(2pq)
        # vanishes at N = 6, so one trial may rightly pass the perturbed
        # identity; a correct verifier rejects it on some of four samples.
        report = self.verify(self.prepare(0), identity=self.perturbed_identity(), trials=4)
        return {"perturbed_identity_rejected": report.failures >= 1}


class Charfn(Workload):
    """One operation is check_equivalence on a nondegenerate sample."""

    def prepare(self, index):
        p, q = self.spec["charfn_shape"]
        return self.lib.matrices.random_supermatrix(
            p, q, self.spec["n_gen"], pool_seed("charfn", self.seed, index, self.ref["sample_strata"]),
            self.spec["soul_grade"],
        )

    def run(self, sample, pause=_no_pause):
        t0 = perf_counter()
        equal = self.lib.charfn.check_equivalence(sample)
        return equal, perf_counter() - t0

    def check(self, sample, result):
        return result is True

    def controls(self):
        charfn = self.lib.charfn
        m1, m2 = self.prepare(0), self.prepare(1)
        return {"cross_sample_forms_differ": charfn.h_via_d(m1).cross_equal(charfn.h_via_a(m2)) is False}


WORKLOAD_CLASSES = {"derive": Derive, "verify": Verify, "charfn": Charfn}
