"""Span tracing of superch's layers from outside the package.

The traced run replaces public functions and methods of each superch module
with wrappers that record a span per call: name, start, end, parent span
and operation id.  Nothing under src/ changes; the untraced run installs no
wrapper at all.  Spans stay in memory and are written out when the worker
exits.

Span names are ``<module>.<function>``; the module part is the layer whose
self time the span counts towards.  ``bench.op`` is the root span of one
timed operation and ``trace.count`` covers the tracer's own counting work,
so that neither is charged to a layer.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("grassmann", "poly", "matrices", "charfn", "engine", "verifier")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.op = None
        self.counts = defaultdict(int)
        self.missing = []

    @contextmanager
    def operation(self, op_id):
        span = ["bench.op", 0.0, 0.0, -1, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        self.op = op_id
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.stack.pop()
            self.op = None

    def wrap(self, name, fn, count=None, label=None):
        """Wrapper recording a span per call while an operation is open.

        ``label(args)`` may refine the span name from the arguments;
        ``count(counts, args, result)`` adds counters after the call, under
        a ``trace.count`` span of its own.
        """
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            span = [label(args) if label else name, 0.0, 0.0, parent, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                book = ["trace.count", perf_counter(), 0.0, parent, tracer.op]
                count(tracer.counts, args, return_value)
                book[2] = perf_counter()
                spans.append(book)
            return return_value

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owners, attr, name, count=None, label=None):
        """Wrap ``attr`` wherever ``owners`` bind the same function object."""
        original = None
        for owner in owners:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is not None:
                break
        if original is None:
            self.missing.append(name)
            return
        wrapper = self.wrap(name, original, count, label)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)

    def summary(self):
        """Per-name call counts and inclusive seconds, per-layer self seconds.

        A span nested inside a span of the same name (a recursive call) adds
        to the call count but not to the inclusive time, which would
        otherwise be counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += duration - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += duration
        return {
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "names": names,
                    "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
                },
                fh,
                separators=(",", ":"),
            )


def _count_mv_mul(counts, args, result):
    a, b = args
    if hasattr(b, "terms"):
        bt = list(b.terms)
        counts["grassmann.mul.term_pairs"] += len(a.terms) * len(bt)
        counts["grassmann.mul.disjoint_pairs"] += sum(1 for m1 in a.terms for m2 in bt if not m1 & m2)


def _count_spoly_mul(counts, args, result):
    a, b = args
    if hasattr(b, "terms"):
        counts["poly.spoly_mul.term_pairs"] += len(a.terms) * len(b.terms)


def _count_evaluate(counts, args, result):
    counts["poly.evaluate.terms"] += len(args[0].terms)


def _count_degenerate(counts, args, result):
    counts["verifier.check_degenerate.rejected"] += bool(result)


def _det_label(args):
    rows = args[0]
    kind = type(rows[0][0]).__name__ if rows and rows[0] else ""
    return {"SPoly": "matrices.det.spoly", "UniPoly": "matrices.det.unipoly"}.get(kind, "matrices.det.other")


def instrument(tracer, superch, sympy=None):
    """Install the wrappers on every superch module (and sympy.gcd if given)."""
    from superch import charfn, engine, grassmann, matrices, poly, verifier

    modules = [superch, grassmann, poly, matrices, charfn, engine, verifier]
    t = tracer
    t.patch([grassmann.Multivector], "__mul__", "grassmann.mul", _count_mv_mul)
    t.patch([grassmann.Multivector], "__add__", "grassmann.add")
    t.patch([poly.SPoly], "__mul__", "poly.spoly_mul", _count_spoly_mul)
    t.patch([poly.SPoly], "evaluate", "poly.evaluate", _count_evaluate)
    t.patch([poly.TruncSeries], "__mul__", "poly.series_mul")
    t.patch(modules, "det", "matrices.det", label=_det_label)
    t.patch(modules, "adjugate", "matrices.adjugate")
    t.patch([matrices.SuperMatrix], "power_table", "matrices.power_table")
    t.patch(modules, "random_supermatrix_raw", "matrices.sample")
    t.patch(modules, "h_via_d", "charfn.h_via_d")
    t.patch(modules, "h_via_a", "charfn.h_via_a")
    t.patch([charfn.RatioForm], "cross_equal", "charfn.cross_equal")
    t.patch([charfn.UniPoly], "__mul__", "charfn.unipoly_mul")
    t.patch([charfn.UniPoly], "__rmul__", "charfn.unipoly_mul")
    t.patch(modules, "identity_coeffs", "engine.identity_coeffs")
    t.patch(modules, "newton_coeffs", "engine.newton_coeffs")
    t.patch(modules, "osp_specialize", "engine.osp_specialize")
    t.patch(modules, "check_degenerate", "verifier.check_degenerate", _count_degenerate)
    t.patch(modules, "evaluate_identity", "verifier.evaluate_identity")
    t.patch([matrices.SuperMatrix], "is_zero", "verifier.residual_is_zero")
    if sympy is not None:
        t.patch([sympy], "gcd", "engine.osp_gcd")
