"""superch benchmark: exact derivation, verification and char-function checks.

    python3 bench/run.py --workload {derive,verify,charfn} --seed N \\
        --seconds S --trace {0,1} [--size {full,smoke}]

Each run measures S seconds of operation time in a closed loop with one
caller.  The operations run in worker processes started one after another
(never two at once); every worker sets up from a fresh interpreter, so the
median set-up time is taken over several set-ups per run.  ``derive`` runs
one pass per worker, as a one-shot ``superch derive`` user would.

Every operation is gated against digests recorded from the seed commit;
a wrong result or an exception is a failed operation.  Negative controls
run once per run, outside the timed loop: a control that the library does
not reject is a failed operation too.

With --trace 0 the last line carries the end-to-end metrics: median
operation time, operations per second, set-up time and peak RSS.  Their
times are rescaled by a calibration loop run between operations (see
CALIBRATION_REF_S); the lines before the JSON print raw and rescaled
values under the workload's own names, with the tail latency.  With
--trace 1 each input runs untraced and traced, and the last line carries
per-layer metrics from spans recorded around calls into every superch
module.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from common import BENCH_DIR, OUT_DIR, REFERENCE_FILE, ROOT, SIZES, SRC, WORKLOADS
from tracer import LAYERS

# verify and charfn split a run over this many workers, which gives this
# many set-up samples; derive gets one worker per pass.
SLICES = 6
# End-to-end times are rescaled to the speed at which common.calibrate()
# takes this long, about its mean on the 2-core reference machine.  On
# that shared machine other tenants change the speed of Python code by a
# third or more between runs; the calibration loop slows with it, so
# rescaled times spread several times less across runs than raw ones.
CALIBRATION_REF_S = 0.010
# Stop starting workers after this many wall seconds, so that a run ends
# within 180 s even if the library slows down a lot.
DEADLINE_S = 140.0

E2E_NAMES = {
    "derive": {"op": "derive_pass", "per_s": "derive_passes_per_s"},
    "verify": {"op": "verify_trial", "per_s": "verify_trials_per_s"},
    "charfn": {"op": "charfn_check", "per_s": "charfn_checks_per_s"},
}

PER_LAYER = [
    # (metric, unit, source kind, key)
    ("grassmann.mul.calls", "count/op", "calls", "grassmann.mul"),
    ("grassmann.mul.term_pairs", "count/op", "count", "grassmann.mul.term_pairs"),
    ("grassmann.mul.nonzero_pair_frac", "frac", "ratio", ("grassmann.mul.disjoint_pairs", "grassmann.mul.term_pairs")),
    ("grassmann.mul.s", "s/op", "incl", "grassmann.mul"),
    ("grassmann.add.calls", "count/op", "calls", "grassmann.add"),
    ("grassmann.add.s", "s/op", "incl", "grassmann.add"),
    ("poly.spoly_mul.calls", "count/op", "calls", "poly.spoly_mul"),
    ("poly.spoly_mul.term_pairs", "count/op", "count", "poly.spoly_mul.term_pairs"),
    ("poly.spoly_mul.s", "s/op", "incl", "poly.spoly_mul"),
    ("poly.series_mul.s", "s/op", "incl", "poly.series_mul"),
    ("poly.evaluate.calls", "count/op", "calls", "poly.evaluate"),
    ("poly.evaluate.terms", "count/op", "count", "poly.evaluate.terms"),
    ("poly.evaluate.s", "s/op", "incl", "poly.evaluate"),
    ("matrices.det.spoly.s", "s/op", "incl", "matrices.det.spoly"),
    ("matrices.det.unipoly.s", "s/op", "incl", "matrices.det.unipoly"),
    ("matrices.adjugate.s", "s/op", "incl", "matrices.adjugate"),
    ("matrices.power_table.s", "s/op", "incl", "matrices.power_table"),
    ("matrices.sample.calls", "count/op", "calls", "matrices.sample"),
    ("matrices.sample.s", "s/op", "incl", "matrices.sample"),
    ("charfn.h_via_d.s", "s/op", "incl", "charfn.h_via_d"),
    ("charfn.h_via_a.s", "s/op", "incl", "charfn.h_via_a"),
    ("charfn.cross_equal.s", "s/op", "incl", "charfn.cross_equal"),
    ("charfn.unipoly_mul.calls", "count/op", "calls", "charfn.unipoly_mul"),
    ("charfn.unipoly_mul.s", "s/op", "incl", "charfn.unipoly_mul"),
    ("engine.identity_coeffs.s", "s/op", "incl", "engine.identity_coeffs"),
    ("engine.newton_coeffs.s", "s/op", "incl", "engine.newton_coeffs"),
    ("engine.terms", "count/op", "count", "engine.terms"),
    ("engine.max_coeff_bits", "bits", "max", "engine.max_coeff_bits"),
    ("engine.osp_specialize.s", "s/op", "incl", "engine.osp_specialize"),
    ("engine.osp_gcd.s", "s/op", "incl", "engine.osp_gcd"),
    ("verifier.check_degenerate.calls", "count/op", "calls", "verifier.check_degenerate"),
    ("verifier.check_degenerate.s", "s/op", "incl", "verifier.check_degenerate"),
    ("verifier.sample_accept_frac", "frac", "accept", None),
    ("verifier.evaluate_identity.s", "s/op", "incl", "verifier.evaluate_identity"),
    ("verifier.residual_is_zero.s", "s/op", "incl", "verifier.residual_is_zero"),
    ("grassmann.self_s", "s/op", "self", "grassmann"),
    ("poly.self_s", "s/op", "self", "poly"),
    ("matrices.self_s", "s/op", "self", "matrices"),
    ("charfn.self_s", "s/op", "self", "charfn"),
    ("engine.self_s", "s/op", "self", "engine"),
    ("verifier.self_s", "s/op", "self", "verifier"),
    ("bench.self_s", "s/op", "self", "bench"),
    ("trace.count_s", "s/op", "self", "trace"),
]


class RunError(RuntimeError):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def spawn(task, timeout):
    task = dict(task, spawned_at=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(task)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {task['worker']} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {task['worker']} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args):
    """Start workers one after another until --seconds of operations ran."""
    started = time.monotonic()
    workers = []
    measured = 0.0
    op_start = 0
    while measured < args.seconds:
        left = DEADLINE_S - (time.monotonic() - started)
        if left <= 0:
            break
        task = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "worker": len(workers),
            "op_start": op_start,
            "budget_s": min(args.seconds / SLICES, args.seconds - measured),
            "controls": not workers,
        }
        out = spawn(task, timeout=left + 30.0)
        workers.append(out)
        op_start += len(out["ops"])
        measured += sum(op["s"] + op.get("traced_s", 0.0) for op in out["ops"])
    return workers


def tail(values):
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it; the
    slowest sample is reported as the 100th percentile instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def outcome(workers):
    ops = [op for w in workers for op in w["ops"]]
    controls = [ok for w in workers for ok in w["controls"].values()]
    attempted = len(ops) + len(controls)
    failed = sum(not op["ok"] for op in ops) + sum(not ok for ok in controls)
    return ops, controls, attempted, failed


def speed_factor(worker):
    """Scale from this worker's machine speed to the reference speed.

    The mean, not the median, of the calibration times: an operation's time
    adds up its slow and fast moments alike, and so does the mean.
    """
    return CALIBRATION_REF_S / statistics.mean(worker["calibration_s"])


def summarize(times):
    p50 = statistics.median(times)
    tail_s, pct, n = tail(times)
    return p50, tail_s, pct, n, len(times) / sum(times)


def end_to_end(args, workers):
    ops, controls, attempted, failed = outcome(workers)
    names = E2E_NAMES[args.workload]
    raw = summarize([op["s"] for op in ops])
    norm = summarize([op["s"] * speed_factor(w) for w in workers for op in w["ops"]])
    setup_raw = statistics.median(w["setup_s"] for w in workers)
    setup_s = statistics.median(w["setup_s"] * speed_factor(w) for w in workers)
    speed = statistics.median(speed_factor(w) for w in workers)
    rss_mb = max(w["max_rss_kb"] for w in workers) / 1024.0
    lines = [f"machine speed factor {speed:.4g} (median over workers; JSON times are raw times times their worker's factor)"]
    for label, (p50, tail_s, pct, n, per_s) in (("raw", raw), ("normalized", norm)):
        lines += [
            f"{names['per_s']} {per_s:.6g} 1/s ({label})",
            f"{names['op']}_p50_s {p50:.6g} s ({label})",
            f"{names['op']}_tail_s {tail_s:.6g} s ({label}, p{pct:.1f} of {n} samples)",
        ]
    if args.workload == "derive":
        for stage in ("derive_s", "osp_s"):
            values = [op[stage] * speed_factor(w) for w in workers for op in w["ops"] if stage in op]
            if values:
                lines.append(f"{stage} {statistics.median(values):.6g} s (normalized, median of {len(values)} passes)")
    lines += [
        f"setup_s {setup_raw:.6g} s (raw), {setup_s:.6g} s (normalized), median of {len(workers)} set-ups",
        f"peak_rss_mb {rss_mb:.6g} MB",
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted}, {len(controls)} negative controls)",
    ]
    p50, _, _, _, per_s = norm
    metrics = {
        "op_p50_s": (p50, "s"),
        "ops_per_s": (per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, lines


def per_layer(args, workers):
    calls, incl, self_s, counts = (defaultdict(float) for _ in range(4))
    max_bits = 0
    missing = set()
    for w in workers:
        tr = w["trace"]
        for src, dst in ((tr["calls"], calls), (tr["inclusive_s"], incl), (tr["self_s"], self_s), (tr["counts"], counts)):
            for key, value in src.items():
                dst[key] += value
        max_bits = max(max_bits, tr["counts"].get("engine.max_coeff_bits", 0))
        missing.update(tr["missing"])
    ops, _, _, _ = outcome(workers)
    n = len(ops)

    def value(kind, key):
        if kind == "calls":
            return calls[key] / n
        if kind == "count":
            return counts[key] / n
        if kind == "incl":
            return incl[key] / n
        if kind == "self":
            return self_s[key] / n
        if kind == "max":
            return max_bits
        if kind == "ratio":
            num, den = key
            return counts[num] / counts[den] if counts[den] else 0.0
        checked = calls["verifier.check_degenerate"]
        return 1.0 - counts["verifier.check_degenerate.rejected"] / checked if checked else 0.0

    metrics = {name: (value(kind, key), unit) for name, unit, kind, key in PER_LAYER}
    untraced = statistics.median(op["s"] for op in ops)
    traced = statistics.median(op["traced_s"] for op in ops if "traced_s" in op)
    overhead = traced - untraced
    layer_self = sum(self_s[layer] for layer in LAYERS) / n
    accounted = (layer_self - (overhead - self_s["trace"] / n)) / untraced
    metrics.update({
        "trace.untraced_op_p50_s": (untraced, "s"),
        "trace.traced_op_p50_s": (traced, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.accounted_frac": (accounted, "frac"),
        "trace.spans": (sum(calls.values()) / n, "count/op"),
    })
    lines = [f"{name} {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
    if missing:
        lines.append("not traced (function not found): " + ", ".join(sorted(missing)))
    return metrics, lines


def main(argv=None):
    args = parse_args(argv)
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps the running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "superch" / "__init__.py").is_file():
        print(f"error: no superch package under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE_FILE.is_file():
        print(f"error: missing {REFERENCE_FILE}", file=sys.stderr)
        return 2
    try:
        workers = collect(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not workers:
        print("error: no worker ran", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"workers-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(workers))
    _, _, attempted, failed = outcome(workers)
    metrics, lines = (per_layer if args.trace else end_to_end)(args, workers)
    print(
        f"superch benchmark: workload={args.workload} seed={args.seed} size={args.size} "
        f"seconds={args.seconds:g} trace={args.trace} workers={len(workers)}"
    )
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
