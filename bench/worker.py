"""One benchmark worker process: set up a workload, run operations, report.

    python3 bench/worker.py '<json task>'

The task names the workload, seed, size, first operation index, the
seconds of operation time to run, whether to trace, whether to run the
negative controls, and the perf_counter reading taken just before this
process was spawned.  perf_counter is CLOCK_MONOTONIC on Linux, shared by
all processes, so set-up time is measured from the spawn.  The result is
one JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from time import perf_counter

from common import OUT_DIR, SIZES, calibrate, load_reference, load_superch
from workloads import WORKLOAD_CLASSES


# A worker whose operations keep failing stops early: its failures are
# already counted, and failing fast must not spin for the whole budget.
MAX_FAILED = 20
# Calibration runs after every operation, or between the steps of a long
# one, for about this share of the time just measured (at least once), and
# at least MIN_CALIBRATIONS times per worker.  So its samples spread over
# the worker's operations in proportion to their time, and their mean
# rescales the worker's times to the reference speed.
CALIBRATION_SHARE = 0.05
MIN_CALIBRATIONS = 8


def main(task):
    superch = load_superch()
    spec = SIZES[task["size"]]
    ref = load_reference(task["size"])
    workload = WORKLOAD_CLASSES[task["workload"]](superch, spec, ref, task["seed"])
    tracer = None
    if task["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer, superch, sys.modules.get("sympy"))

    ops = []
    calibrations = []

    def pause(step_s=0.0):
        """Calibrate for CALIBRATION_SHARE of the step just run, at least once."""
        spent = 0.0
        while not spent or spent < CALIBRATION_SHARE * step_s:
            calibrations.append(calibrate())
            spent += calibrations[-1]

    setup_s = None
    measured = 0.0
    index = task["op_start"]
    limit = workload.max_ops_per_worker
    while True:
        op = {"index": index, "ok": False}
        started = perf_counter()
        try:
            x = workload.prepare(index)
            if setup_s is None:
                setup_s = perf_counter() - task["spawned_at"]
            started = perf_counter()
            if tracer is None:
                result, op["s"] = workload.run(x, pause)
            else:
                # Run each input untraced and traced, alternating which goes
                # first, so the difference of the two is the tracing overhead.
                traced_first = index % 2 == 1
                if traced_first:
                    with tracer.operation(index):
                        result, op["traced_s"] = workload.run(x)
                result, op["s"] = workload.run(x)
                if not traced_first:
                    with tracer.operation(index):
                        result, op["traced_s"] = workload.run(x)
                workload.layer_counts(result, tracer.counts)
            op["ok"] = bool(workload.check(x, result))
            op.update(workload.stages(result))
        except Exception:
            traceback.print_exc()
            if setup_s is None:
                setup_s = started - task["spawned_at"]
            op["s"] = perf_counter() - started
            op.pop("traced_s", None)
        ops.append(op)
        if not workload.pauses:
            pause(op["s"])
        measured += op["s"] + op.get("traced_s", 0.0)
        index += 1
        failed = sum(not o["ok"] for o in ops)
        if measured >= task["budget_s"] or len(ops) == limit or failed >= MAX_FAILED:
            break

    while len(calibrations) < MIN_CALIBRATIONS:
        calibrations.append(calibrate())

    controls = {}
    if task["controls"]:
        try:
            controls = {name: bool(passed) for name, passed in workload.controls().items()}
        except Exception:
            traceback.print_exc()
            controls = {"controls_raised": False}

    out = {
        "setup_s": setup_s,
        "calibration_s": calibrations,
        "ops": ops,
        "controls": controls,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(OUT_DIR / f"trace-{task['workload']}-{task['seed']}-{task['worker']}.json")
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
