"""Record the references that the benchmark's inputs and correctness gate use.

    python3 bench/record_reference.py

Writes bench/reference.json: for each size, the sha256 of every derived
identity and OSp result, the sha256 of the report of every verify trial in
the trial pool, and the trial pool and charfn sample pool split into strata
by the cost of each input as timed here.  The references must come from a
commit whose outputs are known to be right; a change under test must never
re-record them, or a wrong answer would be gated against itself.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from common import REFERENCE_FILE, SIZES, digest_json, digest_text, load_superch, shape_key, stratify


def record_identities(spec):
    superch = load_superch()
    identities = {}
    shapes = list(spec["derive_shapes"]) + list(spec["osp_shapes"]) + [spec["verify_shape"]]
    for shape in dict.fromkeys(shapes):
        identities[shape_key(shape)] = superch.identity_coeffs(*shape)
    return {
        "identity": {k: digest_json(ident.to_json()) for k, ident in identities.items()},
        "osp": {
            shape_key(s): digest_json(superch.osp_specialize(identities[shape_key(s)]).to_json())
            for s in spec["osp_shapes"]
        },
    }


def record_trials(spec):
    superch = load_superch()
    p, q = spec["verify_shape"]
    ident = superch.identity_coeffs(p, q)
    digests, costs = {}, {}
    for s in range(spec["trial_pool"]):
        t0 = perf_counter()
        report = superch.verify_batch(
            p, q, trials=1, seed=s, n_gen=spec["n_gen"],
            max_soul_grade=spec["soul_grade"], identity=ident,
        )
        costs[s] = perf_counter() - t0
        if not report.all_passed():
            raise SystemExit(f"trial seed {s} did not pass; refusing to record it")
        digests[str(s)] = digest_text(report.to_json_string())
    return {"trials": digests, "trial_strata": stratify(costs, spec["strata"])}


def record_samples(spec):
    superch = load_superch()
    p, q = spec["charfn_shape"]
    costs = {}
    for s in range(spec["sample_pool"]):
        m = superch.random_supermatrix(p, q, spec["n_gen"], s, spec["soul_grade"])
        t0 = perf_counter()
        ok = superch.check_equivalence(m)
        costs[s] = perf_counter() - t0
        if ok is not True:
            raise SystemExit(f"sample seed {s} failed check_equivalence; refusing to record it")
    return {"sample_strata": stratify(costs, spec["strata"])}


def main():
    data = {}
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        for size in ("smoke", "full"):
            spec = SIZES[size]
            parts = [pool.submit(f, spec) for f in (record_trials, record_samples)]
            data[size] = record_identities(spec)
            for part in parts:
                data[size].update(part.result())
            REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
            print(f"recorded {size}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
