"""Shared definitions for the superch benchmark.

Workload sizes, per-operation seed derivation, canonical hashing of
results, and the import guard that loads the package from this checkout's
``src/`` and from nowhere else.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("derive", "verify", "charfn")

# Full size is what `run.py` runs by default; smoke size is what the
# benchmark's own tests run.  Derive shapes never repeat within a pass and
# no shape is the dual of another, so a cache kept across calls inside one
# pass cannot help.
# Verify trials and charfn samples come from pools of seeds recorded with
# their cost at the seed commit (see ``pool_seed``).
SIZES = {
    "full": {
        "derive_shapes": [(4, 2), (3, 3), (2, 5), (4, 3), (6, 2)],
        "osp_shapes": [(2, 2), (4, 2)],
        "verify_shape": (3, 2),
        "charfn_shape": (3, 2),
        "n_gen": 6,
        "soul_grade": 3,
        "trial_pool": 1024,
        "sample_pool": 4096,
        "strata": 16,
    },
    "smoke": {
        "derive_shapes": [(2, 1), (1, 3), (2, 2)],
        "osp_shapes": [(2, 2)],
        "verify_shape": (2, 1),
        "charfn_shape": (2, 1),
        "n_gen": 6,
        "soul_grade": 3,
        "trial_pool": 64,
        "sample_pool": 64,
        "strata": 4,
    },
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (package or references missing)."""


def load_superch():
    """Import superch from this checkout's src/, refusing any other copy."""
    if not (SRC / "superch" / "__init__.py").is_file():
        raise SetupError(f"no superch package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import superch

    if Path(superch.__file__).resolve().parent != (SRC / "superch").resolve():
        raise SetupError(f"superch imported from {superch.__file__}, not {SRC}")
    return superch


def load_reference(size: str):
    """Result digests recorded from the seed commit for the given size."""
    if not REFERENCE_FILE.is_file():
        raise SetupError(f"missing {REFERENCE_FILE}")
    with REFERENCE_FILE.open() as fh:
        return json.load(fh)[size]


def shape_key(shape) -> str:
    return f"{shape[0]},{shape[1]}"


def digest_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def derive_order(seed: int, index: int, shapes):
    """Shape order of derive pass ``index``: a seeded shuffle."""
    order = list(shapes)
    random.Random(f"derive:{seed}:{index}").shuffle(order)
    return order


def pool_seed(tag: str, seed: int, index: int, strata) -> int:
    """Input seed of operation ``index`` drawn from a stratified pool.

    ``strata`` splits a pool of input seeds into groups of similar cost,
    as measured when the references were recorded.  Every run of S
    consecutive operations (S strata) takes one seed from each stratum, in
    a seeded order, and a seeded permutation of each stratum decides which
    member.  So each run sees the pool's whole cost range in the same
    proportions, which keeps the spread between seeds small, while the
    inputs themselves still change with the seed and do not repeat until a
    stratum is used up.
    """
    cycle, k = divmod(index, len(strata))
    order = list(range(len(strata)))
    random.Random(f"{tag}:{seed}:cycle:{cycle}").shuffle(order)
    members = list(strata[order[k]])
    random.Random(f"{tag}:{seed}:stratum:{order[k]}").shuffle(members)
    return members[cycle % len(members)]


def stratify(costs: dict, count: int):
    """Split seeds into ``count`` equal groups by ascending recorded cost."""
    ranked = sorted(costs, key=lambda s: (costs[s], s))
    size = len(ranked) // count
    return [sorted(ranked[i * size:(i + 1) * size]) for i in range(count)]


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction and dict arithmetic.

    The loop uses none of superch, so no change to the package moves it;
    it only tracks how fast this machine runs Python code of the kind
    superch runs, at the moment it is called.
    """
    t0 = perf_counter()
    acc = {}
    for i in range(1, 41):
        for j in range(1, 41):
            k = (i * 7 + j) & 63
            c = Fraction(i, j) * Fraction(j + 2, i + 3)
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
    return perf_counter() - t0
