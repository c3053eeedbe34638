"""Smoke tests of the benchmark itself, at the tiny ``smoke`` size.

    python3 -m pytest bench -q

They check that every workload emits every metric named in BENCHMARK.json
with its unit, that the correctness gate and the negative controls count a
wrong answer as a failure, and that the benchmark refuses to run without
the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import common
import run
import worker
from workloads import WORKLOAD_CLASSES

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
SMOKE = common.SIZES["smoke"]


def run_bench(workload, trace, cwd=common.ROOT, script=common.BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", common.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_workloads_match_the_benchmark():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(common.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(common.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("verify", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_follow_the_seed():
    strata = common.load_reference("smoke")["trial_strata"]
    size = sum(len(group) for group in strata)
    seeds = [common.pool_seed("verify", 5, i, strata) for i in range(size)]
    assert seeds == [common.pool_seed("verify", 5, i, strata) for i in range(size)]
    assert sorted(seeds) == sorted(s for group in strata for s in group)
    first_cycle = seeds[: len(strata)]
    assert all(sum(s in group for s in first_cycle) == 1 for group in strata)
    assert seeds != [common.pool_seed("verify", 6, i, strata) for i in range(size)]
    assert sorted(common.derive_order(5, 0, SMOKE["derive_shapes"])) == sorted(SMOKE["derive_shapes"])


@pytest.fixture(scope="module")
def superch():
    return common.load_superch()


def make(name, superch):
    return WORKLOAD_CLASSES[name](superch, SMOKE, common.load_reference("smoke"), 3)


def test_negative_controls_pass_on_a_correct_library(superch):
    assert make("verify", superch).controls() == {"perturbed_identity_rejected": True}
    assert make("charfn", superch).controls() == {"cross_sample_forms_differ": True}


def test_negative_controls_fail_when_the_library_stops_checking(superch, monkeypatch):
    verify, charfn = make("verify", superch), make("charfn", superch)
    p, q = SMOKE["verify_shape"]
    zeros = superch.SuperMatrix.zeros(p, q, SMOKE["n_gen"])
    monkeypatch.setattr(superch.verifier, "evaluate_identity", lambda m, ident: zeros)
    monkeypatch.setattr(superch.charfn.RatioForm, "cross_equal", lambda self, other: True)
    assert verify.controls() == {"perturbed_identity_rejected": False}
    assert charfn.controls() == {"cross_sample_forms_differ": False}


def test_gate_rejects_wrong_results(superch):
    verify = make("verify", superch)
    trial = verify.prepare(0)
    assert verify.check(trial, verify.run(trial)[0])
    assert not verify.check(trial, verify.verify(trial, identity=verify.perturbed_identity()))

    derive = make("derive", superch)
    shapes = derive.prepare(0)
    result, seconds = derive.run(shapes)
    assert seconds == result["derive_s"] + result["osp_s"] > 0
    assert derive.check(shapes, result)
    result["idents"][shapes[0]] = result["idents"][shapes[0]].flip_signs()
    assert not derive.check(shapes, result)

    charfn = make("charfn", superch)
    assert not charfn.check(charfn.prepare(0), False)


def test_injected_fault_is_counted_as_failed(superch, monkeypatch):
    """A library returning a wrong verdict fails the gate and the control."""
    p, q = SMOKE["verify_shape"]
    zeros = superch.SuperMatrix.zeros(p, q, SMOKE["n_gen"])
    monkeypatch.setattr(superch.verifier, "evaluate_identity", lambda m, ident: zeros)
    task = {"workload": "verify", "seed": 3, "size": "smoke", "trace": 0, "worker": 0,
            "op_start": 0, "budget_s": 0.0, "controls": True, "spawned_at": 0.0}
    ops, controls, attempted, failed = run.outcome([worker.main(task)])
    assert attempted == 2 and failed == 1 and controls == [False]

    monkeypatch.setattr(superch.charfn, "check_equivalence", lambda m: False)
    task.update(workload="charfn")
    _, _, attempted, failed = run.outcome([worker.main(task)])
    assert attempted == 2 and failed == 1


def test_tail_percentile_has_ten_samples_beyond():
    values = [float(i) for i in range(40)]
    value, pct, n = run.tail(values)
    assert n == 40 and sum(v > value for v in values) == 10 and pct == 75.0
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3)
