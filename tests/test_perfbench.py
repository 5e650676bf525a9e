"""Smoke run of the benchmark: its self-tests, one short untraced run per
workload, and short traced runs of ``sweep_batched`` and ``train_two_stage``.

A rounding change that breaks one of the benchmark's correctness checks
fails here, long before a timed run would show it.  The traced runs wrap
library functions that the benchmark looks up by name, so they also fail
when one of them is renamed or deleted.  A wrapped name the library stops
calling through ``train``'s module globals reads 0 instead, so the traced
training run also checks that each training metric counted some work.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_selftest_passes():
    done = _run(os.path.join(BENCH, "selftest.py"))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_is_correct(workload):
    done = _run(
        os.path.join(BENCH, "run.py"),
        "--workload", workload, "--seed", "2", "--seconds", "0.1", "--trace", "0",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(math.isfinite(m["value"]) for m in metrics.values())


# Per-layer metrics each traced workload must see above 0.
CALLED = {
    "sweep_batched": [],
    "train_two_stage": [
        "autograd.backward_ms",
        "autograd.tape_nodes",
        "optim.step_ms",
        "train.collect_taps_calls",
        "distill.loss_ms",
        "checkpoint.save_ms",
    ],
}


@pytest.mark.parametrize("workload", sorted(CALLED))
def test_short_traced_run_reports_every_layer_metric(workload):
    done = _run(
        os.path.join(BENCH, "run.py"),
        "--workload", workload, "--seed", "2", "--seconds", "0.1", "--trace", "1",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    for name in CALLED[workload]:
        assert metrics[name]["value"] > 0, name
