"""Tests of the benchmark itself, on the tiny size of every workload.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0, proc.stderr
    assert out["attempted"] >= 1
    return out["metrics"]


def assert_listed(metrics, listed):
    assert list(metrics) == [m["name"] for m in listed]
    for m in listed:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2])
def test_end_to_end_metrics_on_two_seeds(workload, seed):
    metrics = result(bench(workload, seed, trace=0))
    assert_listed(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


# A few per-layer counts each workload must drive.
LAYERS = {
    "search": ("search.candidates", "arith.is_sth_power.calls"),
    "roundtrip": ("config.validate.calls", "linalg.matrix_rank.calls"),
    "conic": ("conic.parametrize.calls", "fiber.build_fiber.calls"),
    "certify": ("arith.cyclotomic.mul_calls",),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = (result(bench(workload, 3, trace=1)) for _ in range(2))
    assert_listed(first, SPEC["per_layer"])
    assert all(first[name]["value"] > 0 for name in LAYERS[workload])
    counts = [
        name for name in first
        if name.endswith(("calls", "search.candidates", "search.hits"))
    ]
    assert {n: first[n]["value"] for n in counts} == {
        n: second[n]["value"] for n in counts
    }
    assert first["trace.overhead"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("search", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_sampler_takes_its_probes_out_of_the_op_time():
    sampler = hostspeed.Sampler()
    op = workloads._certify(2, 2, 4)
    start = time.perf_counter()
    with sampler.running():
        outcome = workloads.run_op(op, sampler)
    end = time.perf_counter()
    assert outcome.error is None
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(sampler.samples) >= 3 and sampler.probe_s > 0
    assert outcome.seconds <= end - start - sampler.probe_s
    assert sampler.speed_ms(start, end) > 0
