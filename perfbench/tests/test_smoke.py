"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_emitted_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.BUILDERS)
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(bench.PER_LAYER)
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert metric["unit"] == bench.metric_unit(metric["name"])


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_every_metric_is_emitted(name):
    plain = bench.run_workload(name, seed=1, seconds=0, trace=False, size="tiny")
    assert plain["correct"], plain["problems"]
    assert plain["failed"] == 0
    assert set(plain["metrics"]) == set(bench.END_TO_END)
    assert plain["metrics"]["pass_rate"] == 1.0

    traced = bench.run_workload(name, seed=1, seconds=0, trace=True, size="tiny")
    assert traced["correct"], traced["problems"]
    assert set(traced["metrics"]) == set(bench.PER_LAYER)


def _flip_byte_on_call(monkeypatch, which):
    real = bench.run_cli
    calls = []

    def corrupting(*args):
        run = real(*args)
        calls.append(run)
        if len(calls) == which:
            middle = len(run.stdout) // 2
            run.stdout = run.stdout[:middle] + bytes([run.stdout[middle] ^ 1]) + run.stdout[middle + 1 :]
        return run

    monkeypatch.setattr(bench, "run_cli", corrupting)


@pytest.mark.parametrize("name", ["tenant_scan", "family_audit"])
def test_flipped_byte_in_a_timed_run_counts_as_failed(monkeypatch, name):
    _flip_byte_on_call(monkeypatch, which=2)  # call 1 is the reference run
    result = bench.run_workload(name, seed=1, seconds=0, trace=False, size="tiny")
    assert result["failed"] == 1
    assert not result["correct"]
    assert result["metrics"]["pass_rate"] < 1.0


def test_flipped_byte_in_the_reference_run_counts_as_failed(monkeypatch):
    _flip_byte_on_call(monkeypatch, which=1)
    result = bench.run_workload("wide_principal", seed=1, seconds=0, trace=False, size="tiny")
    assert result["failed"] >= 1
    assert not result["correct"]


def test_reference_job_with_a_wrong_checksum_stops_the_run(monkeypatch):
    bench.WORK.mkdir(exist_ok=True)
    monkeypatch.setattr(bench.reference_job, "EXPECTED", "0" * 16)
    with pytest.raises(RuntimeError, match="reference job failed"):
        bench.host_pace(min(os.sched_getaffinity(0)))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tenant_scan", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
