"""Smoke tests for the benchmark, at the --tiny size.

    python3 -m pytest bench/test_smoke.py -q

They run every workload in both modes, check that every metric of
BENCHMARK.json is printed, that a corrupted reference value makes tasks
fail, and that the benchmark refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"  {m['name']} = " in proc.stdout


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import reference
    import run

    return run, reference


def test_corrupted_soliton_reference_fails(bench_modules, monkeypatch):
    run, reference = bench_modules
    wrong = dict(reference.SOLITON["blowup_cp2(1)"], a=[-0.5, -0.5])
    monkeypatch.setitem(reference.SOLITON, "blowup_cp2(1)", wrong)
    result, details, _ = run.run_workload("soliton_verdict", 7, 0, 0, tiny=True)
    assert result["failed"] > 0 and details["fail_rate"] > 0
    assert result["metrics"]["pass_rate"]["value"] < 1.0


def test_corrupted_closed_form_fails(bench_modules, monkeypatch):
    run, reference = bench_modules
    monkeypatch.setitem(reference.DELTA, "simplex(2)", 4.001)
    result, details, _ = run.run_workload("curvature_field", 7, 0, 0, tiny=True)
    assert details["fail_rate"] > 0
    assert {kind for kind, _ in details["failures"]} == {"det_factorization_check:simplex(2)"}


def test_refuses_without_package_source():
    copy = BENCH / "out" / "smoke-bench-only"
    shutil.rmtree(copy, ignore_errors=True)
    try:
        shutil.copytree(BENCH, copy / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=copy)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(copy, ignore_errors=True)
