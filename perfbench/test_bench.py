"""The benchmark's own test, on the smoke versions of its workloads.

    python3 -m pytest perfbench/test_bench.py -q

Checks that a run prints the metrics BENCHMARK.json declares, that two runs of
the same code give byte-identical predictions and identical per-layer counts,
and that the benchmark refuses to run without the package source.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, cwd=ROOT):
    """(exit code, info record or None, result line or None) of one smoke run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    info = next((json.loads(line)["info"] for line in lines if line.startswith('{"info"')),
                None)
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc.returncode, info, result


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _check_result(result, kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared(kind)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, info, result = bench(workload, seed=5, trace=0)
    assert code == 0, info
    _check_result(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["machine"]["blas_threads"] in (1, None)
    assert len(info["predictions_sha256"]) == 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_predictions(workload):
    runs = [bench(workload, seed=7, trace=1) for _ in range(2)]
    for code, info, result in runs:
        assert code == 0, info
        _check_result(result, "per_layer")
        assert info["trace_missing_targets"] == []
        assert set(info["trace_overhead"]) == set(_declared("end_to_end")) - {"peak_rss_mb"}
    (_, first_info, first), (_, second_info, second) = runs
    assert first_info["predictions_sha256"] == second_info["predictions_sha256"]
    counts = {name for name, unit in _declared("per_layer").items() if unit != "s"}
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts}


def test_seed_changes_the_inputs():
    digests = {bench("desk_train", seed=seed, trace=0)[1]["predictions_sha256"]
               for seed in (1, 2)}
    assert len(digests) == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
