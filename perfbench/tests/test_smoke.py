"""Every workload completes a tiny-step run in both modes and reports the
metrics BENCHMARK.json declares."""

import json
import shutil
import subprocess
import sys

import pytest

import run

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run(workload, traced):
    run.WORK.mkdir(exist_ok=True)
    result = run.run(workload, seed=5, seconds=0, traced=traced, steps=60)["result"]
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = DECLARED["per_layer" if traced else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *DECLARED["command"][1:], "--workload", "rsu_on",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
