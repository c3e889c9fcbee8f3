"""Tiny-size runs of the benchmark command with its full argument set."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workload_names_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.NAMES


def test_job_seeds_differ_across_invocation_seeds():
    seeds = [job for seed in range(20) for job in workloads.job_seeds(seed)]
    assert len(set(seeds)) == len(seeds) == 20 * workloads.JOBS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in section}
    for m in section:
        assert m["name"] in proc.stderr
    if trace and workload == "fullshare-chain4":
        metrics = result["metrics"]
        assert metrics["selection.round.calls"]["value"] == 0
        assert metrics["backbone.active_expert_share"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sdsp-chain4", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
