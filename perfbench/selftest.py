"""Self-tests of the benchmark: every workload at a tiny size, same command.

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the repository
root (about a minute on two cores).  The file name keeps it out of the
default test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: The output checks each workload must run at least once.
CHECKS = {
    "paper-dense": {"f1_floor"},
    "serve-daemon": {"one_ok_record_per_line", "hit_matches_original", "f1_floor"},
    "shard-sparse": {"csr", "dag", "complete", "f1_floor"},
    "monitor-windows": {"recall_floor", "not_preempted"},
}
SECONDS = {"serve-daemon": 4}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(SECONDS.get(workload, 1)), "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """The result object and the tagged detail lines of one run."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    tagged = {}
    for line in lines[:-1]:
        tag, _, payload = line.partition(" ")
        if tag.startswith("perfbench-"):
            tagged[tag] = json.loads(payload)
    return json.loads(lines[-1]), tagged


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload: str, seed: int, trace: int):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = parse(run(workload, seed, trace))
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(runs, workload):
    result, tagged = runs(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    ran = tagged["perfbench-checks"]
    assert CHECKS[workload] <= {name for name, count in ran.items() if count > 0}
    env = tagged["perfbench-env"]
    for key in ("cpu_count", "blas", "blas_threads", "numba_available", "steal_ticks"):
        assert key in env
    assert env["ref_kernel_before_s"] > 0 and env["ref_kernel_after_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer(runs, workload):
    result, tagged = runs(workload, 1, 1)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == PER_LAYER
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["obs.spans"] > 0 and metrics["obs.orphans"] == 0
    assert metrics["core.fit_s"] > 0 and metrics["core.inner_iters"] > 0
    assert CHECKS[workload] <= set(tagged["perfbench-checks"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(runs, workload):
    first, first_tags = runs(workload, 1, 0)
    second, second_tags = runs(workload, 2, 0)
    assert first_tags["perfbench-inputs"]["digest"] != second_tags["perfbench-inputs"]["digest"]
    assert set(first["metrics"]) == set(second["metrics"])


def test_fails_without_the_program():
    """With only the benchmark's own files it exits non-zero and prints no result."""
    bare = ROOT / ".perfbench-work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        proc = run("paper-dense", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
