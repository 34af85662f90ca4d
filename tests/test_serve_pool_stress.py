"""Concurrency stress suite for the persistent worker pool.

One hundred-plus tiny jobs — a seeded random mix of instant successes,
worker-crashing jobs, and deadline-blowing hangs — are pushed through a
4-worker pool under BOTH start methods (``fork`` and ``spawn`` via
``REPRO_SERVE_START_METHOD``), with recycling enabled so worker turnover
happens *while* kills and crashes are in flight.  The invariants:

* **no lost or duplicated results** — exactly one ``JobResult`` per
  submitted job id, with the status its kind demands;
* **no orphan processes** — every worker pid ever spawned is dead once the
  stream drains, and the test process has no new children left behind
  (checked against a pre-run ``/proc`` snapshot);
* **kill containment** — only hang jobs cost kills, and each kill costs
  exactly one process;
* **recycling under fire** — ``max_jobs_per_worker`` retirements interleave
  with preemptions without dropping a result.

The mix is seeded: failures reproduce, they don't flake.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.backend import (
    BackendSpec,
    SolveResult,
    register_backend,
    unregister_backend,
)
from repro.serve.job import LearningJob
from repro.serve.streaming import StreamingRunner

pytestmark = pytest.mark.timeout(300)

N_JOBS = 104
N_CRASH = 6
N_HANG = 6
N_WORKERS = 4
DEADLINE = 1.5


@dataclass(frozen=True)
class _StressConfig:
    mode: str = "fast"  # "fast" | "crash" | "hang"
    duration: float = 0.01


class _StressBackend:
    """Succeed instantly, kill its worker, or hang far past any deadline."""

    name = "stress"

    def __init__(self, config: _StressConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        if self.config.mode == "crash":
            os._exit(17)
        if self.config.mode == "hang":
            time.sleep(60.0)
        time.sleep(self.config.duration)
        d = data.shape[1]
        return SolveResult(
            solver=self.name,
            weights=np.zeros((d, d)),
            constraint_value=0.0,
            converged=True,
            n_outer_iterations=1,
        )


@pytest.fixture
def stress_solver():
    register_backend(
        BackendSpec(
            name="stress", backend_class=_StressBackend, config_class=_StressConfig
        ),
        overwrite=True,
    )
    yield
    unregister_backend("stress")


def _children_of_self() -> set[int]:
    """Direct child pids of this process, straight from ``/proc``."""
    pid = os.getpid()
    children: set[int] = set()
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            path = f"/proc/{pid}/task/{task}/children"
            try:
                with open(path) as handle:
                    children.update(int(p) for p in handle.read().split())
            except OSError:
                continue
    except OSError:
        pass  # /proc unavailable (non-Linux); the pid liveness check remains
    return children


def _build_manifest(seed: int = 20210414) -> list[LearningJob]:
    """The seeded job mix, shuffled so failure kinds interleave."""
    kinds = (
        ["crash"] * N_CRASH
        + ["hang"] * N_HANG
        + ["fast"] * (N_JOBS - N_CRASH - N_HANG)
    )
    rng = np.random.default_rng(seed)
    rng.shuffle(kinds)
    jobs = []
    for index, kind in enumerate(kinds):
        duration = float(rng.uniform(0.0, 0.03)) if kind == "fast" else 0.0
        jobs.append(
            LearningJob(
                solver="stress",
                data=np.zeros((4, 3)),
                config={"mode": kind, "duration": duration},
                job_id=f"{kind}-{index:03d}",
            )
        )
    return jobs


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_stress_no_lost_results_no_orphans(
    stress_solver, monkeypatch, wait_until, start_method
):
    monkeypatch.setenv("REPRO_SERVE_START_METHOD", start_method)
    children_before = _children_of_self()
    jobs = _build_manifest()
    expected = {job.job_id for job in jobs}

    # max_jobs_per_worker=6 makes recycling a pigeonhole certainty, not a
    # scheduling accident: without recycles at most 4 + 6 + 6 = 16 workers
    # ever exist (initial fleet + one replacement per crash/kill), and
    # 16 workers * 5 jobs < 92 fast jobs.
    runner = StreamingRunner(
        n_workers=N_WORKERS,
        timeout=DEADLINE,
        max_jobs_per_worker=6,
    )
    results = list(runner.stream(jobs))

    # Exactly one result per submitted job — none lost, none duplicated.
    yielded = [result.job_id for result in results]
    assert len(yielded) == N_JOBS
    assert len(set(yielded)) == N_JOBS
    assert set(yielded) == expected

    # Every kind resolved to the status its failure mode demands.
    by_status: dict[str, set[str]] = {}
    for result in results:
        by_status.setdefault(result.status, set()).add(
            result.job_id.split("-")[0]
        )
    assert by_status["ok"] == {"fast"}
    assert by_status["failed"] == {"crash"}
    assert by_status["preempted"] == {"hang"}
    assert sum(1 for r in results if r.status == "ok") == N_JOBS - N_CRASH - N_HANG

    telemetry = runner.telemetry
    # Kill containment: one kill per hang job, nothing else SIGKILLed, and
    # crashes never counted as engine kills.
    assert telemetry.n_killed == N_HANG
    assert len(telemetry.killed_pids) == N_HANG
    assert telemetry.n_requeued == 0
    # Recycling actually happened mid-stress.
    assert telemetry.n_recycled >= 1
    # Worker turnover stayed bounded: the initial fleet plus one replacement
    # per crash/kill/recycle, not one process per job.
    assert telemetry.n_workers_spawned <= N_WORKERS + N_CRASH + N_HANG + telemetry.n_recycled + 2
    assert telemetry.n_workers_spawned < N_JOBS // 2

    # Orphan sweep #1: every worker pid ever spawned is dead.
    def _all_workers_dead():
        for pid in telemetry.worker_pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            return False
        return True

    wait_until(_all_workers_dead, timeout=15.0, message="all workers to exit")

    # Orphan sweep #2: no new children of the test process survived the run.
    # multiprocessing's resource tracker is a deliberate long-lived child
    # (one per interpreter, started lazily on first use) — not an orphan.
    def _no_new_children():
        from multiprocessing import resource_tracker

        allowed = {getattr(resource_tracker._resource_tracker, "_pid", None)}
        return (_children_of_self() - children_before) <= allowed

    wait_until(_no_new_children, timeout=15.0, message="children to be reaped")


def test_stress_requeue_policy_converges(stress_solver, monkeypatch):
    """A smaller mix under ``requeue``: killed hangs burn their retry budget
    and still drain — requeues never duplicate or wedge the stream."""
    monkeypatch.setenv("REPRO_SERVE_START_METHOD", "fork")
    rng = np.random.default_rng(7)
    kinds = ["hang"] * 3 + ["fast"] * 21
    rng.shuffle(kinds)
    jobs = [
        LearningJob(
            solver="stress",
            data=np.zeros((4, 3)),
            config={"mode": kind, "duration": 0.01},
            job_id=f"{kind}-{index:02d}",
        )
        for index, kind in enumerate(kinds)
    ]
    runner = StreamingRunner(
        n_workers=2,
        timeout=1.0,
        preempt_policy="requeue",
        preempt_retries=1,
    )
    results = list(runner.stream(jobs))
    assert len(results) == len(jobs)
    assert len({r.job_id for r in results}) == len(jobs)
    statuses = {r.job_id: r.status for r in results}
    assert all(statuses[j.job_id] == "preempted" for j in jobs if "hang" in j.job_id)
    assert all(statuses[j.job_id] == "ok" for j in jobs if "fast" in j.job_id)
    assert runner.telemetry.n_requeued == 3
    assert runner.telemetry.n_killed == 6  # 3 first attempts + 3 requeues
