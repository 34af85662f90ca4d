"""Tests for repro.serve.pool: worker reuse, recycling, two-tier deadlines.

These pin the properties that distinguish the persistent pool from the old
disposable-process engine:

* workers are *reused* — N workers serve M >> N jobs without respawning;
* ``max_jobs_per_worker`` recycles workers on schedule (and ``1`` reproduces
  the disposable engine exactly);
* a hard-deadline preemption kills exactly the offending worker, never its
  busy neighbors;
* ``soft_timeout`` stops a cooperative solver at an outer-iteration boundary
  *without* killing the worker (the process survives and takes the next job);
* requeue accounting tiles the job span — every ``queue_wait`` /
  ``job_attempt`` child sits inside its parent ``job`` span, which
  ``repro-obs check`` must certify orphan-free.

Solver classes are module-level so the suite passes under both ``fork`` and
``spawn`` start methods.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.backend import (
    BackendSpec,
    SolveResult,
    register_backend,
    registry_epoch,
    unregister_backend,
)
from repro.exceptions import ValidationError
from repro.obs import Tracer
from repro.serve.job import LearningJob
from repro.serve.pool import PoolJob, WorkerPool
from repro.serve.streaming import SoftDeadlineExceeded, StreamingRunner

pytestmark = pytest.mark.timeout(120)

FAST_CONFIG = {"max_outer_iterations": 2, "max_inner_iterations": 20}


def _inline_job(seed: int = 0, **overrides) -> LearningJob:
    rng = np.random.default_rng(4242)
    data = rng.normal(size=(30, 5))
    options = {"data": data, "seed": seed, "config": dict(FAST_CONFIG)}
    options.update(overrides)
    return LearningJob(**options)


@dataclass(frozen=True)
class _NapConfig:
    duration: float = 0.0


class _NapBackend:
    """Sleep ``duration`` seconds, then return an instant empty result."""

    name = "nap"

    def __init__(self, config: _NapConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        if self.config.duration > 0:
            time.sleep(self.config.duration)
        d = data.shape[1]
        return SolveResult(
            solver=self.name,
            weights=np.zeros((d, d)),
            constraint_value=0.0,
            converged=True,
            n_outer_iterations=1,
        )


class _PidBackend:
    """Return weights filled with the pid of the process that solved."""

    name = "pid"

    def __init__(self, config: _NapConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        d = data.shape[1]
        return SolveResult(
            solver=self.name,
            weights=np.full((d, d), float(os.getpid())),
            constraint_value=0.0,
            converged=True,
            n_outer_iterations=1,
        )


@pytest.fixture
def nap_solver():
    register_backend(
        BackendSpec(name="nap", backend_class=_NapBackend, config_class=_NapConfig),
        overwrite=True,
    )
    yield
    unregister_backend("nap")


def _run_on_pool(pool: WorkerPool, job: LearningJob, timeout: float = 60.0):
    """Submit one job to ``pool`` and poll until its result arrives."""
    pool.submit(PoolJob(job=job))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for _, result in pool.poll(0.05):
            return result
    raise AssertionError(f"no result within {timeout}s")


@dataclass(frozen=True)
class _IterConfig:
    """A cooperative solver: ``n_iterations`` outer steps of fixed length."""

    n_iterations: int = 50
    iteration_seconds: float = 0.05


class _IterBackend:
    """Honors ``deadline_hooks`` once per outer iteration — the contract the
    soft-deadline tier rides on."""

    name = "iterhooks"

    def __init__(self, config: _IterConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        iterations = 0
        for _ in range(self.config.n_iterations):
            for hook in deadline_hooks or ():
                hook()
            time.sleep(self.config.iteration_seconds)
            iterations += 1
        d = data.shape[1]
        return SolveResult(
            solver=self.name,
            weights=np.zeros((d, d)),
            constraint_value=0.0,
            converged=True,
            n_outer_iterations=iterations,
        )


@pytest.fixture
def iter_backend():
    register_backend(
        BackendSpec(
            name="iterhooks",
            backend_class=_IterBackend,
            config_class=_IterConfig,
        ),
        overwrite=True,
    )
    yield
    unregister_backend("iterhooks")


_BAD_ENGINE_OPTIONS = [
    {"n_workers": 0},
    {"n_workers": 2, "timeout": 0.0},
    {"n_workers": 2, "soft_timeout": -1.0},
    {"n_workers": 2, "timeout": 1.0, "soft_timeout": 2.0},
    {"n_workers": 2, "max_retries": -1},
    {"n_workers": 2, "preempt_policy": "shrug"},
    {"n_workers": 2, "preempt_retries": -1},
    {"n_workers": 2, "max_jobs_per_worker": 0},
]


class TestPoolValidation:
    # The pool and the runner share one set of engine-option checks; every
    # bad option is rejected by both constructors.
    @pytest.mark.parametrize(
        "engine, kwargs",
        [
            pytest.param(engine, kwargs, id=f"{prefix}kwargs{i}")
            for i, kwargs in enumerate(_BAD_ENGINE_OPTIONS)
            for engine, prefix in ((WorkerPool, ""), (StreamingRunner, "runner-"))
        ],
    )
    def test_constructor_rejects_bad_parameters(self, engine, kwargs):
        kwargs = dict(kwargs)
        n_workers = kwargs.pop("n_workers")
        with pytest.raises(ValidationError):
            engine(n_workers, **kwargs)

    def test_submit_to_closed_pool_raises(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(ValidationError):
            pool.submit(PoolJob(job=_inline_job()))


class TestWorkerReuse:
    def test_many_jobs_reuse_few_workers(self, nap_solver):
        """The tentpole property: M jobs never spawn more than N processes."""
        jobs = [
            LearningJob(solver="nap", data=np.zeros((4, 3)), job_id=f"j{i}")
            for i in range(8)
        ]
        runner = StreamingRunner(n_workers=2, timeout=30.0)
        results = list(runner.stream(jobs))
        assert [r.status for r in results] == ["ok"] * 8
        assert runner.telemetry.n_workers_spawned <= 2
        assert len(set(runner.telemetry.worker_pids)) <= 2
        assert runner.telemetry.n_recycled == 0

    def test_registry_snapshot_paid_once_per_worker(self, nap_solver):
        """The registry epoch only forces a refresh when it actually moved."""
        epoch_before = registry_epoch()
        jobs = [
            LearningJob(solver="nap", data=np.zeros((4, 3))) for _ in range(4)
        ]
        runner = StreamingRunner(n_workers=1, timeout=30.0)
        results = list(runner.stream(jobs))
        assert all(r.status == "ok" for r in results)
        # No registration happened mid-stream, so the epoch is untouched and
        # every dispatch shipped registry=None (owning a single worker for 4
        # jobs is itself the proof the snapshot was not re-paid per job).
        assert registry_epoch() == epoch_before
        assert runner.telemetry.n_workers_spawned == 1

    def test_registry_change_reaches_a_live_worker(self, nap_solver):
        """A backend registered after the worker spawned is served by that
        same worker: the dispatch ships a fresh snapshot once the epoch moved."""
        pool = WorkerPool(1, timeout=30.0)
        try:
            first = _run_on_pool(
                pool, LearningJob(solver="nap", data=np.zeros((4, 3)))
            )
            register_backend(
                BackendSpec(
                    name="pid", backend_class=_PidBackend, config_class=_NapConfig
                ),
                overwrite=True,
            )
            try:
                second = _run_on_pool(
                    pool, LearningJob(solver="pid", data=np.zeros((4, 3)))
                )
            finally:
                unregister_backend("pid")
        finally:
            pool.close()
        assert (first.status, second.status) == ("ok", "ok"), second.error
        assert pool.telemetry.n_workers_spawned == 1
        (worker_pid,) = pool.telemetry.worker_pids
        assert second.weights[0, 0] == worker_pid

    def test_workers_closed_before_ready_still_record_their_spawn(self):
        """Every spawned worker leaves a ``worker_spawn`` span, even one the
        pool closed before its ready handshake was read."""
        tracer = Tracer()
        pool = WorkerPool(2, tracer=tracer)
        pool.submit(PoolJob(job=_inline_job(seed=0)))
        pool.submit(PoolJob(job=_inline_job(seed=1)))
        pool.close()
        spawns = [s for s in tracer.sink.spans() if s["name"] == "worker_spawn"]
        assert pool.telemetry.n_workers_spawned == 2
        assert len(spawns) == 2
        assert all(s["status"] == "never_ready" for s in spawns)
        assert all(s["parent_id"] is None for s in spawns)
        assert sorted(s["attributes"]["pid"] for s in spawns) == sorted(
            pool.telemetry.worker_pids
        )

    def test_recycling_after_max_jobs_per_worker(self, nap_solver):
        jobs = [
            LearningJob(solver="nap", data=np.zeros((4, 3)), job_id=f"j{i}")
            for i in range(6)
        ]
        runner = StreamingRunner(
            n_workers=1, timeout=30.0, max_jobs_per_worker=2
        )
        results = list(runner.stream(jobs))
        assert [r.status for r in results] == ["ok"] * 6
        # 6 jobs at 2 per worker = 3 worker generations, all retired cleanly.
        assert runner.telemetry.n_workers_spawned == 3
        assert len(set(runner.telemetry.worker_pids)) == 3
        assert runner.telemetry.n_recycled == 3
        assert runner.telemetry.n_killed == 0

    def test_max_jobs_per_worker_one_reproduces_disposable_engine(
        self, nap_solver
    ):
        jobs = [
            LearningJob(solver="nap", data=np.zeros((4, 3))) for _ in range(3)
        ]
        runner = StreamingRunner(
            n_workers=1, timeout=30.0, max_jobs_per_worker=1
        )
        results = list(runner.stream(jobs))
        assert all(r.status == "ok" for r in results)
        assert runner.telemetry.n_workers_spawned == 3
        assert len(set(runner.telemetry.worker_pids)) == 3

    def test_workers_are_reaped_after_stream(self, nap_solver, wait_until):
        jobs = [
            LearningJob(solver="nap", data=np.zeros((4, 3))) for _ in range(4)
        ]
        runner = StreamingRunner(n_workers=2, timeout=30.0)
        list(runner.stream(jobs))

        def _all_dead():
            for pid in runner.telemetry.worker_pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                return False
            return True

        wait_until(_all_dead, timeout=10.0, message="pool workers to exit")


class TestPoolPreemption:
    def test_preemption_kills_exactly_one_worker(self, nap_solver):
        """A blown deadline costs one process; busy neighbors keep working."""
        hanging = LearningJob(
            solver="nap",
            data=np.zeros((4, 3)),
            config={"duration": 60.0},
            job_id="hang",
        )
        fast = [
            LearningJob(
                solver="nap",
                data=np.zeros((4, 3)),
                config={"duration": 0.05},
                job_id=f"fast-{i}",
            )
            for i in range(3)
        ]
        runner = StreamingRunner(n_workers=2, timeout=8.0)
        results = {r.job_id: r for r in runner.stream([hanging] + fast)}
        assert results["hang"].status == "preempted"
        assert all(results[f"fast-{i}"].status == "ok" for i in range(3))
        assert runner.telemetry.n_killed == 1
        assert len(runner.telemetry.killed_pids) == 1
        # The killed pid is a real pool worker, and at least one other worker
        # survived the kill to finish the fast jobs.
        assert set(runner.telemetry.killed_pids) < set(
            runner.telemetry.worker_pids
        )


class TestSoftDeadline:
    def test_soft_preemption_spares_the_worker(self, iter_backend):
        """The soft tier stops the solve at an iteration boundary and the
        worker process survives to run the next job."""
        slow = LearningJob(
            solver="iterhooks",
            data=np.zeros((4, 3)),
            config={"n_iterations": 200, "iteration_seconds": 0.05},
            job_id="slow",
        )
        quick = LearningJob(
            solver="iterhooks",
            data=np.zeros((4, 3)),
            config={"n_iterations": 1, "iteration_seconds": 0.0},
            job_id="quick",
        )
        runner = StreamingRunner(n_workers=1, timeout=30.0, soft_timeout=0.4)
        results = {r.job_id: r for r in runner.stream([slow, quick])}
        assert results["slow"].status == "preempted"
        assert "soft deadline" in results["slow"].error
        assert results["quick"].status == "ok"
        telemetry = runner.telemetry
        assert telemetry.n_soft_preempted == 1
        assert telemetry.n_killed == 0  # nothing was SIGKILLed
        assert telemetry.n_requeued == 0  # soft stops are final
        # One process served both the preempted and the following job.
        assert telemetry.n_workers_spawned == 1
        assert len(set(telemetry.worker_pids)) == 1

    def test_soft_preemption_summary_counter(self, iter_backend):
        job = LearningJob(
            solver="iterhooks",
            data=np.zeros((4, 3)),
            config={"n_iterations": 200, "iteration_seconds": 0.05},
        )
        runner = StreamingRunner(n_workers=1, timeout=30.0, soft_timeout=0.3)
        list(runner.stream([job]))
        summary = runner.telemetry.preemption_summary()
        assert summary["n_soft_preempted"] == 1.0
        assert summary["n_killed"] == 0.0

    def test_inline_runner_honors_soft_timeout(self, iter_backend):
        """n_workers=1 with no hard timeout runs inline — the soft tier must
        behave identically there (same hook, same final preempted record)."""
        job = LearningJob(
            solver="iterhooks",
            data=np.zeros((4, 3)),
            config={"n_iterations": 200, "iteration_seconds": 0.05},
        )
        runner = StreamingRunner(n_workers=1, soft_timeout=0.3)
        results = list(runner.stream([job]))
        assert results[0].status == "preempted"
        assert "soft deadline" in results[0].error
        assert runner.telemetry.n_soft_preempted == 1
        assert runner.telemetry.n_workers_spawned == 0  # truly inline

    def test_hard_tier_still_fires_for_uncooperative_solver(self, nap_solver):
        """A solver that never calls its hooks blows through the soft tier;
        the SIGKILL tier remains the backstop."""
        job = LearningJob(
            solver="nap", data=np.zeros((4, 3)), config={"duration": 60.0}
        )
        runner = StreamingRunner(n_workers=1, timeout=1.0, soft_timeout=0.3)
        results = list(runner.stream(job for job in [job]))
        assert results[0].status == "preempted"
        assert runner.telemetry.n_killed == 1
        assert runner.telemetry.n_soft_preempted == 0

    def test_soft_deadline_exceeded_is_exported(self):
        assert issubclass(SoftDeadlineExceeded, RuntimeError)


class TestRequeueAccounting:
    def test_queue_wait_spans_tile_the_job_span(self, nap_solver, tmp_path):
        """Regression for the requeue race: the requeued attempt's wait must
        start at the kill (requeue moment), every attempt must be visible as
        a ``job_attempt`` span, and all children must sit inside the job span
        — certified orphan-free by ``repro-obs check``."""
        from repro.obs import NDJSONFileSink, Tracer
        from repro.obs.cli import main as obs_main

        trace_path = tmp_path / "trace.ndjson"
        tracer = Tracer(sink=NDJSONFileSink(trace_path))
        job = LearningJob(
            solver="nap",
            data=np.zeros((4, 3)),
            config={"duration": 60.0},
            job_id="requeued",
        )
        runner = StreamingRunner(
            n_workers=1,
            timeout=0.8,
            preempt_policy="requeue",
            preempt_retries=1,
            tracer=tracer,
        )
        results = list(runner.stream([job]))
        tracer.close()
        assert results[0].status == "preempted"
        assert runner.telemetry.n_requeued == 1
        assert runner.telemetry.n_killed == 2  # initial attempt + 1 requeue

        spans = [
            event
            for event in map(json.loads, trace_path.read_text().splitlines())
            if event["event"] == "span"
        ]
        by_name: dict[str, list[dict]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        (job_span,) = by_name["job"]

        # One queue_wait per attempt: attempt 0 recorded at submit, attempt 1
        # recorded at the requeue dispatch.
        waits = sorted(
            by_name["queue_wait"], key=lambda s: s["attributes"]["attempt"]
        )
        assert [w["attributes"]["attempt"] for w in waits] == [0, 1]
        # Each killed attempt is a job_attempt child with status preempted.
        attempts = by_name["job_attempt"]
        assert len(attempts) == 2
        assert all(a["status"] == "preempted" for a in attempts)

        # Tiling: every accounting child lies inside the job span, and the
        # requeued wait starts where its killed attempt ended (the race put
        # the reset *after* sweeping other workers, inflating the wait).
        eps = 0.05
        job_start, job_end = job_span["start"], job_span["start"] + job_span["duration"]
        for child in waits + attempts:
            assert child["parent_id"] == job_span["span_id"]
            assert child["start"] >= job_start - eps
            assert child["start"] + child["duration"] <= job_end + eps
        first_attempt = min(attempts, key=lambda a: a["start"])
        requeue_wait = waits[1]
        attempt_end = first_attempt["start"] + first_attempt["duration"]
        assert abs(requeue_wait["start"] - attempt_end) < 0.5
        # The wait must not swallow the killed attempt's runtime (~0.8s).
        assert requeue_wait["duration"] < 0.6

        assert (
            obs_main(
                [
                    "check",
                    str(trace_path),
                    "--require-span",
                    "job",
                    "--require-span",
                    "queue_wait",
                    "--require-span",
                    "job_attempt",
                ]
            )
            == 0
        )
