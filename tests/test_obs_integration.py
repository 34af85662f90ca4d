"""End-to-end tracing tests: spans and metrics across serve, shard, re-learn.

These tests drive the instrumented layers with a real :class:`~repro.obs.Tracer`
and assert the structural contract of the merged traces: every job decomposes
into ``queue_wait → worker_spawn → data_materialize → solve (outer_iter × N) →
cache_store`` with no orphan spans, across the inline path, real worker
processes, preemption kills, the re-learn scheduler, and sharded solves.
"""

from __future__ import annotations

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
from repro.core.least import LEASTConfig
from repro.obs import InMemorySink, Tracer, validate_trace, wall_clock_breakdown
from repro.serve.cache import InMemoryCache
from repro.serve.job import LearningJob
from repro.serve.scheduler import RelearnScheduler
from repro.serve.streaming import StreamingRunner
from repro.shard.executor import ShardExecutor, solve_sharded
from repro.shard.planner import ShardPlanner
from repro.utils.blas import single_blas_thread

FAST_CONFIG = {"max_outer_iterations": 3, "max_inner_iterations": 40}


def _job(seed: int = 0, **overrides) -> LearningJob:
    rng = np.random.default_rng(7)
    data = rng.normal(size=(40, 6))
    options = {"data": data, "seed": seed, "config": dict(FAST_CONFIG)}
    options.update(overrides)
    return LearningJob(**options)


def _by_name(tracer: Tracer) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for span in tracer.sink.spans():
        grouped.setdefault(span["name"], []).append(span)
    return grouped


def _ids(spans: list[dict]) -> set[str]:
    return {span["span_id"] for span in spans}


def _pinned_blas_threads() -> int | None:
    """What a solve span reports: 1 with OpenBLAS loaded, else None."""
    with single_blas_thread() as pinned:
        return pinned


@dataclass(frozen=True)
class _HangConfig:
    duration: float = 60.0


class _HangBackend:
    """A solver that sleeps far past any reasonable deadline."""

    name = "obs-hang"

    def __init__(self, config: _HangConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
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
def hang_solver():
    register_backend(
        BackendSpec(
            name="obs-hang", backend_class=_HangBackend, config_class=_HangConfig
        ),
        overwrite=True,
    )
    yield
    unregister_backend("obs-hang")


class TestTracedInlinePath:
    def test_job_span_tree_and_metrics(self):
        tracer = Tracer()
        runner = StreamingRunner(n_workers=1, tracer=tracer)
        results = list(runner.stream([_job(seed=s) for s in range(2)]))
        assert [r.status for r in results] == ["ok", "ok"]

        spans = tracer.sink.spans()
        assert validate_trace(spans)["n_orphans"] == 0
        by_name = _by_name(tracer)
        assert len(by_name["job"]) == 2
        assert len(by_name["queue_wait"]) == 2
        assert len(by_name["data_materialize"]) == 2
        assert len(by_name["solve"]) == 2
        assert len(by_name["outer_iter"]) >= 2
        # No subprocess on the inline path: no spawn, no worker root.
        assert "worker_spawn" not in by_name and "worker" not in by_name
        # Every non-job span hangs off a job span.
        job_ids = _ids(by_name["job"])
        for name in ("queue_wait", "data_materialize", "solve"):
            assert all(s["parent_id"] in job_ids for s in by_name[name])
        solve_ids = _ids(by_name["solve"])
        assert all(s["parent_id"] in solve_ids for s in by_name["outer_iter"])

        counter = tracer.metrics.counter("serve_jobs_total", status="ok")
        assert counter.value == 2.0
        assert tracer.metrics.histogram("serve_job_seconds").count == 2
        assert tracer.metrics.histogram("serve_queue_wait_seconds").count == 2

    def test_job_span_attributes_and_solver_context(self):
        tracer = Tracer()
        runner = StreamingRunner(n_workers=1, tracer=tracer)
        list(runner.stream([_job()]))
        job = _by_name(tracer)["job"][0]
        assert job["attributes"]["job_id"] == "job-000"
        assert job["attributes"]["solver"] == "least"
        assert job["attributes"]["attempts"] == 1
        assert job["attributes"]["cache_hit"] is False
        solve = _by_name(tracer)["solve"][0]
        assert solve["attributes"]["n_outer_iterations"] >= 1
        assert "converged" in solve["attributes"]
        assert solve["attributes"]["blas_threads"] == _pinned_blas_threads()

    def test_cache_hit_and_store_spans(self):
        tracer = Tracer()
        cache = InMemoryCache()
        manifest = [_job()]
        list(StreamingRunner(cache=cache, tracer=tracer).stream(manifest))
        by_name = _by_name(tracer)
        assert len(by_name["cache_store"]) == 1
        assert by_name["cache_store"][0]["parent_id"] in _ids(by_name["job"])

        # A second pass over the same manifest is a pure cache hit: no solve,
        # no second store, and the hit counter moves.
        list(StreamingRunner(cache=cache, tracer=tracer).stream(manifest))
        by_name = _by_name(tracer)
        assert len(by_name["cache_store"]) == 1
        assert len(by_name["solve"]) == 1
        assert len(by_name["job"]) == 2
        assert tracer.metrics.counter("serve_cache_hits_total").value == 1.0
        hit_job = by_name["job"][1]
        assert hit_job["attributes"]["cache_hit"] is True

    def test_failed_materialization_marks_spans(self):
        tracer = Tracer()
        bad = LearningJob(dataset="no-such-dataset", config=dict(FAST_CONFIG))
        results = list(StreamingRunner(tracer=tracer).stream([bad]))
        assert results[0].status == "failed"
        by_name = _by_name(tracer)
        assert by_name["data_materialize"][0]["status"] == "error"
        assert by_name["job"][0]["status"] == "failed"
        assert tracer.metrics.counter("serve_jobs_total", status="failed").value == 1.0
        assert validate_trace(tracer.sink.spans())["n_orphans"] == 0

    def test_untraced_runner_emits_nothing(self):
        runner = StreamingRunner(n_workers=1)
        assert [r.status for r in runner.stream([_job()])] == ["ok"]
        assert runner.tracer is None


class TestTracedWorkerPath:
    def test_worker_spans_merge_into_one_tree(self):
        tracer = Tracer()
        runner = StreamingRunner(n_workers=2, timeout=60.0, tracer=tracer)
        results = list(runner.stream([_job(seed=s) for s in range(3)]))
        assert [r.status for r in results] == ["ok"] * 3

        spans = tracer.sink.spans()
        assert validate_trace(spans)["n_orphans"] == 0
        by_name = _by_name(tracer)
        assert len(by_name["job"]) == 3
        assert len(by_name["worker"]) == 3
        # Two pool workers serve three jobs: spawn is paid per worker now,
        # not per job — that is the whole point of the pool.
        assert len(by_name["worker_spawn"]) == 2
        assert len(by_name["solve"]) == 3
        job_ids = _ids(by_name["job"])
        assert all(s["parent_id"] in job_ids for s in by_name["worker"])
        # worker_spawn spans are root-level pool lifecycle, recorded at the
        # ready handshake — they belong to the worker, not to any one job.
        assert all(s["parent_id"] is None for s in by_name["worker_spawn"])
        worker_ids = _ids(by_name["worker"])
        assert all(s["parent_id"] in worker_ids for s in by_name["solve"])
        pinned = _pinned_blas_threads()
        assert all(s["attributes"]["blas_threads"] == pinned for s in by_name["solve"])
        # The spawn gap is the launch→ready interval, a real positive
        # duration — the number the throughput benchmark pins.
        for spawn in by_name["worker_spawn"]:
            assert spawn["duration"] > 0.0
            assert spawn["attributes"]["pid"]
        breakdown = wall_clock_breakdown(spans)
        assert breakdown["worker_spawn"] > 0.0 and breakdown["solve"] > 0.0

    def test_spool_dir_is_cleaned_up(self):
        tracer = Tracer()
        runner = StreamingRunner(n_workers=2, timeout=60.0, tracer=tracer)
        list(runner.stream([_job()]))
        assert runner._spool_dir is None

    def test_preempted_job_trace_has_no_orphans(self, hang_solver):
        tracer = Tracer()
        runner = StreamingRunner(n_workers=1, timeout=1.0, tracer=tracer)
        hanging = LearningJob(
            solver="obs-hang", data=np.zeros((4, 3)), config={"duration": 60.0}
        )
        results = list(runner.stream([hanging]))
        assert results[0].status == "preempted"

        spans = tracer.sink.spans()
        assert validate_trace(spans)["n_orphans"] == 0
        job = _by_name(tracer)["job"][0]
        assert job["status"] == "preempted"
        kills = tracer.metrics.counter("serve_preemptions_total", kind="parent_kill")
        assert kills.value == 1.0

    def test_requeue_counts_and_single_job_span(self, hang_solver):
        tracer = Tracer()
        runner = StreamingRunner(
            n_workers=1,
            timeout=0.8,
            preempt_policy="requeue",
            preempt_retries=1,
            tracer=tracer,
        )
        hanging = LearningJob(
            solver="obs-hang", data=np.zeros((4, 3)), config={"duration": 60.0}
        )
        results = list(runner.stream([hanging]))
        assert results[0].status == "preempted"
        assert runner.telemetry.n_requeued == 1
        assert tracer.metrics.counter("serve_requeues_total").value == 1.0

        by_name = _by_name(tracer)
        # One job span covers the whole lifecycle; each attempt adds its own
        # queue_wait child.
        assert len(by_name["job"]) == 1
        assert len(by_name["queue_wait"]) == 2
        assert validate_trace(tracer.sink.spans())["n_orphans"] == 0


class TestTracedBatchAndScheduler:
    def test_streaming_runner_run_forwards_tracer(self):
        tracer = Tracer()
        report = StreamingRunner(n_workers=1, tracer=tracer).run([_job()])
        assert report.n_ok == 1
        assert len(_by_name(tracer)["job"]) == 1

    @pytest.mark.parametrize("window_deadline", [None, 30.0])
    def test_scheduler_window_spans(self, window_deadline):
        tracer = Tracer()
        scheduler = RelearnScheduler(
            least_config=LEASTConfig(**FAST_CONFIG),
            window_deadline=window_deadline,
            tracer=tracer,
        )
        rng = np.random.default_rng(3)
        names = [f"n{i}" for i in range(5)]
        for _ in range(2):
            scheduler.step(rng.normal(size=(60, 5)), names, seed=0)

        spans = tracer.sink.spans()
        assert validate_trace(spans)["n_orphans"] == 0
        by_name = _by_name(tracer)
        assert len(by_name["window"]) == 2
        first, second = by_name["window"]
        assert first["attributes"]["window_index"] == 0
        assert first["attributes"]["warm_started"] is False
        assert second["attributes"]["warm_started"] is True
        # Each window nests window → job → solve → outer_iter, inline and on
        # a pool worker alike.
        by_id = {span["span_id"]: span for span in spans}

        def ancestor(span, name):
            while span.get("parent_id") is not None:
                span = by_id[span["parent_id"]]
                if span["name"] == name:
                    return span
            return None

        window_ids = _ids(by_name["window"])
        assert len(by_name["job"]) == 2
        assert all(s["parent_id"] in window_ids for s in by_name["job"])
        job_ids = _ids(by_name["job"])
        assert len(by_name["solve"]) == 2
        assert all(ancestor(s, "job")["span_id"] in job_ids for s in by_name["solve"])
        outer_windows = {
            ancestor(s, "window")["span_id"] for s in by_name["outer_iter"]
        }
        assert outer_windows == window_ids
        warm = tracer.metrics.counter("relearn_windows_total", mode="warm")
        cold = tracer.metrics.counter("relearn_windows_total", mode="cold")
        assert cold.value == 1.0 and warm.value == 1.0


class TestTracedShardPath:
    def test_shard_spans_nest_under_shard_solve(self):
        tracer = Tracer()
        rng = np.random.default_rng(11)
        data = rng.normal(size=(80, 12))
        planner = ShardPlanner(max_block_size=5, min_block_size=2)
        executor = ShardExecutor(config=dict(FAST_CONFIG), tracer=tracer)
        plan = planner.plan(data, tracer=tracer)
        result = executor.run(data, plan, seed=0)
        assert result.n_blocks_ok == plan.n_blocks

        spans = tracer.sink.spans()
        assert validate_trace(spans)["n_orphans"] == 0
        by_name = _by_name(tracer)
        assert len(by_name["shard_plan"]) == 1
        assert len(by_name["shard_solve"]) == 1
        assert len(by_name["stitch"]) == 1
        assert len(by_name["job"]) == plan.n_blocks
        shard_id = by_name["shard_solve"][0]["span_id"]
        assert by_name["stitch"][0]["parent_id"] == shard_id
        assert all(s["parent_id"] == shard_id for s in by_name["job"])
        assert by_name["shard_plan"][0]["attributes"]["n_blocks"] == plan.n_blocks
        ok_blocks = tracer.metrics.counter("shard_blocks_total", status="ok")
        assert ok_blocks.value == float(plan.n_blocks)

    def test_solve_sharded_uses_executor_tracer(self):
        tracer = Tracer(sink=InMemorySink())
        rng = np.random.default_rng(5)
        data = rng.normal(size=(60, 8))
        result = solve_sharded(
            data,
            planner=ShardPlanner(max_block_size=4, min_block_size=2),
            executor=ShardExecutor(config=dict(FAST_CONFIG), tracer=tracer),
        )
        assert result.block_results
        names = {span["name"] for span in tracer.sink.spans()}
        assert {"shard_plan", "shard_solve", "stitch", "job", "solve"} <= names
