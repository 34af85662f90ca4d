"""Tests for repro.serve.streaming: streamed results, hard preemption, policies."""

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
    unregister_backend,
)
from repro.core.least import LEASTConfig
from repro.exceptions import ValidationError
from repro.serve.cache import DiskCache, InMemoryCache
from repro.serve.job import LearningJob
from repro.serve.scheduler import RelearnScheduler
from repro.serve.streaming import StreamingRunner

# Concurrency suite: a deadlock here (a worker that never reports, a poll
# loop that never drains) must abort with tracebacks, not hang the CI job.
pytestmark = pytest.mark.timeout(120)

FAST_CONFIG = {"max_outer_iterations": 3, "max_inner_iterations": 40}


def _inline_job(seed: int = 0, **overrides) -> LearningJob:
    rng = np.random.default_rng(99)
    data = rng.normal(size=(40, 6))
    options = {"data": data, "seed": seed, "config": dict(FAST_CONFIG)}
    options.update(overrides)
    return LearningJob(**options)


@dataclass(frozen=True)
class _HangConfig:
    duration: float = 60.0


def _empty_result(solver: str, data) -> SolveResult:
    d = data.shape[1]
    return SolveResult(
        solver=solver,
        weights=np.zeros((d, d)),
        constraint_value=0.0,
        converged=True,
        n_outer_iterations=1,
    )


def _register(name: str, backend_class: type, config_class: type) -> None:
    register_backend(
        BackendSpec(name=name, backend_class=backend_class, config_class=config_class),
        overwrite=True,
    )


class _HangBackend:
    """A solver that sleeps far past any reasonable deadline."""

    name = "hang"

    def __init__(self, config: _HangConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        time.sleep(self.config.duration)
        return _empty_result(self.name, data)


@dataclass(frozen=True)
class _MarkerConfig:
    """Hang until ``marker_path`` exists (creating it first), then succeed."""

    marker_path: str = ""
    duration: float = 60.0


class _MarkerBackend:
    """Hangs on the first attempt, succeeds once its marker file exists."""

    name = "marker"

    def __init__(self, config: _MarkerConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        from pathlib import Path

        marker = Path(self.config.marker_path)
        if not marker.exists():
            marker.touch()
            time.sleep(self.config.duration)
        return _empty_result(self.name, data)


@pytest.fixture
def marker_solver():
    _register("marker", _MarkerBackend, _MarkerConfig)
    yield
    unregister_backend("marker")


@dataclass(frozen=True)
class _CrashConfig:
    exit_code: int = 3


class _CrashBackend:
    """A solver whose worker dies without ever reporting back.

    Its hooks run once first, so a traced worker flushes one ``outer_iter``
    slice whose parent ``solve`` span never ends.
    """

    name = "crash"

    def __init__(self, config: _CrashConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        for hook in deadline_hooks or ():
            hook()
        os._exit(self.config.exit_code)


@pytest.fixture
def hang_solver():
    _register("hang", _HangBackend, _HangConfig)
    yield
    unregister_backend("hang")


@pytest.fixture
def crash_solver():
    _register("crash", _CrashBackend, _CrashConfig)
    yield
    unregister_backend("crash")


@dataclass(frozen=True)
class _RaiseConfig:
    pass


class _RaiseBackend:
    """A solver whose fit raises (module-level, hence spawn-picklable)."""

    name = "raise"

    def __init__(self, config: _RaiseConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        raise ValueError("inner failure")


@pytest.fixture
def raise_solver():
    _register("raise", _RaiseBackend, _RaiseConfig)
    yield
    unregister_backend("raise")


class TestStreamingOrder:
    def test_stream_yields_every_job(self):
        jobs = [_inline_job(seed=s) for s in range(4)]
        runner = StreamingRunner(n_workers=2)
        results = list(runner.stream(jobs))
        assert sorted(r.job_id for r in results) == [f"job-00{i}" for i in range(4)]
        assert all(r.status == "ok" for r in results)
        assert runner.telemetry.n_yielded == 4

    def test_time_to_first_result_precedes_total(self):
        jobs = [_inline_job(seed=s) for s in range(4)]
        runner = StreamingRunner(n_workers=2)
        list(runner.stream(jobs))
        telemetry = runner.telemetry
        assert telemetry.time_to_first_result is not None
        assert 0 < telemetry.time_to_first_result <= telemetry.total_seconds

    def test_run_preserves_manifest_order_and_reports_completion_order(self):
        jobs = [_inline_job(seed=s) for s in range(3)]
        arrival: list[str] = []
        report = StreamingRunner(n_workers=2).run(
            jobs, on_result=lambda r: arrival.append(r.job_id)
        )
        assert [r.job_id for r in report.results] == ["job-000", "job-001", "job-002"]
        assert sorted(arrival) == ["job-000", "job-001", "job-002"]
        assert report.time_to_first_result is not None

    def test_matches_inline_serial_results(self):
        serial = StreamingRunner(n_workers=1).run([_inline_job(seed=7)])
        streamed = StreamingRunner(n_workers=2).run([_inline_job(seed=7)])
        np.testing.assert_allclose(
            serial.results[0].weights, streamed.results[0].weights
        )


class TestPreemption:
    def test_hanging_job_is_killed_and_survivors_stream_out(self, hang_solver):
        """The acceptance scenario: 1 hanging + N normal jobs under a deadline."""
        deadline = 8.0  # generous: workers may pay interpreter boot under spawn
        hanging = LearningJob(
            solver="hang", data=np.zeros((4, 3)), config={"duration": 60.0}
        )
        normal = [_inline_job(seed=s) for s in range(3)]
        runner = StreamingRunner(n_workers=2, timeout=deadline)

        started = time.monotonic()
        arrivals: list[tuple[str, str, float]] = []
        for result in runner.stream([hanging] + normal):
            arrivals.append((result.job_id, result.status, time.monotonic() - started))

        by_id = {job_id: status for job_id, status, _ in arrivals}
        assert by_id["job-000"] == "preempted"
        assert all(by_id[f"job-00{i}"] == "ok" for i in (1, 2, 3))
        # Every normal result streamed out before the hanging job's deadline
        # expired; the preempted record is the last to arrive.
        normal_arrivals = [t for job_id, _, t in arrivals if job_id != "job-000"]
        assert max(normal_arrivals) < deadline
        assert arrivals[-1][0] == "job-000"
        # The whole batch finished shortly after the deadline, not after 60s.
        assert time.monotonic() - started < 2 * deadline
        assert runner.telemetry.n_killed == 1

    def test_killed_worker_leaves_no_orphan_process(self, hang_solver):
        import multiprocessing as mp

        job = LearningJob(solver="hang", data=np.zeros((4, 3)), config={"duration": 60.0})
        runner = StreamingRunner(n_workers=1, timeout=0.5)
        report = runner.run([job])
        assert report.results[0].status == "preempted"
        assert runner.telemetry.killed_pids
        for pid in runner.telemetry.killed_pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert not any(
            child.pid in runner.telemetry.killed_pids
            for child in mp.active_children()
        )

    def test_preempted_error_mentions_deadline(self, hang_solver):
        job = LearningJob(solver="hang", data=np.zeros((4, 3)), config={"duration": 60.0})
        report = StreamingRunner(timeout=0.3).run([job])
        result = report.results[0]
        assert result.status == "preempted"
        assert "deadline" in result.error

    def test_requeue_policy_grants_fresh_attempts(self, hang_solver):
        job = LearningJob(solver="hang", data=np.zeros((4, 3)), config={"duration": 60.0})
        runner = StreamingRunner(
            timeout=0.3, preempt_policy="requeue", preempt_retries=2
        )
        started = time.monotonic()
        report = runner.run([job])
        elapsed = time.monotonic() - started
        result = report.results[0]
        assert result.status == "preempted"
        assert runner.telemetry.n_requeued == 2
        assert runner.telemetry.n_killed == 3  # initial attempt + 2 requeues
        assert result.attempts == 3
        assert elapsed >= 0.9  # three full deadlines were actually granted

    def test_success_after_requeue_accounts_killed_attempts(
        self, marker_solver, tmp_path
    ):
        """A job killed once then succeeding on the requeue reports both
        attempts, matching the accounting of finally-preempted jobs."""
        job = LearningJob(
            solver="marker",
            data=np.zeros((4, 3)),
            config={"marker_path": str(tmp_path / "marker"), "duration": 60.0},
        )
        runner = StreamingRunner(
            timeout=1.0, preempt_policy="requeue", preempt_retries=2
        )
        report = runner.run([job])
        result = report.results[0]
        assert result.status == "ok"
        assert runner.telemetry.n_killed == 1
        assert runner.telemetry.n_requeued == 1
        assert result.attempts == 2  # the killed attempt + the successful one

    def test_fast_jobs_finish_under_generous_deadline(self):
        report = StreamingRunner(n_workers=2, timeout=60.0).run(
            [_inline_job(seed=s) for s in range(3)]
        )
        assert report.n_ok == 3 and report.n_preempted == 0
        assert report.preemption_stats["n_killed"] == 0.0


@dataclass(frozen=True)
class _SigkillConfig:
    pass


class _SigkillBackend:
    """A solver whose worker is SIGKILLed externally (simulated OOM kill)."""

    name = "sigkill"

    def __init__(self, config: _SigkillConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        import signal as _signal

        os.kill(os.getpid(), _signal.SIGKILL)


@pytest.fixture
def sigkill_solver():
    _register("sigkill", _SigkillBackend, _SigkillConfig)
    yield
    unregister_backend("sigkill")


class TestWorkerCrashes:
    def test_crashed_worker_is_reported_failed(self, crash_solver):
        job = LearningJob(solver="crash", data=np.zeros((4, 3)), config={"exit_code": 3})
        report = StreamingRunner(n_workers=2, timeout=30.0).run([job, _inline_job(seed=1)])
        statuses = {r.job_id: r.status for r in report.results}
        assert statuses["job-000"] == "failed"
        assert statuses["job-001"] == "ok"
        assert "exit code 3" in report.results[0].error

    def test_external_sigkill_without_deadline_is_failed_not_preempted(
        self, sigkill_solver
    ):
        """A kill that cannot have come from the engine (no timeout set) is a
        plain failure — it must not be requeued as 'preempted' work."""
        job = LearningJob(solver="sigkill", data=np.zeros((4, 3)))
        runner = StreamingRunner(n_workers=2, preempt_policy="requeue")
        report = runner.run([job])
        assert report.results[0].status == "failed"
        assert report.n_preempted == 0
        assert runner.telemetry.n_requeued == 0

    def test_external_sigkill_long_before_deadline_is_failed(self, sigkill_solver):
        """Even with a deadline set, a SIGKILL the parent did not send (the
        worker dies immediately, way before the budget) is a crash: the
        engine's own kills are recorded at the kill site, not inferred from
        exit codes."""
        job = LearningJob(solver="sigkill", data=np.zeros((4, 3)))
        runner = StreamingRunner(timeout=30.0, preempt_policy="requeue")
        started = time.monotonic()
        report = runner.run([job])
        assert time.monotonic() - started < 10.0  # did not wait out the deadline
        assert report.results[0].status == "failed"
        assert runner.telemetry.n_killed == 0
        assert runner.telemetry.n_requeued == 0

    def test_abandoning_the_stream_does_not_count_phantom_kills(self):
        jobs = [_inline_job(seed=s) for s in range(4)]
        runner = StreamingRunner(n_workers=2, timeout=60.0)
        stream = runner.stream(jobs)
        next(stream)  # take one result, abandon the rest
        stream.close()
        assert runner.telemetry.n_killed == 0
        assert runner.telemetry.killed_pids == []

    def test_cache_hits_are_not_written_back(self, tmp_path):
        cache = DiskCache(tmp_path)
        job = _inline_job(seed=0)
        StreamingRunner(cache=cache).run([job])
        fingerprint = next(iter(tmp_path.glob("*.pkl"))).stem
        stored_before = cache.get(fingerprint)
        assert stored_before.elapsed_seconds > 0
        # Two more fully-cached runs: the stored entry must keep its original
        # solver provenance (a hit re-written would zero elapsed_seconds and
        # make solver_seconds_saved vanish on the next run).
        StreamingRunner(cache=cache).run([_inline_job(seed=0)])
        third = StreamingRunner(cache=cache).run([_inline_job(seed=0)])
        assert third.n_cache_hits == 1
        assert third.solver_seconds_saved > 0
        stored_after = cache.get(fingerprint)
        assert stored_after.elapsed_seconds == stored_before.elapsed_seconds
        assert stored_after.cache_hit is False


class TestCacheIntegration:
    def test_stream_serves_and_fills_the_cache(self, tmp_path):
        cache = DiskCache(tmp_path)
        jobs = [_inline_job(seed=s) for s in range(2)]
        first = StreamingRunner(n_workers=2, timeout=60.0, cache=cache).run(jobs)
        assert first.n_cache_hits == 0
        second = StreamingRunner(cache=cache).run(
            [_inline_job(seed=s) for s in range(2)]
        )
        assert second.n_cache_hits == 2
        assert second.solver_seconds_saved > 0

    def test_preempted_jobs_are_not_cached(self, hang_solver):
        cache = InMemoryCache()
        job = LearningJob(solver="hang", data=np.zeros((4, 3)), config={"duration": 60.0})
        StreamingRunner(timeout=0.3, cache=cache).run([job])
        assert len(cache) == 0


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            StreamingRunner(n_workers=0)
        with pytest.raises(ValidationError):
            StreamingRunner(timeout=-1.0)
        with pytest.raises(ValidationError):
            StreamingRunner(max_retries=-1)
        with pytest.raises(ValidationError):
            StreamingRunner(preempt_policy="abandon")
        with pytest.raises(ValidationError):
            StreamingRunner(preempt_retries=-1)


class TestSchedulerDeadline:
    def test_preempted_window_degrades_gracefully(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(60, 5))
        names = [f"n{i}" for i in range(5)]
        # A budget far too small for even one inner iteration batch: the solve
        # is killed and the scheduler records a preempted window.
        scheduler = RelearnScheduler(window_deadline=30.0)
        first = scheduler.step(data, names, seed=1)
        assert scheduler.history[-1].preempted is False
        assert first.weights.shape == (5, 5)

        from repro.core.least import LEASTConfig

        slow = RelearnScheduler(
            least_config=LEASTConfig(
                max_outer_iterations=50, max_inner_iterations=100000,
                inner_convergence_tol=0.0, tolerance=1e-300,
            ),
            window_deadline=0.2,
        )
        result = slow.step(data, names, seed=1)
        stats = slow.history[-1]
        assert stats.preempted is True and stats.converged is False
        assert result.converged is False
        # The carried warm-start state is untouched by the preempted window.
        assert slow.state is None
        assert slow.stats_summary()["n_preempted_windows"] == 1.0

    @pytest.mark.parametrize("window_deadline", [None, 30.0])
    def test_failed_window_raises_and_leaves_state_untouched(
        self, raise_solver, window_deadline
    ):
        rng = np.random.default_rng(0)
        names = [f"n{i}" for i in range(5)]
        scheduler = RelearnScheduler(
            least_config=LEASTConfig(**FAST_CONFIG), window_deadline=window_deadline
        )
        scheduler.step(rng.normal(size=(60, 5)), names, seed=1)
        state, history = scheduler.state, list(scheduler.history)
        scheduler.solver = "raise"
        with pytest.raises(RuntimeError, match="ValueError: inner failure"):
            scheduler.step(rng.normal(size=(60, 5)), names, seed=1)
        assert scheduler.state is state
        assert scheduler.history == history

    def test_generator_seed_learns_the_same_weights_with_and_without_deadline(
        self,
    ):
        data_rng = np.random.default_rng(4)
        windows = [data_rng.normal(size=(60, 12)) for _ in range(3)]
        names = [f"n{i}" for i in range(12)]
        learned = {}
        for window_deadline in (None, 30.0):
            scheduler = RelearnScheduler(
                least_config=LEASTConfig(**FAST_CONFIG),
                warm_start=False,
                window_deadline=window_deadline,
            )
            seed = np.random.default_rng(0)
            learned[window_deadline] = [
                scheduler.step(data, names, seed=seed).weights for data in windows
            ]
        for inline, pooled in zip(learned[None], learned[30.0]):
            np.testing.assert_array_equal(inline, pooled)


class TestCliStream:
    def test_stream_mode_emits_one_ndjson_line_per_job(self, tmp_path, capsys):
        from repro.serve.cli import main

        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "dataset": "er2",
                            "seed": seed,
                            "dataset_options": {"n_nodes": 10},
                            "config": {
                                "max_outer_iterations": 2,
                                "max_inner_iterations": 30,
                            },
                        }
                        for seed in range(3)
                    ]
                }
            )
        )
        output = tmp_path / "report.json"
        code = main([str(manifest), "--stream", "--quiet", "--output", str(output)])
        assert code == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert sorted(p["job_id"] for p in parsed) == ["job-000", "job-001", "job-002"]
        assert all(p["status"] == "ok" for p in parsed)
        report = json.loads(output.read_text())
        assert report["summary"]["n_ok"] == 3
        assert report["summary"]["time_to_first_result"] is not None
        assert "preemption" in report["summary"]

    def test_stream_mode_reports_preempted_jobs(self, tmp_path, capsys, hang_solver):
        from repro.serve.cli import main

        # The hang solver is registered in this process; fork workers inherit
        # it, and the registry snapshot covers spawn workers too.
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "solver": "hang",
                            "data": [[0.0, 0.0], [0.0, 0.0]],
                            "config": {"duration": 60.0},
                        }
                    ]
                }
            )
        )
        code = main([str(manifest), "--stream", "--quiet", "--timeout", "0.3"])
        assert code == 1
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "preempted"


@dataclass(frozen=True)
class _SigalrmConfig:
    pass


class _SigalrmBackend:
    """A solver that trips the worker's own SIGALRM suicide disposition.

    With a deadline set, ``_arm_suicide_timer`` leaves SIGALRM at its default
    (process-terminating) disposition — raising the signal immediately makes
    the worker die exactly as if its suicide timer had fired, without waiting
    out a real deadline.
    """

    name = "sigalrm"

    def __init__(self, config: _SigalrmConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        import signal as _signal

        os.kill(os.getpid(), _signal.SIGALRM)


@pytest.fixture
def sigalrm_solver():
    _register("sigalrm", _SigalrmBackend, _SigalrmConfig)
    yield
    unregister_backend("sigalrm")


class TestTelemetryEdgeCases:
    def test_time_to_first_result_spans_requeued_attempts(self, hang_solver):
        """With a single job that is killed once and requeued, the first (and
        only) yielded result arrives after BOTH attempts — the telemetry must
        report that, not the first attempt's deadline."""
        deadline = 0.6
        job = LearningJob(
            solver="hang", data=np.zeros((4, 3)), config={"duration": 60.0}
        )
        runner = StreamingRunner(
            timeout=deadline, preempt_policy="requeue", preempt_retries=1
        )
        results = list(runner.stream([job]))
        assert [r.status for r in results] == ["preempted"]
        telemetry = runner.telemetry
        assert telemetry.n_yielded == 1
        assert telemetry.n_requeued == 1
        # Two full deadlines were granted before the only result appeared.
        assert telemetry.time_to_first_result >= 2 * deadline
        assert telemetry.time_to_first_result <= telemetry.total_seconds

    def test_preemption_summary_separates_kills_from_suicides(
        self, hang_solver, sigalrm_solver
    ):
        """One worker killed by the parent at its deadline, one dead from its
        own SIGALRM: the summary must attribute each to its own counter."""
        jobs = [
            LearningJob(
                solver="hang",
                data=np.zeros((4, 3)),
                config={"duration": 60.0},
                job_id="hang",
            ),
            LearningJob(solver="sigalrm", data=np.zeros((4, 3)), job_id="alrm"),
        ]
        runner = StreamingRunner(n_workers=2, timeout=1.5)
        statuses = {r.job_id: r.status for r in runner.stream(jobs)}
        assert statuses == {"hang": "preempted", "alrm": "preempted"}
        summary = runner.telemetry.preemption_summary()
        assert summary == {
            "n_killed": 1.0,
            "n_suicide_exits": 1.0,
            "n_soft_preempted": 0.0,
            "n_requeued": 0.0,
        }

    def test_suicide_exit_counts_in_traced_metrics(self, sigalrm_solver):
        from repro.obs import Tracer, validate_trace

        tracer = Tracer()
        job = LearningJob(solver="sigalrm", data=np.zeros((4, 3)))
        runner = StreamingRunner(timeout=5.0, tracer=tracer)
        results = list(runner.stream([job]))
        assert results[0].status == "preempted"
        assert runner.telemetry.n_suicide_exits == 1
        suicides = tracer.metrics.counter("serve_preemptions_total", kind="suicide")
        assert suicides.value == 1.0
        assert validate_trace(tracer.sink.spans())["n_orphans"] == 0

    def test_worker_dead_before_flushing_spool_merges_cleanly(self, crash_solver):
        """A worker that dies mid-flight leaves a spool whose flushed spans
        reference never-flushed parents — the merge must adopt them onto the
        job span and keep the trace orphan-free."""
        from repro.obs import Tracer, validate_trace

        tracer = Tracer()
        job = LearningJob(solver="crash", data=np.zeros((4, 3)), config={"exit_code": 3})
        runner = StreamingRunner(n_workers=2, timeout=30.0, tracer=tracer)
        results = list(runner.stream([job]))
        assert results[0].status == "failed"

        spans = tracer.sink.spans()
        assert validate_trace(spans)["n_orphans"] == 0
        names = [s["name"] for s in spans]
        # The worker's root span and its "solve" span were still open at the
        # crash, so neither flushed.  The pool's worker_spawn span survives —
        # it is recorded parent-side at the ready handshake, before the job
        # ever reached the worker.
        assert "worker" not in names and "solve" not in names
        assert "worker_spawn" in names
        # The parent-side lifecycle is complete regardless.
        for name in ("job", "queue_wait", "data_materialize"):
            assert name in names, name
        job_span = next(s for s in spans if s["name"] == "job")
        assert job_span["status"] == "failed"
        # The one span the worker DID flush before dying (the pre-solve hook
        # slice) pointed at the never-flushed solve span: it must have been
        # adopted by the job span, not left dangling.
        adopted = [s for s in spans if s.get("attributes", {}).get("adopted")]
        assert [s["name"] for s in adopted] == ["outer_iter"]
        assert adopted[0]["parent_id"] == job_span["span_id"]
        # The spool directory is gone despite the crash.
        assert runner._spool_dir is None


class TestStreamBatches:
    """The batched pass: lazy batch pulls, one pool loop, same results."""

    @staticmethod
    def _sleep_job(duration: float) -> LearningJob:
        return LearningJob(
            solver="hang", data=np.zeros((4, 3)), config={"duration": duration}
        )

    def test_results_and_job_ids_match_stream_over_concatenated_jobs(self):
        def jobs():
            return [_inline_job(seed=s) for s in range(5)]

        reference = {
            r.job_id: r for r in StreamingRunner(n_workers=2).stream(jobs())
        }
        batches = jobs()
        batched = list(
            StreamingRunner(n_workers=2).stream_batches(
                [batches[:2], batches[2:3], [], batches[3:]]
            )
        )
        assert sorted(r.job_id for r in batched) == [
            f"job-{i:03d}" for i in range(5)
        ]
        for result in batched:
            expected = reference[result.job_id]
            assert result.status == expected.status == "ok"
            np.testing.assert_array_equal(result.weights, expected.weights)

    def test_batches_are_pulled_lazily(self, hang_solver, monkeypatch):
        sessions = []
        open_session = StreamingRunner.open_session

        def capture(runner):
            session = open_session(runner)
            sessions.append(session)
            return session

        monkeypatch.setattr(StreamingRunner, "open_session", capture)
        in_flight_at_request: list[int] = []

        def batches():
            for _ in range(3):
                in_flight_at_request.append(sessions[0].in_flight)
                yield [self._sleep_job(1.0), self._sleep_job(1.0)]

        results = list(StreamingRunner(n_workers=2).stream_batches(batches()))
        assert [r.status for r in results] == ["ok"] * 6
        # Nothing runs before the first pull; every later pull happens after
        # the previous batch was submitted and while its jobs still run.
        assert in_flight_at_request[0] == 0
        assert all(n >= 1 for n in in_flight_at_request[1:])

    def test_instant_outcomes_in_a_later_batch_return_at_once(self, hang_solver):
        cache = InMemoryCache()
        StreamingRunner(cache=cache).run([_inline_job(seed=0)])
        slow = self._sleep_job(3.0)
        slow.job_id = "slow"
        cached = _inline_job(seed=0, job_id="cached")
        bad = LearningJob(
            dataset="no-such-dataset", config=dict(FAST_CONFIG), job_id="bad"
        )
        runner = StreamingRunner(n_workers=2, cache=cache)
        results = list(runner.stream_batches([[slow], [cached, bad]]))
        assert [r.job_id for r in results] == ["cached", "bad", "slow"]
        assert results[0].cache_hit and results[0].status == "ok"
        assert results[1].status == "failed" and results[1].error
        assert results[2].status == "ok"

    def test_requeue_preemption_is_counted_once(self, marker_solver, tmp_path):
        marker = LearningJob(
            solver="marker",
            data=np.zeros((4, 3)),
            config={"marker_path": str(tmp_path / "marker"), "duration": 60.0},
            job_id="marker",
        )
        runner = StreamingRunner(
            timeout=1.0, preempt_policy="requeue", preempt_retries=2
        )
        results = list(
            runner.stream_batches([[_inline_job(seed=0)], [marker]])
        )
        by_id = {r.job_id: r for r in results}
        assert len(results) == 2
        assert by_id["marker"].status == "ok"
        assert by_id["marker"].attempts == 2
        assert runner.telemetry.n_killed == 1
        assert runner.telemetry.n_requeued == 1
