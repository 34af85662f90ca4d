"""Tests for repro.serve.job / StreamingRunner.run: jobs, retry, timeout, cache."""

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
from repro.datasets.registry import register_dataset, unregister_dataset
from repro.exceptions import ValidationError
from repro.serve.cache import InMemoryCache
from repro.serve.job import LearningJob, execute_job
from repro.serve.streaming import StreamingRunner

FAST_CONFIG = {"max_outer_iterations": 3, "max_inner_iterations": 40}


def _inline_job(seed: int = 0, **overrides) -> LearningJob:
    rng = np.random.default_rng(99)
    data = rng.normal(size=(40, 6))
    options = {"data": data, "seed": seed, "config": dict(FAST_CONFIG)}
    options.update(overrides)
    return LearningJob(**options)


# -- a deliberately slow and a deliberately flaky solver, registered so both
# -- the serial path and the forked worker processes can resolve them.


@dataclass(frozen=True)
class _SleepyConfig:
    duration: float = 0.5


def _empty_result(solver: str, data) -> SolveResult:
    d = data.shape[1]
    return SolveResult(
        solver=solver,
        weights=np.zeros((d, d)),
        constraint_value=0.0,
        converged=True,
        n_outer_iterations=1,
    )


class _SleepyBackend:
    name = "sleepy"

    def __init__(self, config: _SleepyConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        time.sleep(self.config.duration)
        return _empty_result(self.name, data)


_FLAKY_CALLS = {"count": 0}


@dataclass(frozen=True)
class _FlakyConfig:
    fail_times: int = 1


class _FlakyBackend:
    name = "flaky"

    def __init__(self, config: _FlakyConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        _FLAKY_CALLS["count"] += 1
        if _FLAKY_CALLS["count"] <= self.config.fail_times:
            raise RuntimeError("transient solver failure")
        return _empty_result(self.name, data)


@pytest.fixture
def sleepy_solver():
    register_backend(
        BackendSpec(
            name="sleepy", backend_class=_SleepyBackend, config_class=_SleepyConfig
        ),
        overwrite=True,
    )
    yield
    unregister_backend("sleepy")


@pytest.fixture
def flaky_solver():
    _FLAKY_CALLS["count"] = 0
    register_backend(
        BackendSpec(
            name="flaky", backend_class=_FlakyBackend, config_class=_FlakyConfig
        ),
        overwrite=True,
    )
    yield
    unregister_backend("flaky")


class TestLearningJob:
    def test_requires_exactly_one_data_source(self):
        with pytest.raises(ValidationError):
            LearningJob(solver="least")
        with pytest.raises(ValidationError):
            LearningJob(dataset="er2", data=np.zeros((4, 2)))

    def test_rejects_unknown_solver(self):
        with pytest.raises(ValidationError):
            LearningJob(solver="pc-algorithm", dataset="er2")

    def test_rejects_init_weights_for_notears(self):
        with pytest.raises(ValidationError):
            LearningJob(solver="notears", dataset="er2", init_weights=np.zeros((3, 3)))

    def test_registry_round_trip(self):
        """load_dataset name -> LearningJob -> same matrix the registry built."""
        from repro.datasets.registry import load_dataset

        job = LearningJob(dataset="er2", seed=7, dataset_options={"n_nodes": 12})
        resolved = job.resolve_data()
        direct = load_dataset("er2", seed=7, n_nodes=12)["data"]
        np.testing.assert_array_equal(resolved, direct)

    def test_manifest_round_trip(self):
        job = LearningJob(
            dataset="er2",
            seed=3,
            config={"k": 4},
            dataset_options={"n_nodes": 10},
            job_id="alpha",
        )
        clone = LearningJob.from_dict(job.to_dict())
        assert clone.dataset == "er2" and clone.seed == 3
        assert clone.config == {"k": 4} and clone.job_id == "alpha"

    def test_manifest_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            LearningJob.from_dict({"dataset": "er2", "solvr": "least"})

    def test_manifest_rejects_wave_key(self):
        """Column-stacked multi-block entries are not a job shape: refuse them."""
        entry = {
            "data": np.zeros((4, 4)).tolist(),
            "wave": [
                {"job_id": "block-000", "n_columns": 2},
                {"job_id": "block-001", "n_columns": 2},
            ],
        }
        with pytest.raises(ValidationError, match="wave"):
            LearningJob.from_dict(entry)

    def test_manifest_round_trip_preserves_init_weights(self):
        init = np.zeros((5, 5))
        init[0, 1] = 0.7
        job = LearningJob(dataset="er2", seed=0, init_weights=init)
        clone = LearningJob.from_dict(job.to_dict())
        np.testing.assert_array_equal(clone.init_weights, init)

    def test_unknown_solver_error_reflects_registrations(self, sleepy_solver):
        with pytest.raises(ValidationError, match="sleepy"):
            LearningJob(solver="definitely-not-a-solver", dataset="er2")

    def test_execute_job_inline_data(self):
        result = execute_job(_inline_job())
        assert result.status == "ok"
        assert result.weights.shape == (6, 6)
        assert result.n_outer_iterations >= 1
        assert result.n_inner_iterations >= 1
        assert result.elapsed_seconds > 0


class TestBatchRunnerSerial:
    def test_runs_all_jobs_and_assigns_ids(self):
        jobs = [_inline_job(seed=s) for s in range(3)]
        report = StreamingRunner().run(jobs)
        assert report.n_jobs == 3 and report.n_ok == 3
        assert [r.job_id for r in report.results] == ["job-000", "job-001", "job-002"]
        assert report.jobs_per_second > 0

    def test_failed_dataset_is_reported_not_raised(self):
        jobs = [LearningJob(dataset="er2", seed=0, dataset_options={"n_nodes": 8}),
                LearningJob(dataset="er2", seed=0, dataset_options={"bogus_option": 1})]
        report = StreamingRunner().run(jobs)
        assert report.n_ok == 1 and report.n_failed == 1
        failed = report.results[1]
        assert failed.status == "failed" and failed.error

    def test_invalid_config_is_reported_not_raised(self):
        report = StreamingRunner().run([_inline_job(config={"k": -2})])
        assert report.n_failed == 1
        assert "k" in report.results[0].error

    def test_serial_deadline_preempts_overrunning_jobs(self, sleepy_solver):
        job = LearningJob(solver="sleepy", data=np.zeros((4, 3)), config={"duration": 5.0})
        report = StreamingRunner(timeout=0.2).run([job])
        assert report.n_preempted == 1
        assert report.results[0].status == "preempted"
        assert "deadline" in report.results[0].error
        # The worker is killed at the deadline, not after the 5s sleep.
        assert report.total_seconds < 5.0

    def test_solver_retry_succeeds_within_budget(self, flaky_solver):
        job = LearningJob(solver="flaky", data=np.zeros((4, 3)), config={"fail_times": 1})
        report = StreamingRunner(max_retries=1).run([job])
        assert report.n_ok == 1
        assert report.results[0].attempts == 2

    def test_solver_retry_exhausted_reports_failure(self, flaky_solver):
        job = LearningJob(solver="flaky", data=np.zeros((4, 3)), config={"fail_times": 5})
        report = StreamingRunner(max_retries=1).run([job])
        assert report.n_failed == 1
        assert report.results[0].attempts == 2
        assert "transient solver failure" in report.results[0].error

    def test_dataset_builder_retry(self):
        calls = {"count": 0}

        def builder(seed=None, **options):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient dataset failure")
            return {"name": "flaky-data", "data": np.random.default_rng(0).normal(size=(30, 4))}

        register_dataset("flaky-data", builder, overwrite=True)
        try:
            job = LearningJob(dataset="flaky-data", config=dict(FAST_CONFIG))
            report = StreamingRunner(max_retries=1).run([job])
            assert report.n_ok == 1
            calls["count"] = 0
            report = StreamingRunner(max_retries=0).run([job])
            assert report.n_failed == 1
            assert "transient dataset failure" in report.results[0].error
        finally:
            unregister_dataset("flaky-data")


class TestBatchRunnerParallel:
    def test_parallel_matches_serial_results(self):
        jobs = [_inline_job(seed=s) for s in range(4)]
        serial = StreamingRunner(n_workers=1).run(jobs)
        parallel = StreamingRunner(n_workers=2).run([_inline_job(seed=s) for s in range(4)])
        assert parallel.n_ok == 4
        for a, b in zip(serial.results, parallel.results):
            assert a.job_id == b.job_id
            np.testing.assert_allclose(a.weights, b.weights)

    def test_parallel_mixed_solvers_and_failures(self):
        jobs = [
            _inline_job(seed=0),
            _inline_job(seed=1, solver="notears", config={"max_outer_iterations": 2, "max_inner_iterations": 20}),
            _inline_job(seed=2, config={"k": -1}),
        ]
        report = StreamingRunner(n_workers=2).run(jobs)
        assert report.n_ok == 2 and report.n_failed == 1

    def test_parallel_deadline_preempts_hanging_job(self, sleepy_solver):
        jobs = [
            LearningJob(solver="sleepy", data=np.zeros((4, 3)), config={"duration": 5.0}),
            _inline_job(seed=1),
        ]
        report = StreamingRunner(n_workers=2, timeout=1.0).run(jobs)
        statuses = {r.job_id: r.status for r in report.results}
        assert statuses["job-000"] == "preempted"
        assert statuses["job-001"] == "ok"
        # Hard preemption kills the worker at the deadline instead of waiting
        # out the 5s sleep cooperatively.
        assert report.total_seconds < 5.0
        assert report.n_preempted == 1
        assert report.preemption_stats["n_killed"] >= 1


class TestRunnerCacheIntegration:
    def test_second_run_is_served_from_cache(self):
        cache = InMemoryCache()
        jobs = [_inline_job(seed=s) for s in range(2)]
        first = StreamingRunner(cache=cache).run(jobs)
        assert first.n_cache_hits == 0
        second = StreamingRunner(cache=cache).run([_inline_job(seed=s) for s in range(2)])
        assert second.n_cache_hits == 2
        assert second.solver_seconds_saved > 0
        for a, b in zip(first.results, second.results):
            np.testing.assert_allclose(a.weights, b.weights)
            assert b.cache_hit and b.elapsed_seconds == 0.0

    def test_cache_hits_skip_solver_execution(self, flaky_solver):
        """After caching, the solver is not invoked at all (call count frozen)."""
        cache = InMemoryCache()
        job = LearningJob(solver="flaky", data=np.zeros((4, 3)), config={"fail_times": 0})
        StreamingRunner(cache=cache).run([job])
        calls_after_first = _FLAKY_CALLS["count"]
        assert calls_after_first == 1
        report = StreamingRunner(cache=cache).run(
            [LearningJob(solver="flaky", data=np.zeros((4, 3)), config={"fail_times": 0})]
        )
        assert report.n_cache_hits == 1
        assert _FLAKY_CALLS["count"] == calls_after_first

    def test_cache_hits_are_relabelled_with_the_requesting_job_id(self):
        """A hit served from an entry produced under another id keeps its own."""
        cache = InMemoryCache()
        StreamingRunner(cache=cache).run([_inline_job(seed=0)])  # cached as job-000
        report = StreamingRunner(cache=cache).run(
            [_inline_job(seed=1), _inline_job(seed=0)]
        )
        assert [r.job_id for r in report.results] == ["job-000", "job-001"]
        assert [r.cache_hit for r in report.results] == [False, True]

    def test_different_seed_misses(self):
        cache = InMemoryCache()
        StreamingRunner(cache=cache).run([_inline_job(seed=0)])
        report = StreamingRunner(cache=cache).run([_inline_job(seed=1)])
        assert report.n_cache_hits == 0

    def test_failed_jobs_are_not_cached(self, flaky_solver):
        cache = InMemoryCache()
        job = LearningJob(solver="flaky", data=np.zeros((4, 3)), config={"fail_times": 10})
        StreamingRunner(cache=cache).run([job])
        _FLAKY_CALLS["count"] = 0
        report = StreamingRunner(cache=cache).run(
            [LearningJob(solver="flaky", data=np.zeros((4, 3)), config={"fail_times": 0})]
        )
        assert report.n_cache_hits == 0 and report.n_ok == 1


class TestRunnerValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            StreamingRunner(n_workers=0)
        with pytest.raises(ValidationError):
            StreamingRunner(timeout=-1.0)
        with pytest.raises(ValidationError):
            StreamingRunner(max_retries=-1)

    def test_report_summary_is_json_able(self):
        import json

        report = StreamingRunner().run([_inline_job()])
        payload = json.dumps(report.summary())
        assert "jobs_per_second" in payload
