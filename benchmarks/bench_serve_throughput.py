"""E-serve — throughput of the streaming serving layer (repro.serve).

The paper's Section VI deployment executes ~100k structure-learning tasks per
day; this module measures the mechanisms the serving layer uses to get there
on one machine and writes a ``BENCH_serve.json`` summary next to the repo
root:

* a 16-job manifest solved serially inline and on a pool with one worker
  per CPU (``throughput.speedup_vs_serial``, which the regression gate
  pins; every served solve runs on one BLAS thread);
* content-addressed caching (second submission of the same manifest);
* cold vs. warm-started windowed re-learning (solver iterations per window and
  equivalence of the produced anomaly reports);
* time-to-first-result of the streaming engine vs. total batch wall clock
  (``time_to_first_result`` section);
* hard preemption: a manifest with one hanging job under a deadline — the
  hanging worker is SIGKILLed, every normal result still streams out
  (``preemption`` section);
* a fully traced run (``repro.obs``): the parent+worker span trees are merged
  and reduced to a span-derived wall-clock breakdown — worker_spawn vs. solve
  vs. queue_wait seconds — pinning the ROADMAP's "startup dominates
  throughput" hypothesis to a measured number (``wall_clock_breakdown``
  section; the raw trace and metrics land in ``trace.ndjson`` /
  ``metrics.json`` next to the repo root for CI artifact upload).

See ``docs/benchmarks.md`` for the exact ``BENCH_serve.json`` schema.
Run with ``pytest benchmarks/bench_serve_throughput.py -s``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from benchmarks.helpers import append_bench_history, print_table
from repro.core.backend import (
    BackendSpec,
    SolveResult,
    register_backend,
    unregister_backend,
)
from repro.core.least import LEASTConfig
from repro.monitoring import BookingSimulator, Incident, MonitoringPipeline
from repro.obs import NDJSONFileSink, TraceModel, Tracer, validate_trace, wall_clock_section
from repro.obs.sampler import is_supported as sampling_supported
from repro.serve import InMemoryCache, LearningJob, StreamingRunner
from repro.shard.executor import ShardExecutor
from repro.shard.planner import ShardPlanner
from repro.utils.timer import Timer

N_JOBS = 16
#: One pool worker per CPU: each solves on one BLAS thread.
N_WORKERS = os.cpu_count() or 1
JOB_CONFIG = {"max_outer_iterations": 4, "max_inner_iterations": 150}
RESULTS: dict[str, dict] = {}


@dataclass(frozen=True)
class _HangConfig:
    duration: float = 300.0


class _HangBackend:
    """A solver that sleeps far past any deadline (module-level: picklable)."""

    name = "bench-hang"

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


def _manifest() -> list[LearningJob]:
    return [
        LearningJob(
            dataset="er2",
            seed=seed,
            dataset_options={"n_nodes": 30},
            config=dict(JOB_CONFIG),
        )
        for seed in range(N_JOBS)
    ]


@pytest.fixture(scope="module", autouse=True)
def _write_summary():
    """Persist everything the module measured once all tests ran."""
    yield
    if RESULTS:
        path = Path(__file__).resolve().parents[1] / "BENCH_serve.json"
        path.write_text(json.dumps(RESULTS, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {path}")
        history = append_bench_history("serve", RESULTS)
        print(f"appended history row to {history}")


def test_pool_speedup_vs_serial(benchmark):
    """The pool's headline number: the same 16-job manifest solved inline,
    one job after another, and on a pool with one worker per CPU.

    Every served solve runs on one BLAS thread, so the serial run uses one
    core and the pool's workers do not oversubscribe the others; the ratio
    is the parallel speedup the ``throughput.speedup_vs_serial`` baseline
    gates.  Worker start-up is included in the pooled wall clock."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep this test active under --benchmark-only
    serial = StreamingRunner(n_workers=1).run(_manifest())
    pooled_runner = StreamingRunner(n_workers=N_WORKERS, timeout=120.0)
    pooled = pooled_runner.run(_manifest())
    assert serial.n_ok == N_JOBS and pooled.n_ok == N_JOBS

    speedup = serial.total_seconds / max(pooled.total_seconds, 1e-9)
    spawned = pooled_runner.telemetry.n_workers_spawned
    RESULTS["throughput"] = {
        "n_jobs": N_JOBS,
        "start_method": os.environ.get("REPRO_SERVE_START_METHOD") or mp.get_start_method(),
        "serial_seconds": serial.total_seconds,
        "serial_jobs_per_second": serial.jobs_per_second,
        "pooled_workers": N_WORKERS,
        "pooled_seconds": pooled.total_seconds,
        "pooled_jobs_per_second": pooled.jobs_per_second,
        "workers_spawned_pooled": spawned,
        "spawns_per_worker": spawned / N_WORKERS,
        "speedup_vs_serial": speedup,
        "cpu_count": os.cpu_count(),
    }
    print_table(
        f"repro.serve: serial inline vs a pool of {N_WORKERS} (16 jobs)",
        ["mode", "wall clock", "jobs/s", "workers spawned"],
        [
            ["serial (inline)", f"{serial.total_seconds:.2f}s", f"{serial.jobs_per_second:.2f}", 0],
            [
                f"pooled x{N_WORKERS}",
                f"{pooled.total_seconds:.2f}s",
                f"{pooled.jobs_per_second:.2f}",
                spawned,
            ],
            ["speedup vs serial", f"{speedup:.2f}x", "", ""],
        ],
    )
    # The pool boots each worker slot once (no job crashes here).
    assert spawned <= N_WORKERS
    # Identical results either way: one BLAS thread inline and on workers.
    for a, b in zip(serial.results, pooled.results):
        np.testing.assert_array_equal(a.weights, b.weights)


def test_cache_hits_skip_solver_execution(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep this test active under --benchmark-only
    cache = InMemoryCache()
    first = StreamingRunner(cache=cache).run(_manifest())
    second = StreamingRunner(cache=cache).run(_manifest())
    assert first.n_cache_hits == 0
    assert second.n_cache_hits == N_JOBS
    # A fully cached manifest does no solver work at all.
    assert second.solver_seconds == 0.0
    assert second.total_seconds < first.total_seconds / 10
    RESULTS["cache"] = {
        "first_seconds": first.total_seconds,
        "second_seconds": second.total_seconds,
        "hits": second.n_cache_hits,
        "solver_seconds_saved": second.solver_seconds_saved,
    }
    print_table(
        "repro.serve: cold manifest vs fully cached re-submission",
        ["run", "wall clock", "cache hits"],
        [
            ["first", f"{first.total_seconds:.2f}s", first.n_cache_hits],
            ["second", f"{second.total_seconds:.3f}s", second.n_cache_hits],
        ],
    )


def test_streaming_time_to_first_result(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep this test active under --benchmark-only
    runner = StreamingRunner(n_workers=N_WORKERS)
    timer = Timer().start()
    arrivals = []
    for result in runner.stream(_manifest()):
        assert result.status == "ok"
        arrivals.append(timer.peek())
    total = timer.stop()

    first = arrivals[0]
    RESULTS["time_to_first_result"] = {
        "n_jobs": N_JOBS,
        "n_workers": N_WORKERS,
        "first_result_seconds": first,
        "median_result_seconds": sorted(arrivals)[len(arrivals) // 2],
        "total_seconds": total,
        "first_result_fraction_of_total": first / max(total, 1e-9),
    }
    print_table(
        "repro.serve: streaming — when does each result become available?",
        ["milestone", "seconds", "% of batch wall clock"],
        [
            ["first result", f"{first:.2f}s", f"{100 * first / total:.0f}%"],
            [
                "median result",
                f"{sorted(arrivals)[len(arrivals) // 2]:.2f}s",
                f"{100 * sorted(arrivals)[len(arrivals) // 2] / total:.0f}%",
            ],
            ["last result (= batch)", f"{total:.2f}s", "100%"],
        ],
    )
    # Streaming must surface the first result well before the batch finishes.
    assert len(arrivals) == N_JOBS
    assert first < 0.75 * total


def test_preemption_kills_hanging_job_and_streams_survivors(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep this test active under --benchmark-only
    deadline = 6.0
    register_backend(
        BackendSpec(
            name="bench-hang", backend_class=_HangBackend, config_class=_HangConfig
        ),
        overwrite=True,
    )
    try:
        hanging = LearningJob(
            solver="bench-hang", data=np.zeros((4, 3)), config={"duration": 300.0}
        )
        normal = [
            LearningJob(
                dataset="er2",
                seed=seed,
                dataset_options={"n_nodes": 30},
                config=dict(JOB_CONFIG),
            )
            for seed in range(6)
        ]
        runner = StreamingRunner(n_workers=2, timeout=deadline)
        timer = Timer().start()
        arrivals: dict[str, float] = {}
        statuses: dict[str, str] = {}
        for result in runner.stream([hanging] + normal):
            arrivals[result.job_id] = timer.peek()
            statuses[result.job_id] = result.status
        total = timer.stop()
    finally:
        unregister_backend("bench-hang")

    survivor_ids = [job_id for job_id in statuses if job_id != "job-000"]
    last_survivor = max(arrivals[job_id] for job_id in survivor_ids)
    RESULTS["preemption"] = {
        "deadline_seconds": deadline,
        "n_jobs": len(statuses),
        "n_ok": sum(1 for status in statuses.values() if status == "ok"),
        "n_preempted": sum(1 for s in statuses.values() if s == "preempted"),
        "hanging_job_sleep_seconds": 300.0,
        "last_survivor_seconds": last_survivor,
        "preempted_result_seconds": arrivals["job-000"],
        "total_seconds": total,
        "n_killed": runner.telemetry.n_killed,
        "n_requeued": runner.telemetry.n_requeued,
    }
    print_table(
        "repro.serve: hard preemption — 1 hanging + 6 normal jobs, 6s deadline",
        ["event", "seconds"],
        [
            ["last normal result streamed", f"{last_survivor:.2f}s"],
            ["hanging worker killed / reported", f"{arrivals['job-000']:.2f}s"],
            ["whole batch done", f"{total:.2f}s"],
            ["(cooperative wait would have been)", ">= 300s"],
        ],
    )
    # All normal jobs stream out before the hanging job's deadline expires...
    assert all(statuses[job_id] == "ok" for job_id in survivor_ids)
    assert last_survivor < deadline
    # ...the hanging worker is killed instead of sleeping out its 300s...
    assert statuses["job-000"] == "preempted"
    assert runner.telemetry.n_killed == 1
    assert total < 3 * deadline
    # ...and the killed worker leaves no orphan process behind.
    for pid in runner.telemetry.killed_pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_traced_wall_clock_breakdown(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep this test active under --benchmark-only
    repo_root = Path(__file__).resolve().parents[1]
    trace_path = repo_root / "trace.ndjson"
    metrics_path = repo_root / "metrics.json"
    tracer = Tracer(sink=NDJSONFileSink(trace_path))

    # A full streaming run on real workers (so worker_spawn spans exist) ...
    runner = StreamingRunner(n_workers=N_WORKERS, timeout=60.0, tracer=tracer)
    statuses = [result.status for result in runner.stream(_manifest())]
    assert statuses == ["ok"] * N_JOBS

    # ... plus a small sharded solve through the same tracer, so a single
    # trace covers every layer: serve, shard, and the solver loop.
    rng = np.random.default_rng(0)
    data = rng.standard_normal((120, 24))
    planner = ShardPlanner(max_block_size=8)
    executor = ShardExecutor(config=dict(JOB_CONFIG), tracer=tracer)
    plan = planner.plan(data, tracer=tracer)
    shard_result = executor.run(data, plan, seed=0)
    assert shard_result.n_blocks_ok == plan.n_blocks

    tracer.close()
    metrics_path.write_text(
        json.dumps(tracer.metrics.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    # The breakdown section is produced by the analytics library — the bench
    # only adds run-specific keys on top (no duplicated span-summing logic).
    model = TraceModel.from_file(trace_path)
    summary = validate_trace(model.spans)
    section = wall_clock_section(model)

    # Every job decomposes cleanly: no span may point at a missing parent.
    assert section["n_orphans"] == 0, summary["orphans"]
    # At least one span per layer: serve, shard, solver.
    for layer, name in [
        ("serve", "job"),
        ("serve", "queue_wait"),
        ("serve", "worker_spawn"),
        ("shard", "shard_plan"),
        ("shard", "stitch"),
        ("solver", "solve"),
        ("solver", "outer_iter"),
    ]:
        assert name in summary["names"], f"no {name!r} span ({layer} layer)"
    if sampling_supported():
        # The resource sampler ran alongside the stream: per-worker peak RSS
        # must have landed in the trace next to the spans.
        assert section["n_sampled_processes"] > 0
        assert section["max_worker_peak_rss_bytes"] > 0

    # The BLAS thread count each worker solved on, from its solve spans
    # (None where no OpenBLAS is loaded, so nothing was pinned).
    worker_pids = {
        span["span_id"]: str(span["attributes"]["pid"])
        for span in model.spans
        if span["name"] == "worker"
    }
    worker_blas_threads = {
        worker_pids[span["parent_id"]]: span["attributes"]["blas_threads"]
        for span in model.spans
        if span["name"] == "solve" and span["parent_id"] in worker_pids
    }
    assert len(worker_blas_threads) >= 1

    RESULTS["wall_clock_breakdown"] = {
        "n_jobs": N_JOBS + plan.n_blocks,
        **section,
        "worker_blas_threads": worker_blas_threads,
        "trace_file": trace_path.name,
        "metrics_file": metrics_path.name,
    }
    print_table(
        "repro.obs: span-derived wall clock — where do traced jobs spend time?",
        ["span", "total seconds"],
        [
            [name, f"{section[f'{name}_seconds']:.2f}s"]
            for name in (
                "worker_spawn",
                "data_materialize",
                "solve",
                "queue_wait",
                "cache_store",
                "stitch",
            )
        ],
    )
    print_table(
        "repro.obs: sampled peak RSS (per-worker, from /proc)",
        ["process", "peak RSS"],
        [
            ["parent", f"{section['parent_peak_rss_bytes'] / 1e6:.1f} MB"],
            [
                "max worker",
                f"{section['max_worker_peak_rss_bytes'] / 1e6:.1f} MB",
            ],
            ["sampled processes", section["n_sampled_processes"]],
        ],
    )


def test_warm_start_cuts_relearn_iterations(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep this test active under --benchmark-only
    incident = Incident("airline", "AC", "step3_reserve", 0.7, 3600, 10800)
    outcomes = {}
    for warm in (True, False):
        simulator = BookingSimulator(incidents=[incident], seed=5)
        pipeline = MonitoringPipeline(
            simulator, window_seconds=1800.0, warm_start=warm
        )
        pipeline.run(5, seed=11)
        outcomes[warm] = {
            "solver": pipeline.solver_summary(),
            "detection": pipeline.detection_summary(),
        }

    warm_solver = outcomes[True]["solver"]
    cold_solver = outcomes[False]["solver"]
    warm_detect = outcomes[True]["detection"]
    cold_detect = outcomes[False]["detection"]
    RESULTS["warm_start"] = {
        "warm_total_inner_iterations": warm_solver["total_inner_iterations"],
        "cold_total_inner_iterations": cold_solver["total_inner_iterations"],
        "warm_seconds": warm_solver["total_seconds"],
        "cold_seconds": cold_solver["total_seconds"],
        "warm_incidents_detected": warm_detect["incident_windows_detected"],
        "cold_incidents_detected": cold_detect["incident_windows_detected"],
        "warm_false_alarm_rate": warm_detect["false_alarm_rate"],
        "cold_false_alarm_rate": cold_detect["false_alarm_rate"],
    }
    print_table(
        "repro.serve: warm vs cold windowed re-learning (5 monitoring windows)",
        ["mode", "inner iters", "seconds", "incidents found", "false alarms"],
        [
            [
                "warm",
                int(warm_solver["total_inner_iterations"]),
                f"{warm_solver['total_seconds']:.2f}",
                int(warm_detect["incident_windows_detected"]),
                f"{warm_detect['false_alarm_rate']:.2f}",
            ],
            [
                "cold",
                int(cold_solver["total_inner_iterations"]),
                f"{cold_solver['total_seconds']:.2f}",
                int(cold_detect["incident_windows_detected"]),
                f"{cold_detect['false_alarm_rate']:.2f}",
            ],
        ],
    )
    # Warm starts must spend fewer solver iterations...
    assert (
        warm_solver["total_inner_iterations"] < cold_solver["total_inner_iterations"]
    )
    # ...while finding the same incidents with no extra false alarms.
    assert (
        warm_detect["incident_windows_detected"]
        >= cold_detect["incident_windows_detected"]
    )
    assert warm_detect["false_alarm_rate"] <= cold_detect["false_alarm_rate"]
