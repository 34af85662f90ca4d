"""Batch serving: run many structure-learning jobs through repro.serve.

This example mirrors the paper's production deployment (Section VI) in
miniature, showing the three pillars of the serving layer:

1. **Batch fan-out** — a manifest of declarative ``LearningJob`` specs is
   executed by a ``StreamingRunner``, serially or across worker processes;
2. **Content-addressed caching** — re-submitting the same jobs is near-free
   because results are keyed by (data fingerprint, config hash, seed);
3. **Warm-started re-learning** — a ``RelearnScheduler`` re-learns a drifting
   scenario window by window, starting each solve from the previous solution
   and spending measurably fewer solver iterations than cold starts;
4. **Streaming** — the same manifest consumed through
   ``StreamingRunner.stream``, which yields each result the moment its job
   finishes (with hard per-job deadlines available via ``timeout=``).

Run with ``python examples/batch_serving.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.least import LEASTConfig
from repro.serve import InMemoryCache, LearningJob, RelearnScheduler, StreamingRunner


def main(
    n_jobs: int = 8,
    n_nodes: int = 20,
    n_workers: int = 2,
    n_windows: int = 4,
) -> dict:
    config = {"max_outer_iterations": 4, "max_inner_iterations": 150}

    # 1. Batch fan-out over a manifest of jobs (different seeds = different
    #    scenarios; in production each job would be one business scenario).
    jobs = [
        LearningJob(
            dataset="er2",
            seed=seed,
            dataset_options={"n_nodes": n_nodes},
            config=config,
        )
        for seed in range(n_jobs)
    ]
    cache = InMemoryCache()
    runner = StreamingRunner(n_workers=n_workers, cache=cache)
    report = runner.run(jobs)
    print(
        f"batch of {report.n_jobs} jobs: {report.n_ok} ok in "
        f"{report.total_seconds:.2f}s ({report.jobs_per_second:.2f} jobs/s, "
        f"{report.n_workers} workers)"
    )

    # 2. Re-submitting the same manifest hits the cache for every job.
    rerun = StreamingRunner(n_workers=1, cache=cache).run(
        [
            LearningJob(
                dataset="er2",
                seed=seed,
                dataset_options={"n_nodes": n_nodes},
                config=config,
            )
            for seed in range(n_jobs)
        ]
    )
    print(
        f"re-run: {rerun.n_cache_hits}/{rerun.n_jobs} cache hits in "
        f"{rerun.total_seconds:.3f}s (saved {rerun.solver_seconds_saved:.2f}s "
        f"of solver time)"
    )

    # 3. Warm-started windowed re-learning: the same scenario drifts slightly
    #    window to window; the scheduler re-uses each window's solution.
    rng = np.random.default_rng(0)
    node_names = [f"metric_{i}" for i in range(n_nodes)]
    least_config = LEASTConfig(max_outer_iterations=4, max_inner_iterations=150)
    scheduler = RelearnScheduler(least_config, warm_start=True)
    base = rng.normal(size=(300, n_nodes))
    for window in range(n_windows):
        drift = 0.05 * window * rng.normal(size=base.shape)
        scheduler.step(base + drift, node_names, seed=window)
    summary = scheduler.stats_summary()
    print(
        f"windowed re-learn over {n_windows} windows: "
        f"{summary['mean_inner_iterations_cold']:.0f} inner iterations cold vs "
        f"{summary['mean_inner_iterations_warm']:.0f} warm"
    )

    # 4. Streaming: consume results as they complete instead of waiting for
    #    the whole batch (a hard deadline would preempt runaway jobs here).
    streaming = StreamingRunner(n_workers=n_workers)
    stream_jobs = [
        LearningJob(
            dataset="er2",
            seed=seed,
            dataset_options={"n_nodes": n_nodes},
            config=config,
        )
        for seed in range(n_jobs)
    ]
    n_streamed = 0
    for result in streaming.stream(stream_jobs):
        n_streamed += 1
        print(f"  streamed {result.job_id}: {result.status} ({result.n_edges} edges)")
    print(
        f"streaming: first result after "
        f"{streaming.telemetry.time_to_first_result:.2f}s, "
        f"all {n_streamed} after {streaming.telemetry.total_seconds:.2f}s"
    )

    return {
        "batch": report.summary(),
        "rerun": rerun.summary(),
        "relearn": summary,
        "streaming": {
            "n_streamed": n_streamed,
            "time_to_first_result": streaming.telemetry.time_to_first_result,
            "total_seconds": streaming.telemetry.total_seconds,
        },
    }


if __name__ == "__main__":
    main()
