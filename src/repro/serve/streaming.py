"""Streaming, preemptible execution engine for the serving layer.

:class:`StreamingRunner` is the one way this package runs a solve in
isolation: the CLI, the daemon, the sharded executor and every window of the
:class:`~repro.serve.scheduler.RelearnScheduler` submit
:class:`~repro.serve.job.LearningJob` specs to it.  It runs them on a
persistent pre-forked worker pool (:class:`~repro.serve.pool.WorkerPool`)
and *streams* :class:`~repro.serve.job.JobResult` records back the moment
each job finishes; :meth:`StreamingRunner.run` drains the stream into a
:class:`BatchReport` for callers that want the whole batch at once.  That is
the shape the paper's deployment needs — ~100k tasks per day, where
downstream consumers (dashboards, alerting, the re-learn loop) want each
scenario's graph as soon as it exists, and one runaway solve must never
stall the fleet.

Execution model
---------------
Workers are started once (lazily, up to ``n_workers``) and live across jobs:
the registry snapshot, interpreter boot, and numpy import are paid per
*worker*, not per *job*.  A worker is replaced only after a preemption kill
or — with ``max_jobs_per_worker`` set — after that many completed jobs
(``1`` reproduces the old disposable-process-per-job engine).

Deadlines are enforced in two tiers:

* **soft** (``soft_timeout``, cooperative): past it, the solve stops at the
  next outer-iteration boundary via the backend protocol's
  ``deadline_hooks`` and the job is reported ``"preempted"`` — the worker
  survives and stays in the pool;
* **hard** (``timeout``, SIGKILL): the parent kills a worker still alive
  past the deadline — and kills *only that worker*; each worker additionally
  arms a per-job *suicide timer* (``SIGALRM`` at its default disposition)
  slightly past the parent's deadline, so a worker orphaned by a dead parent
  still kills itself.  A hard-killed job is either failed immediately or
  requeued for a fresh attempt, per :attr:`StreamingRunner.preempt_policy`.

Jobs with no deadline and ``n_workers=1`` are executed inline in the parent
(no fork, no pickling) — the cheap path for small serial manifests.  The
soft-deadline tier works inline too (it is purely cooperative).

Every pool pass runs :meth:`StreamSession.pump`, over a whole manifest
(:meth:`StreamingRunner.stream`) or over jobs arriving in batches
(:meth:`StreamingRunner.stream_batches`, always on workers).  For
incremental intake (the ``repro-serve daemon`` mode) use
:meth:`StreamingRunner.open_session`: the returned :class:`StreamSession`
accepts submissions one at a time and hands back results as they complete,
over the same pool.

Environment knobs (also honored by the tier-1 test-suite):

``REPRO_SERVE_START_METHOD``
    Override the :mod:`multiprocessing` start method (``fork`` / ``spawn`` /
    ``forkserver``).  Default: the platform default.
``REPRO_SERVE_KILL_GRACE``
    Seconds of grace between the parent's deadline check and the worker's
    suicide timer (default ``0.5``).
``REPRO_SERVE_POLL_INTERVAL``
    Upper bound on the parent's poll sleep in seconds (default ``0.05``).
"""

from __future__ import annotations

import contextlib
import copy
import os
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.obs import ResourceSampler, Tracer, activated
from repro.serve.cache import ResultCache, job_fingerprint
from repro.serve.job import JobResult, LearningJob
from repro.serve.pool import (
    PoolJob,
    SoftDeadlineExceeded,
    StreamTelemetry,
    WorkerPool,
    _execute_with_retry,
    check_engine_options,
)

__all__ = [
    "BatchReport",
    "SoftDeadlineExceeded",
    "StreamTelemetry",
    "StreamSession",
    "StreamingRunner",
]


@dataclass
class BatchReport:
    """Results of one :meth:`StreamingRunner.run` call plus aggregate telemetry.

    Attributes
    ----------
    results:
        One :class:`~repro.serve.job.JobResult` per manifest entry, in
        manifest order.
    total_seconds:
        Wall-clock duration of the whole batch.
    n_workers:
        Worker cap the batch ran with.
    solver_seconds_saved:
        Solver time skipped thanks to cache hits.
    cache_stats:
        Snapshot of the attached cache's counters (empty without a cache).
    time_to_first_result:
        Seconds until the first job result was available (``None`` for an
        empty manifest) — the latency the streaming engine optimizes for.
    preemption_stats:
        Kill/requeue counters from the engine (see
        :meth:`StreamTelemetry.preemption_summary`).
    """

    results: list[JobResult]
    total_seconds: float
    n_workers: int
    solver_seconds_saved: float = 0.0
    cache_stats: dict[str, float] = field(default_factory=dict)
    time_to_first_result: float | None = None
    preemption_stats: dict[str, float] = field(default_factory=dict)

    @property
    def n_jobs(self) -> int:
        """Number of jobs in the batch."""
        return len(self.results)

    @property
    def n_ok(self) -> int:
        """Number of jobs that finished with status ``"ok"``."""
        return sum(1 for result in self.results if result.status == "ok")

    @property
    def n_failed(self) -> int:
        """Number of jobs that finished with status ``"failed"``."""
        return sum(1 for result in self.results if result.status == "failed")

    @property
    def n_preempted(self) -> int:
        """Number of jobs killed at their deadline (status ``"preempted"``)."""
        return sum(1 for result in self.results if result.status == "preempted")

    @property
    def n_cache_hits(self) -> int:
        """Number of jobs served from the result cache."""
        return sum(1 for result in self.results if result.cache_hit)

    @property
    def jobs_per_second(self) -> float:
        """Aggregate throughput of the batch (0 for an instantaneous batch)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.n_jobs / self.total_seconds

    @property
    def solver_seconds(self) -> float:
        """Sum of per-job solver time (CPU-side work actually executed)."""
        return sum(result.elapsed_seconds for result in self.results)

    def summary(self) -> dict[str, Any]:
        """JSON-able aggregate view (the CLI report's ``summary`` block)."""
        return {
            "n_jobs": self.n_jobs,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "n_preempted": self.n_preempted,
            "n_cache_hits": self.n_cache_hits,
            "n_workers": self.n_workers,
            "total_seconds": self.total_seconds,
            "time_to_first_result": self.time_to_first_result,
            "jobs_per_second": self.jobs_per_second,
            "solver_seconds": self.solver_seconds,
            "solver_seconds_saved": self.solver_seconds_saved,
            "cache_stats": dict(self.cache_stats),
            "preemption": dict(self.preemption_stats),
        }


# -- the streaming engine ------------------------------------------------------


class StreamSession:
    """Incremental submit/poll face of a :class:`StreamingRunner` pass.

    A session owns one :class:`~repro.serve.pool.WorkerPool` and layers the
    runner's parent-side responsibilities on top: dataset materialization,
    cache lookups and write-backs, job lifecycle spans, and telemetry.  The
    runner's own :meth:`StreamingRunner.stream` drives a session under the
    hood; the ``repro-serve daemon`` drives one directly, submitting jobs as
    they arrive in the spool and collecting results as each finishes.

    Obtain sessions from :meth:`StreamingRunner.open_session` (constructing
    one directly skips the runner's sampler/spool setup); always
    :meth:`close` them — ``close()`` stops idle workers gracefully, SIGKILLs
    busy ones without touching the preemption telemetry, and releases the
    trace spool directory.
    """

    def __init__(self, runner: "StreamingRunner") -> None:
        self._runner = runner
        self.started = time.monotonic()
        self.pool = WorkerPool(
            runner.n_workers,
            timeout=runner.timeout,
            soft_timeout=runner.soft_timeout,
            max_retries=runner.max_retries,
            preempt_policy=runner.preempt_policy,
            preempt_retries=runner.preempt_retries,
            max_jobs_per_worker=runner.max_jobs_per_worker,
            tracer=runner.tracer,
            sampler=runner.sampler,
            telemetry=runner.telemetry,
            spool_dir=runner._spool_dir,
        )
        self._closed = False

    @property
    def in_flight(self) -> int:
        """Jobs submitted and not yet completed (queued + executing)."""
        return self.pool.in_flight

    def has_capacity(self) -> bool:
        """Whether another submission would find a worker without queuing deep.

        The session admits up to ``n_workers`` jobs in flight; callers that
        respect this keep the pool's internal queue empty, so queue waits are
        measured where the backlog actually is (the caller's queue — the
        runner's manifest deque, the daemon's tenant queues).
        """
        return self.pool.in_flight < self._runner.n_workers

    def submit(
        self,
        job: LearningJob,
        tag: Any = None,
        enqueued_at: float | None = None,
    ) -> JobResult | None:
        """Submit one job; returns its result only when it finished instantly.

        Instant outcomes are cache hits and materialization failures — both
        are finalized (spans ended, telemetry counted) before being returned.
        Otherwise ``None`` is returned and the result will surface from a
        later :meth:`poll`.  ``enqueued_at`` backdates the job's queue-wait
        accounting to when the caller accepted it.
        """
        item = PoolJob(
            job=job,
            tag=tag,
            enqueued_at=enqueued_at if enqueued_at is not None else time.monotonic(),
        )
        return self.submit_item(item)

    def submit_item(self, item: PoolJob) -> JobResult | None:
        """Submit a pre-built :class:`~repro.serve.pool.PoolJob` (runner path)."""
        runner = self._runner
        runner._start_job_trace(item)
        immediate = runner._prepare(item)
        if immediate is not None:
            return self.finish(item, immediate)
        if item.job.data is not None:
            # The materialized matrix travels as the explicit `data` payload;
            # don't ship a second copy inside the job spec.
            item.job = copy.copy(item.job)
            item.job.data = None
        self.pool.submit(item)
        return None

    def poll(self, timeout: float | None = None) -> list[tuple[PoolJob, JobResult]]:
        """Advance the pool; return finalized ``(item, result)`` completions."""
        return [
            (item, self.finish(item, result))
            for item, result in self.pool.poll(timeout)
        ]

    def pump(
        self, pending: deque[PoolJob], timeout: float | None = None
    ) -> list[tuple[PoolJob, JobResult]]:
        """Submit from ``pending`` while there is capacity, then poll once.

        Returns the instant outcomes of the submissions (cache hits,
        materialization failures) first, then the completions of a
        :meth:`poll` of at most ``timeout`` seconds, skipped when nothing is
        in flight.  Items that did not fit stay in ``pending``.
        """
        done: list[tuple[PoolJob, JobResult]] = []
        while pending and self.has_capacity():
            item = pending.popleft()
            immediate = self.submit_item(item)
            if immediate is not None:
                done.append((item, immediate))
        if self.in_flight:
            done.extend(self.poll(timeout))
        return done

    def finish(self, item: PoolJob, result: JobResult) -> JobResult:
        """Finalize one result: cache write-back, span end, telemetry."""
        runner = self._runner
        return runner._finalize(item, result, self.started)

    def close(self) -> None:
        """Shut the pool down and release the session's resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.pool.close()
        self._runner.telemetry.total_seconds = time.monotonic() - self.started
        self._runner._teardown_session()


class StreamingRunner:
    """Execute jobs on a persistent worker pool, yielding results as they complete.

    :meth:`stream` yields results the moment they exist (NDJSON streaming,
    dashboards, pipelining into downstream work); :meth:`run` collects them
    into a :class:`BatchReport` in manifest order.

    Parameters
    ----------
    n_workers:
        Maximum number of concurrently live worker processes.  ``1`` with no
        ``timeout`` executes jobs inline in the parent (no subprocess).
    cache:
        Optional :class:`~repro.serve.cache.ResultCache`.  Hits are yielded
        immediately without a worker; successful misses are written back.
    timeout:
        Hard per-job deadline in seconds, measured from dispatch to a ready
        worker.  A job still running this long is SIGKILLed and reported
        ``"preempted"``.  ``None`` disables hard preemption.
    soft_timeout:
        Cooperative deadline in seconds: past it, the solve stops at the
        next outer-iteration boundary (via the backend protocol's
        ``deadline_hooks``) and is reported ``"preempted"`` without killing
        the worker.  Works inline too.  Must not exceed ``timeout`` when
        both are set.
    max_retries:
        Additional attempts for failing dataset builds and solver runs
        (retries happen inside the worker, within the same deadline).
    preempt_policy:
        ``"fail"`` (default) reports a hard-killed job as ``"preempted"``
        immediately; ``"requeue"`` grants it up to ``preempt_retries`` fresh
        attempts (each with a full deadline) before giving up.  Soft stops
        are final under either policy.
    preempt_retries:
        Fresh attempts granted to a hard-preempted job under the
        ``"requeue"`` policy.
    max_jobs_per_worker:
        Completed jobs after which a pool worker is retired and replaced
        (``None``, the default, disables recycling; ``1`` reproduces the old
        disposable-process-per-job engine).
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When set, every job gets a
        lifecycle span tree (``queue_wait`` → ``job_dispatch`` →
        ``data_materialize`` → ``solve``/``outer_iter`` → ``cache_store``),
        worker-side spans are spooled to NDJSON and merged into the parent
        trace (orphans adopted if the worker died mid-flush), pool health
        appears as ``worker_spawn``/``worker_idle`` spans and
        ``serve_pool_*`` gauges, and preemption/requeue/cache counters are
        folded into ``tracer.metrics``.
    sample_resources:
        Whether to run a :class:`~repro.obs.ResourceSampler` alongside the
        stream, emitting periodic ``resource`` events (RSS/CPU for the parent
        and each live worker) into the tracer's sink and stamping
        ``worker_peak_rss_bytes`` attributes onto each job span.  ``None``
        (default) auto-enables whenever a tracer is set and the platform
        supports ``/proc`` sampling; ``False`` forces it off, ``True``
        requests it (still a no-op off Linux or under ``REPRO_OBS_SAMPLE=0``).
        Sampling without a tracer has nowhere to put events, so it stays off.

    Examples
    --------
    >>> from repro.serve import LearningJob, StreamingRunner
    >>> jobs = [LearningJob(dataset="er2", seed=s, dataset_options={"n_nodes": 12},
    ...                     config={"max_outer_iterations": 2,
    ...                             "max_inner_iterations": 20})
    ...         for s in range(3)]
    >>> for result in StreamingRunner(n_workers=2).stream(jobs):
    ...     _ = result.status  # arrives the moment each job finishes
    """

    def __init__(
        self,
        n_workers: int = 1,
        cache: ResultCache | None = None,
        timeout: float | None = None,
        max_retries: int = 0,
        preempt_policy: str = "fail",
        preempt_retries: int = 1,
        tracer: Tracer | None = None,
        sample_resources: bool | None = None,
        soft_timeout: float | None = None,
        max_jobs_per_worker: int | None = None,
    ) -> None:
        check_engine_options(
            n_workers,
            timeout=timeout,
            soft_timeout=soft_timeout,
            max_retries=max_retries,
            preempt_policy=preempt_policy,
            preempt_retries=preempt_retries,
            max_jobs_per_worker=max_jobs_per_worker,
        )
        self.n_workers = int(n_workers)
        self.cache = cache
        self.timeout = timeout
        self.soft_timeout = soft_timeout
        self.max_retries = int(max_retries)
        self.preempt_policy = preempt_policy
        self.preempt_retries = int(preempt_retries)
        self.max_jobs_per_worker = (
            int(max_jobs_per_worker) if max_jobs_per_worker is not None else None
        )
        self.tracer = tracer
        self.sample_resources = sample_resources
        self.sampler: ResourceSampler | None = None
        self.telemetry = StreamTelemetry()
        self.solver_seconds_saved = 0.0
        self._spool_dir: str | None = None

    # -- public API ------------------------------------------------------------

    def stream(self, jobs: Sequence[LearningJob]) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per job, in completion order.

        Telemetry for the pass is left on :attr:`telemetry` (and
        :attr:`solver_seconds_saved`) after the generator is exhausted.
        """
        for _, result in self._stream(jobs):
            yield result

    def stream_batches(
        self, batches: Iterable[Sequence[LearningJob]]
    ) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per job of every batch, in completion order.

        Each batch is queued and fills the free workers, finished results
        are collected without waiting, and only then is the next batch
        pulled, so a producer builds batch ``k+1`` while batch ``k`` runs.
        Job ids and results equal :meth:`stream` over the concatenated
        batches, but the pass always runs on pool workers: an inline solve
        would block the producer.
        """
        for _, result in self._stream_pooled(batches):
            yield result

    def run(
        self,
        jobs: Sequence[LearningJob],
        on_result: Callable[[JobResult], None] | None = None,
    ) -> BatchReport:
        """Drain the stream into a :class:`BatchReport`.

        ``report.results`` is in manifest order regardless of completion
        order.  ``on_result`` (when given) is invoked once per result in
        completion order — this is how the CLI's ``--stream`` mode emits
        NDJSON lines while still producing the final report.

        Returns
        -------
        BatchReport
            Results plus aggregate throughput, cache, and preemption
            telemetry.
        """
        jobs = list(jobs)
        slots: list[JobResult | None] = [None] * len(jobs)
        for index, result in self._stream(jobs):
            slots[index] = result
            if on_result is not None:
                on_result(result)
        results = [slot for slot in slots if slot is not None]
        return BatchReport(
            results=results,
            total_seconds=self.telemetry.total_seconds,
            n_workers=self.n_workers,
            solver_seconds_saved=self.solver_seconds_saved,
            cache_stats=self.cache.stats() if self.cache is not None else {},
            time_to_first_result=self.telemetry.time_to_first_result,
            preemption_stats=self.telemetry.preemption_summary(),
        )

    def open_session(self) -> StreamSession:
        """Begin an incremental pass and return its :class:`StreamSession`.

        Resets the pass telemetry, starts resource sampling (when enabled),
        creates the worker trace-spool directory (when tracing), and builds
        the worker pool.  The caller owns the session and must
        :meth:`StreamSession.close` it; the daemon holds one session open
        for its whole life.
        """
        self.telemetry = StreamTelemetry()
        self.solver_seconds_saved = 0.0
        self._setup_sampler()
        if self.tracer is not None:
            self._spool_dir = tempfile.mkdtemp(prefix="repro-trace-")
        return StreamSession(self)

    # -- internals --------------------------------------------------------------

    def _stream(self, jobs: Sequence[LearningJob]) -> Iterator[tuple[Any, JobResult]]:
        """Yield ``(manifest index, result)`` pairs in completion order."""
        if self.n_workers == 1 and self.timeout is None:
            yield from self._stream_inline(list(jobs))
        else:
            yield from self._stream_pooled([jobs])

    def _stream_pooled(
        self, batches: Iterable[Sequence[LearningJob]]
    ) -> Iterator[tuple[Any, JobResult]]:
        """The pool pass: ``(manifest index, result)`` pairs, batch by batch."""
        session = self.open_session()
        pending: deque[PoolJob] = deque()
        index = 0
        try:
            for batch in batches:
                arrived = time.monotonic()
                for job in batch:
                    if job.job_id is None:
                        job.job_id = f"job-{index:03d}"
                    pending.append(PoolJob(job=job, tag=index, enqueued_at=arrived))
                    index += 1
                for item, result in session.pump(pending, 0):
                    yield item.tag, result
            while pending or session.in_flight:
                for item, result in session.pump(pending):
                    yield item.tag, result
        finally:
            session.close()

    def _stream_inline(self, jobs: list[LearningJob]) -> Iterator[tuple[Any, JobResult]]:
        """Serial no-subprocess path for ``n_workers=1`` without a hard deadline."""
        self.telemetry = StreamTelemetry()
        self.solver_seconds_saved = 0.0
        started = time.monotonic()
        self._setup_sampler()
        try:
            for index, job in enumerate(jobs):
                if job.job_id is None:
                    job.job_id = f"job-{index:03d}"
                item = PoolJob(job=job, tag=index, enqueued_at=started)
                self._start_job_trace(item)
                result = self._prepare(item)
                if result is None:
                    result = self._run_inline(item)
                yield item.tag, self._finalize(item, result, started)
        finally:
            self._teardown_session()
            self.telemetry.total_seconds = time.monotonic() - started

    def _setup_sampler(self) -> None:
        """Start the resource sampler for one pass (when enabled and supported)."""
        self.sampler = None
        want_sampling = (
            self.sample_resources
            if self.sample_resources is not None
            else self.tracer is not None
        )
        if want_sampling and self.tracer is not None:
            sampler = ResourceSampler(sink=self.tracer.sink)
            if sampler.start():  # no-op (False) off Linux / REPRO_OBS_SAMPLE=0
                sampler.track(os.getpid(), role="parent")
                self.sampler = sampler

    def _teardown_session(self) -> None:
        """Stop sampling and drop the spool directory at the end of a pass."""
        if self.sampler is not None:
            self.sampler.stop()
            parent_peak = self.sampler.peak_rss_bytes(os.getpid())
            if self.tracer is not None and parent_peak > 0:
                self.tracer.metrics.gauge(
                    "serve_peak_rss_bytes", role="parent"
                ).set(parent_peak)
        if self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None

    def _finalize(self, item: PoolJob, result: JobResult, started: float) -> JobResult:
        """Cache write-back, span end, and telemetry for one finished job."""
        now = time.monotonic() - started
        if self.telemetry.time_to_first_result is None:
            self.telemetry.time_to_first_result = now
        self.telemetry.total_seconds = now
        self.telemetry.n_yielded += 1
        store = (
            self.cache is not None
            and result.status == "ok"
            and not result.cache_hit  # hits must not overwrite the entry
            and result.fingerprint is not None
        )
        if store and self.tracer is not None and item.span is not None:
            with self.tracer.span("cache_store", parent=item.span):
                self.cache.put(result.fingerprint, result)
        elif store:
            self.cache.put(result.fingerprint, result)
        if self.tracer is not None:
            self.tracer.metrics.counter(
                "serve_jobs_total", status=result.status
            ).inc()
            if item.span is not None:
                item.span.set_attributes(
                    attempts=result.attempts, cache_hit=result.cache_hit
                )
                item.span.end("ok" if result.status == "ok" else result.status)
                self.tracer.metrics.histogram("serve_job_seconds").observe(
                    item.span.duration
                )
        return result

    def _start_job_trace(self, item: PoolJob) -> None:
        """Open the job span and record the first attempt's queue wait.

        The job span is backdated to the enqueue time so its duration covers
        the whole lifecycle.  Requeued attempts record their ``queue_wait``
        at dispatch time inside the pool instead — together the attempts'
        waits and ``job_attempt`` spans tile the job span.
        """
        if self.tracer is None:
            return
        now = time.monotonic()
        if item.span is None:
            item.span = self.tracer.span(
                "job", job_id=item.job.job_id, solver=item.job.solver
            )
            item.span.start = item.enqueued_at
        waited = max(now - item.enqueued_at, 0.0)
        self.tracer.record_span(
            "queue_wait",
            start=item.enqueued_at,
            duration=waited,
            parent=item.span,
            attempt=item.preempt_attempts,
        )
        self.tracer.metrics.histogram("serve_queue_wait_seconds").observe(waited)

    def _prepare(self, item: PoolJob) -> JobResult | None:
        """Materialize data and consult the cache; a result short-circuits."""
        job = item.job
        if item.data is None:
            span = (
                self.tracer.span("data_materialize", parent=item.span)
                if self.tracer is not None
                else None
            )
            data, error, used_attempts = self._materialize(job)
            if span is not None:
                span.set_attribute("attempts", used_attempts)
                span.end("ok" if data is not None else "error")
            if data is None:
                return JobResult(
                    job_id=job.job_id,
                    solver=job.solver,
                    status="failed",
                    attempts=used_attempts,
                    error=error,
                )
            item.data = data
            item.base_attempts = used_attempts - 1
            if self.cache is not None:
                item.fingerprint = job_fingerprint(job, data)
                cached = self.cache.get(item.fingerprint)
                if cached is not None and cached.status == "ok":
                    self.solver_seconds_saved += cached.elapsed_seconds
                    if self.tracer is not None:
                        self.tracer.metrics.counter("serve_cache_hits_total").inc()
                    return cached.as_cache_hit(job_id=job.job_id)
        return None

    def _materialize(self, job: LearningJob) -> tuple[np.ndarray | None, str | None, int]:
        """Resolve the job's data with retries; returns (data, error, attempts)."""
        error = None
        for attempt in range(1, self.max_retries + 2):
            try:
                return job.resolve_data(), None, attempt
            except Exception as exc:  # noqa: BLE001 - failures become job status
                error = f"{type(exc).__name__}: {exc}"
        return None, error, self.max_retries + 1

    def _run_inline(self, item: PoolJob) -> JobResult:
        """Execute one job in the parent process (serial, no-hard-deadline path)."""
        soft_deadline_at = (
            time.monotonic() + self.soft_timeout
            if self.soft_timeout is not None
            else None
        )
        with contextlib.ExitStack() as stack:
            if self.tracer is not None:
                # No subprocess means no spool: the solve spans of execute_job
                # land directly in the parent sink, parented under the job span.
                stack.enter_context(activated(self.tracer))
                stack.enter_context(self.tracer.use_parent(item.span))
            result = _execute_with_retry(
                item.job,
                item.data,
                item.fingerprint,
                self.max_retries,
                item.base_attempts,
                soft_deadline_at=soft_deadline_at,
                soft_timeout=self.soft_timeout,
            )
        if result.status == "preempted":
            self.telemetry.n_soft_preempted += 1
            if self.tracer is not None:
                self.tracer.metrics.counter(
                    "serve_preemptions_total", kind="soft"
                ).inc()
        return result
