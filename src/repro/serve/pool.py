"""Persistent pre-forked worker pool for the streaming serve engine.

Before this module existed, :class:`~repro.serve.streaming.StreamingRunner`
paid one disposable process per job: spawn, registry snapshot, numpy import,
solve, exit.  ``BENCH_serve.json`` measured the consequence — 16 jobs on 4
workers ran at 0.94× the *serial* rate.  :class:`WorkerPool` replaces that
with N long-lived workers started once, each pulling jobs over its own duplex
pipe, recycled only after a preemption kill or ``max_jobs_per_worker``
completed jobs.  The backend-registry snapshot is paid once per worker (and
refreshed per job only when :func:`repro.core.backend.registry_epoch` says
the registry changed since the worker was forked).

Preemption keeps the exact semantics the streaming tests pin:

* the parent SIGKILLs a worker still running past its job's hard deadline —
  and kills *only that worker*; its replacement is spawned lazily when there
  is work for it;
* each worker arms a per-job *suicide timer* (``SIGALRM`` at its default,
  process-terminating disposition) slightly past the parent's deadline, so a
  worker orphaned by a dead parent still kills itself;
* a worker found dead from its own ``SIGALRM`` counts as a preemption; any
  other unexpected death (segfault, external ``SIGKILL``, OOM killer) is a
  plain failure and is never requeued.

On top of the hard tier sits the *soft-deadline* tier, wired through the
backend protocol's ``deadline_hooks``: with ``soft_timeout`` set, the worker
injects a hook that raises :class:`SoftDeadlineExceeded` at the first outer-
iteration boundary past the soft deadline.  The solve stops cooperatively —
the worker survives, reports a ``"preempted"`` result immediately, and stays
in the pool — while ``SIGKILL`` at the hard ``timeout`` remains the
escalation for solvers that never reach a boundary.

Tracing (when a :class:`~repro.obs.Tracer` is set) adds the pool's own span
vocabulary: a root-level ``worker_spawn`` span per worker (launch → ready
handshake; launch → close, with status ``never_ready``, for a worker the pool
closed before its handshake), root-level ``worker_idle`` spans for the gaps a
worker spends waiting between jobs, a ``job_dispatch`` span per handoff
(pickling + pipe write, parented on the job span), and a ``job_attempt`` span
covering each killed attempt so queue waits and attempts together tile the
job span even across requeues.  Pool health is exported as gauges/counters on
the tracer's metrics registry (``serve_pool_workers``,
``serve_pool_busy_workers``, ``serve_pool_pending_jobs``,
``serve_pool_spawns_total``, ``serve_pool_recycles_total``,
``serve_worker_idle_seconds``).
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import pickle
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.core.backend as backend_module
from repro.exceptions import SoftDeadlineExceeded, ValidationError
from repro.obs import NDJSONFileSink, ResourceSampler, Span, Tracer, activated, merge_spool
from repro.serve.job import JobResult, LearningJob, execute_job
from repro.utils.blas import stop_blas_threads

__all__ = [
    "PREEMPT_POLICIES",
    "check_engine_options",
    "SoftDeadlineExceeded",
    "StreamTelemetry",
    "PoolJob",
    "WorkerPool",
]

#: Allowed values of the ``preempt_policy`` knob (pool and runner alike).
PREEMPT_POLICIES: tuple[str, ...] = ("fail", "requeue")


def check_engine_options(
    n_workers: int,
    *,
    timeout: float | None,
    soft_timeout: float | None,
    max_retries: int,
    preempt_policy: str,
    preempt_retries: int,
    max_jobs_per_worker: int | None,
) -> None:
    """Reject bad engine options (shared by the pool and the runner)."""
    if n_workers < 1:
        raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
    if timeout is not None and timeout <= 0:
        raise ValidationError(f"timeout must be positive, got {timeout}")
    if soft_timeout is not None and soft_timeout <= 0:
        raise ValidationError(f"soft_timeout must be positive, got {soft_timeout}")
    if timeout is not None and soft_timeout is not None and soft_timeout > timeout:
        raise ValidationError(
            f"soft_timeout ({soft_timeout}) must not exceed the hard "
            f"timeout ({timeout})"
        )
    if max_retries < 0:
        raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
    if preempt_policy not in PREEMPT_POLICIES:
        raise ValidationError(
            f"preempt_policy must be one of {PREEMPT_POLICIES}, "
            f"got {preempt_policy!r}"
        )
    if preempt_retries < 0:
        raise ValidationError(f"preempt_retries must be >= 0, got {preempt_retries}")
    if max_jobs_per_worker is not None and max_jobs_per_worker < 1:
        raise ValidationError(
            f"max_jobs_per_worker must be >= 1, got {max_jobs_per_worker}"
        )


def _kill_grace() -> float:
    """Grace period between parent kill and worker suicide timer (seconds)."""
    return float(os.environ.get("REPRO_SERVE_KILL_GRACE", "0.5"))


def _poll_interval() -> float:
    """Upper bound on the parent's poll sleep (seconds)."""
    return float(os.environ.get("REPRO_SERVE_POLL_INTERVAL", "0.05"))


def _mp_context() -> mp.context.BaseContext:
    """The multiprocessing context honoring ``REPRO_SERVE_START_METHOD``."""
    method = os.environ.get("REPRO_SERVE_START_METHOD") or None
    return mp.get_context(method)


# SoftDeadlineExceeded lives in repro.exceptions; it stays re-exported here
# because this module raises it and the historical import path is
# repro.serve.pool.SoftDeadlineExceeded.


# -- worker-side code ----------------------------------------------------------


def _arm_suicide_timer(deadline: float | None) -> None:
    """Arm the worker's own kill switch slightly past the parent's deadline.

    ``SIGALRM`` is deliberately left at its *default* disposition: the kernel
    terminates the process when the timer fires even if the interpreter is
    stuck inside a C extension and would never run a Python handler.  The
    parent's ``SIGKILL`` remains the primary enforcement; the suicide timer
    only matters when the parent itself died and can no longer clean up.
    """
    if deadline is None:
        return
    if not (hasattr(signal, "setitimer") and hasattr(signal, "SIGALRM")):
        return  # pragma: no cover - non-POSIX platforms
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    signal.setitimer(signal.ITIMER_REAL, deadline + _kill_grace())


def _disarm_suicide_timer() -> None:
    """Cancel the per-job suicide timer (a pool worker outlives its jobs)."""
    if not (hasattr(signal, "setitimer") and hasattr(signal, "SIGALRM")):
        return  # pragma: no cover - non-POSIX platforms
    signal.setitimer(signal.ITIMER_REAL, 0.0)


def _soft_deadline_hook(deadline_at: float, soft_timeout: float):
    """Build the per-outer-iteration check enforcing the soft deadline."""

    def _check() -> None:
        if time.monotonic() >= deadline_at:
            raise SoftDeadlineExceeded(
                f"soft deadline of {soft_timeout:.3f}s reached; "
                "stopped at an outer-iteration boundary"
            )

    return _check


def _execute_with_retry(
    job: LearningJob,
    data: np.ndarray | None,
    fingerprint: str | None,
    max_retries: int,
    base_attempts: int,
    soft_deadline_at: float | None = None,
    soft_timeout: float | None = None,
) -> JobResult:
    """Run the solver for one job, retrying failures within the same worker.

    Parameters
    ----------
    job, data, fingerprint:
        The job spec, its materialized sample matrix, and its cache key.
    max_retries:
        Additional solver attempts granted after the first failure.
    base_attempts:
        Attempts already consumed in the parent (dataset materialization).
    soft_deadline_at, soft_timeout:
        Monotonic instant of the soft deadline (and the configured seconds,
        for the error message).  A solve stopped by the hook returns a
        ``"preempted"`` result immediately — soft stops are final, never
        retried.

    Returns
    -------
    JobResult
        An ``"ok"`` result from the first successful attempt, a
        ``"preempted"`` result for a soft-deadline stop, or a ``"failed"``
        result carrying the last error once the budget is spent.
    """
    last_error = "job was never attempted"
    attempts = base_attempts
    hooks = None
    if soft_deadline_at is not None:
        hooks = [_soft_deadline_hook(soft_deadline_at, soft_timeout or 0.0)]
    for _ in range(max_retries + 1):
        attempts += 1
        try:
            result = execute_job(
                job, data=data, fingerprint=fingerprint, deadline_hooks=hooks
            )
            result.attempts = attempts
            return result
        except SoftDeadlineExceeded as exc:
            return JobResult(
                job_id=job.job_id or job.describe(),
                solver=job.solver,
                status="preempted",
                attempts=attempts,
                fingerprint=fingerprint,
                error=str(exc),
            )
        except Exception as exc:  # noqa: BLE001 - failures become job status
            last_error = f"{type(exc).__name__}: {exc}"
    return JobResult(
        job_id=job.job_id or job.describe(),
        solver=job.solver,
        status="failed",
        attempts=attempts,
        fingerprint=fingerprint,
        error=last_error,
    )


@dataclass
class _TraceSpec:
    """Tracing instructions shipped to a worker (picklable for spawn workers).

    The worker opens an :class:`~repro.obs.NDJSONFileSink` on ``spool_path``
    and parents its root ``worker`` span onto the parent-side job span, so
    the merged trace (:func:`repro.obs.merge_spool`) reads as one tree.
    """

    spool_path: str
    trace_id: str
    parent_span_id: str | None


def _run_one(payload: dict[str, Any]) -> JobResult:
    """Execute one dispatched job inside the worker (tracing-aware)."""
    job: LearningJob = payload["job"]
    soft_timeout = payload["soft_timeout"]
    soft_deadline_at = (
        time.monotonic() + soft_timeout if soft_timeout is not None else None
    )
    trace_spec: _TraceSpec | None = payload["trace"]
    with contextlib.ExitStack() as stack:
        if trace_spec is not None:
            tracer = Tracer(
                NDJSONFileSink(trace_spec.spool_path), trace_id=trace_spec.trace_id
            )
            # Closed (last, on exit) before the result is sent, so the parent
            # never merges a half-written spool for a job it counted finished.
            stack.callback(tracer.close)
            stack.enter_context(activated(tracer))
            stack.enter_context(
                tracer.span("worker", parent=trace_spec.parent_span_id, pid=os.getpid())
            )
        return _execute_with_retry(
            job,
            payload["data"],
            payload["fingerprint"],
            payload["max_retries"],
            payload["base_attempts"],
            soft_deadline_at=soft_deadline_at,
            soft_timeout=soft_timeout,
        )


def _pool_worker(conn, solver_registry: dict, worker_index: int) -> None:
    """Long-lived worker entry point: serve jobs from ``conn`` until stopped.

    Protocol (all messages are pickled tuples):

    * worker → parent: ``("ready", pid)`` once, after the registry snapshot
      is restored — the parent only dispatches to ready workers, so hard
      deadlines never charge interpreter boot time to a job;
    * parent → worker: ``("job", payload)`` with the job spec, data, retry
      budget, deadlines, optional registry refresh, and optional trace spec;
      or ``None`` asking the worker to exit (recycling / graceful shutdown);
    * worker → parent: ``("result", JobResult)`` per job.

    The per-job suicide timer is armed on receipt and disarmed after the
    solve, so an idle pool worker never kills itself; a worker whose parent
    died sees EOF on the pipe and exits.

    Every job solves on one BLAS thread (:func:`execute_job`), so a spawned
    worker joins the BLAS helper threads its numpy import started; a forked
    one has none.
    """
    stop_blas_threads()
    backend_module.restore_registry(solver_registry)
    try:
        conn.send(("ready", os.getpid()))
    except (BrokenPipeError, OSError):  # pragma: no cover - parent died early
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        _, payload = message
        if payload.get("registry") is not None:
            backend_module.restore_registry(payload["registry"])
        _arm_suicide_timer(payload["deadline"])
        try:
            result = _run_one(payload)
        finally:
            _disarm_suicide_timer()
        try:
            conn.send(("result", result))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already closed
        pass


# -- parent-side primitives ----------------------------------------------------


def _terminate(process: mp.process.BaseProcess) -> None:
    """SIGKILL ``process`` and reap it (best effort, never raises)."""
    try:
        process.kill()
    except Exception:  # pragma: no cover - process already gone
        pass
    process.join(timeout=5.0)


def _suicide_exit(exitcode: int | None) -> bool:
    """True when the worker died from its own ``SIGALRM`` suicide timer.

    The parent's own deadline kills never reach the exit-code classifiers —
    the parent records them directly at the moment it sends the ``SIGKILL``.
    A ``-SIGKILL`` exit observed *here* therefore came from outside the
    engine (e.g. the kernel OOM killer) and is a crash, not a preemption;
    only the ``SIGALRM`` the worker armed itself counts as a deadline death.
    """
    if exitcode is None:
        return False
    return hasattr(signal, "SIGALRM") and exitcode == -int(signal.SIGALRM)


@dataclass
class StreamTelemetry:
    """Execution telemetry of one streaming pass (runner + pool combined).

    Attributes
    ----------
    time_to_first_result:
        Seconds from stream start to the first yielded result (``None`` until
        one arrives).
    total_seconds:
        Wall-clock duration of the whole stream.
    n_yielded:
        Results yielded so far (all statuses).
    n_killed:
        Workers the parent SIGKILLed at their hard deadline.
    n_suicide_exits:
        Workers found dead from their own ``SIGALRM`` suicide timer.
    n_soft_preempted:
        Jobs stopped cooperatively by the soft-deadline hook (the worker
        survived).
    n_requeued:
        Preempted jobs granted a fresh attempt under the ``"requeue"`` policy.
    n_recycled:
        Workers retired after ``max_jobs_per_worker`` completed jobs.
    n_workers_spawned:
        Worker processes started over the lifetime of the pass.
    killed_pids:
        Process ids of the killed workers (all reaped — useful for asserting
        that no orphans survive).
    worker_pids:
        Process ids of every worker ever spawned, recycled ones included.
    """

    time_to_first_result: float | None = None
    total_seconds: float = 0.0
    n_yielded: int = 0
    n_killed: int = 0
    n_suicide_exits: int = 0
    n_soft_preempted: int = 0
    n_requeued: int = 0
    n_recycled: int = 0
    n_workers_spawned: int = 0
    killed_pids: list[int] = field(default_factory=list)
    worker_pids: list[int] = field(default_factory=list)

    def preemption_summary(self) -> dict[str, float]:
        """JSON-able preemption counters (the report's ``preemption`` block)."""
        return {
            "n_killed": float(self.n_killed),
            "n_suicide_exits": float(self.n_suicide_exits),
            "n_soft_preempted": float(self.n_soft_preempted),
            "n_requeued": float(self.n_requeued),
        }


@dataclass
class PoolJob:
    """One unit of work moving through the pool.

    Attributes
    ----------
    job:
        The job spec (its ``data`` attribute should be stripped when the
        matrix travels separately in :attr:`data`).
    tag:
        Opaque caller context returned with the result — the runner stores
        the manifest index here, the daemon its submission record.
    data:
        Materialized sample matrix (``None`` lets the worker resolve it).
    fingerprint:
        Content-addressed cache key, stamped onto the result.
    base_attempts:
        Attempts already consumed in the parent (dataset materialization).
    preempt_attempts:
        Hard-preemption attempts consumed so far (requeue accounting).
    enqueued_at:
        Monotonic instant the job entered the queue — the start of its
        ``queue_wait`` span.  Reset at the moment of a requeue.
    span:
        Parent-side ``job`` lifecycle span (``None`` when untraced).
    """

    job: LearningJob
    tag: Any = None
    data: np.ndarray | None = None
    fingerprint: str | None = None
    base_attempts: int = 0
    preempt_attempts: int = 0
    enqueued_at: float = 0.0
    span: Span | None = None


@dataclass
class _Worker:
    """Parent-side state of one live pool worker."""

    index: int
    process: mp.process.BaseProcess
    conn: Any
    launch_at: float
    registry_epoch: int
    ready: bool = False
    idle_since: float | None = None
    jobs_done: int = 0
    current: PoolJob | None = None
    deadline_at: float | None = None
    dispatched_at: float = 0.0
    spool_path: str | None = None


class WorkerPool:
    """N persistent workers executing :class:`PoolJob` items from a queue.

    The pool is the process-management half of the streaming engine: it owns
    worker lifecycle (lazy spawn up to ``n_workers``, ready handshake,
    recycling, replacement after kills), deadline enforcement, and the
    preemption policy.  Materialization, caching, and result finalization
    stay with the caller (:class:`~repro.serve.streaming.StreamSession`).

    Parameters
    ----------
    n_workers:
        Maximum number of concurrently live worker processes.
    timeout:
        Hard per-job deadline in seconds, measured from dispatch to a
        *ready* worker (interpreter boot is never charged to a job).
        ``None`` disables hard preemption.
    soft_timeout:
        Cooperative deadline in seconds: past it, the solve stops at the
        next outer-iteration boundary and the job is reported
        ``"preempted"`` without killing the worker.  Must not exceed
        ``timeout`` when both are set.
    max_retries:
        Additional in-worker attempts for failing solver runs.
    preempt_policy, preempt_retries:
        ``"fail"`` reports a hard-killed job immediately; ``"requeue"``
        grants up to ``preempt_retries`` fresh attempts.  Soft-deadline
        stops are final under either policy.
    max_jobs_per_worker:
        Completed jobs after which a worker is retired and replaced
        (``None`` disables recycling; ``1`` reproduces the old
        disposable-process-per-job engine, which is exactly how the
        throughput benchmark measures the pool's amortization win).
    tracer:
        Optional :class:`~repro.obs.Tracer` for pool spans and gauges.
    sampler:
        Optional running :class:`~repro.obs.ResourceSampler`; worker pids
        are tracked from spawn to retirement and each finished job span is
        stamped with the worker's peak RSS so far.
    telemetry:
        :class:`StreamTelemetry` instance to mutate (a fresh one by
        default) — the runner shares its own so kill/requeue counters land
        in one place.
    spool_dir:
        Directory for per-job worker span spools (required for worker-side
        tracing; the caller owns its lifetime).
    """

    def __init__(
        self,
        n_workers: int,
        *,
        timeout: float | None = None,
        soft_timeout: float | None = None,
        max_retries: int = 0,
        preempt_policy: str = "fail",
        preempt_retries: int = 1,
        max_jobs_per_worker: int | None = None,
        tracer: Tracer | None = None,
        sampler: ResourceSampler | None = None,
        telemetry: StreamTelemetry | None = None,
        spool_dir: str | None = None,
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
        self.timeout = timeout
        self.soft_timeout = soft_timeout
        self.max_retries = int(max_retries)
        self.preempt_policy = preempt_policy
        self.preempt_retries = int(preempt_retries)
        self.max_jobs_per_worker = (
            int(max_jobs_per_worker) if max_jobs_per_worker is not None else None
        )
        self.tracer = tracer
        self.sampler = sampler
        self.telemetry = telemetry if telemetry is not None else StreamTelemetry()
        self.spool_dir = spool_dir
        self._pending: deque[PoolJob] = deque()
        self._workers: list[_Worker] = []
        self._next_worker_index = 0
        self._dispatch_seq = 0
        self._closed = False

    # -- public API ------------------------------------------------------------

    @property
    def n_pending(self) -> int:
        """Jobs queued but not yet handed to a worker."""
        return len(self._pending)

    @property
    def n_active(self) -> int:
        """Jobs currently executing on a worker."""
        return sum(1 for worker in self._workers if worker.current is not None)

    @property
    def in_flight(self) -> int:
        """Jobs submitted and not yet completed (queued + executing)."""
        return self.n_pending + self.n_active

    def live_pids(self) -> list[int]:
        """Pids of the currently live worker processes."""
        return [
            worker.process.pid
            for worker in self._workers
            if worker.process.pid is not None
        ]

    def submit(self, item: PoolJob) -> None:
        """Queue one job; it is dispatched as soon as a ready worker is idle."""
        if self._closed:
            raise ValidationError("cannot submit to a closed WorkerPool")
        if not item.enqueued_at:
            item.enqueued_at = time.monotonic()
        self._pending.append(item)
        self._dispatch()
        self._update_gauges()

    def poll(self, timeout: float | None = None) -> list[tuple[PoolJob, JobResult]]:
        """Advance the pool and return every job that completed.

        Blocks at most ``timeout`` seconds (default: the poll-interval knob,
        further bounded by the nearest hard deadline) waiting for worker
        events, then sweeps all workers for results, deaths, and blown
        deadlines, requeues preempted jobs under the ``"requeue"`` policy,
        and dispatches queued work onto idle workers.

        Returns
        -------
        list of (PoolJob, JobResult)
            Completed items in detection order (possibly empty).  Requeued
            preemptions do not appear until their final outcome.
        """
        self._dispatch()
        completed: list[tuple[PoolJob, JobResult]] = []
        if not self._workers:
            return completed
        self._wait(timeout)
        now = time.monotonic()
        for worker in list(self._workers):
            self._poll_worker(worker, now, completed)
        self._dispatch()
        self._update_gauges()
        return completed

    def close(self) -> None:
        """Stop every worker: idle ones gracefully, busy ones by SIGKILL.

        Cleanup kills are *not* deadline preemptions and stay out of the
        kill telemetry — abandoning a stream mid-way must not fabricate
        preemption counts.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for worker in list(self._workers):
            if not worker.ready:
                # Stopped before its handshake: its spawn still happened.
                self._record_spawn(worker, time.monotonic(), status="never_ready")
            if worker.current is None:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():  # pragma: no cover - defensive
                    _terminate(worker.process)
            else:
                _terminate(worker.process)
            self._forget_worker(worker)
        self._pending.clear()
        self._update_gauges()

    # -- worker lifecycle ------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        """Start one worker process and begin its ready handshake."""
        context = _mp_context()
        parent_conn, child_conn = context.Pipe(duplex=True)
        index = self._next_worker_index
        self._next_worker_index += 1
        epoch = backend_module.registry_epoch()
        process = context.Process(
            target=_pool_worker,
            args=(child_conn, backend_module.registry_snapshot(), index),
            daemon=True,
        )
        launch_at = time.monotonic()
        process.start()
        child_conn.close()
        worker = _Worker(
            index=index,
            process=process,
            conn=parent_conn,
            launch_at=launch_at,
            registry_epoch=epoch,
        )
        self._workers.append(worker)
        self.telemetry.n_workers_spawned += 1
        if process.pid is not None:
            self.telemetry.worker_pids.append(process.pid)
            if self.sampler is not None:
                self.sampler.track(process.pid, role="worker")
        if self.tracer is not None:
            self.tracer.metrics.counter("serve_pool_spawns_total").inc()
        return worker

    def _record_spawn(self, worker: _Worker, end: float, status: str = "ok") -> None:
        """Emit the root-level ``worker_spawn`` span: launch → ``end``."""
        if self.tracer is not None:
            self.tracer.record_span(
                "worker_spawn",
                start=worker.launch_at,
                duration=max(end - worker.launch_at, 0.0),
                parent=None,
                status=status,
                worker=worker.index,
                pid=worker.process.pid,
            )

    def _ensure_workers(self) -> None:
        """Lazily keep just enough workers alive for the queued work."""
        wanted = min(self.n_workers, self.n_active + len(self._pending))
        while len(self._workers) < wanted:
            self._spawn_worker()

    def _forget_worker(self, worker: _Worker) -> None:
        """Drop a retired/dead worker from the pool's books."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.sampler is not None and worker.process.pid is not None:
            self.sampler.untrack(worker.process.pid)
        if worker in self._workers:
            self._workers.remove(worker)

    def _recycle_worker(self, worker: _Worker) -> None:
        """Gracefully retire a worker that reached ``max_jobs_per_worker``."""
        try:
            worker.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - defensive
            _terminate(worker.process)
        self._forget_worker(worker)
        self.telemetry.n_recycled += 1
        if self.tracer is not None:
            self.tracer.metrics.counter("serve_pool_recycles_total").inc()

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand queued jobs to ready idle workers (FIFO)."""
        if not self._pending:
            return
        self._ensure_workers()
        for worker in list(self._workers):
            if not self._pending:
                break
            if not worker.ready or worker.current is not None:
                continue
            if worker.process.exitcode is not None:
                # Died while idle (e.g. external kill); replace lazily.
                worker.process.join(timeout=5.0)
                self._forget_worker(worker)
                self._ensure_workers()
                continue
            item = self._pending.popleft()
            if not self._send_job(worker, item):
                self._pending.appendleft(item)
                self._ensure_workers()

    def _send_job(self, worker: _Worker, item: PoolJob) -> bool:
        """Ship one job to one worker; False if the worker turned out dead."""
        now = time.monotonic()
        registry = None
        current_epoch = backend_module.registry_epoch()
        if current_epoch != worker.registry_epoch:
            registry = backend_module.registry_snapshot()
            worker.registry_epoch = current_epoch
        trace_spec = None
        if self.tracer is not None and self.spool_dir is not None:
            self._dispatch_seq += 1
            spool_path = os.path.join(
                self.spool_dir, f"dispatch-{self._dispatch_seq:05d}.ndjson"
            )
            trace_spec = _TraceSpec(
                spool_path=spool_path,
                trace_id=self.tracer.trace_id,
                parent_span_id=item.span.span_id if item.span is not None else None,
            )
        payload = {
            "job": item.job,
            "data": item.data,
            "fingerprint": item.fingerprint,
            "max_retries": self.max_retries,
            "base_attempts": item.base_attempts,
            "deadline": self.timeout,
            "soft_timeout": self.soft_timeout,
            "registry": registry,
            "trace": trace_spec,
        }
        try:
            worker.conn.send(("job", payload))
        except (BrokenPipeError, OSError):
            worker.process.join(timeout=5.0)
            self._forget_worker(worker)
            return False
        sent_at = time.monotonic()
        if self.tracer is not None:
            # Requeued attempts wait inside the pool, so their queue_wait is
            # only known here; first attempts record it at submit time in the
            # session (before materialization), matching the old engine.
            if item.preempt_attempts > 0:
                waited = max(now - item.enqueued_at, 0.0)
                self.tracer.record_span(
                    "queue_wait",
                    start=item.enqueued_at,
                    duration=waited,
                    parent=item.span,
                    attempt=item.preempt_attempts,
                )
                self.tracer.metrics.histogram("serve_queue_wait_seconds").observe(
                    waited
                )
            if worker.idle_since is not None:
                idle = max(now - worker.idle_since, 0.0)
                self.tracer.record_span(
                    "worker_idle",
                    start=worker.idle_since,
                    duration=idle,
                    parent=None,
                    worker=worker.index,
                    pid=worker.process.pid,
                )
                self.tracer.metrics.histogram("serve_worker_idle_seconds").observe(
                    idle
                )
            self.tracer.record_span(
                "job_dispatch",
                start=now,
                duration=max(sent_at - now, 0.0),
                parent=item.span,
                worker=worker.index,
                attempt=item.preempt_attempts,
            )
        worker.current = item
        worker.dispatched_at = sent_at
        worker.idle_since = None
        worker.deadline_at = (
            sent_at + self.timeout if self.timeout is not None else None
        )
        worker.spool_path = trace_spec.spool_path if trace_spec is not None else None
        return True

    # -- polling ---------------------------------------------------------------

    def _wait(self, timeout: float | None) -> None:
        """Block until a worker has news, a deadline passes, or a poll tick."""
        from multiprocessing.connection import wait as connection_wait

        now = time.monotonic()
        bound = _poll_interval() if timeout is None else timeout
        for worker in self._workers:
            if worker.deadline_at is not None:
                bound = min(bound, max(worker.deadline_at - now, 0.0))
        handles = [worker.conn for worker in self._workers]
        handles.extend(worker.process.sentinel for worker in self._workers)
        connection_wait(handles, timeout=bound)

    def _poll_worker(
        self,
        worker: _Worker,
        now: float,
        completed: list[tuple[PoolJob, JobResult]],
    ) -> None:
        """Check one worker for a message, a death, or a blown deadline."""
        # Sample liveness BEFORE draining the pipe: a worker that sends its
        # result and exits between the two steps is then caught by the drain
        # (the message is fully buffered before exit), never misclassified as
        # a crash with its completed result discarded.
        exited = worker.process.exitcode is not None
        if worker.conn.poll(0):
            try:
                kind, payload = worker.conn.recv()
            except (EOFError, OSError, pickle.UnpicklingError):
                self._handle_dead_worker(worker, completed, mid_send=True)
                return
            if kind == "ready":
                worker.ready = True
                worker.idle_since = time.monotonic()
                self._record_spawn(worker, worker.idle_since)
                return
            item = worker.current
            result: JobResult = payload
            worker.current = None
            worker.deadline_at = None
            worker.jobs_done += 1
            worker.idle_since = time.monotonic()
            if item is None:  # pragma: no cover - protocol violation
                return
            self._merge_job_trace(worker, item)
            if result.status == "preempted":
                self.telemetry.n_soft_preempted += 1
                if self.tracer is not None:
                    self.tracer.metrics.counter(
                        "serve_preemptions_total", kind="soft"
                    ).inc()
            # Attempts killed on earlier requeued workers are invisible to
            # this worker; fold them in so success and final-preemption paths
            # account alike.
            result.attempts += item.preempt_attempts
            completed.append((item, result))
            if exited or worker.process.exitcode is not None:
                # Sent its result, then died: replace it lazily.
                worker.process.join(timeout=5.0)
                self._forget_worker(worker)
            elif (
                self.max_jobs_per_worker is not None
                and worker.jobs_done >= self.max_jobs_per_worker
            ):
                self._recycle_worker(worker)
            return
        if exited:
            worker.process.join(timeout=5.0)
            self._handle_dead_worker(worker, completed, mid_send=False)
            return
        if (
            worker.current is not None
            and worker.deadline_at is not None
            and now >= worker.deadline_at
        ):
            self._kill_on_deadline(worker, completed)

    def _kill_on_deadline(
        self, worker: _Worker, completed: list[tuple[PoolJob, JobResult]]
    ) -> None:
        """SIGKILL exactly this worker at its job's hard deadline."""
        item = worker.current
        pid = worker.process.pid
        _terminate(worker.process)
        self.telemetry.n_killed += 1
        if pid is not None:
            self.telemetry.killed_pids.append(pid)
        if self.tracer is not None:
            self.tracer.metrics.counter(
                "serve_preemptions_total", kind="parent_kill"
            ).inc()
            if item is not None and item.span is not None:
                self.tracer.record_span(
                    "job_attempt",
                    start=worker.dispatched_at,
                    duration=max(time.monotonic() - worker.dispatched_at, 0.0),
                    parent=item.span,
                    status="preempted",
                    attempt=item.preempt_attempts,
                    pid=pid,
                )
        self._merge_job_trace(worker, item)
        self._forget_worker(worker)
        assert item is not None
        self._apply_preemption(
            item,
            f"job exceeded the {self.timeout:.3f}s deadline and was killed",
            completed,
        )

    def _handle_dead_worker(
        self,
        worker: _Worker,
        completed: list[tuple[PoolJob, JobResult]],
        mid_send: bool,
    ) -> None:
        """Classify a worker that died without delivering a result."""
        worker.process.join(timeout=5.0)
        item = worker.current
        exitcode = worker.process.exitcode
        if item is not None:
            self._merge_job_trace(worker, item)
        self._forget_worker(worker)
        if item is None:
            return  # died while idle; replaced lazily when work needs it
        # Parent deadline kills are recorded at the kill site, so only the
        # worker's own suicide timer reaches this classifier as a preemption;
        # an external SIGKILL (e.g. the kernel OOM killer) is a plain failure
        # — requeueing it would just repeat the damage.
        if self.timeout is not None and _suicide_exit(exitcode):
            self.telemetry.n_suicide_exits += 1
            if self.tracer is not None:
                self.tracer.metrics.counter(
                    "serve_preemptions_total", kind="suicide"
                ).inc()
            self._apply_preemption(
                item,
                f"worker killed itself at the {self.timeout:.3f}s deadline "
                f"(exit code {exitcode})",
                completed,
            )
            return
        detail = "while sending its result " if mid_send else ""
        completed.append(
            (
                item,
                JobResult(
                    job_id=item.job.job_id,
                    solver=item.job.solver,
                    status="failed",
                    attempts=item.base_attempts + 1,
                    fingerprint=item.fingerprint,
                    error=f"worker crashed {detail}(exit code {exitcode})",
                ),
            )
        )

    def _apply_preemption(
        self,
        item: PoolJob,
        reason: str,
        completed: list[tuple[PoolJob, JobResult]],
    ) -> None:
        """Apply the preemption policy: requeue the job or fail it for good."""
        item.preempt_attempts += 1
        if (
            self.preempt_policy == "requeue"
            and item.preempt_attempts <= self.preempt_retries
        ):
            self.telemetry.n_requeued += 1
            if self.tracer is not None:
                self.tracer.metrics.counter("serve_requeues_total").inc()
            # Reset the wait clock *here*, at the moment of the requeue — the
            # old engine set it only after sweeping the remaining workers,
            # leaving a gap the next attempt's queue_wait span never covered.
            item.enqueued_at = time.monotonic()
            self._pending.append(item)
            return
        completed.append(
            (
                item,
                JobResult(
                    job_id=item.job.job_id,
                    solver=item.job.solver,
                    status="preempted",
                    attempts=item.base_attempts + item.preempt_attempts,
                    fingerprint=item.fingerprint,
                    error=reason,
                ),
            )
        )

    # -- tracing helpers -------------------------------------------------------

    def _merge_job_trace(self, worker: _Worker, item: PoolJob | None) -> None:
        """Fold the worker's per-job span spool into the parent trace.

        Workers killed before flushing anything simply contribute no spans;
        partially flushed spools have their parentless spans adopted by the
        job span.  When resource sampling is on, the job span is stamped with
        the worker's peak RSS so far (cumulative over the worker's life —
        a pool worker's memory floor is shared across its jobs).
        """
        if (
            self.sampler is not None
            and item is not None
            and item.span is not None
            and worker.process.pid is not None
        ):
            peak = self.sampler.peak_rss_bytes(worker.process.pid)
            if peak > 0:
                item.span.set_attributes(worker_peak_rss_bytes=peak)
        if self.tracer is None or worker.spool_path is None:
            return
        adopt = item.span if item is not None else None
        merge_spool(self.tracer, worker.spool_path, adopt_parent=adopt)
        try:
            os.unlink(worker.spool_path)
        except OSError:  # pragma: no cover - already gone
            pass
        worker.spool_path = None

    def _update_gauges(self) -> None:
        """Refresh the pool-health gauges on the tracer's metrics registry."""
        if self.tracer is None:
            return
        metrics = self.tracer.metrics
        metrics.gauge("serve_pool_workers").set(len(self._workers))
        metrics.gauge("serve_pool_busy_workers").set(self.n_active)
        metrics.gauge("serve_pool_pending_jobs").set(len(self._pending))
