"""repro.serve — the batch structure-learning service layer.

The paper's headline deployment claim (Section VI) is LEAST running as a
production service executing ~100k structure-learning tasks per day.  This
package is that serving layer in miniature:

* :mod:`repro.serve.job` — declarative :class:`LearningJob` specs and the
  uniform :class:`JobResult` record, covering all three solvers;
* :mod:`repro.serve.pool` — :class:`WorkerPool`: the persistent pre-forked
  worker pool — workers started once, recycled only after preemption or
  ``max_jobs_per_worker``, with two-tier deadlines (cooperative soft stop at
  an outer-iteration boundary, then SIGKILL + worker suicide timers);
* :mod:`repro.serve.streaming` — :class:`StreamingRunner`: the execution
  engine on top of the pool — results yielded as they complete, or
  collected into a :class:`BatchReport` with throughput, cache, and
  preemption telemetry, plus the incremental :class:`StreamSession`
  submit/poll face;
* :mod:`repro.serve.daemon` — :class:`ServeDaemon`: spool-directory job
  intake — NDJSON submissions claimed atomically, per-tenant FIFO fairness,
  admission control, NDJSON results streamed back as jobs finish;
* :mod:`repro.serve.cache` — content-addressed result caching (in-memory or
  on-disk) keyed by (data fingerprint, config hash, seed), so repeated jobs
  are near-free; both backends support bounded LRU operation;
* :mod:`repro.serve.warm_start` — vocabulary-aware re-use of a previous
  solution as the next solve's initialization;
* :mod:`repro.serve.scheduler` — :class:`RelearnScheduler`: the windowed
  warm-started re-learn loop that the monitoring pipeline runs on;
* :mod:`repro.serve.cli` — ``python -m repro.serve manifest.json`` /
  the ``repro-serve`` console script.

Quickstart
----------
>>> from repro.serve import InMemoryCache, LearningJob, StreamingRunner
>>> jobs = [
...     LearningJob(dataset="er2", seed=s, dataset_options={"n_nodes": 20},
...                 config={"max_outer_iterations": 4})
...     for s in range(4)
... ]
>>> report = StreamingRunner(n_workers=2, cache=InMemoryCache()).run(jobs)
>>> report.n_ok
4
"""

from repro.serve.cache import (
    DiskCache,
    InMemoryCache,
    ResultCache,
    fingerprint_array,
    fingerprint_config,
    job_fingerprint,
)
from repro.serve.job import JobResult, LearningJob, execute_job, solver_names
from repro.serve.daemon import ServeDaemon
from repro.serve.pool import PoolJob, SoftDeadlineExceeded, WorkerPool
from repro.serve.scheduler import RelearnScheduler, WindowStats
from repro.serve.streaming import (
    BatchReport,
    StreamingRunner,
    StreamSession,
    StreamTelemetry,
)
from repro.serve.warm_start import (
    WarmStartState,
    align_weights,
    damp_weights,
    prepare_init,
)

__all__ = [
    "solver_names",
    "LearningJob",
    "JobResult",
    "execute_job",
    "BatchReport",
    "StreamingRunner",
    "StreamSession",
    "StreamTelemetry",
    "WorkerPool",
    "PoolJob",
    "SoftDeadlineExceeded",
    "ServeDaemon",
    "ResultCache",
    "InMemoryCache",
    "DiskCache",
    "fingerprint_array",
    "fingerprint_config",
    "job_fingerprint",
    "WarmStartState",
    "align_weights",
    "damp_weights",
    "prepare_init",
    "RelearnScheduler",
    "WindowStats",
]
