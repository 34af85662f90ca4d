"""repro — reproduction of "Efficient and Scalable Structure Learning for
Bayesian Networks: Algorithms and Applications" (LEAST, ICDE 2021).

The package is organised in layers:

* :mod:`repro.core` — the LEAST algorithm (dense and sparse), the spectral
  acyclicity bound it is built on, and the NOTEARS baseline, unified behind
  the :class:`~repro.core.SolverBackend` protocol and the
  :func:`~repro.core.make_solver` factory;
* :mod:`repro.graph`, :mod:`repro.sem`, :mod:`repro.metrics` — the substrates:
  random DAG generation, linear-SEM data simulation, and structure-recovery
  metrics;
* :mod:`repro.bn` — a linear-Gaussian Bayesian-network model built from a
  learned structure (fitting, sampling, inference);
* :mod:`repro.datasets` — benchmark dataset generators (Sachs, synthetic gene
  regulatory networks, synthetic MovieLens-style ratings);
* :mod:`repro.monitoring` — the ticket-booking monitoring / root-cause
  analysis application of Section VI-A;
* :mod:`repro.recommend` — the explainable-recommendation case study of
  Section VI-C;
* :mod:`repro.serve` — the batch serving layer (Section VI's ~100k-tasks/day
  deployment in miniature): declarative :class:`~repro.serve.LearningJob`
  specs, the streaming :class:`~repro.serve.StreamingRunner` with
  retry/timeout, content-addressed result caching, and warm-started windowed
  re-learning via :class:`~repro.serve.RelearnScheduler` (also exposed as the
  ``python -m repro.serve`` CLI);
* :mod:`repro.shard` — block-partitioned solving of one huge problem on top
  of the serving engine: correlation-skeleton planning
  (:class:`~repro.shard.ShardPlanner`), per-block streamed execution
  (:class:`~repro.shard.ShardExecutor`), and DAG-guaranteed stitching
  (:class:`~repro.shard.Stitcher`), also exposed as the
  ``repro-serve shard`` CLI subcommand;
* :mod:`repro.obs` — unified observability across all of the above: tracing
  spans (:class:`~repro.obs.Tracer`), a metrics registry
  (:class:`~repro.obs.MetricsRegistry`), and NDJSON event export, surfaced
  on the CLI as ``--trace-out`` / ``--metrics-out``.

Quickstart
----------
>>> from repro import LEAST, LEASTConfig, random_dag, simulate_linear_sem, evaluate_structure
>>> truth = random_dag("ER-2", 20, seed=0)
>>> data = simulate_linear_sem(truth, 400, noise_type="gaussian", seed=1)
>>> result = LEAST(LEASTConfig(l1_penalty=0.05)).fit(data, seed=2)
>>> metrics = evaluate_structure(result.weights, truth)

Batch serving
-------------
>>> from repro import LearningJob, StreamingRunner
>>> jobs = [LearningJob(dataset="er2", seed=s, dataset_options={"n_nodes": 20})
...         for s in range(4)]
>>> report = StreamingRunner(n_workers=2).run(jobs)
"""

from repro.core import (
    LEAST,
    LEASTConfig,
    LEASTResult,
    NOTEARS,
    NOTEARSConfig,
    SolveResult,
    SolverBackend,
    SparseLEAST,
    SparseLEASTConfig,
    SpectralAcyclicityBound,
    grid_search_threshold,
    make_solver,
    notears_constraint,
    solver_names,
    spectral_bound,
    threshold_to_dag,
    threshold_weights,
)
from repro.graph import is_dag, random_dag
from repro.obs import MetricsRegistry, Tracer
from repro.metrics import auc_roc, evaluate_structure, pearson_correlation
from repro.sem import simulate_linear_sem
from repro.serve import (
    BatchReport,
    DiskCache,
    InMemoryCache,
    JobResult,
    LearningJob,
    RelearnScheduler,
    StreamingRunner,
)
from repro.shard import ShardExecutor, ShardPlanner, Stitcher, solve_sharded

__version__ = "1.1.0"

__all__ = [
    "LEAST",
    "LEASTConfig",
    "LEASTResult",
    "SparseLEAST",
    "SparseLEASTConfig",
    "NOTEARS",
    "NOTEARSConfig",
    "SolverBackend",
    "SolveResult",
    "make_solver",
    "solver_names",
    "SpectralAcyclicityBound",
    "spectral_bound",
    "notears_constraint",
    "grid_search_threshold",
    "threshold_weights",
    "threshold_to_dag",
    "random_dag",
    "is_dag",
    "simulate_linear_sem",
    "evaluate_structure",
    "auc_roc",
    "pearson_correlation",
    "LearningJob",
    "JobResult",
    "StreamingRunner",
    "BatchReport",
    "InMemoryCache",
    "DiskCache",
    "RelearnScheduler",
    "ShardPlanner",
    "ShardExecutor",
    "Stitcher",
    "solve_sharded",
    "Tracer",
    "MetricsRegistry",
    "__version__",
]
