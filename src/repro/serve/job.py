"""Declarative structure-learning jobs and their results.

A :class:`LearningJob` is everything needed to reproduce one solver run: where
the data comes from (a registered dataset name or an inline sample matrix),
which solver to use (any name in :func:`solver_names` — ``least``,
``least_sparse``, ``notears``, plus anything registered since), the solver
configuration, and the seeds.  Jobs are plain data — picklable for the process
pool, JSON-able for CLI manifests — which is what lets the
:class:`~repro.serve.streaming.StreamingRunner` fan them out, retry them, and
cache them by content.

Solvers are resolved through the unified backend registry of
:mod:`repro.core.backend`: :meth:`LearningJob.build_backend` returns a
configured :class:`~repro.core.backend.SolverBackend` and
:func:`execute_job` drives it, so every solver — dense or CSR-sparse —
presents the same ``fit`` face to the engine.

:class:`JobResult` is the uniform answer record across all solvers: weights
(dense or CSR) plus timing, iteration counts, convergence, and provenance
(fingerprint, attempts, cache hit).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.backend import get_spec, make_solver
from repro.core.backend import solver_names as solver_names
from repro.exceptions import ValidationError
from repro.utils.blas import single_blas_thread
from repro.utils.timer import Timer
from repro.utils.validation import ensure_2d

__all__ = [
    "solver_names",
    "LearningJob",
    "JobResult",
    "execute_job",
]


@dataclass
class LearningJob:
    """One schedulable structure-learning task.

    Attributes
    ----------
    solver:
        One of :func:`solver_names` (the live backend registry).
    dataset:
        Name of a dataset registered in :mod:`repro.datasets.registry`.
        Exactly one of ``dataset`` and ``data`` must be provided.
    data:
        Inline ``n × d`` sample matrix (alternative to ``dataset``).
    config:
        Keyword arguments for the solver's config class (plain JSON-able
        values so manifests and cache fingerprints stay stable).
    seed:
        Seed of the solver run.
    dataset_seed:
        Seed passed to the dataset builder; defaults to ``seed`` so a manifest
        entry is reproducible with a single number.
    dataset_options:
        Extra keyword arguments for the dataset builder (e.g. ``n_nodes``).
    init_weights:
        Optional warm-start matrix forwarded to the solver's ``fit``.
    job_id:
        Stable identifier used in reports; auto-assigned by the runner when
        omitted.
    """

    solver: str = "least"
    dataset: str | None = None
    data: np.ndarray | None = None
    config: dict[str, Any] = field(default_factory=dict)
    seed: int | None = 0
    dataset_seed: int | None = None
    dataset_options: dict[str, Any] = field(default_factory=dict)
    init_weights: np.ndarray | sp.spmatrix | None = None
    job_id: str | None = None

    def __post_init__(self) -> None:
        spec = get_spec(self.solver)  # raises for unknown names
        if (self.dataset is None) == (self.data is None):
            raise ValidationError(
                "exactly one of dataset (a registry name) and data (an inline "
                "sample matrix) must be provided"
            )
        if self.data is not None:
            self.data = ensure_2d(self.data, "data")
        if self.init_weights is not None and not spec.supports_init_weights:
            raise ValidationError(
                f"the {self.solver} solver does not support init_weights"
            )
        self.config = dict(self.config)
        self.dataset_options = dict(self.dataset_options)

    # -- execution building blocks --------------------------------------------

    def resolve_data(self) -> np.ndarray:
        """Materialize the sample matrix (inline data or registry lookup)."""
        if self.data is not None:
            return self.data
        from repro.datasets.registry import load_dataset

        seed = self.dataset_seed if self.dataset_seed is not None else self.seed
        bundle = load_dataset(self.dataset, seed=seed, **self.dataset_options)
        return ensure_2d(bundle["data"], f"dataset {self.dataset!r}")

    def build_config(self):
        """Instantiate the solver's config dataclass from :attr:`config`."""
        try:
            return get_spec(self.solver).config_class(**self.config)
        except TypeError as exc:
            raise ValidationError(
                f"invalid config for solver {self.solver!r}: {exc}"
            ) from exc

    def build_backend(self):
        """Build the configured :class:`~repro.core.backend.SolverBackend`."""
        return make_solver(self.solver, config=self.build_config())

    def describe(self) -> str:
        """Short human-readable label used in logs and reports."""
        source = self.dataset if self.dataset is not None else "inline"
        return f"{self.solver}:{source}:seed={self.seed}"

    # -- manifest (de)serialization --------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-able representation (inline data becomes nested lists)."""
        payload: dict[str, Any] = {"solver": self.solver, "seed": self.seed}
        if self.dataset is not None:
            payload["dataset"] = self.dataset
        if self.data is not None:
            payload["data"] = np.asarray(self.data).tolist()
        if self.config:
            payload["config"] = dict(self.config)
        if self.dataset_seed is not None:
            payload["dataset_seed"] = self.dataset_seed
        if self.dataset_options:
            payload["dataset_options"] = dict(self.dataset_options)
        if self.init_weights is not None:
            init = self.init_weights
            if sp.issparse(init):
                init = init.toarray()
            payload["init_weights"] = np.asarray(init).tolist()
        if self.job_id is not None:
            payload["job_id"] = self.job_id
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "LearningJob":
        """Build a job from a manifest entry (inverse of :meth:`to_dict`)."""
        if not isinstance(payload, dict):
            raise ValidationError(f"manifest entries must be objects, got {payload!r}")
        known = {
            "solver",
            "dataset",
            "data",
            "config",
            "seed",
            "dataset_seed",
            "dataset_options",
            "init_weights",
            "job_id",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(f"unknown manifest keys: {sorted(unknown)}")
        fields = dict(payload)
        for key in ("data", "init_weights"):
            if fields.get(key) is not None:
                fields[key] = np.asarray(fields[key], dtype=float)
        return cls(**fields)


@dataclass
class JobResult:
    """Uniform outcome record of one job across all solvers.

    Attributes
    ----------
    job_id, solver:
        Provenance: which manifest entry produced this result, on which
        solver.
    status:
        ``"ok"`` (solved), ``"failed"`` (dataset or solver error after all
        retries), or ``"preempted"`` (stopped at its soft or hard deadline).
    weights:
        Learned weight matrix (dense or CSR); ``None`` unless ``status`` is
        ``"ok"``.
    constraint_value, converged, n_outer_iterations, n_inner_iterations:
        Solver telemetry copied from the underlying result object.
    elapsed_seconds:
        Solver wall-clock time (0 for cache hits).
    attempts:
        Dataset-build plus solver attempts consumed (0 for cache hits).
    cache_hit:
        True when the result was served from a :class:`~repro.serve.cache.ResultCache`.
    fingerprint:
        Content-addressed cache key of the job (``None`` when caching is off).
    error:
        Human-readable failure/preemption reason, ``None`` on success.
    """

    job_id: str
    solver: str
    status: str  # "ok" | "failed" | "preempted"
    weights: np.ndarray | sp.spmatrix | None = None
    constraint_value: float = float("nan")
    converged: bool = False
    n_outer_iterations: int = 0
    n_inner_iterations: int = 0
    elapsed_seconds: float = 0.0
    attempts: int = 1
    cache_hit: bool = False
    fingerprint: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the job solved successfully (``status == "ok"``)."""
        return self.status == "ok"

    @property
    def n_edges(self) -> int:
        """Non-zero entries of the learned weights (0 when the job failed)."""
        if self.weights is None:
            return 0
        if sp.issparse(self.weights):
            return int(self.weights.nnz)
        return int(np.count_nonzero(self.weights))

    def as_cache_hit(self, job_id: str | None = None) -> "JobResult":
        """Copy marked as served from cache (lookup time, not solver time).

        ``job_id`` re-labels the copy for the job that triggered the lookup —
        a shared cache can serve a result produced under a different id.
        """
        return replace(
            self,
            job_id=job_id if job_id is not None else self.job_id,
            cache_hit=True,
            attempts=0,
            elapsed_seconds=0.0,
        )

    def summary(self) -> dict[str, Any]:
        """JSON-able digest without the weight matrix.

        ``constraint_value`` is mapped to ``None`` when NaN (failed/preempted
        jobs) so the digest serializes to *strict* JSON — NDJSON consumers of
        the CLI's ``--stream`` mode reject bare ``NaN`` tokens.
        """
        constraint = float(self.constraint_value)
        return {
            "job_id": self.job_id,
            "solver": self.solver,
            "status": self.status,
            "converged": self.converged,
            "constraint_value": None if np.isnan(constraint) else constraint,
            "n_edges": self.n_edges,
            "n_outer_iterations": self.n_outer_iterations,
            "n_inner_iterations": self.n_inner_iterations,
            "elapsed_seconds": self.elapsed_seconds,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "fingerprint": self.fingerprint,
            "error": self.error,
        }


def execute_job(
    job: LearningJob,
    data: np.ndarray | None = None,
    fingerprint: str | None = None,
    deadline_hooks: list | None = None,
) -> JobResult:
    """Run ``job`` once and return its :class:`JobResult`.

    ``data`` short-circuits :meth:`LearningJob.resolve_data` when the caller
    (the runner) already materialized the sample matrix.  Solver and dataset
    exceptions propagate to the caller, which owns retry/timeout policy.

    ``deadline_hooks`` are extra per-outer-iteration callbacks forwarded to
    the backend's ``fit`` — this is how the worker pool injects its
    soft-deadline check (:class:`repro.exceptions.SoftDeadlineExceeded`) so a
    deadline-bound solve can stop cooperatively at an iteration boundary.

    When a tracer is active (:func:`repro.obs.current_tracer`), the solve is
    wrapped in a ``solve`` span and the backend's per-outer-iteration hooks
    emit one ``outer_iter`` child span per iteration, so solver-internal time
    decomposes in the merged trace.

    Data resolution and the solve run on one BLAS thread
    (:func:`repro.utils.blas.single_blas_thread`), pooled or inline: the
    served weights then do not depend on the host's thread count, and pool
    workers do not oversubscribe the cores.  The caller's count is restored
    on return; the ``solve`` span records the pinned count as
    ``blas_threads`` (None when no OpenBLAS is loaded).
    """
    from repro.obs import OuterIterationSpans, current_tracer

    tracer = current_tracer()
    extra_hooks = list(deadline_hooks) if deadline_hooks else []
    timer = Timer()
    with single_blas_thread() as blas_threads:
        if data is None:
            data = job.resolve_data()
        backend = job.build_backend()
        if tracer is None:
            with timer:
                result = backend.fit(
                    data,
                    init_weights=job.init_weights,
                    deadline_hooks=extra_hooks or None,
                    rng=job.seed,
                )
        else:
            with tracer.span(
                "solve",
                job_id=job.job_id or job.describe(),
                solver=job.solver,
                blas_threads=blas_threads,
            ) as span:
                hook = OuterIterationSpans(tracer, parent=span)
                with timer:
                    result = backend.fit(
                        data,
                        init_weights=job.init_weights,
                        deadline_hooks=[hook, *extra_hooks],
                        rng=job.seed,
                    )
                span.set_attributes(
                    n_outer_iterations=int(result.n_outer_iterations),
                    converged=bool(result.converged),
                )
    return JobResult(
        job_id=job.job_id or job.describe(),
        solver=job.solver,
        status="ok",
        weights=result.weights,
        constraint_value=float(result.constraint_value),
        converged=bool(result.converged),
        n_outer_iterations=int(result.n_outer_iterations),
        n_inner_iterations=int(result.n_inner_iterations),
        elapsed_seconds=timer.elapsed,
        fingerprint=fingerprint,
    )
