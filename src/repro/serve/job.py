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

**Wave jobs** amortize dispatch overhead across many small solves: a job
whose :attr:`LearningJob.wave` is set carries several column-disjoint member
problems stacked side by side in one data matrix.  The worker unpacks the
stack, solves each member independently (per-member seeds, warm starts, and
retry budgets), and returns one :class:`JobResult` whose :attr:`JobResult.parts`
holds one member result each — this is how the sharded solver ships a whole
*wave* of blocks through one pool dispatch instead of paying per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.core.backend import (
    BackendSpec,
    LegacyBackend,
    get_spec,
    make_solver,
    register_backend,
    unregister_backend,
)
from repro.core.backend import solver_names as solver_names
from repro.exceptions import SoftDeadlineExceeded, ValidationError
from repro.utils.timer import Timer
from repro.utils.validation import ensure_2d

__all__ = [
    "SOLVER_NAMES",
    "solver_names",
    "LearningJob",
    "JobResult",
    "execute_job",
    "register_solver",
    "unregister_solver",
]


def __getattr__(name: str):
    """Keep ``SOLVER_NAMES`` as a *live* module attribute.

    The old module constant was frozen at import time and went stale after
    :func:`register_solver`/:func:`unregister_solver`; computing it on access
    keeps existing callers correct.  New code should call
    :func:`solver_names`.
    """
    if name == "SOLVER_NAMES":
        return solver_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def register_solver(
    name: str,
    solver_class: type,
    config_class: type,
    overwrite: bool = False,
    sparse: bool = False,
) -> None:
    """Register a custom solver for use in jobs.

    ``solver_class(config)`` must expose ``fit(data, seed=..., ...)`` returning
    an object with at least ``weights``, ``constraint_value``, ``converged``
    and ``n_outer_iterations`` attributes (the :class:`LEASTResult` contract).
    The pair is wrapped in a :class:`~repro.core.backend.LegacyBackend` and
    entered into the live registry of :mod:`repro.core.backend` — code that
    implements the :class:`~repro.core.backend.SolverBackend` protocol
    directly should use :func:`repro.core.backend.register_backend` instead.
    ``sparse=True`` marks solvers whose result weights are CSR.
    """
    register_backend(
        BackendSpec(
            name=name,
            backend_class=LegacyBackend,
            config_class=config_class,
            solver_class=solver_class,
            sparse=sparse,
        ),
        overwrite=overwrite,
    )


def unregister_solver(name: str) -> None:
    """Remove a registered solver (built-ins included — use with care)."""
    unregister_backend(name)


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
        Optional warm-start matrix forwarded to the solver's ``fit``.  For a
        wave job this is the *stacked* (block-diagonal) matrix over all
        members; each member receives its own diagonal block.
    job_id:
        Stable identifier used in reports; auto-assigned by the runner when
        omitted.
    wave:
        Optional list of member descriptors turning this into a *wave* job:
        each entry is a dict with ``job_id`` (the member's report id),
        ``n_columns`` (how many columns of :attr:`data` belong to it — the
        members tile the data matrix left to right), and optionally ``seed``
        (defaults to the job-level seed).  Wave jobs require inline data.
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
    wave: list[dict[str, Any]] | None = None

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
        if self.wave is not None:
            if self.dataset is not None:
                raise ValidationError("wave jobs require inline data")
            if not self.wave:
                raise ValidationError("a wave job must carry at least one member")
            self.wave = [dict(entry) for entry in self.wave]
            total = 0
            for entry in self.wave:
                n_columns = entry.get("n_columns")
                if not isinstance(n_columns, int) or n_columns < 1:
                    raise ValidationError(
                        "every wave entry needs a positive integer n_columns, "
                        f"got {entry!r}"
                    )
                if not entry.get("job_id"):
                    raise ValidationError(
                        f"every wave entry needs a job_id, got {entry!r}"
                    )
                total += n_columns
            if self.data is not None and total != self.data.shape[1]:
                raise ValidationError(
                    f"wave entries cover {total} columns but the stacked data "
                    f"matrix has {self.data.shape[1]}"
                )

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
        if self.wave is not None:
            payload["wave"] = [dict(entry) for entry in self.wave]
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
            "wave",
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
        retries), or ``"preempted"`` (the worker was killed at its hard
        deadline; the legacy ``"timeout"`` status only appears in results
        unpickled from caches written before hard preemption existed).
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
    parts:
        For a wave job, one member :class:`JobResult` per wave entry (in
        wave order); the wave-level :attr:`weights` stays ``None`` — member
        sub-graphs live on the parts.  ``None`` for ordinary jobs, and for
        wave jobs whose worker died before delivering anything (hard
        preemption, crash): there the wave-level status applies to every
        member.
    """

    job_id: str
    solver: str
    status: str  # "ok" | "failed" | "preempted" (legacy: "timeout")
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
    parts: "list[JobResult] | None" = None

    @property
    def ok(self) -> bool:
        """True when the job solved successfully (``status == "ok"``)."""
        return self.status == "ok"

    @property
    def all_parts_ok(self) -> bool:
        """True when every wave member solved (vacuously True for non-waves)."""
        if self.parts is None:
            return True
        return all(part.status == "ok" for part in self.parts)

    @property
    def n_edges(self) -> int:
        """Non-zero entries of the learned weights (0 when the job failed).

        A wave result sums the edges of its member parts.
        """
        if self.parts is not None:
            return sum(part.n_edges for part in self.parts)
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
        digest = {
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
        if self.parts is not None:
            digest["n_parts"] = len(self.parts)
            digest["n_parts_ok"] = sum(1 for p in self.parts if p.status == "ok")
        return digest


def _wave_member_job(
    job: LearningJob,
    entry: dict[str, Any],
    segment: np.ndarray,
    init: np.ndarray | sp.spmatrix | None,
) -> LearningJob:
    """Build the standalone job of one wave member over its column segment."""
    seed = entry.get("seed", job.seed)
    return LearningJob(
        solver=job.solver,
        data=segment,
        config=dict(job.config),
        seed=seed,
        init_weights=init,
        job_id=str(entry["job_id"]),
    )


def _execute_wave(
    job: LearningJob,
    data: np.ndarray,
    fingerprint: str | None,
    deadline_hooks: list | None,
    max_retries: int,
) -> JobResult:
    """Solve every member of a wave job sequentially; never raises.

    The members tile ``data`` left to right; each is solved as its own
    standalone job (own seed, own diagonal block of the stacked
    ``init_weights``, own retry budget).  A member failure costs only that
    member.  A soft-deadline stop (:class:`~repro.exceptions.SoftDeadlineExceeded`
    raised by a hook mid-solve) marks the interrupted member and every
    not-yet-started member ``"preempted"`` while keeping finished parts.
    """
    assert job.wave is not None
    widths = [int(entry["n_columns"]) for entry in job.wave]
    if sum(widths) != data.shape[1]:
        raise ValidationError(
            f"wave entries cover {sum(widths)} columns but the stacked data "
            f"matrix has {data.shape[1]}"
        )
    parts: list[JobResult] = []
    offset = 0
    preempted: str | None = None
    for entry, width in zip(job.wave, widths):
        segment = data[:, offset : offset + width]
        init = None
        if job.init_weights is not None:
            block = job.init_weights[offset : offset + width, offset : offset + width]
            init = block.tocsr() if sp.issparse(block) else block
        offset += width
        member = _wave_member_job(job, entry, segment, init)
        member_id = member.job_id or member.describe()
        if preempted is not None:
            parts.append(
                JobResult(
                    job_id=member_id,
                    solver=job.solver,
                    status="preempted",
                    attempts=0,
                    error=f"wave stopped before this member: {preempted}",
                )
            )
            continue
        attempts = 0
        last_error = "member was never attempted"
        for _ in range(max_retries + 1):
            attempts += 1
            try:
                part = execute_job(
                    member, data=segment, deadline_hooks=deadline_hooks
                )
                part.attempts = attempts
                parts.append(part)
                break
            except SoftDeadlineExceeded as exc:
                preempted = str(exc)
                parts.append(
                    JobResult(
                        job_id=member_id,
                        solver=job.solver,
                        status="preempted",
                        attempts=attempts,
                        error=preempted,
                    )
                )
                break
            except Exception as exc:  # noqa: BLE001 - failures become status
                last_error = f"{type(exc).__name__}: {exc}"
        else:
            parts.append(
                JobResult(
                    job_id=member_id,
                    solver=job.solver,
                    status="failed",
                    attempts=attempts,
                    error=last_error,
                )
            )
    n_failed = sum(1 for part in parts if part.status == "failed")
    if preempted is not None:
        status, error = "preempted", preempted
    elif n_failed:
        status = "failed"
        first = next(part for part in parts if part.status == "failed")
        error = f"{n_failed}/{len(parts)} wave members failed; first: {first.error}"
    else:
        status, error = "ok", None
    return JobResult(
        job_id=job.job_id or job.describe(),
        solver=job.solver,
        status=status,
        converged=all(part.converged for part in parts) if status == "ok" else False,
        n_outer_iterations=sum(part.n_outer_iterations for part in parts),
        n_inner_iterations=sum(part.n_inner_iterations for part in parts),
        elapsed_seconds=sum(part.elapsed_seconds for part in parts),
        fingerprint=fingerprint,
        error=error,
        parts=parts,
    )


def execute_job(
    job: LearningJob,
    data: np.ndarray | None = None,
    fingerprint: str | None = None,
    deadline_hooks: list | None = None,
    max_retries: int = 0,
) -> JobResult:
    """Run ``job`` once and return its :class:`JobResult`.

    ``data`` short-circuits :meth:`LearningJob.resolve_data` when the caller
    (the runner) already materialized the sample matrix.  Solver and dataset
    exceptions propagate to the caller, which owns retry/timeout policy.

    ``deadline_hooks`` are extra per-outer-iteration callbacks forwarded to
    the backend's ``fit`` — this is how the worker pool injects its
    soft-deadline check (:class:`repro.exceptions.SoftDeadlineExceeded`) so a
    deadline-bound solve can stop cooperatively at an iteration boundary.

    Wave jobs (:attr:`LearningJob.wave` set) are unpacked here, worker-side:
    each member is solved independently over its own column segment and the
    returned result carries one entry per member in :attr:`JobResult.parts`.
    ``max_retries`` grants each *member* that many extra attempts (ordinary
    jobs ignore it — their retry loop lives in the caller), member failures
    become ``"failed"`` parts instead of exceptions, and a soft-deadline stop
    preempts only the interrupted and not-yet-started members.

    When a tracer is active (:func:`repro.obs.current_tracer`), the solve is
    wrapped in a ``solve`` span and the backend's per-outer-iteration hooks
    emit one ``outer_iter`` child span per iteration, so solver-internal time
    decomposes in the merged trace.
    """
    from repro.obs import OuterIterationSpans, current_tracer

    if data is None:
        data = job.resolve_data()
    if job.wave is not None:
        return _execute_wave(job, data, fingerprint, deadline_hooks, max_retries)
    backend = job.build_backend()
    tracer = current_tracer()
    extra_hooks = list(deadline_hooks) if deadline_hooks else []
    timer = Timer()
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
            "solve", job_id=job.job_id or job.describe(), solver=job.solver
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
