"""The unified solver layer: one protocol, one result type, one factory.

Every structure-learning algorithm in this repository — dense LEAST, the
CSR-end-to-end LEAST-SP, and the NOTEARS baseline — is exposed to the serving
stack through the same narrow interface:

* :class:`SolverBackend` — the protocol: ``fit(data, *, init_weights,
  deadline_hooks, rng) -> SolveResult``;
* :class:`SolveResult` — the uniform outcome record.  ``weights`` is either a
  dense ``d × d`` ndarray or a CSR matrix; consumers that genuinely need one
  representation call :meth:`SolveResult.dense_weights` /
  :meth:`SolveResult.sparse_weights` explicitly, so accidental densification
  of a 100k-node solve shows up as a grep-able call site;
* :func:`make_solver` — the factory that builds a configured backend from a
  registered name plus config overrides.

The registry is *live*: :func:`register_backend` /
:func:`unregister_backend` take effect immediately for :func:`solver_names`,
:func:`make_solver`, job validation, and CLI help.  A custom solver joins it
the same way the built-ins do: a :class:`SolverBackend` class plus its config
dataclass, wrapped in a :class:`BackendSpec`.

Why a protocol and not a base class: the three built-in solvers keep their
paper-shaped native APIs (``LEAST.fit(data, seed, init_weights)``,
``SparseLEAST.fit(data, seed, initial_support, init_weights)``) for direct
algorithmic use and the benchmark scripts; the backend adapters in this
module are the *serving* face, where jobs, shard blocks, and re-learn windows
must be solver-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np
import scipy.sparse as sp

from repro.core.least import LEAST, LEASTConfig
from repro.core.least_sparse import SparseLEAST, SparseLEASTConfig
from repro.core.notears import NOTEARS, NOTEARSConfig
from repro.exceptions import ValidationError
from repro.utils.logging import RunLog
from repro.utils.random import RandomState

__all__ = [
    "SolveResult",
    "SolverBackend",
    "BackendSpec",
    "LEASTBackend",
    "SparseLEASTBackend",
    "NOTEARSBackend",
    "make_solver",
    "solver_names",
    "get_spec",
    "register_backend",
    "unregister_backend",
    "registry_epoch",
    "registry_snapshot",
    "restore_registry",
    "config_overrides",
]

#: A deadline hook is a zero-argument callable invoked at every outer
#: iteration of a solve; raising from one aborts the solve cooperatively.
DeadlineHook = Callable[[], None]


@dataclass
class SolveResult:
    """Uniform outcome of one solver run, whatever the algorithm.

    Attributes
    ----------
    solver:
        Registered name of the backend that produced this result.
    weights:
        Learned weight matrix — a dense ``d × d`` ndarray for dense backends,
        a CSR matrix for sparse ones.  Code that must not densify should
        branch on :attr:`is_sparse` instead of converting blindly.
    constraint_value:
        Final value of the acyclicity measure used by the solver.
    converged:
        True when the constraint dropped below the configured tolerance.
    n_outer_iterations, n_inner_iterations:
        Iteration counts of the two loops (0 when the solver does not track
        inner steps).
    elapsed_seconds:
        Solver wall-clock time as reported by the backend (0 when the solver
        does not time itself).
    log:
        Per-outer-iteration trace (loss, constraint, ρ, η, ...).
    telemetry:
        Free-form JSON-able extras a backend wants to surface (e.g. the
        sparse support size over time).
    """

    solver: str
    weights: np.ndarray | sp.spmatrix
    constraint_value: float
    converged: bool
    n_outer_iterations: int
    n_inner_iterations: int = 0
    elapsed_seconds: float = 0.0
    log: RunLog = field(default_factory=RunLog)
    telemetry: dict[str, Any] = field(default_factory=dict)

    @property
    def is_sparse(self) -> bool:
        """True when :attr:`weights` is stored as a scipy sparse matrix."""
        return sp.issparse(self.weights)

    @property
    def n_edges(self) -> int:
        """Number of non-zero entries of :attr:`weights`."""
        if self.is_sparse:
            return int(self.weights.nnz)
        return int(np.count_nonzero(self.weights))

    def dense_weights(self) -> np.ndarray:
        """The weights as a dense ndarray (materializes ``d × d`` — explicit)."""
        if self.is_sparse:
            return np.asarray(self.weights.todense(), dtype=float)
        return np.asarray(self.weights, dtype=float)

    def sparse_weights(self) -> sp.csr_matrix:
        """The weights as a CSR matrix (dense zeros are dropped)."""
        if self.is_sparse:
            return self.weights.tocsr()
        return sp.csr_matrix(np.asarray(self.weights, dtype=float))


@runtime_checkable
class SolverBackend(Protocol):
    """What every solver must look like to the serving stack.

    A backend is a *configured* solver: construction takes the hyper-
    parameters, :meth:`fit` takes only per-call inputs.  Backends must be
    picklable (module-level classes, dataclass configs) so jobs can ship them
    to ``spawn``-started worker processes.
    """

    #: Registered name (matches the key used with :func:`make_solver`).
    name: str

    def fit(
        self,
        data: np.ndarray,
        *,
        init_weights: np.ndarray | sp.spmatrix | None = None,
        deadline_hooks: Sequence[DeadlineHook] | None = None,
        rng: RandomState = None,
    ) -> SolveResult:
        """Learn a weighted DAG from the ``n × d`` sample matrix ``data``.

        Parameters
        ----------
        init_weights:
            Optional warm-start matrix (dense or CSR; backends coerce to
            their native representation).  Backends that cannot warm-start
            raise :class:`~repro.exceptions.ValidationError`.
        deadline_hooks:
            Zero-argument callables invoked at every outer iteration; raising
            from one aborts the solve.  The serving layer uses these for
            cooperative deadline checks that complement hard SIGKILL
            preemption.
        rng:
            Seed or generator for the solver's randomness.
        """
        ...  # pragma: no cover - protocol signature only


def _compose_hooks(
    deadline_hooks: Sequence[DeadlineHook] | None,
) -> Callable[[int], None] | None:
    """Fold a hook sequence into the per-outer-iteration solver callback."""
    if not deadline_hooks:
        return None
    hooks = list(deadline_hooks)

    def _callback(_outer_iteration: int) -> None:
        for hook in hooks:
            hook()

    return _callback


class LEASTBackend:
    """Dense LEAST behind the :class:`SolverBackend` protocol."""

    name = "least"

    def __init__(self, config: LEASTConfig | None = None) -> None:
        self.config = config or LEASTConfig()

    def fit(
        self,
        data,
        *,
        init_weights: np.ndarray | sp.spmatrix | None = None,
        deadline_hooks: Sequence[DeadlineHook] | None = None,
        rng: RandomState = None,
    ) -> SolveResult:
        """Run dense LEAST; a CSR ``init_weights`` is densified (d × d is
        what this backend materializes anyway)."""
        if init_weights is not None and sp.issparse(init_weights):
            init_weights = np.asarray(init_weights.todense(), dtype=float)
        result = LEAST(self.config).fit(
            data,
            seed=rng,
            init_weights=init_weights,
            on_outer_iteration=_compose_hooks(deadline_hooks),
        )
        return SolveResult(
            solver=self.name,
            weights=result.weights,
            constraint_value=float(result.constraint_value),
            converged=bool(result.converged),
            n_outer_iterations=int(result.n_outer_iterations),
            n_inner_iterations=int(result.n_inner_iterations),
            log=result.log,
        )


class SparseLEASTBackend:
    """LEAST-SP (CSR end to end) behind the :class:`SolverBackend` protocol."""

    name = "least_sparse"

    def __init__(self, config: SparseLEASTConfig | None = None) -> None:
        self.config = config or SparseLEASTConfig()

    def fit(
        self,
        data,
        *,
        init_weights: np.ndarray | sp.spmatrix | None = None,
        deadline_hooks: Sequence[DeadlineHook] | None = None,
        rng: RandomState = None,
    ) -> SolveResult:
        """Run LEAST-SP; the result weights stay CSR (never densified)."""
        result = SparseLEAST(self.config).fit(
            data,
            seed=rng,
            init_weights=init_weights,
            on_outer_iteration=_compose_hooks(deadline_hooks),
        )
        return SolveResult(
            solver=self.name,
            weights=result.weights,
            constraint_value=float(result.constraint_value),
            converged=bool(result.converged),
            n_outer_iterations=int(result.n_outer_iterations),
            n_inner_iterations=int(result.n_inner_iterations),
            elapsed_seconds=float(result.elapsed_seconds),
            log=result.log,
            telemetry={"n_support_entries": int(result.weights.nnz)},
        )


class NOTEARSBackend:
    """The NOTEARS baseline behind the :class:`SolverBackend` protocol."""

    name = "notears"

    def __init__(self, config: NOTEARSConfig | None = None) -> None:
        self.config = config or NOTEARSConfig()

    def fit(
        self,
        data,
        *,
        init_weights: np.ndarray | sp.spmatrix | None = None,
        deadline_hooks: Sequence[DeadlineHook] | None = None,
        rng: RandomState = None,
    ) -> SolveResult:
        """Run NOTEARS (no warm starts — ``init_weights`` is rejected)."""
        if init_weights is not None:
            raise ValidationError("the notears solver does not support init_weights")
        result = NOTEARS(self.config).fit(
            data, seed=rng, on_outer_iteration=_compose_hooks(deadline_hooks)
        )
        return SolveResult(
            solver=self.name,
            weights=result.weights,
            constraint_value=float(result.constraint_value),
            converged=bool(result.converged),
            n_outer_iterations=int(result.n_outer_iterations),
            n_inner_iterations=int(result.n_inner_iterations),
            log=result.log,
        )


@dataclass(frozen=True)
class BackendSpec:
    """One registry entry: how to build a backend and what it promises.

    Attributes
    ----------
    name:
        Registered solver name.
    backend_class:
        The :class:`SolverBackend` implementation; constructed as
        ``backend_class(config)``.
    config_class:
        Dataclass of the backend's hyper-parameters.
    supports_init_weights:
        False for solvers that cannot warm-start (jobs carrying
        ``init_weights`` are rejected up front).
    sparse:
        True when the backend's result weights are CSR — consumers use this
        to pick warm-start representations and stitching modes without ever
        materializing the matrix.
    """

    name: str
    backend_class: type
    config_class: type
    supports_init_weights: bool = True
    sparse: bool = False

    def build(self, config: Any | None = None, **overrides: Any) -> SolverBackend:
        """Construct the configured backend (see :func:`make_solver`)."""
        if config is None:
            try:
                config = self.config_class(**overrides)
            except TypeError as exc:
                raise ValidationError(
                    f"invalid config for solver {self.name!r}: {exc}"
                ) from exc
        elif overrides:
            config = replace(config, **overrides)
        return self.backend_class(config)


#: The live registry.  Mutate through register/unregister, never directly.
_BACKENDS: dict[str, BackendSpec] = {
    "least": BackendSpec(
        name="least", backend_class=LEASTBackend, config_class=LEASTConfig
    ),
    "least_sparse": BackendSpec(
        name="least_sparse",
        backend_class=SparseLEASTBackend,
        config_class=SparseLEASTConfig,
        sparse=True,
    ),
    "notears": BackendSpec(
        name="notears",
        backend_class=NOTEARSBackend,
        config_class=NOTEARSConfig,
        supports_init_weights=False,
    ),
}


def solver_names() -> tuple[str, ...]:
    """The currently registered solver names, sorted — computed on access,
    so it reflects every :func:`register_backend` / :func:`unregister_backend`
    call made since."""
    return tuple(sorted(_BACKENDS))


def get_spec(name: str) -> BackendSpec:
    """Look up the :class:`BackendSpec` of a registered solver."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValidationError(
            f"unknown solver {name!r}; available: {sorted(_BACKENDS)}"
        ) from None


def make_solver(
    name: str, config: Any | None = None, **overrides: Any
) -> SolverBackend:
    """Build a configured :class:`SolverBackend` from a registered name.

    Parameters
    ----------
    name:
        One of :func:`solver_names`.
    config:
        Optional ready-made config instance; ``overrides`` are applied to it
        with :func:`dataclasses.replace`.  When omitted, the spec's config
        class is instantiated from ``overrides`` alone.
    **overrides:
        Keyword arguments of the solver's config dataclass.

    Examples
    --------
    >>> backend = make_solver("least", max_outer_iterations=3)
    >>> backend.name
    'least'
    """
    return get_spec(name).build(config, **overrides)


#: Monotonic counter bumped on every registry mutation (see
#: :func:`registry_epoch`).
_REGISTRY_EPOCH = 0


def register_backend(spec: BackendSpec, overwrite: bool = False) -> None:
    """Add a :class:`BackendSpec` to the live registry."""
    global _REGISTRY_EPOCH
    if spec.name in _BACKENDS and not overwrite:
        raise ValidationError(
            f"solver {spec.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _BACKENDS[spec.name] = spec
    _REGISTRY_EPOCH += 1


def unregister_backend(name: str) -> None:
    """Remove a registered backend (built-ins included — use with care)."""
    global _REGISTRY_EPOCH
    if _BACKENDS.pop(name, None) is not None:
        _REGISTRY_EPOCH += 1


def registry_epoch() -> int:
    """Version counter of the registry, bumped on every (un)registration.

    Long-lived pool workers snapshot the registry once at spawn; the parent
    compares the epoch it shipped against the current one and includes a
    fresh snapshot in a job dispatch only when the registry actually changed
    in between — keeping the "snapshot paid once per worker" economics
    without serving jobs against a stale registry.
    """
    return _REGISTRY_EPOCH


def registry_snapshot() -> dict[str, BackendSpec]:
    """Picklable copy of the registry, shipped to ``spawn`` workers."""
    return dict(_BACKENDS)


def restore_registry(snapshot: Mapping[str, BackendSpec]) -> None:
    """Replay a parent-process registry snapshot inside a worker."""
    _BACKENDS.update(snapshot)


def config_overrides(config: Any) -> dict:
    """JSON-able field dict of a config dataclass (for job manifests)."""
    return {f.name: getattr(config, f.name) for f in fields(config)}
