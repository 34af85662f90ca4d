"""LEAST-SP: the sparse-matrix implementation of LEAST (Section IV of the paper).

When the number of variables reaches tens of thousands, a dense ``d × d``
weight matrix no longer fits in memory (a 100k-node graph would need 80 GB).
LEAST-SP therefore keeps ``W`` in CSR format end to end:

* the candidate matrix is initialized as a random sparse matrix with density
  ``ζ`` (Glorot-uniform values);
* the spectral-bound constraint and its gradient are evaluated on the sparse
  support only (``O(k·s)`` work);
* the data-fit gradient is evaluated only at the support positions;
* Adam state (first/second moments) lives on the flat data vector of the CSR
  matrix and shrinks together with the support when thresholding removes
  entries, so no dense intermediate is ever materialized.

The total memory footprint is ``O(s + B·d)`` where ``s`` is the number of
non-zero weights and ``B`` the batch size, matching the complexity analysis in
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.acyclicity import SpectralAcyclicityBound, check_solver_alpha
from repro.core.losses import LeastSquaresLoss, SparseSupport, sample_batch
from repro.core.optimizers import SparseAdamOptimizer
from repro.exceptions import ValidationError
from repro.utils.logging import RunLog
from repro.utils.random import RandomState, as_generator
from repro.utils.timer import Timer
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    ensure_2d,
)

__all__ = [
    "SparseLEASTConfig",
    "SparseLEASTResult",
    "SparseLEAST",
    "random_sparse_glorot",
    "correlation_support",
]


def correlation_support(
    data: np.ndarray,
    max_parents: int = 10,
    rng: np.random.Generator | None = None,
    init_scale: float = 0.01,
) -> sp.csr_matrix:
    """Candidate-edge support built from marginal correlations.

    LEAST-SP keeps the support of ``W`` fixed (it can only shrink), so the
    initial support determines which edges are learnable at all.  A purely
    random support (the paper's ζ-density initialization) is fine for the
    scalability study but cannot recover specific true edges; this helper
    instead seeds the support with, for every node, its ``max_parents`` most
    correlated other variables (in both directions), which is a standard
    screening step for high-dimensional sparse regression.

    Returns a CSR matrix with small random values (±``init_scale``) on the
    selected support.  Memory is ``O(d²)`` transiently for the correlation
    matrix, so use it for up to a few thousand nodes; beyond that, fall back
    to the random initialization.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValidationError("data must be a 2-D sample matrix")
    if max_parents < 1:
        raise ValidationError(f"max_parents must be >= 1, got {max_parents}")
    rng = rng if rng is not None else np.random.default_rng()
    d = data.shape[1]
    centered = data - data.mean(axis=0, keepdims=True)
    std = centered.std(axis=0, keepdims=True)
    std[std == 0] = 1.0
    normalized = centered / std
    correlation = np.abs(normalized.T @ normalized) / max(data.shape[0], 1)
    np.fill_diagonal(correlation, 0.0)

    rows: list[int] = []
    cols: list[int] = []
    k = min(max_parents, d - 1)
    for node in range(d):
        candidates = np.argpartition(-correlation[:, node], k - 1)[:k]
        for parent in candidates:
            if parent != node:
                rows.append(int(parent))
                cols.append(node)
    values = rng.uniform(-init_scale, init_scale, size=len(rows))
    support = sp.csr_matrix((values, (rows, cols)), shape=(d, d))
    support.sum_duplicates()
    return support


def random_sparse_glorot(
    n_nodes: int,
    density: float,
    rng: np.random.Generator,
    min_edges: int = 8,
) -> sp.csr_matrix:
    """Random CSR matrix with ``density`` off-diagonal non-zeros (Glorot values).

    The number of non-zeros is ``max(min_edges, density · d²)``; positions are
    sampled uniformly without replacement among the off-diagonal cells.
    """
    check_probability(density, "density")
    if n_nodes < 2:
        return sp.csr_matrix((n_nodes, n_nodes))
    target = int(round(density * n_nodes * n_nodes))
    target = max(min(target, n_nodes * (n_nodes - 1)), min(min_edges, n_nodes * (n_nodes - 1)))
    limit = np.sqrt(3.0 / n_nodes)

    # Rejection-free sampling of off-diagonal flat indices.
    chosen: set[int] = set()
    while len(chosen) < target:
        needed = target - len(chosen)
        candidates = rng.integers(0, n_nodes * n_nodes, size=2 * needed + 8)
        for flat in candidates:
            row, col = divmod(int(flat), n_nodes)
            if row != col:
                chosen.add(int(flat))
                if len(chosen) >= target:
                    break
    flat_indices = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    rows, cols = np.divmod(flat_indices, n_nodes)
    values = rng.uniform(-limit, limit, size=len(flat_indices))
    matrix = sp.csr_matrix((values, (rows, cols)), shape=(n_nodes, n_nodes))
    matrix.sum_duplicates()
    return matrix


@dataclass(frozen=True)
class SparseLEASTConfig:
    """Hyper-parameters of LEAST-SP (paper defaults for the scalability runs).

    Attributes
    ----------
    k:
        Rounds of the spectral-bound iteration (paper: 5).
    alpha:
        Row/column balancing factor of the bound, in ``(0, 1]`` (paper:
        0.9).  ``0`` is rejected: the bound iteration diverges there.
    l1_penalty:
        λ of the L1 regularizer on the support values.
    learning_rate:
        Adam step size for the sparse inner loop.
    init_density:
        Density ζ of the random sparse support initialization (paper: 1e-4).
    batch_size:
        Mini-batch size B; ``None`` uses the full sample matrix.  Defaults to
        1000 because LEAST-SP targets sample matrices too large to batch
        fully.
    threshold:
        In-loop hard-thresholding value θ; entries falling below it are
        removed from the support (the support can only shrink).
    tolerance:
        Target value ε for the acyclicity measure.
    max_outer_iterations, max_inner_iterations:
        Iteration caps T_o and T_i of the two loops.
    rho_start, rho_growth, rho_max:
        Initial quadratic penalty, its growth factor per outer iteration, and
        a cap preventing numerical overflow.
    eta_start:
        Initial value of the Lagrange multiplier η.
    inner_convergence_tol:
        Relative change of ℓ(W) below which the inner loop stops early.
    min_init_edges:
        Floor on the number of non-zeros in the random support so tiny graphs
        never start empty.
    support:
        How the initial candidate support is built when no explicit
        ``initial_support``/``init_weights`` is given: ``"random"`` draws the
        paper's ζ-density random support, ``"correlation"`` screens each
        node's ``support_max_parents`` most correlated partners via
        :func:`correlation_support` (the choice the sharded serving path
        makes per block, where the transient ``d_block²`` correlation matrix
        is small).
    support_max_parents:
        Candidate parents per node for the ``"correlation"`` support.
    """

    k: int = 5
    alpha: float = 0.9
    l1_penalty: float = 0.05
    learning_rate: float = 0.02
    init_density: float = 1e-4
    batch_size: int | None = 1000
    threshold: float = 1e-3
    tolerance: float = 1e-4
    max_outer_iterations: int = 25
    max_inner_iterations: int = 400
    rho_start: float = 0.1
    rho_growth: float = 3.0
    rho_max: float = 1e16
    eta_start: float = 0.0
    inner_convergence_tol: float = 1e-6
    min_init_edges: int = 8
    support: str = "random"
    support_max_parents: int = 10

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        check_solver_alpha(self.alpha)
        check_non_negative(self.l1_penalty, "l1_penalty")
        check_positive(self.learning_rate, "learning_rate")
        check_probability(self.init_density, "init_density")
        check_non_negative(self.threshold, "threshold")
        check_positive(self.tolerance, "tolerance")
        check_positive(self.max_outer_iterations, "max_outer_iterations")
        check_positive(self.max_inner_iterations, "max_inner_iterations")
        check_positive(self.rho_start, "rho_start")
        check_positive(self.rho_growth, "rho_growth")
        check_positive(self.rho_max, "rho_max")
        check_non_negative(self.eta_start, "eta_start")
        if self.support not in ("random", "correlation"):
            raise ValidationError(
                f"support must be 'random' or 'correlation', got {self.support!r}"
            )
        if self.support_max_parents < 1:
            raise ValidationError(
                f"support_max_parents must be >= 1, got {self.support_max_parents}"
            )


@dataclass
class SparseLEASTResult:
    """Outcome of a LEAST-SP run: CSR weights plus the per-iteration trace."""

    weights: sp.csr_matrix
    constraint_value: float
    converged: bool
    n_outer_iterations: int
    elapsed_seconds: float
    n_inner_iterations: int = 0
    log: RunLog = field(default_factory=RunLog)


class SparseLEAST:
    """Sparse-matrix LEAST solver (the paper's LEAST-SP analog)."""

    def __init__(self, config: SparseLEASTConfig | None = None):
        self.config = config or SparseLEASTConfig()
        self._bound = SpectralAcyclicityBound(k=self.config.k, alpha=self.config.alpha)
        self._loss = LeastSquaresLoss(l1_penalty=self.config.l1_penalty)

    def fit(
        self,
        data,
        seed: RandomState = None,
        initial_support: sp.spmatrix | None = None,
        init_weights: np.ndarray | sp.spmatrix | None = None,
        on_outer_iteration=None,
    ) -> SparseLEASTResult:
        """Learn a sparse weighted DAG from the ``n × d`` sample matrix.

        Parameters
        ----------
        initial_support:
            Optional sparse matrix whose non-zero pattern (and values) seed the
            candidate edge set — e.g. the output of
            :func:`correlation_support`.  When omitted the support comes from
            ``config.support``: a random support of density ``init_density``
            (the paper's LEAST-SP initialization) or a per-node
            correlation screen.
        init_weights:
            Warm-start matrix (dense or sparse) from a previous solve, used by
            :mod:`repro.serve` for incremental re-learning.  Dense input is
            sparsified (zeros and the diagonal are dropped).  Mutually
            exclusive with ``initial_support``.
        on_outer_iteration:
            Optional ``callback(outer_iteration)`` invoked after every outer
            iteration (the :class:`repro.core.backend.SolverBackend` deadline
            hook point); raising from it aborts the solve.
        """
        data = ensure_2d(data, "data")
        rng = as_generator(seed)
        config = self.config
        d = data.shape[1]

        if initial_support is not None and init_weights is not None:
            raise ValidationError(
                "pass either initial_support or init_weights, not both"
            )
        if init_weights is not None:
            initial_support = self._coerce_init(init_weights)
        rho = config.rho_start
        eta = config.eta_start
        if initial_support is not None:
            weights = initial_support.tocsr().astype(float)
            if weights.shape != (d, d):
                raise ValidationError(
                    f"initial_support must have shape ({d}, {d}), got {weights.shape}"
                )
        elif config.support == "correlation":
            weights = correlation_support(
                data, max_parents=config.support_max_parents, rng=rng
            )
        else:
            weights = random_sparse_glorot(d, config.init_density, rng, config.min_init_edges)
        log = RunLog()
        timer = Timer()
        timer.start()

        converged = False
        constraint = np.inf
        outer_iteration = 0
        total_inner = 0
        for outer_iteration in range(1, config.max_outer_iterations + 1):
            weights, constraint, objective, inner_steps = self._inner(
                data, weights, rho, eta, rng
            )
            total_inner += inner_steps
            log.append(
                outer_iteration=outer_iteration,
                loss=objective,
                delta=constraint,
                rho=rho,
                eta=eta,
                n_edges=float(weights.nnz),
                inner_iterations=float(inner_steps),
                wall_clock=self._current_elapsed(timer),
            )
            if on_outer_iteration is not None:
                on_outer_iteration(outer_iteration)
            if constraint <= config.tolerance:
                converged = True
                break
            eta = eta + rho * constraint
            rho = min(rho * config.rho_growth, config.rho_max)

        elapsed = timer.stop()
        return SparseLEASTResult(
            weights=weights,
            constraint_value=constraint,
            converged=converged,
            n_outer_iterations=outer_iteration,
            elapsed_seconds=elapsed,
            n_inner_iterations=total_inner,
            log=log,
        )

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _coerce_init(init_weights: np.ndarray | sp.spmatrix) -> sp.csr_matrix:
        """Turn a dense or sparse warm-start matrix into a clean CSR support."""
        if sp.issparse(init_weights):
            matrix = init_weights.tocsr().astype(float).copy()
        else:
            dense = np.asarray(init_weights, dtype=float)
            if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
                raise ValidationError(
                    f"init_weights must be a square matrix, got shape {dense.shape}"
                )
            matrix = sp.csr_matrix(dense)
        matrix.setdiag(0.0)
        matrix.eliminate_zeros()
        return matrix

    @staticmethod
    def _current_elapsed(timer: Timer) -> float:
        """Wall-clock seconds since the run started (timer still running)."""
        return timer.peek()

    def _inner(
        self,
        data: np.ndarray,
        weights: sp.csr_matrix,
        rho: float,
        eta: float,
        rng: np.random.Generator,
    ) -> tuple[sp.csr_matrix, float, float, int]:
        """Sparse inner loop: Adam on the support values with hard thresholding.

        The support is one canonical ``(indices, indptr)`` pair that can only
        shrink.  Its :class:`SparseSupport` is built once and derived again on
        each shrink, which also masks the CSR matrix's arrays in place.  The
        bound's gradient shares it, so the bound, loss gradient and Adam
        state are all flat arrays aligned with ``weights.data``.
        """
        config = self.config
        optimizer = SparseAdamOptimizer(learning_rate=config.learning_rate)
        previous_objective = np.inf
        objective = np.inf

        weights = weights.tocsr().copy()
        weights.sum_duplicates()
        weights.eliminate_zeros()
        support = SparseSupport(weights)

        steps = 0
        while steps < config.max_inner_iterations and weights.nnz:
            steps += 1
            batch = sample_batch(data, config.batch_size, rng)

            constraint, constraint_gradient = self._bound.value_and_gradient(weights, support)
            loss_value, gradient = self._loss.sparse_value_and_gradient(weights, batch, support)
            gradient += (rho * constraint + eta) * constraint_gradient

            objective = loss_value + 0.5 * rho * constraint**2 + eta * constraint

            new_data = optimizer.update(weights.data, gradient)

            keep = ~support.diagonal
            if config.threshold > 0:
                keep &= np.abs(new_data) >= config.threshold
            weights.data = new_data
            if not keep.all():
                optimizer.shrink_support(keep)
                support = support.shrink(weights, keep)

            if np.isfinite(previous_objective):
                denominator = max(abs(previous_objective), 1e-12)
                if abs(previous_objective - objective) / denominator < config.inner_convergence_tol:
                    break
            previous_objective = objective

        constraint = self._bound.value(weights) if weights.nnz else 0.0
        return weights, constraint, float(objective if np.isfinite(objective) else 0.0), steps
