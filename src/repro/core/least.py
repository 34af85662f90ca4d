"""LEAST: the paper's structure-learning algorithm (dense implementation).

This module implements Fig. 3 of the paper: an augmented-Lagrangian outer loop
around an Adam-driven inner loop, where the acyclicity of the candidate weight
matrix is enforced through the spectral-radius upper bound
:class:`repro.core.acyclicity.SpectralAcyclicityBound` instead of the
``O(d^3)`` matrix-exponential constraint of NOTEARS.

The unconstrained objective minimized by the inner loop is

    ℓ(W) = L(W, X_B) + (ρ/2) δ(W)² + η δ(W)

with ``L`` the L1-regularized least-squares loss on a random batch ``X_B``,
``ρ`` the quadratic penalty and ``η`` the Lagrange multiplier.  After each
inner solve the multiplier is increased (``η ← η + ρ δ(W*)``) and ``ρ`` is
enlarged by a constant factor, driving ``δ(W)`` — and therefore the spectral
radius and every cycle weight — to zero.

Two efficiency devices from the paper are included: mini-batching of the data
term and hard thresholding of small entries after every update, which both
keeps ``W`` sparse and removes spurious cycle-inducing edges early.

This dense implementation corresponds to the paper's LEAST-TF variant (their
TensorFlow implementation); the CSR-based variant LEAST-SP lives in
:mod:`repro.core.least_sparse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.acyclicity import SpectralAcyclicityBound, check_solver_alpha
from repro.core.losses import LeastSquaresLoss, full_batch_moments, sample_batch
from repro.core.notears_constraint import notears_constraint
from repro.core.optimizers import AdamOptimizer
from repro.exceptions import ValidationError
from repro.utils.logging import RunLog
from repro.utils.random import RandomState, as_generator
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    ensure_2d,
)

__all__ = ["LEASTConfig", "LEASTResult", "LEAST", "glorot_sparse_init"]

#: Above this node count :func:`glorot_sparse_init` samples non-zero
#: coordinates directly instead of drawing a dense d × d uniform mask, so the
#: RNG/memory cost of initialization is O(nnz) rather than O(d²).  Below the
#: cutoff the historical dense draw is kept so existing seeded streams (and
#: every test pinned to them) are unchanged.
SPARSE_INIT_CUTOFF = 2048


def _sample_off_diagonal_indices(
    n_nodes: int, n_active: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_active`` distinct off-diagonal (row, col) pairs in O(nnz).

    Off-diagonal cells are enumerated as flat indices in ``[0, d(d-1))`` with
    ``row = flat // (d-1)`` and the column skipping the diagonal.  Distinct
    flat indices come from oversample-and-deduplicate rounds — at the sparse
    densities this path serves, one round almost surely suffices.
    """
    total = n_nodes * (n_nodes - 1)
    unique = np.empty(0, dtype=np.int64)
    while unique.size < n_active:
        draw = rng.integers(0, total, size=2 * (n_active - unique.size) + 16)
        unique = np.unique(np.concatenate([unique, draw]))
    if unique.size > n_active:
        unique = rng.choice(unique, size=n_active, replace=False)
    rows = unique // (n_nodes - 1)
    offsets = unique % (n_nodes - 1)
    cols = offsets + (offsets >= rows)
    return rows, cols


def glorot_sparse_init(
    n_nodes: int, density: float, rng: np.random.Generator
) -> np.ndarray:
    """Random sparse initialization of W with Glorot-uniform non-zero values.

    Each off-diagonal entry is non-zero with probability ``density``; non-zero
    values are drawn uniformly from ``[-limit, limit]`` with
    ``limit = sqrt(6 / (fan_in + fan_out)) = sqrt(3 / d)``, the Glorot/Xavier
    uniform rule used by the paper (Fig. 3, line 1 of the Inner procedure).

    For ``n_nodes < SPARSE_INIT_CUTOFF`` the non-zero mask is a dense
    ``d × d`` uniform draw (the historical behaviour, preserved so seeded
    streams do not shift); at and above the cutoff the number of non-zeros is
    drawn from the matching Binomial(d(d-1), density) and their coordinates
    are sampled directly, keeping RNG work and transient memory O(nnz).
    """
    limit = np.sqrt(3.0 / max(n_nodes, 1))
    weights = np.zeros((n_nodes, n_nodes))
    if n_nodes < SPARSE_INIT_CUTOFF:
        mask = rng.random((n_nodes, n_nodes)) < density
        np.fill_diagonal(mask, False)
        n_active = int(mask.sum())
        weights[mask] = rng.uniform(-limit, limit, size=n_active)
        return weights
    n_active = int(rng.binomial(n_nodes * (n_nodes - 1), density))
    if n_active > 0:
        rows, cols = _sample_off_diagonal_indices(n_nodes, n_active, rng)
        weights[rows, cols] = rng.uniform(-limit, limit, size=n_active)
    return weights


@dataclass(frozen=True)
class LEASTConfig:
    """Hyper-parameters of the LEAST solver (paper defaults).

    Attributes
    ----------
    k:
        Rounds of the spectral-bound iteration (paper: 5).
    alpha:
        Row/column balancing factor of the bound, in ``(0, 1]`` (paper:
        0.9).  ``0`` is rejected: the bound iteration diverges there.
    l1_penalty:
        λ of the L1 regularizer (paper: 0.5 on artificial data).
    learning_rate:
        Adam step size for the inner loop (paper: 0.01).
    init_density:
        Density ζ of the random sparse initialization (paper: 1e-4; small
        graphs automatically get a floor so W never starts empty).
    batch_size:
        Mini-batch size B; ``None`` uses the full sample matrix.
    threshold:
        In-loop hard-thresholding value θ applied after every update.
    tolerance:
        Target value ε for the acyclicity measure.
    max_outer_iterations, max_inner_iterations:
        Iteration caps T_o and T_i of the two loops.
    rho_start, rho_growth, rho_max:
        Initial quadratic penalty, its growth factor per outer iteration, and
        a cap preventing numerical overflow.
    eta_start:
        Initial value of the Lagrange multiplier η (updated as
        ``η ← η + ρ δ(W*)`` after every outer iteration).
    inner_convergence_tol:
        Relative change of ℓ(W) below which the inner loop stops early.
    warm_start:
        If True (default) the inner loop re-uses the previous W between outer
        iterations instead of re-drawing a random initialization; this follows
        standard augmented-Lagrangian practice and converges in far fewer
        inner steps with no accuracy loss.
    track_h:
        If True also record the exact NOTEARS measure ``h(W)`` per outer
        iteration (O(d^3); used for the correlation study of Fig. 4) and use it
        as the termination check exactly as the paper does for its benchmark
        comparison.
    keep_history:
        If True store a copy of ``W`` after every outer iteration in
        ``LEASTResult.history``.  This enables the paper's evaluation protocol
        of grid-searching the stopping tolerance ε (see
        :func:`repro.core.model_selection.grid_search_epsilon_tau`) without
        re-running the solver.

    A warm start is not configuration: it is the ``init_weights`` argument of
    :meth:`LEAST.fit` (or :attr:`repro.serve.job.LearningJob.init_weights`).
    """

    k: int = 5
    alpha: float = 0.9
    l1_penalty: float = 0.05
    learning_rate: float = 0.02
    init_density: float = 1e-4
    batch_size: int | None = None
    threshold: float = 0.0
    tolerance: float = 1e-4
    max_outer_iterations: int = 25
    max_inner_iterations: int = 600
    rho_start: float = 0.1
    rho_growth: float = 3.0
    rho_max: float = 1e16
    eta_start: float = 0.0
    inner_convergence_tol: float = 1e-6
    warm_start: bool = True
    track_h: bool = False
    keep_history: bool = False

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


@dataclass
class LEASTResult:
    """Outcome of a LEAST (or NOTEARS) run.

    Attributes
    ----------
    weights:
        Learned weight matrix (raw, before any output thresholding).
    constraint_value:
        Final value of the acyclicity measure used by the solver.
    converged:
        True when the constraint dropped below the configured tolerance.
    n_outer_iterations:
        Number of outer (augmented Lagrangian) iterations executed.
    n_inner_iterations:
        Total number of inner (Adam) steps across all outer iterations; this
        is the quantity that warm starts reduce (solvers that do not track it
        leave it at 0).
    log:
        Per-outer-iteration trace: loss, δ(W), optionally h(W), ρ, η.
    """

    weights: np.ndarray
    constraint_value: float
    converged: bool
    n_outer_iterations: int
    n_inner_iterations: int = 0
    log: RunLog = field(default_factory=RunLog)
    history: list[np.ndarray] = field(default_factory=list)


class LEAST:
    """Dense LEAST solver (the paper's LEAST-TF analog).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graph import random_dag
    >>> from repro.sem import simulate_linear_sem
    >>> truth = random_dag("ER-2", 20, seed=0)
    >>> data = simulate_linear_sem(truth, 200, seed=1)
    >>> model = LEAST(LEASTConfig(max_outer_iterations=5, max_inner_iterations=50))
    >>> result = model.fit(data, seed=2)
    >>> result.weights.shape
    (20, 20)
    """

    def __init__(self, config: LEASTConfig | None = None):
        self.config = config or LEASTConfig()
        self._bound = SpectralAcyclicityBound(k=self.config.k, alpha=self.config.alpha)
        self._loss = LeastSquaresLoss(l1_penalty=self.config.l1_penalty)

    # -- public API -----------------------------------------------------------

    def fit(
        self,
        data,
        seed: RandomState = None,
        init_weights: np.ndarray | None = None,
        on_outer_iteration=None,
    ) -> LEASTResult:
        """Learn a weighted DAG from the sample matrix ``data`` (n × d).

        Parameters
        ----------
        init_weights:
            Optional warm-start matrix replacing the random sparse
            initialization; it must be ``d × d``.
            Used by :mod:`repro.serve` to seed a re-learn with the previous
            window's solution.
        on_outer_iteration:
            Optional ``callback(outer_iteration)`` invoked after every outer
            iteration — the hook point :class:`repro.core.backend.SolverBackend`
            uses for cooperative deadline checks; raising from it aborts the
            solve.
        """
        data = ensure_2d(data, "data")
        rng = as_generator(seed)
        config = self.config
        d = data.shape[1]

        rho = config.rho_start
        eta = config.eta_start
        if init_weights is not None:
            weights = self._prepare_init(init_weights, d)
        else:
            weights = self._initialize(d, rng)
        log = RunLog()
        history: list[np.ndarray] = []
        # With B = n the batch never changes, so the loss can run on its moments.
        moments = full_batch_moments(data, config.batch_size)

        converged = False
        constraint = np.inf
        outer_iteration = 0
        total_inner = 0
        for outer_iteration in range(1, config.max_outer_iterations + 1):
            if not config.warm_start and (init_weights is None or outer_iteration > 1):
                weights = self._initialize(d, rng)
            weights, constraint, inner_loss, inner_steps = self._inner(
                data, weights, rho, eta, rng, moments
            )
            total_inner += inner_steps
            record: dict[str, float] = {
                "outer_iteration": outer_iteration,
                "loss": inner_loss,
                "delta": constraint,
                "rho": rho,
                "eta": eta,
                "n_edges": float(np.count_nonzero(weights)),
                "inner_iterations": float(inner_steps),
            }
            termination_value = constraint
            if config.track_h:
                h_value = notears_constraint(weights)
                record["h"] = h_value
                termination_value = h_value
            log.append(**record)
            if config.keep_history:
                history.append(weights.copy())
            if on_outer_iteration is not None:
                on_outer_iteration(outer_iteration)

            if termination_value <= config.tolerance:
                converged = True
                break
            eta = eta + rho * constraint
            rho = min(rho * config.rho_growth, config.rho_max)

        return LEASTResult(
            weights=weights,
            constraint_value=constraint,
            converged=converged,
            n_outer_iterations=outer_iteration,
            n_inner_iterations=total_inner,
            log=log,
            history=history,
        )

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _prepare_init(init_weights: np.ndarray, d: int) -> np.ndarray:
        """Validate and normalize an explicit warm-start matrix.

        The copy is C-ordered: reductions sum in memory order, so a fit must
        not depend on the layout the caller's matrix happens to have.
        """
        weights = np.array(init_weights, dtype=float, copy=True, order="C")
        if weights.shape != (d, d):
            raise ValidationError(
                f"init_weights must have shape ({d}, {d}), got {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValidationError("init_weights must be finite")
        np.fill_diagonal(weights, 0.0)
        return weights

    def _initialize(self, d: int, rng: np.random.Generator) -> np.ndarray:
        """Random sparse Glorot initialization with a floor on the edge count."""
        density = self.config.init_density
        # Guarantee a handful of non-zeros even for tiny graphs, otherwise the
        # gradient of the L1 term is the only signal in the first steps.
        minimum_density = min(1.0, 2.0 / max(d, 1))
        density = max(density, minimum_density)
        return glorot_sparse_init(d, density, rng)

    def _inner(
        self,
        data: np.ndarray,
        weights: np.ndarray,
        rho: float,
        eta: float,
        rng: np.random.Generator,
        moments: tuple[np.ndarray, np.ndarray] | None,
    ) -> tuple[np.ndarray, float, float, int]:
        """Inner procedure of Fig. 3: Adam on ℓ(W) with batching + thresholding.

        Each iteration calls ``sample_batch``, the bound's and the loss's
        ``value_and_gradient`` and ``optimizer.update`` exactly once: per-layer
        timers wrap these public calls, so the loop must not bypass them.
        ``moments`` is :func:`full_batch_moments` of ``data``; it is only
        ever set when every batch is ``data`` itself.
        """
        config = self.config
        optimizer = AdamOptimizer(learning_rate=config.learning_rate)
        previous_objective = np.inf
        objective = np.inf

        # Reused across iterations: |W| scratch and the threshold mask.  The
        # gradient combine below also mutates the per-iteration gradient
        # arrays in place instead of allocating `coef * cgrad` and the sum —
        # floating-point add is commutative, so results are bit-identical.
        abs_scratch = np.empty_like(weights)
        threshold_mask = np.empty(weights.shape, dtype=bool)

        steps = 0
        for steps in range(1, config.max_inner_iterations + 1):
            batch = sample_batch(data, config.batch_size, rng)
            constraint, constraint_gradient = self._bound.value_and_gradient(weights)
            loss_value, loss_gradient = self._loss.value_and_gradient(weights, batch, moments)

            objective = loss_value + 0.5 * rho * constraint**2 + eta * constraint
            constraint_gradient *= rho * constraint + eta
            constraint_gradient += loss_gradient
            gradient = constraint_gradient
            np.fill_diagonal(gradient, 0.0)

            weights = optimizer.update(weights, gradient)
            np.fill_diagonal(weights, 0.0)
            if config.threshold > 0:
                np.abs(weights, out=abs_scratch)
                np.less(abs_scratch, config.threshold, out=threshold_mask)
                weights[threshold_mask] = 0.0

            if np.isfinite(previous_objective):
                denominator = max(abs(previous_objective), 1e-12)
                if abs(previous_objective - objective) / denominator < config.inner_convergence_tol:
                    break
            previous_objective = objective

        constraint = self._bound.value(weights)
        return weights, constraint, float(objective), steps
