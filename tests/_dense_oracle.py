"""Reference dense LEAST bound, loss, Adam step and inner loop.

This is the least-squares loss, the Adam update and ``LEAST._inner`` as they
were before the library moved the dense loop onto reused buffers: Adam
rebinds new moment arrays each step, and the loop evaluates the bound once
before it starts.  It keeps its own copies of the numeric helpers, so a
change to the library's cannot hide on both sides.  The parity tests and
``benchmarks/bench_backend_speed.py`` compare the library against it; it is
not collected by pytest.

The bound has two forms.  The direct form (``direct_bound_*``) builds every
level ``S^(j)`` as a freshly allocated ``d × d`` matrix and runs the
backward pass on those matrices.  The mat-vec form (``bound_*``) never
forms ``S^(j) = Diag(ι_j) S Diag(β_j)``: it keeps the diagonals and reaches
``S`` only through matrix-vector products, as the library does.
:class:`OracleLEAST` uses the mat-vec form and
:class:`DirectBoundOracleLEAST` the direct one.

The loss has the library's two forms, each written out naively: the direct
form on the batch, and the Gram form on the column means ``μ`` and the
centred Gram matrix ``(X − μ)ᵀ(X − μ)/n``, which the loop uses when every
batch is the full sample matrix and ``d ≤ 1.5n``.
:class:`DirectOracleLEAST` always takes the direct form, as the library did
before it learned the Gram form.
"""

from __future__ import annotations

import numpy as np

from repro.core.least import LEAST
from repro.core.losses import sample_batch


def _safe_power(values: np.ndarray, exponent: float) -> np.ndarray:
    if exponent == 0.0:
        return np.ones_like(values)
    return np.power(values, exponent)


def _safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = numerator / denominator
    out[~np.isfinite(out)] = 0.0
    return out


def _xy_vectors(row_sums: np.ndarray, col_sums: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    ratio_cr = _safe_divide(col_sums, row_sums)
    ratio_rc = _safe_divide(row_sums, col_sums)
    x = alpha * _safe_power(ratio_cr, 1.0 - alpha)
    y = (1.0 - alpha) * _safe_power(ratio_rc, alpha)
    return x, y


def forward_dense(s0: np.ndarray, k: int, alpha: float) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Forward iteration with one freshly allocated matrix per round."""
    matrices = [s0]
    balances: list[np.ndarray] = []
    current = s0
    for j in range(k + 1):
        row_sums = current.sum(axis=1)
        col_sums = current.sum(axis=0)
        balance = _safe_power(row_sums, alpha) * _safe_power(col_sums, 1.0 - alpha)
        balances.append(balance)
        if j <= k - 1:
            inverse_balance = _safe_divide(np.ones_like(balance), balance)
            current = (inverse_balance[:, None] * current) * balance[None, :]
            matrices.append(current)
    bound = float(balances[-1].sum())
    return bound, matrices, balances


def backward_dense(
    matrices: list[np.ndarray],
    balances: list[np.ndarray],
    mask: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Reverse-mode pass of :func:`forward_dense`, masked to the support."""
    k = len(matrices) - 1
    x_k, y_k = _xy_vectors(matrices[k].sum(axis=1), matrices[k].sum(axis=0), alpha)
    gradient = (x_k[:, None] + y_k[None, :]) * mask

    for j in range(k, 0, -1):
        previous = matrices[j - 1]
        balance = balances[j - 1]
        x_prev, y_prev = _xy_vectors(previous.sum(axis=1), previous.sum(axis=0), alpha)

        inverse_balance = _safe_divide(np.ones_like(balance), balance)
        inverse_balance_sq = _safe_divide(np.ones_like(balance), balance**2)

        scaled = gradient * previous * balance[None, :]
        z = -scaled.sum(axis=1) * inverse_balance_sq
        z += (inverse_balance[:, None] * gradient * previous).sum(axis=0)

        gradient = (
            inverse_balance[:, None] * gradient * balance[None, :]
            + (x_prev * z)[:, None] * mask
            + (y_prev * z)[None, :] * mask
        )
        gradient = gradient * mask
    return gradient


def direct_bound_value(weights: np.ndarray, k: int, alpha: float) -> float:
    """``δ^(k)(W)`` from the level stack ``S^(0), ..., S^(k)``."""
    s0 = np.asarray(weights, dtype=float) ** 2
    return forward_dense(s0, k, alpha)[0]


def direct_bound_value_and_gradient(weights: np.ndarray, k: int, alpha: float) -> tuple[float, np.ndarray]:
    """``(δ^(k)(W), ∇_W δ^(k)(W))`` from the level stack the library used before."""
    dense = np.asarray(weights, dtype=float)
    s0 = dense**2
    bound, matrices, balances = forward_dense(s0, k, alpha)
    mask = (dense != 0).astype(float)
    grad_s = backward_dense(matrices, balances, mask, alpha)
    return bound, 2.0 * grad_s * dense


def forward_similarity(s: np.ndarray, k: int, alpha: float) -> tuple[float, list[dict]]:
    """Forward iteration on ``S^(j) = Diag(ι_j) S Diag(β_j)``: mat-vecs only.

    Each level records ``β_j``, ``ι_j``, ``S β_j``, ``Sᵀ ι_j`` and its sums;
    every level but the last also records the scale ``b^(j)`` is divided by
    (the geometric mean of its extreme positive entries), the scaled ``b^(j)``
    and its safe inverse.
    """
    d = s.shape[0]
    beta, iota = np.ones(d), np.ones(d)
    levels: list[dict] = []
    for j in range(k + 1):
        level = {"beta": beta, "iota": iota, "s_beta": s @ beta, "st_iota": iota @ s}
        level["row_sums"] = iota * level["s_beta"]
        level["col_sums"] = beta * level["st_iota"]
        balance = _safe_power(level["row_sums"], alpha) * _safe_power(level["col_sums"], 1.0 - alpha)
        levels.append(level)
        if j < k:
            positive = balance[balance > 0]
            scale = float(np.sqrt(positive.max()) * np.sqrt(positive.min())) if positive.size else 1.0
            level["scale"] = scale
            level["scaled"] = balance / scale
            level["inverse"] = _safe_divide(np.ones(d), level["scaled"])
            beta = beta * level["scaled"]
            iota = iota * level["inverse"]
    return float(balance.sum()), levels


def backward_similarity(s: np.ndarray, levels: list[dict], alpha: float) -> np.ndarray:
    """``∇_S δ`` of :func:`forward_similarity`: a sum of rank-one terms.

    ``r_j = ι_j ∘ (S β_j)`` contributes ``(r̄_j ∘ ι_j) β_jᵀ`` and
    ``c_j = β_j ∘ (Sᵀ ι_j)`` contributes ``ι_j (c̄_j ∘ β_j)ᵀ``; the scales are
    constants.
    """
    d = s.shape[0]
    k = len(levels) - 1
    left: list[np.ndarray] = []
    right: list[np.ndarray] = []
    beta_bar, iota_bar, balance_bar = np.zeros(d), np.zeros(d), np.ones(d)
    for j in range(k, -1, -1):
        level = levels[j]
        if j < k:
            balance_bar = (
                beta_bar * level["beta"] - iota_bar * levels[j + 1]["iota"] * level["inverse"]
            ) / level["scale"]
            beta_bar = beta_bar * level["scaled"]
            iota_bar = iota_bar * level["inverse"]
        x, y = _xy_vectors(level["row_sums"], level["col_sums"], alpha)
        row_bar, col_bar = x * balance_bar, y * balance_bar
        u, v = row_bar * level["iota"], col_bar * level["beta"]
        left += [u, level["iota"]]
        right += [level["beta"], v]
        if j > 0:
            beta_bar = beta_bar + (u @ s + col_bar * level["st_iota"])
            iota_bar = iota_bar + (row_bar * level["s_beta"] + s @ v)
    return np.array(left).T @ np.array(right)


def bound_value(weights: np.ndarray, k: int, alpha: float) -> float:
    """``δ^(k)(W)`` of a dense matrix, from mat-vecs with ``S = W ∘ W``."""
    dense = np.ascontiguousarray(weights, dtype=float)
    return forward_similarity(dense * dense, k, alpha)[0]


def bound_value_and_gradient(weights: np.ndarray, k: int, alpha: float) -> tuple[float, np.ndarray]:
    """``(δ^(k)(W), ∇_W δ^(k)(W))`` of a dense matrix, from mat-vecs with ``S``."""
    dense = np.ascontiguousarray(weights, dtype=float)
    s = dense * dense
    bound, levels = forward_similarity(s, k, alpha)
    return bound, 2.0 * backward_similarity(s, levels, alpha) * dense


def loss_value_and_gradient(
    weights: np.ndarray, data: np.ndarray, l1_penalty: float
) -> tuple[float, np.ndarray]:
    """``(L(W, X), ∇_W L(W, X))`` of the L1-regularized least-squares loss."""
    n_samples = max(data.shape[0], 1)
    residual = data @ weights - data
    smooth = float((residual**2).sum()) / n_samples
    value = smooth + l1_penalty * float(np.abs(weights).sum())
    gradient = (2.0 / n_samples) * data.T @ residual
    gradient = gradient + l1_penalty * np.sign(weights)
    np.fill_diagonal(gradient, 0.0)
    return value, gradient


def loss_moments(data: np.ndarray, batch_size) -> tuple[np.ndarray, np.ndarray] | None:
    """``(μ, (X − μ)ᵀ(X − μ)/n)`` when every batch is all of ``data`` and ``d ≤ 1.5n``."""
    n_samples, n_nodes = data.shape
    full_batch = batch_size is None or batch_size <= 0 or batch_size >= n_samples
    if not full_batch or 2 * n_nodes > 3 * n_samples:
        return None
    mean = data.mean(axis=0)
    centred = data - mean
    return mean, (centred.T @ centred) / n_samples


def gram_loss_value_and_gradient(
    weights: np.ndarray, moments: tuple[np.ndarray, np.ndarray], l1_penalty: float
) -> tuple[float, np.ndarray]:
    """The loss and its gradient from the moments instead of the samples."""
    mean, gram = moments
    shifted = weights - np.eye(weights.shape[0])
    product = gram @ shifted
    mean_residual = mean @ shifted
    smooth = float((shifted * product).sum()) + float(mean_residual @ mean_residual)
    value = smooth + l1_penalty * float(np.abs(weights).sum())
    gradient = 2.0 * (product + np.outer(mean, mean_residual))
    gradient = gradient + l1_penalty * np.sign(weights)
    np.fill_diagonal(gradient, 0.0)
    return value, gradient


class OracleAdam:
    """Adam with freshly allocated moments every step (default constants)."""

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        self._first_moment = None
        self._second_moment = None

    def update(self, parameters: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        if self._first_moment is None:
            self._first_moment = np.zeros_like(parameters)
            self._second_moment = np.zeros_like(parameters)
        self._step += 1
        self._first_moment = self.beta1 * self._first_moment + (1 - self.beta1) * gradient
        self._second_moment = self.beta2 * self._second_moment + (1 - self.beta2) * gradient**2
        corrected_first = self._first_moment / (1 - self.beta1**self._step)
        corrected_second = self._second_moment / (1 - self.beta2**self._step)
        return parameters - self.learning_rate * corrected_first / (
            np.sqrt(corrected_second) + self.epsilon
        )


class OracleLEAST(LEAST):
    """``LEAST`` whose inner loop, bound, loss and Adam are the reference versions.

    The ``moments`` that ``LEAST.fit`` passes in are ignored: the loop
    builds its own.  The bound is the mat-vec form, as in the library.
    """

    bound_value = staticmethod(bound_value)
    bound_value_and_gradient = staticmethod(bound_value_and_gradient)

    def _moments(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        return loss_moments(data, self.config.batch_size)

    def _inner(self, data, weights, rho, eta, rng, library_moments):
        config = self.config
        own_moments = self._moments(data)
        optimizer = OracleAdam(learning_rate=config.learning_rate)
        previous_objective = np.inf
        objective = np.inf
        constraint = self.bound_value(weights, config.k, config.alpha)

        abs_scratch = np.empty_like(weights)
        threshold_mask = np.empty(weights.shape, dtype=bool)

        steps = 0
        for steps in range(1, config.max_inner_iterations + 1):
            batch = sample_batch(data, config.batch_size, rng)
            constraint, constraint_gradient = self.bound_value_and_gradient(weights, config.k, config.alpha)
            if own_moments is None:
                loss_value, loss_gradient = loss_value_and_gradient(weights, batch, config.l1_penalty)
            else:
                loss_value, loss_gradient = gram_loss_value_and_gradient(
                    weights, own_moments, config.l1_penalty
                )

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

        constraint = self.bound_value(weights, config.k, config.alpha)
        return weights, constraint, float(objective), steps


class DirectOracleLEAST(OracleLEAST):
    """:class:`OracleLEAST` that computes the loss from the samples on every call."""

    def _moments(self, data: np.ndarray) -> None:
        return None


class DirectBoundOracleLEAST(OracleLEAST):
    """:class:`OracleLEAST` whose bound is the level-stack form."""

    bound_value = staticmethod(direct_bound_value)
    bound_value_and_gradient = staticmethod(direct_bound_value_and_gradient)
