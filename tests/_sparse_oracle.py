"""Reference LEAST-SP bound and inner loop built on per-round CSR matrices.

This is the sparse spectral bound and ``SparseLEAST._inner`` as they were
before the library moved to flat-support evaluation: every round of the
forward pass builds a new CSR matrix, the backward pass fancy-indexes each
level at the support, and the loop reads the bound's gradient back through
``[row, col]`` indexing and rebuilds its weights from COO triplets.  It keeps
its own copies of the old numeric helpers, of the sparse least-squares
loss (``tocoo`` plus ``einsum`` over two ``B × nnz`` gathers) and of the
out-of-place sparse Adam step, so a change to the library's cannot hide on
both sides.  The parity tests compare the library against it; it is not
collected by pytest.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.least_sparse import SparseLEAST
from repro.core.losses import sample_batch


def _safe_power(values: np.ndarray, exponent: float) -> np.ndarray:
    if exponent == 0.0:
        return np.ones_like(values)
    return np.power(values, exponent)


def _safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    out = np.zeros_like(numerator, dtype=float)
    mask = denominator != 0
    with np.errstate(over="ignore", invalid="ignore"):
        out[mask] = numerator[mask] / denominator[mask]
    out[~np.isfinite(out)] = 0.0
    return out


def _xy_vectors(matrix: sp.csr_matrix, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    col_sums = np.asarray(matrix.sum(axis=0)).ravel()
    ratio_cr = _safe_divide(col_sums, row_sums)
    ratio_rc = _safe_divide(row_sums, col_sums)
    x = alpha * _safe_power(ratio_cr, 1.0 - alpha)
    y = (1.0 - alpha) * _safe_power(ratio_rc, alpha)
    return x, y


def _scale_rows_cols(matrix: sp.csr_matrix, row_scale: np.ndarray, col_scale: np.ndarray) -> sp.csr_matrix:
    result = matrix.tocoo(copy=True)
    result.data = result.data * row_scale[result.row] * col_scale[result.col]
    return result.tocsr()


def forward_sparse(
    s0: sp.csr_matrix, k: int, alpha: float
) -> tuple[float, list[sp.csr_matrix], list[np.ndarray]]:
    """Forward iteration with one CSR matrix per round."""
    matrices = [s0]
    balances: list[np.ndarray] = []
    current = s0
    for j in range(k + 1):
        row_sums = np.asarray(current.sum(axis=1)).ravel()
        col_sums = np.asarray(current.sum(axis=0)).ravel()
        balance = _safe_power(row_sums, alpha) * _safe_power(col_sums, 1.0 - alpha)
        balances.append(balance)
        if j <= k - 1:
            inverse_balance = _safe_divide(np.ones_like(balance), balance)
            current = _scale_rows_cols(current, inverse_balance, balance)
            matrices.append(current)
    return float(balances[-1].sum()), matrices, balances


def backward_sparse(
    matrices: list[sp.csr_matrix],
    balances: list[np.ndarray],
    mask: sp.csr_matrix,
    alpha: float,
) -> sp.csr_matrix:
    """Reverse-mode pass that fancy-indexes each level at the mask."""
    k = len(matrices) - 1
    mask_coo = mask.tocoo()
    rows, cols = mask_coo.row, mask_coo.col

    x_k, y_k = _xy_vectors(matrices[k], alpha)
    gradient_data = x_k[rows] + y_k[cols]

    for j in range(k, 0, -1):
        previous = matrices[j - 1]
        balance = balances[j - 1]
        x_prev, y_prev = _xy_vectors(previous, alpha)

        inverse_balance = _safe_divide(np.ones_like(balance), balance)
        inverse_balance_sq = _safe_divide(np.ones_like(balance), balance**2)

        previous_data = np.asarray(previous[rows, cols]).ravel()
        grad_times_prev = gradient_data * previous_data

        d = mask.shape[0]
        z = np.zeros(d)
        np.add.at(z, rows, -grad_times_prev * balance[cols])
        z *= inverse_balance_sq
        np.add.at(z, cols, grad_times_prev * inverse_balance[rows])

        gradient_data = (
            gradient_data * inverse_balance[rows] * balance[cols]
            + x_prev[rows] * z[rows]
            + y_prev[cols] * z[cols]
        )

    return sp.csr_matrix((gradient_data, (rows, cols)), shape=mask.shape)


def bound_value(weights: sp.spmatrix, k: int, alpha: float) -> float:
    """``δ^(k)(W)`` of a sparse matrix."""
    s0 = weights.multiply(weights).tocsr()
    return forward_sparse(s0, k, alpha)[0]


def bound_value_and_gradient(weights: sp.spmatrix, k: int, alpha: float):
    """``(δ^(k)(W), ∇_W δ^(k)(W))`` of a sparse matrix."""
    weights = weights.tocsr().copy()
    weights.eliminate_zeros()
    s0 = weights.multiply(weights).tocsr()
    bound, matrices, balances = forward_sparse(s0, k, alpha)
    mask = weights.copy()
    mask.data = np.ones_like(mask.data)
    grad_s = backward_sparse(matrices, balances, mask.tocsr(), alpha)
    gradient = grad_s.multiply(weights) * 2.0
    return bound, gradient.tocsr()


def loss_value_and_gradient(weights: sp.spmatrix, data: np.ndarray, l1_penalty: float):
    """``LeastSquaresLoss.sparse_value_and_gradient``: gradient in COO order."""
    csr = weights.tocsr()
    data = np.asarray(data, dtype=float)
    n_samples = max(data.shape[0], 1)

    predicted = data @ csr
    residual = predicted - data
    smooth = float((residual**2).sum()) / n_samples
    value = smooth + l1_penalty * float(np.abs(csr.data).sum())

    coo = csr.tocoo()
    gradient = (2.0 / n_samples) * np.einsum(
        "ni,ni->i", data[:, coo.row], residual[:, coo.col]
    )
    gradient = gradient + l1_penalty * np.sign(coo.data)
    gradient[coo.row == coo.col] = 0.0
    return value, gradient


class OracleSparseAdam:
    """``SparseAdamOptimizer`` as it was: the moments are rebuilt on every step."""

    def __init__(self, learning_rate: float, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate, self.beta1, self.beta2, self.epsilon = learning_rate, beta1, beta2, epsilon
        self._step = 0
        self._first_moment = self._second_moment = None

    def update(self, values: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        if self._first_moment is None or self._first_moment.shape != values.shape:
            self._first_moment = np.zeros_like(values)
            self._second_moment = np.zeros_like(values)
        self._step += 1
        self._first_moment = self.beta1 * self._first_moment + (1 - self.beta1) * gradient
        self._second_moment = self.beta2 * self._second_moment + (1 - self.beta2) * gradient**2
        corrected_first = self._first_moment / (1 - self.beta1**self._step)
        corrected_second = self._second_moment / (1 - self.beta2**self._step)
        return values - self.learning_rate * corrected_first / (
            np.sqrt(corrected_second) + self.epsilon
        )

    def shrink_support(self, keep_mask: np.ndarray) -> None:
        if self._first_moment is not None:
            self._first_moment = self._first_moment[keep_mask]
            self._second_moment = self._second_moment[keep_mask]


class OracleSparseLEAST(SparseLEAST):
    """``SparseLEAST`` whose inner loop, bound and loss are the reference versions."""

    def _inner(self, data, weights, rho, eta, rng):
        config = self.config
        optimizer = OracleSparseAdam(learning_rate=config.learning_rate)
        previous_objective = np.inf
        objective = np.inf

        weights = weights.tocsr().copy()
        weights.sum_duplicates()
        weights.eliminate_zeros()

        steps = 0
        for steps in range(1, config.max_inner_iterations + 1):
            if weights.nnz == 0:
                break
            batch = sample_batch(data, config.batch_size, rng)

            constraint, constraint_gradient = bound_value_and_gradient(
                weights, config.k, config.alpha
            )
            loss_value, loss_gradient_data = loss_value_and_gradient(
                weights, batch, config.l1_penalty
            )

            coo = weights.tocoo()
            constraint_gradient_data = np.asarray(
                constraint_gradient.tocsr()[coo.row, coo.col]
            ).ravel()
            gradient_data = (
                loss_gradient_data + (rho * constraint + eta) * constraint_gradient_data
            )

            objective = loss_value + 0.5 * rho * constraint**2 + eta * constraint

            new_data = optimizer.update(coo.data, gradient_data)

            if config.threshold > 0:
                keep = np.abs(new_data) >= config.threshold
            else:
                keep = np.ones_like(new_data, dtype=bool)
            keep &= coo.row != coo.col
            if not np.all(keep):
                optimizer.shrink_support(keep)
            weights = sp.csr_matrix(
                (new_data[keep], (coo.row[keep], coo.col[keep])), shape=weights.shape
            )

            if np.isfinite(previous_objective):
                denominator = max(abs(previous_objective), 1e-12)
                if abs(previous_objective - objective) / denominator < config.inner_convergence_tol:
                    break
            previous_objective = objective

        constraint = bound_value(weights, config.k, config.alpha) if weights.nnz else 0.0
        return weights, constraint, float(objective if np.isfinite(objective) else 0.0), steps
