"""Data-fit loss for linear SEM structure learning.

The paper (following NOTEARS) uses the L1-regularized least-squares loss

    L(W, X) = (1/n) ||X - X W||_F^2 + λ ||W||_1

where ``X`` is the ``n × d`` sample matrix and column ``j`` of ``W`` holds the
regression coefficients predicting variable ``j`` from all others.  The
diagonal of ``W`` is always excluded (a variable may not predict itself).

Both dense gradients (full ``d × d`` matrices) and support-restricted sparse
gradients (only the non-zero positions of a CSR matrix) are provided; the
latter keeps LEAST-SP's memory footprint at ``O(s + B·d)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DimensionMismatchError, ValidationError
from repro.utils.random import RandomState, as_generator
from repro.utils.validation import check_non_negative, ensure_2d

__all__ = ["LeastSquaresLoss", "sample_batch"]


def sample_batch(data: np.ndarray, batch_size: int | None, rng: np.random.Generator) -> np.ndarray:
    """Return a random batch of rows from ``data`` (without replacement).

    ``batch_size`` of None, zero, or >= n returns the full matrix unchanged,
    matching the paper's artificial-data experiments where ``B = n``.
    """
    n_samples = data.shape[0]
    if batch_size is None or batch_size <= 0 or batch_size >= n_samples:
        return data
    indices = rng.choice(n_samples, size=batch_size, replace=False)
    return data[indices]


@dataclass(frozen=True)
class LeastSquaresLoss:
    """L1-regularized least-squares SEM loss with dense and sparse gradients.

    Parameters
    ----------
    l1_penalty:
        The λ coefficient of the ``||W||_1`` term (paper default 0.5 on the
        artificial benchmarks).  The L1 term is handled with a subgradient
        (sign function), which pairs well with Adam and with the hard
        thresholding step of LEAST.
    """

    l1_penalty: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.l1_penalty, "l1_penalty")

    # -- dense ---------------------------------------------------------------

    def value(self, weights: np.ndarray, data: np.ndarray) -> float:
        """Loss value for a dense weight matrix."""
        weights = np.asarray(weights, dtype=float)
        data = ensure_2d(data, "data")
        self._check_shapes(weights.shape[0], data)
        residual = data - data @ weights
        n_samples = max(data.shape[0], 1)
        smooth = float((residual**2).sum()) / n_samples
        return smooth + self.l1_penalty * float(np.abs(weights).sum())

    def gradient(self, weights: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Full gradient for a dense weight matrix (diagonal forced to zero)."""
        return self.value_and_gradient(weights, data)[1]

    def value_and_gradient(self, weights: np.ndarray, data: np.ndarray) -> tuple[float, np.ndarray]:
        """Return ``(L(W, X), ∇_W L(W, X))`` for a dense ``W``."""
        weights = np.asarray(weights, dtype=float)
        data = ensure_2d(data, "data")
        self._check_shapes(weights.shape[0], data)
        n_samples = max(data.shape[0], 1)
        residual = data @ weights
        residual -= data
        # Parsed as ((2/n) * X.T) @ R; scaling after the product rounds differently.
        gradient = (2.0 / n_samples) * data.T @ residual
        penalty = np.sign(weights)
        penalty *= self.l1_penalty
        gradient += penalty
        np.fill_diagonal(gradient, 0.0)
        residual *= residual
        smooth = float(residual.sum()) / n_samples
        value = smooth + self.l1_penalty * float(np.abs(weights).sum())
        return value, gradient

    # -- sparse ---------------------------------------------------------------

    def sparse_value_and_gradient(
        self, weights: sp.csr_matrix, data: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Loss and support-restricted gradient for a CSR weight matrix.

        The returned gradient is a 1-D array aligned with the COO ordering of
        ``weights`` (row-major, as produced by ``weights.tocoo()`` on a
        canonical CSR matrix); entry ``k`` is ``∂L/∂W[rows[k], cols[k]]``.
        """
        if not sp.issparse(weights):
            raise ValidationError("weights must be a scipy sparse matrix")
        csr = weights.tocsr()
        data = ensure_2d(data, "data")
        self._check_shapes(csr.shape[0], data)
        n_samples = max(data.shape[0], 1)

        predicted = data @ csr  # dense (n, d)
        residual = predicted - data
        smooth = float((residual**2).sum()) / n_samples
        value = smooth + self.l1_penalty * float(np.abs(csr.data).sum())

        coo = csr.tocoo()
        # ∂/∂W[i, j] of (1/n)||XW - X||^2 = (2/n) X[:, i] · residual[:, j]
        gradient = (2.0 / n_samples) * np.einsum(
            "ni,ni->i", data[:, coo.row], residual[:, coo.col]
        )
        gradient = gradient + self.l1_penalty * np.sign(coo.data)
        gradient[coo.row == coo.col] = 0.0
        return value, gradient

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _check_shapes(d: int, data: np.ndarray) -> None:
        if data.shape[1] != d:
            raise DimensionMismatchError(
                f"data has {data.shape[1]} columns but the weight matrix is {d} x {d}"
            )
