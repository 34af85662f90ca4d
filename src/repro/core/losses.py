"""Data-fit loss for linear SEM structure learning.

The paper (following NOTEARS) uses the L1-regularized least-squares loss

    L(W, X) = (1/n) ||X - X W||_F^2 + λ ||W||_1

where ``X`` is the ``n × d`` sample matrix and column ``j`` of ``W`` holds the
regression coefficients predicting variable ``j`` from all others.  The
diagonal of ``W`` is always excluded (a variable may not predict itself).

Both dense gradients (full ``d × d`` matrices) and support-restricted sparse
gradients (only the non-zero positions of a CSR matrix) are provided; the
latter keeps LEAST-SP's memory footprint at ``O(s + B·d)``.  The sparse
gradient of entry ``(i, j)`` is a dot product of row ``i`` of ``Xᵀ`` with
row ``j`` of the residual's transpose.  Both transposes are ``d × B``, and
the rows are gathered about 256 KB of entries at a time, so no ``B × nnz``
array is formed.  What depends on the CSR pattern alone (the row of every
entry, the diagonal mask, the CSC transpose that ``X @ W`` multiplies by)
is a :class:`SparseSupport`, which LEAST-SP builds once per support.

The dense loss has two forms.  The *direct* form works on the samples:
``(2/n) Xᵀ(XW − X)`` costs two ``n × d × d`` products per call.  When every
batch is the whole sample matrix, the *Gram* form works on the sufficient
statistics of ``X`` instead, built once per fit by :func:`full_batch_moments`:
the column means ``μ`` and the centred Gram matrix ``C = (X − μ)ᵀ(X − μ)/n``,
so that ``XᵀX/n = C + μμᵀ``.  With ``M = W − I`` (column ``j`` of ``XM`` is
the residual of variable ``j``):

    ∇L = 2(CM + μ μᵀM) + λ sign(W),   L = tr(MᵀCM) + ||μᵀM||² + λ ||W||_1

for one ``d × d × d`` product per call, with no ``n``.  Timed per call it
pays off while ``d ≤ 1.5n``; the flop count alone would say ``d ≤ 2n``
(see ``docs/solvers.md``).  The two forms agree to rounding, not bit for
bit: the Gram form sums the same terms in a different order.  Centring
keeps the value's rounding relative to the spread of the data, not to its
offset: ``tr(MᵀΣM)`` on the raw ``Σ = XᵀX/n`` would lose about ``ε·||Σ||``
to cancellation once a fit's residuals are small next to the column means.
The gradient still rounds ``μᵀM`` once, so its gap to the direct form
grows with the means, to about 1e-10 of its largest entry at means 10⁴
times the spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DimensionMismatchError, ValidationError
from repro.utils.random import RandomState, as_generator
from repro.utils.validation import check_non_negative, ensure_2d

__all__ = ["LeastSquaresLoss", "SparseSupport", "full_batch_moments", "sample_batch"]

#: Bytes of one gathered chunk of batch rows in the sparse gradient: about
#: 128 support entries at B = 256, so a chunk's two gathers stay in cache.
_GATHER_BYTES = 256 * 1024


def _covers_all_rows(batch_size: int | None, n_samples: int) -> bool:
    return batch_size is None or batch_size <= 0 or batch_size >= n_samples


def sample_batch(data: np.ndarray, batch_size: int | None, rng: np.random.Generator) -> np.ndarray:
    """Return a random batch of rows from ``data`` (without replacement).

    ``batch_size`` of None, zero, or >= n returns the full matrix unchanged,
    matching the paper's artificial-data experiments where ``B = n``.
    """
    n_samples = data.shape[0]
    if _covers_all_rows(batch_size, n_samples):
        return data
    indices = rng.choice(n_samples, size=batch_size, replace=False)
    return data[indices]


def _gather_chunk(n_samples: int) -> int:
    """Support entries per gathered chunk of the sparse gradient at batch size ``n_samples``."""
    return max(1, _GATHER_BYTES // (8 * max(n_samples, 1)))


class SparseSupport:
    """What the sparse loss and bound derive from a CSR pattern alone.

    LEAST-SP's support only shrinks, so its inner loop builds this once and
    derives each smaller support from it (:meth:`shrink`) instead of
    rebuilding it on every call: the row of every stored entry, the mask of
    diagonal entries, and ``Wᵀ`` in CSC form on the pattern's own arrays
    (the operand of ``X @ W``).  The loss sets that matrix's ``data`` on
    every call, so one support serves one caller at a time.  It belongs to
    the exact ``indices`` array it was built from.
    """

    __slots__ = ("indices", "rows", "diagonal", "transposed")

    def __init__(self, weights: sp.csr_matrix):
        self.indices = weights.indices
        self.rows = np.repeat(np.arange(weights.shape[0]), np.diff(weights.indptr))
        self.diagonal = self.rows == self.indices
        self.transposed = weights.transpose()

    def shrink(self, weights: sp.csr_matrix, keep: np.ndarray) -> "SparseSupport":
        """Drop the entries where ``keep`` is False from ``weights``, in place.

        ``weights`` is the matrix of this support.  Its ``data``, ``indices``
        and ``indptr`` become the kept entries, which stay canonical, and the
        returned support is derived from this one: ``rows[keep]``, the
        diagonal mask and ``Wᵀ`` with its index arrays replaced, all without
        scipy's format checks.  This support is spent afterwards.
        """
        shrunk = SparseSupport.__new__(SparseSupport)
        shrunk.rows = self.rows[keep]
        shrunk.diagonal = self.diagonal[keep]
        shrunk.indices = weights.indices = self.indices[keep]
        weights.data = weights.data[keep]
        counts = np.bincount(shrunk.rows, minlength=weights.shape[0])
        weights.indptr = np.zeros_like(weights.indptr)
        np.cumsum(counts, out=weights.indptr[1:])
        transposed = shrunk.transposed = self.transposed
        transposed.data, transposed.indices, transposed.indptr = (
            weights.data,
            weights.indices,
            weights.indptr,
        )
        return shrunk


def full_batch_moments(
    data: np.ndarray, batch_size: int | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(μ, C)`` of ``data`` when the Gram form of the loss is the cheaper one, else None.

    ``μ`` is the column means and ``C = (X − μ)ᵀ(X − μ)/n``.  The Gram form
    is used when :func:`sample_batch` returns ``data`` itself on every call,
    so the moments never change, and when ``d ≤ 1.5n``: timed per call, its
    ``d³`` product is then faster than the direct form's two ``n·d²`` ones.
    """
    n_samples, n_nodes = data.shape
    if not _covers_all_rows(batch_size, n_samples) or 2 * n_nodes > 3 * n_samples:
        return None
    mean = data.mean(axis=0)
    centred = data - mean
    gram = centred.T @ centred
    gram /= n_samples
    return mean, gram


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

    def value_and_gradient(
        self,
        weights: np.ndarray,
        data: np.ndarray,
        moments: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[float, np.ndarray]:
        """Return ``(L(W, X), ∇_W L(W, X))`` for a dense ``W``.

        ``moments`` is :func:`full_batch_moments` of ``data``.  When given,
        the loss is computed from it alone and ``data`` is not read.
        """
        weights = np.asarray(weights, dtype=float)
        if moments is not None:
            return self._gram_value_and_gradient(weights, *moments)
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

    def _gram_value_and_gradient(
        self, weights: np.ndarray, mean: np.ndarray, gram: np.ndarray
    ) -> tuple[float, np.ndarray]:
        if gram.shape != weights.shape:
            raise DimensionMismatchError(
                f"gram is {gram.shape[0]} x {gram.shape[1]} but the weight matrix is "
                f"{weights.shape[0]} x {weights.shape[1]}"
            )
        shifted = weights.copy()
        shifted.flat[:: shifted.shape[0] + 1] -= 1.0  # M = W − I
        gradient = gram @ shifted
        mean_residual = mean @ shifted
        shifted *= gradient
        smooth = float(shifted.sum()) + float(mean_residual @ mean_residual)
        gradient += np.outer(mean, mean_residual)
        gradient *= 2.0
        penalty = np.sign(weights)
        penalty *= self.l1_penalty
        gradient += penalty
        np.fill_diagonal(gradient, 0.0)
        value = smooth + self.l1_penalty * float(np.abs(weights).sum())
        return value, gradient

    # -- sparse ---------------------------------------------------------------

    def sparse_value_and_gradient(
        self, weights: sp.csr_matrix, data: np.ndarray, support: SparseSupport | None = None
    ) -> tuple[float, np.ndarray]:
        """Loss and support-restricted gradient for a CSR weight matrix.

        The returned gradient is a 1-D array aligned with the stored entries
        of ``weights.tocsr()`` (row-major, duplicates and order kept, as
        ``tocoo()`` would list them); entry ``k`` is
        ``∂L/∂W[rows[k], cols[k]]``.  ``support`` is the
        :class:`SparseSupport` of ``weights``; without it, one is built for
        the call.
        """
        if not sp.issparse(weights):
            raise ValidationError("weights must be a scipy sparse matrix")
        csr = weights.tocsr()
        data = ensure_2d(data, "data")
        self._check_shapes(csr.shape[0], data)
        if support is None:
            support = SparseSupport(csr)
        elif support.indices is not csr.indices:
            raise ValidationError("support must be the SparseSupport of these CSR weights")
        n_samples = max(data.shape[0], 1)

        # XW as (WᵀXᵀ)ᵀ, the product scipy forms for `data @ csr`, kept in
        # its (d, B) layout so that a support entry's column is a row.
        transposed = support.transposed
        transposed.data = csr.data
        batch_t = np.ascontiguousarray(data.T)
        residual_t = transposed @ batch_t
        residual_t -= batch_t
        # The value sums the squares in the order of the (B, d) residual.
        squares = np.square(residual_t.T, out=np.empty(data.shape))
        smooth = float(squares.sum()) / n_samples
        del squares
        value = smooth + self.l1_penalty * float(np.abs(csr.data).sum())

        # ∂/∂W[i, j] of (1/n)||XW - X||^2 = (2/n) X[:, i] · residual[:, j],
        # gathered a cache-sized chunk of entries at a time.
        rows, cols = support.rows, csr.indices
        gradient = np.empty(len(rows))
        chunk = _gather_chunk(data.shape[0])
        data_rows = np.empty((min(chunk, len(rows)), data.shape[0]))
        residual_cols = np.empty_like(data_rows)
        for start in range(0, len(rows), chunk):
            stop = min(start + chunk, len(rows))
            size = stop - start
            # The indices are in range; "clip" only spares `take` buffering `out`.
            batch_t.take(rows[start:stop], axis=0, out=data_rows[:size], mode="clip")
            residual_t.take(cols[start:stop], axis=0, out=residual_cols[:size], mode="clip")
            np.einsum(
                "in,in->i", data_rows[:size], residual_cols[:size], out=gradient[start:stop]
            )
        gradient *= 2.0 / n_samples
        gradient += self.l1_penalty * np.sign(csr.data)
        gradient[support.diagonal] = 0.0
        return value, gradient

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _check_shapes(d: int, data: np.ndarray) -> None:
        if data.shape[1] != d:
            raise DimensionMismatchError(
                f"data has {data.shape[1]} columns but the weight matrix is {d} x {d}"
            )
