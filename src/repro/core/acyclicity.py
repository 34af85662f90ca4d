"""Spectral-radius acyclicity bound — the paper's core contribution (Section III).

A weighted digraph ``G(W)`` is acyclic iff the spectral radius of the
non-negative matrix ``S = W ∘ W`` is zero.  Computing the spectral radius
exactly costs ``O(d^3)``; the paper instead optimizes a differentiable *upper
bound* ``δ^(k)(W)`` obtained from ``k`` rounds of a diagonal similarity
transformation driven by row and column sums (Eq. 4/5):

    S^(0) = W ∘ W
    b^(j) = r(S^(j))^α ∘ c(S^(j))^(1-α)
    S^(j+1) = Diag(b^(j))^{-1} S^(j) Diag(b^(j))
    δ^(k) = Σ_i b^(k)[i]

Both the bound and its gradient only need the non-zero entries of ``S``, so
the cost is ``O(k·s)`` time and ``O(s)`` space for a matrix with ``s``
non-zeros — near linear in ``d`` for sparse DAGs, versus the ``O(d^3)`` /
``O(d^2)`` cost of the matrix-exponential constraint used by NOTEARS.

The gradient is obtained by reverse-mode differentiation of the iteration
(Lemmas 3–5 of the paper).  Following Lemma 5, entries outside the support
of ``W`` never influence ``∇_W δ = 2 ∇_S δ ∘ W``, so the sparse backward pass
stays on the support.

Two code paths are provided with identical semantics: a dense numpy path
(used by :class:`repro.core.least.LEAST`, the analog of the paper's LEAST-TF)
and a sparse path (used by :class:`repro.core.least_sparse.SparseLEAST`, the
analog of LEAST-SP).  The dense path never forms ``S^(j)``: each level is a
diagonal similarity ``S^(j) = Diag(ι_j) S Diag(β_j)`` of ``S``, with
``β_{j+1} = β_j ∘ b^(j)`` and ``ι_{j+1} = ι_j ∘ 1/b^(j)`` (zero where
``b^(j)`` is), so its sums are two matrix-vector products with ``S``.  Each
``b^(j)`` is divided by a per-level constant first, which cancels in
``S^(j)`` and keeps ``β`` and ``ι`` in range at any scale of ``W``.  Reverse
mode runs on these length-``d`` vectors, and ``∇_S δ`` is a sum of
``2(k+1)`` rank-one terms, one ``d × 2(k+1) × d`` product: an ``O(k·d)``
workspace besides ``S`` and the fresh gradient, which the caller may modify.
Nothing is kept between calls.  Every ``S^(j)`` has the support of ``W``, so
the sparse path builds no matrix per round: both passes run on flat
``nnz``-length arrays over one fixed ``(indices, indptr)`` pair, with row
sums from ``np.add.reduceat`` and column sums from ``np.bincount`` (what
scipy's ``csr.sum`` runs, so the results are bitwise those of per-round CSR
matrices).  For canonical CSR input the gradient is built on the input's
own ``indices``/``indptr``, stored zeros included, so ``gradient.data``
lines up with ``weights.data`` entry for entry.

At a shard block's size (``d`` ≈ 70, a few hundred stored entries) a call
costs numpy call overhead more than arithmetic, so the sparse passes keep it
low.  The forward pass keeps each level's gathered ``(1/b)[rows]`` and
``b[indices]``, which the backward pass reuses instead of gathering them
again.  It stores the sums and balances of all ``k + 1`` levels as rows of
three arrays, so the backward pass computes Lemma 3's ``x`` and ``y`` and
``1 / b²`` for every level in one element-wise call each.  Given the
:class:`~repro.core.losses.SparseSupport` of its input, ``value_and_gradient``
takes the entry rows from it and returns the gradient as the flat array
aligned with ``weights.data``, building no CSR matrix.  Zero sums, subnormal balances and overflowing scales are part of the
bound's domain, and both public entry points ignore every floating-point
error for the length of the call: they enter one ``np.errstate`` each, for
dense and CSR input alike, and no helper enters its own.  The caller's error
state is restored on return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive, check_square_matrix, check_unit_interval

if TYPE_CHECKING:
    from repro.core.losses import SparseSupport

__all__ = [
    "SpectralAcyclicityBound",
    "check_solver_alpha",
    "spectral_bound",
    "spectral_bound_gradient",
    "spectral_bound_with_gradient",
    "spectral_radius",
]


def spectral_radius(matrix) -> float:
    """Exact spectral radius of a square matrix (dense eigen decomposition).

    This is an ``O(d^3)`` reference routine used by tests to validate that the
    bound really is an upper bound; it is never used inside the solvers.
    """
    matrix = check_square_matrix(matrix, "matrix")
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    if dense.size == 0:
        return 0.0
    eigenvalues = np.linalg.eigvals(dense)
    return float(np.max(np.abs(eigenvalues)))


def _safe_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """Element-wise ``values ** exponent`` with the convention ``0 ** 0 = 1``.

    ``values`` must be non-negative.  For ``exponent == 0`` the result is all
    ones (so that ``α = 0`` or ``α = 1`` reduce the bound to pure column or
    row sums); otherwise zeros stay zero.
    """
    if exponent == 0.0:
        return np.ones_like(values)
    return np.power(values, exponent)


def _safe_divide(numerator, denominator: np.ndarray) -> np.ndarray:
    """Element-wise division returning 0 where the denominator is 0.

    Quotients that overflow to +/-inf (denominators that underflowed to a
    subnormal value) are also mapped to 0: they correspond to directions where
    the bound is effectively non-differentiable and any subgradient is valid.
    Every floating-point error is already ignored by the public entry point
    that called it, so no error state is entered here.
    """
    out = numerator / denominator
    out[~np.isfinite(out)] = 0.0
    return out


def _xy_vectors(
    row_sums: np.ndarray, col_sums: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Compute the x and y vectors of Lemma 3 for one level of the iteration.

    ``x[i] = α (c_i / r_i)^(1-α)`` and ``y[i] = (1-α) (r_i / c_i)^α`` are the
    partial derivatives of ``b[i]`` with respect to the row sum and column sum
    respectively.  Positions with zero row or column sums get zero, which is a
    valid subgradient choice at those (non-differentiable) points.
    """
    ratio_cr = _safe_divide(col_sums, row_sums)
    ratio_rc = _safe_divide(row_sums, col_sums)
    x = alpha * _safe_power(ratio_cr, 1.0 - alpha)
    y = (1.0 - alpha) * _safe_power(ratio_rc, alpha)
    return x, y


# ---------------------------------------------------------------------------
# Dense forward / backward on matrix-vector products with S = W ∘ W
# ---------------------------------------------------------------------------


def _dense_bound(dense: np.ndarray, k: int, alpha: float, with_gradient: bool):
    """Bound and ``∇_W δ`` (None unless ``with_gradient``) of a dense matrix.

    The sums of ``S^(j) = Diag(ι_j) S Diag(β_j)`` are ``r_j = ι_j ∘ (S β_j)``
    and ``c_j = β_j ∘ (Sᵀ ι_j)``.  Each ``b^(j)`` is divided by the geometric
    mean of its extreme positive entries before it enters ``β`` and ``ι``.
    """
    d = dense.shape[0]
    s = np.multiply(dense, dense, out=np.empty((d, d)))
    betas, iotas, levels, steps = [np.ones(d)], [np.ones(d)], [], []
    for j in range(k + 1):
        s_beta, st_iota = s @ betas[j], iotas[j] @ s
        row_sums, col_sums = iotas[j] * s_beta, betas[j] * st_iota
        balance = _safe_power(row_sums, alpha) * _safe_power(col_sums, 1.0 - alpha)
        levels.append((s_beta, st_iota, row_sums, col_sums))
        if j < k:
            positive = balance[balance > 0]
            scale = float(np.sqrt(positive.max()) * np.sqrt(positive.min())) if positive.size else 1.0
            scaled = balance / scale
            inverse = _safe_divide(1.0, scaled)
            betas.append(betas[j] * scaled)
            iotas.append(iotas[j] * inverse)
            steps.append((scale, scaled, inverse))
    bound = float(balance.sum())
    if not with_gradient:
        return bound, None

    # Reverse mode over the length-d vectors; the scales are constants.
    # ∇_S δ = Σ_j u_j β_jᵀ + ι_j v_jᵀ is one d × 2(k+1) × d product.
    left, right = [], []
    beta_bar, iota_bar, balance_bar = np.zeros(d), np.zeros(d), np.ones(d)
    for j in range(k, -1, -1):
        s_beta, st_iota, row_sums, col_sums = levels[j]
        if j < k:
            scale, scaled, inverse = steps[j]
            balance_bar = (beta_bar * betas[j] - iota_bar * iotas[j + 1] * inverse) / scale
            beta_bar, iota_bar = beta_bar * scaled, iota_bar * inverse
        x, y = _xy_vectors(row_sums, col_sums, alpha)
        row_bar, col_bar = x * balance_bar, y * balance_bar
        u, v = row_bar * iotas[j], col_bar * betas[j]
        left += [u, iotas[j]]
        right += [betas[j], v]
        if j > 0:
            beta_bar += u @ s + col_bar * st_iota
            iota_bar += row_bar * s_beta + s @ v
    # Off the support of W the product is multiplied by W = 0 (Lemma 5).
    gradient = (2.0 * np.array(left)).T @ np.array(right)
    gradient *= dense
    return bound, gradient


# ---------------------------------------------------------------------------
# Sparse forward / backward on the flat data vector of one CSR support
# ---------------------------------------------------------------------------


def _forward_flat(
    s0: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    k: int,
    alpha: float,
    rows: np.ndarray | None = None,
):
    """Forward pass of the bound on the data vector ``s0`` of a CSR support.

    ``rows`` is the row of every stored entry, computed here when not given.
    Returns the bound, ``rows`` and the levels: ``(k + 1) × d`` arrays of the
    row sums, column sums and balances ``b^(j)``, and per level ``j < k`` the
    tuple ``(S^(j) data, (1 / b^(j))[rows], b^(j)[indices])``.  The two
    gathers are made once here, where the next level needs them, and reused
    by the backward pass.
    """
    d = len(indptr) - 1
    counts = np.diff(indptr)
    if rows is None:
        rows = np.repeat(np.arange(d), counts)
    nonempty = np.flatnonzero(counts)
    row_sums, col_sums, balances = np.zeros((k + 1, d)), np.empty((k + 1, d)), np.empty((k + 1, d))
    steps = []
    current = s0
    for j in range(k + 1):
        if nonempty.size:
            row_sums[j, nonempty] = np.add.reduceat(current, indptr[nonempty])
        col_sums[j] = np.bincount(indices, weights=current, minlength=d)
        balance = balances[j]
        np.multiply(_safe_power(row_sums[j], alpha), _safe_power(col_sums[j], 1.0 - alpha), out=balance)
        if j == k:
            break
        inverse_at_rows = _safe_divide(1.0, balance)[rows]
        balance_at_cols = balance[indices]
        steps.append((current, inverse_at_rows, balance_at_cols))
        current = current * inverse_at_rows * balance_at_cols
    return float(balance.sum()), rows, (row_sums, col_sums, balances, steps)


def _backward_flat(rows: np.ndarray, indices: np.ndarray, levels: tuple, alpha: float) -> np.ndarray:
    """Reverse-mode pass of :func:`_forward_flat`: ``∇_S δ`` on the support.

    Reuses the forward pass's sums, balances and gathered balances; the
    gradient and every ``S^(j)`` share the support, so Eq. (7) is element-wise
    on the data arrays.  The element-wise vectors of every level, Lemma 3's
    ``x`` and ``y`` and ``1 / b²``, are computed in one call each.
    """
    row_sums, col_sums, balances, steps = levels
    d = row_sums.shape[1]
    x, y = _xy_vectors(row_sums, col_sums, alpha)
    inverse_balance_sq = _safe_divide(1.0, balances[:-1] ** 2)
    gradient = x[-1][rows] + y[-1][indices]
    for j in range(len(steps) - 1, -1, -1):
        previous, inverse_at_rows, balance_at_cols = steps[j]
        grad_times_prev = gradient * previous

        # z[i] = -Σ_q G[i,q] S[i,q] b[q] / b[i]^2 + Σ_p G[p,i] S[p,i] / b[p]
        z = np.bincount(rows, weights=-grad_times_prev * balance_at_cols, minlength=d)
        z *= inverse_balance_sq[j]
        np.add.at(z, indices, grad_times_prev * inverse_at_rows)

        gradient = (
            gradient * inverse_at_rows * balance_at_cols
            + (x[j] * z)[rows]
            + (y[j] * z)[indices]
        )
    return gradient


def _sparse_bound(
    weights: sp.spmatrix, k: int, alpha: float, with_gradient: bool, support: SparseSupport | None
):
    """Bound and ``∇_W δ`` (zero unless ``with_gradient``) of a sparse matrix.

    Non-canonical input (unsorted or duplicate indices) is summed and sorted
    into a copy first.  Entries whose square is zero are not in ``S = W ∘ W``;
    they are left out of both passes and get a zero gradient.  With a
    ``support``, the gradient is returned as the flat array aligned with
    ``weights.data`` instead of a CSR matrix.
    """
    weights = weights.tocsr()
    if support is not None and (
        support.indices is not weights.indices or not weights.has_canonical_format
    ):
        raise ValidationError("support must be the SparseSupport of these canonical CSR weights")
    if not weights.has_canonical_format:
        weights = weights.copy()
        weights.sum_duplicates()
    data = weights.data.astype(float, copy=False)
    s0 = data * data
    live = s0 != 0
    indices, indptr = weights.indices, weights.indptr
    rows = None if support is None else support.rows
    if not live.all():
        s0, indices, rows = s0[live], indices[live], None
        indptr = np.concatenate(([0], np.cumsum(live)))[indptr]
    gradient = np.zeros_like(data)
    bound = 0.0  # an empty S has all-zero sums, so the bound and gradient vanish
    if s0.size:
        bound, rows, levels = _forward_flat(s0, indices, indptr, k, alpha, rows)
        if with_gradient:
            gradient[live] = _backward_flat(rows, indices, levels, alpha) * data[live] * 2.0
    if support is not None:
        return bound, gradient
    return bound, sp.csr_matrix((gradient, weights.indices, weights.indptr), shape=weights.shape)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralAcyclicityBound:
    """Callable object computing ``δ^(k)(W)`` and ``∇_W δ^(k)(W)``.

    Parameters
    ----------
    k:
        Number of diagonal-transformation rounds.  The paper finds ``k ≈ 5``
        sufficient; larger values tighten the bound at linear extra cost.
    alpha:
        Balancing factor in ``[0, 1]`` between row sums and column sums
        (paper default 0.9).
    """

    k: int = 5
    alpha: float = 0.9

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        check_unit_interval(self.alpha, "alpha")

    def value(self, weights) -> float:
        """Return the bound ``δ^(k)(W)``; zero iff (numerically) acyclic."""
        return self._evaluate(weights, with_gradient=False)[0]

    def gradient(self, weights):
        """Return ``∇_W δ^(k)(W)`` with the same storage type as ``weights``."""
        return self.value_and_gradient(weights)[1]

    def value_and_gradient(self, weights, support: SparseSupport | None = None):
        """Return ``(δ^(k)(W), ∇_W δ^(k)(W))`` sharing one forward pass.

        ``support`` is the :class:`~repro.core.losses.SparseSupport` of
        canonical CSR ``weights``.  With it, the gradient is the flat array
        aligned with ``weights.data``, and no CSR matrix is built.
        """
        return self._evaluate(weights, with_gradient=True, support=support)

    def _evaluate(self, weights, with_gradient: bool, support: SparseSupport | None = None):
        weights = check_square_matrix(weights, "weights")
        # The only error state of the call: at block size one per helper
        # call cost about a third of a `_safe_divide`.
        with np.errstate(all="ignore"):
            if sp.issparse(weights):
                return _sparse_bound(weights, self.k, self.alpha, with_gradient, support)
            if support is not None:
                raise ValidationError("a support applies to sparse weights only")
            return _dense_bound(weights, self.k, self.alpha, with_gradient)

    def __call__(self, weights) -> float:
        return self.value(weights)


def check_solver_alpha(alpha: float) -> float:
    """Validate the ``alpha`` a solver fits with: it must lie in ``(0, 1]``.

    :class:`SpectralAcyclicityBound` accepts ``α = 0`` as a function, but a
    fit cannot use it: on near-acyclic ``W`` the iteration diverges (``δ``
    reaches about 1e221 at ``k = 5`` on a fitted 100-node ``W``), so the
    penalty ``ρδ²/2`` overflows and carries no acyclicity signal.
    """
    check_unit_interval(alpha, "alpha")
    if alpha == 0.0:
        raise ValidationError(
            "alpha must be > 0 for a solver: at alpha = 0 the bound iteration diverges "
            "on near-acyclic weights (about 1e221 at k = 5), so the acyclicity penalty overflows"
        )
    return float(alpha)


def spectral_bound(weights, k: int = 5, alpha: float = 0.9) -> float:
    """Functional form of :meth:`SpectralAcyclicityBound.value`."""
    return SpectralAcyclicityBound(k=k, alpha=alpha).value(weights)


def spectral_bound_gradient(weights, k: int = 5, alpha: float = 0.9):
    """Functional form of :meth:`SpectralAcyclicityBound.gradient`."""
    return SpectralAcyclicityBound(k=k, alpha=alpha).gradient(weights)


def spectral_bound_with_gradient(weights, k: int = 5, alpha: float = 0.9):
    """Functional form of :meth:`SpectralAcyclicityBound.value_and_gradient`."""
    return SpectralAcyclicityBound(k=k, alpha=alpha).value_and_gradient(weights)
