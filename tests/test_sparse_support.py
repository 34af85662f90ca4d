"""Per-support state of LEAST-SP: the same numbers with or without it.

``SparseLEAST._inner`` builds one :class:`SparseSupport` per support and
passes it to the loss and the bound.  With it, the bound returns its
gradient as the flat array aligned with ``weights.data`` instead of a CSR
matrix; every number must be the one the plain calls give.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.acyclicity import SpectralAcyclicityBound
from repro.core.losses import LeastSquaresLoss, SparseSupport
from repro.exceptions import ValidationError


def _weights(seed: int, d: int = 30, density: float = 0.2) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    mask = rng.random((d, d)) < density
    weights = sp.csr_matrix(np.where(mask, rng.normal(scale=0.5, size=(d, d)), 0.0))
    weights.setdiag(0.2)
    return weights


def test_support_records_rows_diagonal_and_transpose():
    weights = _weights(0)
    support = SparseSupport(weights)
    coo = weights.tocoo()
    np.testing.assert_array_equal(support.rows, coo.row)
    np.testing.assert_array_equal(support.diagonal, coo.row == coo.col)
    assert support.indices is weights.indices
    np.testing.assert_array_equal(support.transposed.toarray(), weights.toarray().T)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_bound_with_support_returns_the_csr_gradient_data(k):
    weights = _weights(1)
    weights.data[::5] = 0.0  # explicit zeros take the general path
    bound = SpectralAcyclicityBound(k=k, alpha=0.9)
    for matrix in (_weights(1), weights):
        value, gradient = bound.value_and_gradient(matrix)
        flat_value, flat_gradient = bound.value_and_gradient(matrix, SparseSupport(matrix))
        assert flat_value == value
        assert isinstance(flat_gradient, np.ndarray) and flat_gradient.shape == matrix.data.shape
        np.testing.assert_array_equal(flat_gradient, gradient.data)


def test_loss_with_support_matches_the_plain_call():
    weights = _weights(2)
    data = np.random.default_rng(3).normal(size=(64, 30))
    loss = LeastSquaresLoss(l1_penalty=0.05)
    support = SparseSupport(weights)
    expected = loss.sparse_value_and_gradient(weights, data)
    for _ in range(2):  # the support is reused across calls and new values
        value, gradient = loss.sparse_value_and_gradient(weights, data, support)
        assert value == expected[0]
        np.testing.assert_array_equal(gradient, expected[1])
    weights.data = weights.data * 1.5
    value, gradient = loss.sparse_value_and_gradient(weights, data, support)
    fresh = loss.sparse_value_and_gradient(weights, data)
    assert value == fresh[0]
    np.testing.assert_array_equal(gradient, fresh[1])


def test_support_of_another_pattern_is_rejected():
    weights, other = _weights(4), _weights(5)
    support = SparseSupport(other)
    with pytest.raises(ValidationError, match="SparseSupport of these"):
        SpectralAcyclicityBound().value_and_gradient(weights, support)
    with pytest.raises(ValidationError, match="SparseSupport of these"):
        LeastSquaresLoss().sparse_value_and_gradient(weights, np.ones((4, 30)), support)
    with pytest.raises(ValidationError, match="sparse weights only"):
        SpectralAcyclicityBound().value_and_gradient(weights.toarray(), SparseSupport(weights))


def _assert_same_support(derived: SparseSupport, fresh: SparseSupport) -> None:
    np.testing.assert_array_equal(derived.rows, fresh.rows)
    np.testing.assert_array_equal(derived.diagonal, fresh.diagonal)
    np.testing.assert_array_equal(derived.indices, fresh.indices)
    for name in ("indices", "indptr"):
        got, want = getattr(derived.transposed, name), getattr(fresh.transposed, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert derived.transposed.shape == fresh.transposed.shape


def test_shrunk_support_equals_a_freshly_built_one():
    rng = np.random.default_rng(6)
    weights = _weights(6)
    support = SparseSupport(weights)
    dense = weights.toarray()
    while weights.nnz:
        keep = rng.random(weights.nnz) < 0.7
        coo = weights.tocoo()
        dense[coo.row[~keep], coo.col[~keep]] = 0.0
        support = support.shrink(weights, keep)
        fresh = sp.csr_matrix(dense)
        assert support.indices is weights.indices
        assert weights.has_canonical_format
        for name in ("data", "indices", "indptr"):
            got, want = getattr(weights, name), getattr(fresh, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        _assert_same_support(support, SparseSupport(fresh))
        np.testing.assert_array_equal(support.transposed.toarray(), dense.T)
    # Shrunk to nothing: an empty but valid support.
    assert support.rows.size == 0 and support.transposed.nnz == 0
    _assert_same_support(support, SparseSupport(sp.csr_matrix(dense)))


def test_shrink_to_empty_at_once():
    weights = _weights(7)
    support = SparseSupport(weights).shrink(weights, np.zeros(weights.nnz, dtype=bool))
    assert weights.nnz == 0 and not weights.toarray().any()
    _assert_same_support(support, SparseSupport(sp.csr_matrix(weights.shape)))


def test_shrunk_support_serves_the_loss_and_bound():
    weights = _weights(8)
    data = np.random.default_rng(9).normal(size=(40, 30))
    keep = np.random.default_rng(10).random(weights.nnz) < 0.5
    support = SparseSupport(weights).shrink(weights, keep)
    fresh = sp.csr_matrix(weights.toarray())
    loss = LeastSquaresLoss(l1_penalty=0.05)
    value, gradient = loss.sparse_value_and_gradient(weights, data, support)
    expected = loss.sparse_value_and_gradient(fresh, data)
    assert value == expected[0]
    np.testing.assert_array_equal(gradient, expected[1])
    bound = SpectralAcyclicityBound(k=3, alpha=0.9)
    flat_value, flat_gradient = bound.value_and_gradient(weights, support)
    csr_value, csr_gradient = bound.value_and_gradient(fresh)
    assert flat_value == csr_value
    np.testing.assert_array_equal(flat_gradient, csr_gradient.data)
