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
