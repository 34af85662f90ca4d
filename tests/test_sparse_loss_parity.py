"""The sparse least-squares loss is bitwise equal to its ``tocoo`` reference.

``LeastSquaresLoss.sparse_value_and_gradient`` reads the row of every stored
entry off ``indptr``.  ``_sparse_oracle.loss_value_and_gradient`` is the
version that built a COO matrix for it; the fit-parity tests run the oracle
loop on it, and these tests pin the two call for call, including on CSR
input whose indices are unsorted or repeated within a row.  The library
gathers the support a chunk of entries at a time, so the tests also pin
every chunk boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from _sparse_oracle import loss_value_and_gradient
from repro.core.losses import _GATHER_BYTES, LeastSquaresLoss, _gather_chunk

L1_PENALTIES = [0.0, 0.05]


def _canonical(rng: np.random.Generator, d: int, density: float) -> sp.csr_matrix:
    mask = rng.random((d, d)) < density
    weights = sp.csr_matrix(np.where(mask, rng.normal(scale=0.5, size=(d, d)), 0.0))
    weights.setdiag(0.3)  # diagonal entries get a zero gradient
    return weights


def _unsorted(weights: sp.csr_matrix, rng: np.random.Generator) -> sp.csr_matrix:
    """The same matrix with the entries of every row stored in random order."""
    data, indices = weights.data.copy(), weights.indices.copy()
    for start, stop in zip(weights.indptr[:-1], weights.indptr[1:]):
        order = start + rng.permutation(stop - start)
        data[start:stop], indices[start:stop] = data[order], indices[order]
    unsorted = sp.csr_matrix((data, indices, weights.indptr.copy()), shape=weights.shape)
    assert not unsorted.has_sorted_indices
    return unsorted


def _duplicated(weights: sp.csr_matrix) -> sp.csr_matrix:
    """Every entry of the matrix stored twice, the halves summing to it."""
    counts = np.diff(weights.indptr)
    rows = np.repeat(np.arange(weights.shape[0]), counts)
    indptr = np.concatenate(([0], np.cumsum(2 * counts)))
    order = np.argsort(np.concatenate((rows, rows)), kind="stable")
    data = np.concatenate((0.25 * weights.data, 0.75 * weights.data))[order]
    indices = np.concatenate((weights.indices, weights.indices))[order]
    duplicated = sp.csr_matrix((data, indices, indptr), shape=weights.shape)
    assert not duplicated.has_canonical_format
    return duplicated


def _assert_matches_oracle(weights: sp.csr_matrix, data: np.ndarray, l1_penalty: float) -> None:
    before = (weights.data.copy(), weights.indices.copy(), weights.indptr.copy())
    value, gradient = LeastSquaresLoss(l1_penalty=l1_penalty).sparse_value_and_gradient(weights, data)
    expected_value, expected_gradient = loss_value_and_gradient(weights, data, l1_penalty)
    assert value == expected_value
    assert gradient.shape == (len(weights.data),)
    np.testing.assert_array_equal(gradient, expected_gradient)
    for array, saved in zip((weights.data, weights.indices, weights.indptr), before):
        np.testing.assert_array_equal(array, saved)


@pytest.mark.parametrize("l1_penalty", L1_PENALTIES)
@pytest.mark.parametrize("d, density, n_samples", [(6, 0.5, 10), (40, 0.15, 64), (70, 0.1, 256)])
class TestSparseLossParity:
    def test_canonical_csr(self, d, density, n_samples, l1_penalty):
        rng = np.random.default_rng(d)
        weights = _canonical(rng, d, density)
        assert weights.has_canonical_format
        _assert_matches_oracle(weights, rng.normal(size=(n_samples, d)), l1_penalty)

    def test_unsorted_indices(self, d, density, n_samples, l1_penalty):
        rng = np.random.default_rng(d + 1)
        weights = _unsorted(_canonical(rng, d, density), rng)
        _assert_matches_oracle(weights, rng.normal(size=(n_samples, d)), l1_penalty)

    def test_duplicate_indices(self, d, density, n_samples, l1_penalty):
        rng = np.random.default_rng(d + 2)
        weights = _duplicated(_canonical(rng, d, density))
        _assert_matches_oracle(weights, rng.normal(size=(n_samples, d)), l1_penalty)


def test_empty_rows_and_explicit_zeros():
    rng = np.random.default_rng(7)
    weights = _canonical(rng, 20, 0.3).tolil()
    weights[:5, :] = 0.0
    weights = weights.tocsr()
    weights.data[::4] = 0.0  # explicit zeros keep their slot
    assert (np.diff(weights.indptr) == 0).any()
    _assert_matches_oracle(weights, rng.normal(size=(30, 20)), 0.05)


def _unordered_support(rng: np.random.Generator, d: int, nnz: int) -> sp.csr_matrix:
    """``nnz`` stored entries at random rows and columns, diagonal included.

    Within a row the columns keep their random order and may repeat, so any
    support of more than a few entries is unsorted and has duplicates.
    """
    rows = np.sort(rng.integers(0, d, nnz))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=d))))
    return sp.csr_matrix((rng.normal(size=nnz), rng.integers(0, d, nnz), indptr), shape=(d, d))


def _chunk_boundary_sizes(chunk: int) -> list[int]:
    return [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + chunk // 2 + 1]


@pytest.mark.parametrize("n_samples", [1, 256, 1000])
@pytest.mark.parametrize("position", range(6))
def test_chunk_boundaries_match_oracle(n_samples, position):
    """The gradient is gathered a chunk of entries at a time; every boundary is exact."""
    chunk = _gather_chunk(n_samples)
    nnz = _chunk_boundary_sizes(chunk)[position]
    rng = np.random.default_rng(100 * n_samples + position)
    weights = _unordered_support(rng, 50, nnz)
    assert weights.nnz == nnz
    if nnz > 100:
        assert not weights.has_sorted_indices and not weights.has_canonical_format
    _assert_matches_oracle(weights, rng.normal(size=(n_samples, 50)), 0.05)


def test_chunk_sizes_follow_the_byte_budget():
    assert _gather_chunk(256) == 128
    assert _gather_chunk(1) * 8 == _GATHER_BYTES
    assert _gather_chunk(10**7) == 1
