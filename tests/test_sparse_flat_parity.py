"""Flat-support LEAST-SP is bitwise equal to the per-round CSR reference.

The sparse spectral bound runs its forward and backward passes on the data
vector of one fixed CSR support, and ``SparseLEAST._inner`` reads the
gradient straight off that vector.  These tests pin both against the
reference implementation in ``_sparse_oracle`` (the code they replaced):
values and gradients must be *equal*, not close, and a whole fit must learn
the same weights bit for bit.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from _sparse_oracle import OracleSparseLEAST, bound_value, bound_value_and_gradient
from repro.core.acyclicity import SpectralAcyclicityBound
from repro.core.least_sparse import SparseLEAST, SparseLEASTConfig
from repro.graph.generation import random_dag
from repro.sem.linear_sem import simulate_linear_sem

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))
from perfbench.shard_sparse import SOLVER_CONFIG  # noqa: E402

K_VALUES = [0, 1, 5]
ALPHAS = [0.0, 0.5, 0.9, 1.0]


def _random_csr(rng: np.random.Generator, d: int, density: float) -> sp.csr_matrix:
    """Canonical CSR with normal values; dense enough that rows exceed 8 entries."""
    mask = rng.random((d, d)) < density
    values = rng.normal(scale=0.5, size=(d, d))
    return sp.csr_matrix(np.where(mask, values, 0.0))


def _assert_matches_oracle(weights: sp.csr_matrix, k: int, alpha: float, reference=None) -> None:
    """Value and gradient equal the oracle's on ``reference`` (default: ``weights``)."""
    reference = weights if reference is None else reference
    bound = SpectralAcyclicityBound(k=k, alpha=alpha)
    value, gradient = bound.value_and_gradient(weights)
    expected_value, expected_gradient = bound_value_and_gradient(reference, k, alpha)
    assert value == expected_value
    assert bound.value(weights) == bound_value(reference, k, alpha) == expected_value
    np.testing.assert_array_equal(gradient.toarray(), expected_gradient.toarray())


class TestBoundParity:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", K_VALUES)
    def test_random_supports_match_bitwise(self, k, alpha):
        rng = np.random.default_rng(1000 * k + int(10 * alpha))
        for d, density in [(5, 0.5), (30, 0.1), (40, 0.4), (120, 0.05)]:
            _assert_matches_oracle(_random_csr(rng, d, density), k, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", K_VALUES)
    def test_explicit_zeros_match_bitwise(self, k, alpha):
        rng = np.random.default_rng(7 + k)
        weights = _random_csr(rng, 40, 0.4)
        weights.data[rng.random(weights.nnz) < 0.2] = 0.0
        assert np.count_nonzero(weights.data == 0.0) > 0
        _assert_matches_oracle(weights, k, alpha)
        _, gradient = SpectralAcyclicityBound(k=k, alpha=alpha).value_and_gradient(weights)
        assert gradient.nnz == weights.nnz
        np.testing.assert_array_equal(gradient.data[weights.data == 0.0], 0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", K_VALUES)
    def test_unsorted_indices_evaluate_as_their_canonical_copy(self, k, alpha):
        rng = np.random.default_rng(11 + k)
        canonical = _random_csr(rng, 40, 0.4)
        # Reverse the column order inside every row: same matrix, new storage order.
        order = np.concatenate(
            [np.arange(start, stop)[::-1] for start, stop in zip(canonical.indptr[:-1], canonical.indptr[1:])]
        )
        unsorted = sp.csr_matrix(
            (canonical.data[order], canonical.indices[order], canonical.indptr.copy()),
            shape=canonical.shape,
        )
        assert not unsorted.has_sorted_indices
        _assert_matches_oracle(unsorted, k, alpha, reference=canonical)
        # The reference sums in storage order, so on the unsorted input it is
        # only equal up to rounding; the flat path does not depend on the order.
        bound = SpectralAcyclicityBound(k=k, alpha=alpha)
        value, gradient = bound.value_and_gradient(unsorted)
        expected_value, expected_gradient = bound_value_and_gradient(unsorted, k, alpha)
        assert value == pytest.approx(expected_value, rel=1e-12)
        np.testing.assert_allclose(gradient.toarray(), expected_gradient.toarray(), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", K_VALUES)
    def test_empty_rows_and_columns_match_bitwise(self, k, alpha):
        weights = _random_csr(np.random.default_rng(3), 30, 0.3).tolil()
        weights[:6, :] = 0.0
        weights[:, 20:] = 0.0
        weights = weights.tocsr()
        weights.eliminate_zeros()
        counts = np.diff(weights.indptr)
        assert (counts == 0).any() and (np.bincount(weights.indices, minlength=30) == 0).any()
        _assert_matches_oracle(weights, k, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", K_VALUES)
    @pytest.mark.parametrize("d", [0, 1, 6])
    def test_empty_matrix(self, d, k, alpha):
        empty = sp.csr_matrix((d, d))
        bound = SpectralAcyclicityBound(k=k, alpha=alpha)
        value, gradient = bound.value_and_gradient(empty)
        assert value == 0.0 == bound.value(empty)
        assert gradient.shape == (d, d) and gradient.nnz == 0
        if d:
            _assert_matches_oracle(empty, k, alpha)
        all_zero = sp.csr_matrix((np.zeros(d), np.arange(d), np.arange(d + 1)), shape=(d, d))
        value, gradient = bound.value_and_gradient(all_zero)
        assert value == 0.0 and gradient.nnz == d
        np.testing.assert_array_equal(gradient.data, 0.0)

    def test_nonfinite_rounds_match(self):
        """Values spanning 160 decades overflow; inf/nan land where the reference's do."""
        rng = np.random.default_rng(5)
        mask = rng.random((25, 25)) < 0.15
        weights = sp.csr_matrix(np.where(mask, 10.0 ** rng.uniform(-80, 80, size=(25, 25)), 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            value, gradient = SpectralAcyclicityBound(k=5, alpha=0.5).value_and_gradient(weights)
            expected_value, expected_gradient = bound_value_and_gradient(weights, 5, 0.5)
        assert not np.isfinite(gradient.data).all()
        np.testing.assert_array_equal(value, expected_value)
        np.testing.assert_array_equal(gradient.toarray(), expected_gradient.toarray())


class TestStructureSharing:
    def test_gradient_shares_the_input_support(self):
        weights = _random_csr(np.random.default_rng(2), 50, 0.2)
        weights.data[::7] = 0.0  # explicit zeros keep their slot
        _, gradient = SpectralAcyclicityBound().value_and_gradient(weights)
        assert gradient.nnz == weights.nnz
        assert np.shares_memory(gradient.indices, weights.indices)
        assert np.shares_memory(gradient.indptr, weights.indptr)
        expected = bound_value_and_gradient(weights, 5, 0.9)[1].toarray()
        rows = np.repeat(np.arange(50), np.diff(weights.indptr))
        np.testing.assert_array_equal(gradient.data, expected[rows, weights.indices])

    def test_input_is_not_modified(self):
        weights = _random_csr(np.random.default_rng(4), 20, 0.3)
        weights.data[:3] = 0.0
        before = (weights.data.copy(), weights.indices.copy(), weights.indptr.copy())
        SpectralAcyclicityBound().value_and_gradient(weights)
        for array, saved in zip((weights.data, weights.indices, weights.indptr), before):
            np.testing.assert_array_equal(array, saved)


def _er2_problem(d: int, n_samples: int, seed: int) -> np.ndarray:
    truth = random_dag("ER-2", d, seed=seed)
    return simulate_linear_sem(truth, n_samples, noise_type="gaussian", seed=seed + 1)


def _assert_same_fit(config: SparseLEASTConfig, data: np.ndarray, **fit_kwargs) -> None:
    result = SparseLEAST(config).fit(data, seed=3, **fit_kwargs)
    expected = OracleSparseLEAST(config).fit(data, seed=3, **fit_kwargs)
    for attr in ("indices", "indptr", "data"):
        np.testing.assert_array_equal(getattr(result.weights, attr), getattr(expected.weights, attr))
    assert result.constraint_value == expected.constraint_value
    assert result.n_outer_iterations == expected.n_outer_iterations
    assert result.n_inner_iterations == expected.n_inner_iterations
    for key in ("loss", "delta", "rho", "eta", "n_edges", "inner_iterations"):
        np.testing.assert_array_equal(result.log.column(key), expected.log.column(key))


class TestFitParity:
    def test_benchmark_config_fit_is_bitwise_equal(self):
        """The shard benchmark's solver configuration on an ER-2 d=72 problem."""
        _assert_same_fit(SparseLEASTConfig(**SOLVER_CONFIG), _er2_problem(72, 300, 21))

    def test_zero_threshold_fit_is_bitwise_equal(self):
        config = SparseLEASTConfig(
            **dict(SOLVER_CONFIG, threshold=0.0, max_inner_iterations=40)
        )
        _assert_same_fit(config, _er2_problem(30, 200, 5))

    def test_random_support_with_diagonal_is_bitwise_equal(self):
        data = _er2_problem(20, 200, 9)
        support = sp.random(20, 20, density=0.3, format="csr", random_state=4)
        support.setdiag(0.05)
        config = SparseLEASTConfig(max_outer_iterations=3, max_inner_iterations=60, batch_size=64)
        _assert_same_fit(config, data, initial_support=support)
