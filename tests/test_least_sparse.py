"""Tests for the sparse LEAST-SP solver."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.least_sparse import (
    SparseLEAST,
    SparseLEASTConfig,
    correlation_support,
    random_sparse_glorot,
)
from repro.core.model_selection import grid_search_threshold
from repro.exceptions import ValidationError
from repro.graph.generation import random_dag
from repro.sem.linear_sem import simulate_linear_sem


FAST = SparseLEASTConfig(
    max_outer_iterations=5,
    max_inner_iterations=150,
    tolerance=1e-3,
    batch_size=None,
    threshold=1e-3,
)


class TestRandomSparseGlorot:
    def test_density_and_shape(self, rng):
        matrix = random_sparse_glorot(100, 0.01, rng)
        assert matrix.shape == (100, 100)
        assert matrix.nnz >= 8  # respects the minimum edge floor

    def test_no_diagonal_entries(self, rng):
        matrix = random_sparse_glorot(50, 0.1, rng).tocoo()
        assert np.all(matrix.row != matrix.col)

    def test_tiny_matrix(self, rng):
        assert random_sparse_glorot(1, 0.5, rng).nnz == 0

    def test_invalid_density_rejected(self, rng):
        with pytest.raises(ValidationError):
            random_sparse_glorot(10, 1.5, rng)


class TestCorrelationSupport:
    def test_includes_strongly_correlated_pairs(self):
        truth = random_dag("ER-2", 30, seed=0)
        data = simulate_linear_sem(truth, 500, seed=1)
        support = correlation_support(data, max_parents=8)
        dense = np.abs(support.toarray()) > 0
        rows, cols = np.nonzero(truth)
        covered = sum(dense[i, j] or dense[j, i] for i, j in zip(rows, cols))
        assert covered / len(rows) > 0.8

    def test_max_parents_bounds_support_size(self):
        data = np.random.default_rng(0).normal(size=(100, 20))
        support = correlation_support(data, max_parents=3)
        assert support.nnz <= 3 * 20

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValidationError):
            correlation_support(np.zeros(5), max_parents=2)
        with pytest.raises(ValidationError):
            correlation_support(np.zeros((5, 5)), max_parents=0)


class TestSparseLEAST:
    def test_returns_sparse_weights(self, er2_problem):
        result = SparseLEAST(FAST).fit(er2_problem["data"], seed=0)
        assert sp.issparse(result.weights)
        assert result.weights.shape == er2_problem["truth"].shape

    def test_constraint_trace_is_recorded(self, er2_problem):
        result = SparseLEAST(FAST).fit(er2_problem["data"], seed=0)
        assert len(result.log) == result.n_outer_iterations
        assert np.all(np.isfinite(result.log.column("delta")))
        assert result.elapsed_seconds > 0

    def test_support_never_grows_without_screening(self, er2_problem):
        config = SparseLEASTConfig(
            max_outer_iterations=3,
            max_inner_iterations=100,
            init_density=0.02,
            batch_size=None,
            tolerance=1e-6,
        )
        d = er2_problem["truth"].shape[0]
        initial_nnz = max(8, int(round(0.02 * d * d)))
        result = SparseLEAST(config).fit(er2_problem["data"], seed=0)
        assert result.weights.nnz <= initial_nnz

    def test_accuracy_with_correlation_screening(self):
        truth = random_dag("ER-2", 40, seed=3)
        data = simulate_linear_sem(truth, 500, seed=4)
        support = correlation_support(data, max_parents=8, rng=np.random.default_rng(5))
        config = SparseLEASTConfig(
            max_outer_iterations=8,
            max_inner_iterations=300,
            tolerance=1e-3,
            batch_size=None,
        )
        result = SparseLEAST(config).fit(data, seed=5, initial_support=support)
        search = grid_search_threshold(result.weights.toarray(), truth)
        assert search.best_f1 >= 0.6

    def test_initial_support_shape_validated(self, er2_problem):
        with pytest.raises(ValidationError):
            SparseLEAST(FAST).fit(
                er2_problem["data"], initial_support=sp.eye(3, format="csr")
            )

    def test_batching_runs(self, er2_problem):
        config = SparseLEASTConfig(
            max_outer_iterations=3, max_inner_iterations=100, batch_size=64, tolerance=1e-6
        )
        result = SparseLEAST(config).fit(er2_problem["data"], seed=0)
        assert np.all(np.isfinite(result.weights.data))

    def test_empty_support_runs_no_inner_iterations(self, er2_problem):
        d = er2_problem["data"].shape[1]
        result = SparseLEAST(FAST).fit(
            er2_problem["data"], seed=0, initial_support=sp.csr_matrix((d, d))
        )
        assert result.weights.nnz == 0
        assert result.n_inner_iterations == 0
        np.testing.assert_array_equal(result.log.column("inner_iterations"), 0.0)

    def test_inner_count_stops_when_support_empties(self, er2_problem):
        # Every weight falls below the threshold in the first step: one
        # iteration ran, and the emptied support stops the loop uncounted.
        config = SparseLEASTConfig(
            max_outer_iterations=3, max_inner_iterations=50, batch_size=None, threshold=10.0
        )
        result = SparseLEAST(config).fit(er2_problem["data"], seed=0)
        assert result.weights.nnz == 0
        assert result.n_inner_iterations == 1
        np.testing.assert_array_equal(result.log.column("inner_iterations"), [1.0])

    def test_reproducible_given_seed(self, er2_problem):
        first = SparseLEAST(FAST).fit(er2_problem["data"], seed=9)
        second = SparseLEAST(FAST).fit(er2_problem["data"], seed=9)
        np.testing.assert_allclose(first.weights.toarray(), second.weights.toarray())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SparseLEASTConfig(alpha=-0.5)
        with pytest.raises(ValidationError):
            SparseLEASTConfig(threshold=-1.0)

    def test_zero_alpha_rejected_as_divergent(self):
        with pytest.raises(ValidationError, match="alpha must be > 0.*diverges"):
            SparseLEASTConfig(alpha=0.0)
        SparseLEASTConfig(alpha=1.0)


class TestTracedCallSites:
    """The sparse inner loop calls the public functions a per-layer timer wraps.

    perfbench's collector times the bound, the loss gradient, the Adam step
    and batch sampling by wrapping exactly these callables; if the loop
    stopped calling one of them, its layer would silently read zero.  The
    wrappers pass arguments and results through, so the traced fit must
    learn the untraced fit's weights.
    """

    def test_each_phase_called_once_per_inner_iteration(self, er2_problem, monkeypatch):
        import repro.core.least_sparse as least_sparse_module
        from repro.core.acyclicity import SpectralAcyclicityBound
        from repro.core.losses import LeastSquaresLoss
        from repro.core.optimizers import SparseAdamOptimizer

        config = SparseLEASTConfig(
            max_outer_iterations=3, max_inner_iterations=40, batch_size=50, support="correlation"
        )
        untraced = SparseLEAST(config).fit(er2_problem["data"], seed=0)
        counts: dict[str, int] = {}

        def count(key, owner, attr):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        count("bound", SpectralAcyclicityBound, "value_and_gradient")
        count("bound_value", SpectralAcyclicityBound, "value")
        count("loss", LeastSquaresLoss, "sparse_value_and_gradient")
        count("adam", SparseAdamOptimizer, "update")
        count("batch", least_sparse_module, "sample_batch")

        result = SparseLEAST(config).fit(er2_problem["data"], seed=0)
        inner = result.n_inner_iterations
        assert inner > 0 and result.weights.nnz > 0
        for key in ("bound", "loss", "adam", "batch"):
            assert counts[key] == inner, key
        # One plain bound evaluation per outer iteration, after its loop.
        assert counts["bound_value"] == result.n_outer_iterations
        for attr in ("indices", "indptr", "data"):
            np.testing.assert_array_equal(getattr(result.weights, attr), getattr(untraced.weights, attr))
