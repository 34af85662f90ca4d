"""Tests for the least-squares loss and the from-scratch optimizers."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.losses import LeastSquaresLoss, sample_batch
from repro.core.optimizers import AdamOptimizer, SGDOptimizer, SparseAdamOptimizer
from repro.exceptions import DimensionMismatchError, ValidationError


class TestLeastSquaresLoss:
    def test_zero_loss_for_perfect_fit(self, small_dag):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(100, 4))
        # Build data that satisfies X = X W exactly is impossible for generic W,
        # but the residual-based value must be >= 0 and 0 when W reproduces X.
        loss = LeastSquaresLoss()
        assert loss.value(np.zeros((4, 4)), data) == pytest.approx((data**2).sum() / 100)

    def test_l1_term(self):
        loss = LeastSquaresLoss(l1_penalty=2.0)
        data = np.zeros((10, 3))
        weights = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -2.0], [0.0, 0.0, 0.0]])
        assert loss.value(weights, data) == pytest.approx(2.0 * 3.0)

    def test_gradient_matches_finite_differences(self, rng):
        loss = LeastSquaresLoss(l1_penalty=0.0)
        data = rng.normal(size=(50, 5))
        weights = rng.normal(size=(5, 5)) * 0.3
        np.fill_diagonal(weights, 0.0)
        _, gradient = loss.value_and_gradient(weights, data)
        epsilon = 1e-6
        for _ in range(10):
            i, j = rng.integers(0, 5, size=2)
            if i == j:
                continue
            plus = weights.copy()
            plus[i, j] += epsilon
            minus = weights.copy()
            minus[i, j] -= epsilon
            finite_difference = (loss.value(plus, data) - loss.value(minus, data)) / (2 * epsilon)
            assert gradient[i, j] == pytest.approx(finite_difference, rel=1e-4, abs=1e-6)

    def test_gradient_diagonal_is_zero(self, rng):
        loss = LeastSquaresLoss(l1_penalty=0.1)
        data = rng.normal(size=(30, 4))
        weights = rng.normal(size=(4, 4))
        _, gradient = loss.value_and_gradient(weights, data)
        np.testing.assert_array_equal(np.diag(gradient), 0.0)

    def test_sparse_gradient_matches_dense_on_support(self, rng):
        loss = LeastSquaresLoss(l1_penalty=0.05)
        data = rng.normal(size=(60, 8))
        dense = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.4)
        np.fill_diagonal(dense, 0.0)
        sparse = sp.csr_matrix(dense)
        dense_value, dense_gradient = loss.value_and_gradient(dense, data)
        sparse_value, sparse_gradient_data = loss.sparse_value_and_gradient(sparse, data)
        assert sparse_value == pytest.approx(dense_value)
        coo = sparse.tocoo()
        np.testing.assert_allclose(
            sparse_gradient_data, dense_gradient[coo.row, coo.col], atol=1e-9
        )

    def test_sparse_requires_sparse_matrix(self, rng):
        loss = LeastSquaresLoss()
        with pytest.raises(ValidationError):
            loss.sparse_value_and_gradient(np.zeros((3, 3)), rng.normal(size=(5, 3)))

    def test_shape_mismatch_rejected(self, rng):
        loss = LeastSquaresLoss()
        with pytest.raises(DimensionMismatchError):
            loss.value(np.zeros((3, 3)), rng.normal(size=(10, 4)))

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValidationError):
            LeastSquaresLoss(l1_penalty=-1.0)


class TestSampleBatch:
    def test_full_batch_when_none(self, rng):
        data = rng.normal(size=(20, 3))
        assert sample_batch(data, None, rng) is data
        assert sample_batch(data, 50, rng) is data

    def test_batch_size_respected(self, rng):
        data = rng.normal(size=(100, 3))
        batch = sample_batch(data, 10, rng)
        assert batch.shape == (10, 3)

    def test_batch_rows_come_from_data(self, rng):
        data = np.arange(30, dtype=float).reshape(10, 3)
        batch = sample_batch(data, 4, rng)
        for row in batch:
            assert any(np.array_equal(row, original) for original in data)


class TestAdam:
    def test_minimizes_quadratic(self):
        optimizer = AdamOptimizer(learning_rate=0.1)
        x = np.array([5.0, -3.0])
        for _ in range(500):
            x = optimizer.update(x, 2 * x)
        np.testing.assert_allclose(x, 0.0, atol=1e-3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            AdamOptimizer().update(np.zeros(3), np.zeros(4))

    def test_reset_clears_state(self):
        optimizer = AdamOptimizer()
        optimizer.update(np.ones(2), np.ones(2))
        optimizer.reset()
        assert optimizer._first_moment is None

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValidationError):
            AdamOptimizer(learning_rate=0.0)
        with pytest.raises(ValidationError):
            AdamOptimizer(beta1=1.5)


class TestSGD:
    def test_minimizes_quadratic_with_momentum(self):
        optimizer = SGDOptimizer(learning_rate=0.05, momentum=0.8)
        x = np.array([4.0])
        for _ in range(300):
            x = optimizer.update(x, 2 * x)
        assert abs(x[0]) < 1e-3

    def test_plain_gradient_step(self):
        optimizer = SGDOptimizer(learning_rate=0.5, momentum=0.0)
        x = optimizer.update(np.array([1.0]), np.array([1.0]))
        assert x[0] == pytest.approx(0.5)


class TestSparseAdam:
    def test_minimizes_quadratic_on_data_vector(self):
        optimizer = SparseAdamOptimizer(learning_rate=0.1)
        values = np.array([3.0, -2.0, 1.0])
        for _ in range(500):
            values = optimizer.update(values, 2 * values)
        np.testing.assert_allclose(values, 0.0, atol=1e-3)

    def test_shrink_support(self):
        optimizer = SparseAdamOptimizer(learning_rate=0.1)
        values = np.array([1.0, 2.0, 3.0])
        values = optimizer.update(values, values)
        keep = np.array([True, False, True])
        optimizer.shrink_support(keep)
        assert optimizer._first_moment.shape == (2,)
        # Next update with the shrunk vector must be consistent.
        optimizer.update(values[keep], values[keep])

    def test_steps_match_the_out_of_place_formula_bitwise(self):
        from _sparse_oracle import OracleSparseAdam

        rng = np.random.default_rng(9)
        optimizer = SparseAdamOptimizer(learning_rate=0.02)
        oracle = OracleSparseAdam(learning_rate=0.02)
        values = expected = rng.normal(size=40)
        for step in range(8):
            if step == 4:
                keep = rng.random(len(values)) < 0.7
                optimizer.shrink_support(keep)
                oracle.shrink_support(keep)
                values, expected = values[keep], expected[keep]
            gradient = rng.normal(size=len(values))
            before, moments = values.copy(), optimizer._first_moment
            updated = optimizer.update(values, gradient)
            np.testing.assert_array_equal(values, before)  # parameters untouched
            assert not np.shares_memory(updated, values)
            if moments is not None:
                assert optimizer._first_moment is moments  # updated in place
            expected = oracle.update(expected, gradient)
            np.testing.assert_array_equal(updated, expected)
            values = updated

    def test_shrink_before_any_update_is_noop(self):
        optimizer = SparseAdamOptimizer()
        optimizer.shrink_support(np.array([True]))

    def test_shrink_shape_mismatch_rejected(self):
        optimizer = SparseAdamOptimizer()
        optimizer.update(np.ones(3), np.ones(3))
        with pytest.raises(ValidationError):
            optimizer.shrink_support(np.array([True, False]))
