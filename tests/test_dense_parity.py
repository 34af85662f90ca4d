"""Buffered dense LEAST is bitwise equal to the allocate-per-call reference.

The least-squares loss and the Adam step work in place where they can, and
``LEAST._inner`` no longer evaluates the bound before its loop.  These tests
pin every piece against the reference implementation in ``_dense_oracle``
(the code it replaced, and its own copy of the mat-vec spectral bound):
values, gradients and updates must be *equal*, not close, and a whole fit
must learn the same weights, run log, history and iteration counts bit for
bit.  ``test_bound_forms`` pins the bound against its level-stack form.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from _dense_oracle import (
    OracleAdam,
    OracleLEAST,
    bound_value,
    bound_value_and_gradient,
    loss_value_and_gradient,
)
from repro.core.acyclicity import SpectralAcyclicityBound
from repro.core.backend import make_solver
from repro.core.least import LEAST, LEASTConfig
from repro.core.losses import LeastSquaresLoss
from repro.core.optimizers import AdamOptimizer
from repro.graph.generation import random_dag
from repro.sem.linear_sem import simulate_linear_sem

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))
from perfbench.paper_dense import SIZES as PAPER_DENSE_SIZES  # noqa: E402

K_VALUES = [0, 1, 5]
ALPHAS = [0.0, 0.5, 0.9, 1.0]
FAST = {"max_outer_iterations": 2, "max_inner_iterations": 25}


def make_problem(spec: str, n_nodes: int, seed: int) -> np.ndarray:
    truth = random_dag(spec, n_nodes, seed=seed)
    return simulate_linear_sem(truth, 10 * n_nodes, seed=seed + 1)


def _random_dense(rng: np.random.Generator, d: int, density: float) -> np.ndarray:
    mask = rng.random((d, d)) < density
    return np.where(mask, rng.normal(scale=0.5, size=(d, d)), 0.0)


def _assert_bound_matches_oracle(bound: SpectralAcyclicityBound, weights: np.ndarray, reference=None) -> None:
    """Value and gradient equal the oracle's on ``reference`` (default: ``weights``)."""
    reference = weights if reference is None else reference
    value, gradient = bound.value_and_gradient(weights)
    expected_value, expected_gradient = bound_value_and_gradient(reference, bound.k, bound.alpha)
    assert value == expected_value
    assert bound.value(weights) == bound_value(reference, bound.k, bound.alpha) == expected_value
    np.testing.assert_array_equal(gradient, expected_gradient)


def _assert_fits_equal(result, expected) -> None:
    """Weights, log, history and iteration counts are bitwise equal."""
    assert np.array_equal(result.weights, expected.weights)
    assert result.constraint_value == expected.constraint_value
    assert result.converged == expected.converged
    assert result.n_outer_iterations == expected.n_outer_iterations
    assert result.n_inner_iterations == expected.n_inner_iterations
    assert list(result.log) == list(expected.log)
    assert len(result.history) == len(expected.history)
    for mine, theirs in zip(result.history, expected.history):
        assert np.array_equal(mine, theirs)


class TestBoundParity:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", K_VALUES)
    def test_random_matrices_match_bitwise(self, k, alpha):
        rng = np.random.default_rng(1000 * k + int(10 * alpha))
        bound = SpectralAcyclicityBound(k=k, alpha=alpha)
        for d, density in [(5, 0.5), (30, 0.1), (40, 0.4), (120, 0.05)]:
            _assert_bound_matches_oracle(bound, _random_dense(rng, d, density))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", K_VALUES)
    def test_zero_rows_and_columns_match_bitwise(self, k, alpha):
        rng = np.random.default_rng(7 + k)
        weights = _random_dense(rng, 40, 0.4)
        weights[[3, 17, 30], :] = 0.0
        weights[:, [5, 17, 22]] = 0.0
        _assert_bound_matches_oracle(SpectralAcyclicityBound(k=k, alpha=alpha), weights)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", K_VALUES)
    def test_all_zero_matrix_matches_bitwise(self, k, alpha):
        bound = SpectralAcyclicityBound(k=k, alpha=alpha)
        _assert_bound_matches_oracle(bound, np.zeros((12, 12)))
        assert bound.value(np.zeros((12, 12))) == 0.0

    def test_stack_reused_across_sizes(self):
        """One instance serves changing ``d`` and repeated calls unchanged."""
        rng = np.random.default_rng(3)
        bound = SpectralAcyclicityBound(k=5, alpha=0.9)
        for d in (30, 30, 8, 60, 8):
            _assert_bound_matches_oracle(bound, _random_dense(rng, d, 0.3))

    def test_fortran_order_evaluates_as_its_c_copy(self):
        weights = np.asfortranarray(_random_dense(np.random.default_rng(4), 50, 0.3))
        _assert_bound_matches_oracle(
            SpectralAcyclicityBound(), weights, reference=np.ascontiguousarray(weights)
        )

    def test_gradient_is_owned_by_the_caller(self):
        rng = np.random.default_rng(5)
        weights = _random_dense(rng, 20, 0.4)
        before = weights.copy()
        bound = SpectralAcyclicityBound()
        _, first = bound.value_and_gradient(weights)
        kept = first.copy()
        _, second = bound.value_and_gradient(_random_dense(rng, 20, 0.4))
        assert second is not first
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(weights, before)


class TestLossAndAdamParity:
    @pytest.mark.parametrize("l1_penalty", [0.0, 0.05])
    def test_loss_matches_bitwise(self, l1_penalty):
        rng = np.random.default_rng(8)
        data = make_problem("ER-2", 30, seed=2)
        weights = _random_dense(rng, 30, 0.2)
        before = weights.copy()
        value, gradient = LeastSquaresLoss(l1_penalty=l1_penalty).value_and_gradient(weights, data)
        expected_value, expected_gradient = loss_value_and_gradient(weights, data, l1_penalty)
        assert value == expected_value
        np.testing.assert_array_equal(gradient, expected_gradient)
        np.testing.assert_array_equal(weights, before)

    def test_adam_steps_match_bitwise(self):
        rng = np.random.default_rng(9)
        optimizer = AdamOptimizer(learning_rate=0.02)
        oracle = OracleAdam(learning_rate=0.02)
        params = expected = rng.normal(size=(15, 15))
        for _ in range(6):
            gradient = rng.normal(size=(15, 15))
            before = params.copy()
            updated = optimizer.update(params, gradient)
            np.testing.assert_array_equal(params, before)  # parameters untouched
            expected = oracle.update(expected, gradient)
            np.testing.assert_array_equal(updated, expected)
            params = updated


class TestFitParity:
    @pytest.mark.parametrize("spec", ["ER-2", "SF-4"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_thresholded_fits_match_bitwise(self, spec, seed):
        data = make_problem(spec, 25, seed=10 + seed)
        config = LEASTConfig(max_outer_iterations=3, max_inner_iterations=60, threshold=0.05)
        _assert_fits_equal(LEAST(config).fit(data, seed=seed), OracleLEAST(config).fit(data, seed=seed))

    def test_minibatch_rng_stream_matches_bitwise(self):
        data = make_problem("ER-2", 18, seed=40)
        config = LEASTConfig(max_outer_iterations=2, max_inner_iterations=30, batch_size=64)
        _assert_fits_equal(LEAST(config).fit(data, seed=5), OracleLEAST(config).fit(data, seed=5))

    def test_dense_and_csr_warm_starts_match_bitwise(self):
        data = make_problem("ER-2", 20, seed=3)
        config = LEASTConfig(**FAST)
        init = LEAST(config).fit(data, seed=0).weights
        expected = OracleLEAST(config).fit(data, seed=1, init_weights=init)
        _assert_fits_equal(LEAST(config).fit(data, seed=1, init_weights=init), expected)
        for warm in (init, sp.csr_matrix(init)):
            result = make_solver("least", **FAST).fit(data, rng=1, init_weights=warm)
            assert np.array_equal(result.weights, expected.weights)
            assert list(result.log) == list(expected.log)
            assert result.n_inner_iterations == expected.n_inner_iterations

    def test_fortran_ordered_warm_start_matches_its_c_copy(self):
        data = make_problem("ER-2", 20, seed=3)
        config = LEASTConfig(**FAST)
        init = LEAST(config).fit(data, seed=0).weights
        _assert_fits_equal(
            LEAST(config).fit(data, seed=1, init_weights=np.asfortranarray(init)),
            OracleLEAST(config).fit(data, seed=1, init_weights=init),
        )

    def test_track_h_and_history_match_bitwise(self):
        data = make_problem("ER-2", 20, seed=6)
        config = LEASTConfig(
            max_outer_iterations=4, max_inner_iterations=40, track_h=True, keep_history=True
        )
        result = LEAST(config).fit(data, seed=2)
        assert len(result.history) == result.n_outer_iterations
        assert "h" in result.log[0]
        _assert_fits_equal(result, OracleLEAST(config).fit(data, seed=2))

    def test_cold_restarts_match_bitwise(self):
        data = make_problem("ER-2", 15, seed=8)
        config = LEASTConfig(warm_start=False, **FAST)
        _assert_fits_equal(LEAST(config).fit(data, seed=3), OracleLEAST(config).fit(data, seed=3))

    def test_paper_dense_tiny_config_matches_bitwise(self):
        """perfbench ``paper-dense``'s own solver config, at its tiny size."""
        n_nodes, n_samples, config, _ = PAPER_DENSE_SIZES["tiny"]
        truth = random_dag("ER-2", n_nodes, seed=21)
        data = simulate_linear_sem(truth, n_samples, noise_type="gaussian", seed=22)
        config = LEASTConfig(**config)
        _assert_fits_equal(LEAST(config).fit(data, seed=21), OracleLEAST(config).fit(data, seed=21))
