"""The dense bound's mat-vec form against the level-stack form.

The library never forms ``S^(j)``: level ``j`` is
``Diag(ι_j) S Diag(β_j)`` with ``S = W ∘ W``, reached only through
matrix-vector products.  The direct form in ``_dense_oracle`` builds every
level as a ``d × d`` matrix.  The two sum the same terms in different orders,
so they are pinned to each other at a relative tolerance, per call and over
whole thresholded fits.  The mat-vec form is also checked where the direct
one is wrong: its value and gradient are homogeneous in the scale of ``W``
far past where ``b^(j)²`` over- or underflows, and one instance is safe to
share between threads.
"""

from __future__ import annotations

import sys
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from _dense_oracle import DirectBoundOracleLEAST, direct_bound_value, direct_bound_value_and_gradient
from repro.core.acyclicity import SpectralAcyclicityBound
from repro.core.least import LEAST, LEASTConfig
from repro.graph.generation import random_dag
from repro.sem.linear_sem import simulate_linear_sem

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))
from perfbench.paper_dense import SIZES as PAPER_DENSE_SIZES  # noqa: E402

REL = 1e-12
K_VALUES = [0, 1, 5]
ALPHAS = [0.0, 0.5, 0.9, 1.0]


def _random_dense(rng: np.random.Generator, d: int, density: float) -> np.ndarray:
    mask = rng.random((d, d)) < density
    return np.where(mask, rng.normal(scale=0.5, size=(d, d)), 0.0)


@lru_cache(maxsize=None)
def _paper_dense_fit() -> np.ndarray:
    """Weights of a paper-dense fit (Fig. 4 config, threshold 0: dense W)."""
    n_nodes, n_samples, config, _ = PAPER_DENSE_SIZES["full"]
    truth = random_dag("ER-2", n_nodes, seed=3000)
    data = simulate_linear_sem(truth, n_samples, noise_type="gaussian", seed=3001)
    return LEAST(LEASTConfig(**config)).fit(data, seed=3000).weights


def _weights(kind: str) -> np.ndarray:
    rng = np.random.default_rng(17)
    if kind == "dense":
        return _random_dense(rng, 60, 1.0)
    if kind == "sparse":
        return _random_dense(rng, 100, 0.05)
    if kind == "zero_rows_and_columns":
        weights = _random_dense(rng, 40, 0.4)
        weights[[3, 17, 30], :] = 0.0
        weights[:, [5, 17, 22]] = 0.0
        return weights
    if kind == "zero":
        return np.zeros((12, 12))
    if kind == "fitted":
        return _paper_dense_fit().copy()
    assert kind == "fortran"
    return np.asfortranarray(_random_dense(rng, 50, 0.3))


def _assert_close(actual, expected) -> None:
    """``|actual − expected| ≤ REL · max|expected|`` (value or gradient)."""
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(np.subtract(actual, expected)))) <= REL * scale


class TestPerCall:
    @pytest.mark.parametrize("kind", ["dense", "sparse", "zero_rows_and_columns", "zero", "fitted", "fortran"])
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", K_VALUES)
    def test_matvec_form_matches_direct_form(self, k, alpha, kind):
        weights = _weights(kind)
        before = weights.copy()
        bound = SpectralAcyclicityBound(k=k, alpha=alpha)
        value, gradient = bound.value_and_gradient(weights)
        expected_value, expected_gradient = direct_bound_value_and_gradient(weights, k, alpha)
        assert bound.value(weights) == value
        assert direct_bound_value(weights, k, alpha) == expected_value
        np.testing.assert_array_equal(weights, before)
        _assert_close(value, expected_value)
        _assert_close(gradient, expected_gradient)
        assert np.all(gradient[weights == 0] == 0.0)


class TestHomogeneity:
    """``δ(cW) = c² δ(W)`` and ``∇δ(cW) = c ∇δ(W)``, wherever both are finite."""

    @pytest.mark.parametrize("scale", [1e-100, 1e-40, 1e40, 1e100])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("k", [1, 5])
    def test_scaling_w_scales_value_and_gradient(self, k, alpha, scale):
        rng = np.random.default_rng(23)
        bound = SpectralAcyclicityBound(k=k, alpha=alpha)
        for weights in (_random_dense(rng, 30, 1.0), _random_dense(rng, 40, 0.2)):
            value, gradient = bound.value_and_gradient(weights)
            scaled_value, scaled_gradient = bound.value_and_gradient(scale * weights)
            assert np.isfinite(scaled_value) and np.all(np.isfinite(scaled_gradient))
            _assert_close(scaled_value / scale**2, value)
            _assert_close(scaled_gradient / scale, gradient)


class TestThreads:
    def test_one_instance_shared_by_two_threads(self):
        """Concurrent calls at changing ``d`` return their single-threaded results.

        Each thread alternates a 30- and a 60-node matrix in opposite phase,
        so the two evaluate both different and equal ``d`` at the same time.
        """
        rng = np.random.default_rng(29)
        bound = SpectralAcyclicityBound(k=5, alpha=0.9)
        inputs = [
            [_random_dense(rng, 30, 0.5), _random_dense(rng, 60, 0.5)],
            [_random_dense(rng, 60, 0.5), _random_dense(rng, 30, 0.5)],
        ]
        expected = [[bound.value_and_gradient(weights) for weights in pair] for pair in inputs]
        start = threading.Barrier(2)
        mismatches: list[int] = []

        def worker(index: int) -> None:
            start.wait()
            for step in range(100):
                value, gradient = bound.value_and_gradient(inputs[index][step % 2])
                want_value, want_gradient = expected[index][step % 2]
                if value != want_value or not np.array_equal(gradient, want_gradient):
                    mismatches.append(index)

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == []


def make_problem(spec: str, n_nodes: int, seed: int) -> np.ndarray:
    truth = random_dag(spec, n_nodes, seed=seed)
    return simulate_linear_sem(truth, 10 * n_nodes, seed=seed + 1)


class TestFits:
    @pytest.mark.parametrize("spec", ["ER-2", "SF-4"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_thresholded_fits_match_direct_bound(self, spec, seed):
        """The problems of ``test_gram_loss``'s thresholded fits."""
        data = make_problem(spec, 25, seed=10 + seed)
        config = LEASTConfig(max_outer_iterations=3, max_inner_iterations=60, threshold=0.05)
        result = LEAST(config).fit(data, seed=seed)
        expected = DirectBoundOracleLEAST(config).fit(data, seed=seed)
        assert result.n_outer_iterations == expected.n_outer_iterations
        assert result.n_inner_iterations == expected.n_inner_iterations
        assert np.array_equal(result.weights != 0.0, expected.weights != 0.0)
