"""The Gram form of the dense loss against the direct form.

With ``B = n`` dense ``LEAST`` computes the least-squares loss from the
column means and the centred Gram matrix of ``X``, built once per fit,
instead of from the samples.  The two
forms sum the same terms in different orders, so they are pinned to each
other at a relative tolerance, per call and over whole fits.  Where the
Gram form is not used (minibatches, ``d > 1.5n``) the fit stays bitwise equal
to the direct-form reference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from _dense_oracle import DirectOracleLEAST
from repro.core.least import LEAST, LEASTConfig
from repro.core.losses import LeastSquaresLoss, full_batch_moments
from repro.exceptions import DimensionMismatchError
from repro.graph.generation import random_dag
from repro.sem.linear_sem import simulate_linear_sem

REL = 1e-10


def make_problem(spec: str, n_nodes: int, seed: int, n_samples: int | None = None) -> np.ndarray:
    truth = random_dag(spec, n_nodes, seed=seed)
    return simulate_linear_sem(truth, n_samples or 10 * n_nodes, seed=seed + 1)


#: Column offset of the "offset" problem: its means are about 10⁴ times its spread.
OFFSET = 1e4


def _data(problem: str) -> np.ndarray:
    if problem == "rank_deficient":
        return _rank_deficient(np.random.default_rng(11))
    data = make_problem("ER-2", 30, seed=4)
    return data + OFFSET if problem == "offset" else data


@lru_cache(maxsize=None)
def _fitted(problem: str) -> np.ndarray:
    """Weights LEAST learns on the problem: its residuals are small next to ``X``."""
    config = LEASTConfig(max_outer_iterations=3, max_inner_iterations=200, threshold=0.0)
    return LEAST(config).fit(_data(problem), seed=0).weights


def _weights(kind: str, problem: str, rng: np.random.Generator) -> np.ndarray:
    d = _data(problem).shape[1]
    if kind == "fitted":
        return _fitted(problem).copy()
    if kind == "zero":
        return np.zeros((d, d))
    weights = rng.normal(scale=0.5, size=(d, d))
    np.fill_diagonal(weights, 0.0)
    if kind == "thresholded":
        weights[np.abs(weights) < 0.4] = 0.0
    return weights


def _rank_deficient(rng: np.random.Generator) -> np.ndarray:
    """Fewer samples than variables, plus one column copied from two others."""
    data = rng.normal(size=(20, 30))
    data[:, 4] = data[:, 1] - 2.0 * data[:, 2]
    return data


def _assert_close(actual, expected) -> None:
    """``|actual − expected| ≤ REL · max|expected|`` (value or gradient)."""
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(np.subtract(actual, expected)))) <= REL * scale


class TestPerCall:
    @pytest.mark.parametrize("kind", ["zero", "random", "thresholded", "fitted"])
    @pytest.mark.parametrize("l1_penalty", [0.0, 0.05])
    @pytest.mark.parametrize("problem", ["er2", "rank_deficient", "offset"])
    def test_gram_matches_direct(self, problem, l1_penalty, kind):
        data = _data(problem)
        weights = _weights(kind, problem, np.random.default_rng(12))
        before = weights.copy()
        loss = LeastSquaresLoss(l1_penalty=l1_penalty)
        moments = full_batch_moments(data, None)
        assert moments is not None

        value, gradient = loss.value_and_gradient(weights, data, moments)
        expected_value, expected_gradient = loss.value_and_gradient(weights, data)
        _assert_close(value, expected_value)
        _assert_close(gradient, expected_gradient)
        assert np.all(np.diag(gradient) == 0.0)
        np.testing.assert_array_equal(weights, before)

    def test_moments_are_the_means_and_the_centred_gram(self):
        data = make_problem("ER-2", 12, seed=5) + 3.0
        mean, gram = full_batch_moments(data, None)
        np.testing.assert_array_equal(mean, data.mean(axis=0))
        np.testing.assert_array_equal(gram, gram.T)
        np.testing.assert_allclose(
            gram + np.outer(mean, mean), data.T @ data / data.shape[0], rtol=1e-12
        )

    def test_gram_shape_is_checked(self):
        data = make_problem("ER-2", 6, seed=1)
        with pytest.raises(DimensionMismatchError):
            LeastSquaresLoss().value_and_gradient(np.zeros((5, 5)), data, full_batch_moments(data, None))


class TestFormChoice:
    @pytest.mark.parametrize(
        "n_samples, n_nodes, batch_size, uses_gram",
        [
            (100, 20, None, True),
            (100, 20, 0, True),
            (100, 20, 100, True),
            (100, 20, 500, True),
            (100, 20, 50, False),  # minibatch
            (10, 15, None, True),  # d = 1.5n
            (10, 16, None, False),  # d > 1.5n
        ],
    )
    def test_rule(self, n_samples, n_nodes, batch_size, uses_gram):
        data = np.random.default_rng(0).normal(size=(n_samples, n_nodes))
        assert (full_batch_moments(data, batch_size) is not None) == uses_gram


def _assert_bitwise(result, expected) -> None:
    assert np.array_equal(result.weights, expected.weights)
    assert list(result.log) == list(expected.log)
    assert result.n_outer_iterations == expected.n_outer_iterations
    assert result.n_inner_iterations == expected.n_inner_iterations


class TestFits:
    @pytest.mark.parametrize("spec", ["ER-2", "SF-4"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_thresholded_fits_match_direct_form(self, spec, seed):
        """The problems of ``test_dense_parity``'s thresholded fits."""
        data = make_problem(spec, 25, seed=10 + seed)
        config = LEASTConfig(max_outer_iterations=3, max_inner_iterations=60, threshold=0.05)
        assert full_batch_moments(data, config.batch_size) is not None
        result = LEAST(config).fit(data, seed=seed)
        expected = DirectOracleLEAST(config).fit(data, seed=seed)
        assert result.n_outer_iterations == expected.n_outer_iterations
        assert result.n_inner_iterations == expected.n_inner_iterations
        assert np.array_equal(result.weights != 0.0, expected.weights != 0.0)
        np.testing.assert_allclose(result.weights, expected.weights, rtol=0, atol=1e-10)

    def test_minibatch_fit_is_bitwise_direct(self):
        data = make_problem("ER-2", 18, seed=40)
        config = LEASTConfig(max_outer_iterations=2, max_inner_iterations=30, batch_size=64)
        _assert_bitwise(LEAST(config).fit(data, seed=5), DirectOracleLEAST(config).fit(data, seed=5))

    def test_wide_full_batch_fit_is_bitwise_direct(self):
        data = make_problem("ER-2", 30, seed=41, n_samples=12)
        config = LEASTConfig(max_outer_iterations=2, max_inner_iterations=30, threshold=0.05)
        assert full_batch_moments(data, config.batch_size) is None
        _assert_bitwise(LEAST(config).fit(data, seed=6), DirectOracleLEAST(config).fit(data, seed=6))
