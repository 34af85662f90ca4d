"""Tests for the dense LEAST solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.least import LEAST, LEASTConfig, glorot_sparse_init
from repro.core.model_selection import grid_search_epsilon_tau, grid_search_threshold
from repro.core.notears_constraint import notears_constraint
from repro.exceptions import ValidationError
from repro.graph.dag import is_dag
from repro.core.thresholding import threshold_to_dag


FAST = LEASTConfig(max_outer_iterations=6, max_inner_iterations=200, tolerance=1e-3)


class TestGlorotInit:
    def test_density_controls_edge_count(self, rng):
        dense = glorot_sparse_init(50, 0.5, rng)
        sparse = glorot_sparse_init(50, 0.05, rng)
        assert np.count_nonzero(dense) > np.count_nonzero(sparse)

    def test_diagonal_is_zero(self, rng):
        weights = glorot_sparse_init(20, 0.8, rng)
        np.testing.assert_array_equal(np.diag(weights), 0.0)

    def test_values_within_glorot_limit(self, rng):
        weights = glorot_sparse_init(30, 0.5, rng)
        limit = np.sqrt(3.0 / 30)
        assert np.abs(weights).max() <= limit

    def test_large_graph_path_samples_coordinates(self, rng):
        from repro.core.least import SPARSE_INIT_CUTOFF

        d = SPARSE_INIT_CUTOFF
        density = 1e-4
        weights = glorot_sparse_init(d, density, rng)
        n_active = np.count_nonzero(weights)
        expected = d * (d - 1) * density
        # Binomial draw: stay within ±6 standard deviations of the mean.
        margin = 6 * np.sqrt(expected)
        assert abs(n_active - expected) <= margin
        np.testing.assert_array_equal(np.diag(weights), 0.0)
        limit = np.sqrt(3.0 / d)
        assert np.abs(weights).max() <= limit

    def test_large_graph_init_memory_is_o_nnz(self):
        """The d=4096 pin: transient allocations beyond the returned d × d
        array must be O(nnz), not the O(d²) mask + uniform draw of the old
        dense path (~150 MB at this size)."""
        import tracemalloc

        rng = np.random.default_rng(0)
        glorot_sparse_init(4096, 1e-4, rng)  # warm numpy internals
        tracemalloc.start()
        weights = glorot_sparse_init(4096, 1e-4, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        overhead = peak - weights.nbytes
        assert overhead < 4 * 1024 * 1024, (
            f"init allocated {overhead / 1e6:.1f} MB beyond the result matrix"
        )

    def test_small_graph_dense_stream_unchanged(self):
        """Below the cutoff the historical RNG stream must be preserved —
        seeded runs (and every test pinned to them) may not shift."""
        rng = np.random.default_rng(42)
        weights = glorot_sparse_init(12, 0.3, rng)
        expected_rng = np.random.default_rng(42)
        mask = expected_rng.random((12, 12)) < 0.3
        np.fill_diagonal(mask, False)
        expected = np.zeros((12, 12))
        limit = np.sqrt(3.0 / 12)
        expected[mask] = expected_rng.uniform(-limit, limit, size=int(mask.sum()))
        np.testing.assert_array_equal(weights, expected)


class TestLEASTConfig:
    def test_defaults_are_valid(self):
        LEASTConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": -1},
            {"alpha": 2.0},
            {"l1_penalty": -0.1},
            {"learning_rate": 0.0},
            {"init_density": 1.5},
            {"tolerance": 0.0},
            {"max_outer_iterations": 0},
            {"rho_growth": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            LEASTConfig(**kwargs)

    def test_zero_alpha_rejected_as_divergent(self):
        with pytest.raises(ValidationError, match="alpha must be > 0.*diverges"):
            LEASTConfig(alpha=0.0)
        LEASTConfig(alpha=1.0)


class TestLEASTFit:
    def test_output_shape_and_diagonal(self, er2_problem):
        result = LEAST(FAST).fit(er2_problem["data"], seed=0)
        d = er2_problem["truth"].shape[0]
        assert result.weights.shape == (d, d)
        np.testing.assert_array_equal(np.diag(result.weights), 0.0)

    def test_constraint_decreases_over_outer_iterations(self, er2_problem):
        result = LEAST(FAST).fit(er2_problem["data"], seed=0)
        deltas = result.log.column("delta")
        assert deltas[-1] <= deltas[0]

    def test_reproducible_given_seed(self, er2_problem):
        first = LEAST(FAST).fit(er2_problem["data"], seed=3)
        second = LEAST(FAST).fit(er2_problem["data"], seed=3)
        np.testing.assert_allclose(first.weights, second.weights)

    def test_history_recorded_when_requested(self, er2_problem):
        config = LEASTConfig(
            max_outer_iterations=4, max_inner_iterations=100, tolerance=1e-6, keep_history=True
        )
        result = LEAST(config).fit(er2_problem["data"], seed=0)
        assert len(result.history) == result.n_outer_iterations
        assert all(w.shape == result.weights.shape for w in result.history)

    def test_track_h_records_notears_constraint(self, er2_problem):
        config = LEASTConfig(
            max_outer_iterations=3, max_inner_iterations=100, tolerance=1e-6, track_h=True
        )
        result = LEAST(config).fit(er2_problem["data"], seed=0)
        h_trace = result.log.column("h")
        assert np.all(np.isfinite(h_trace))
        assert h_trace[-1] == pytest.approx(notears_constraint(result.weights), rel=1e-6, abs=1e-9)

    def test_thresholding_keeps_weights_sparse(self, er2_problem):
        config = LEASTConfig(
            max_outer_iterations=3,
            max_inner_iterations=100,
            threshold=0.005,
            learning_rate=0.02,
            tolerance=1e-6,
        )
        result = LEAST(config).fit(er2_problem["data"], seed=0)
        density = np.count_nonzero(result.weights) / result.weights.size
        assert density < 1.0

    def test_batching_runs(self, er2_problem):
        config = LEASTConfig(
            max_outer_iterations=3, max_inner_iterations=100, batch_size=64, tolerance=1e-6
        )
        result = LEAST(config).fit(er2_problem["data"], seed=0)
        assert np.all(np.isfinite(result.weights))

    def test_learned_structure_is_reasonably_accurate(self, er2_problem):
        """Accuracy smoke test: F1 of the learned graph on ER-2 d=20 must be
        well above chance (the paper reports ~0.8-0.9 at this size)."""
        config = LEASTConfig(keep_history=True, track_h=True)
        result = LEAST(config).fit(er2_problem["data"], seed=1)
        search = grid_search_epsilon_tau(result, er2_problem["truth"])
        assert search.best_f1 >= 0.6

    def test_final_graph_can_be_pruned_to_dag(self, er2_problem):
        result = LEAST(FAST).fit(er2_problem["data"], seed=0)
        pruned, _ = threshold_to_dag(result.weights, initial_threshold=0.05)
        assert is_dag(pruned)

    def test_rejects_non_2d_data(self):
        with pytest.raises(ValidationError):
            LEAST(FAST).fit(np.zeros(10))

    def test_no_warm_start_still_runs(self, er2_problem):
        config = LEASTConfig(
            max_outer_iterations=2, max_inner_iterations=50, warm_start=False, tolerance=1e-6
        )
        result = LEAST(config).fit(er2_problem["data"], seed=0)
        assert result.n_outer_iterations == 2


class TestTracedCallSites:
    """The inner loop calls the public functions a per-layer timer wraps.

    perfbench's collector times the bound, the loss gradient, the Adam step
    and batch sampling by wrapping exactly these callables; if the loop
    stopped calling one of them, its layer would silently read zero.
    """

    def test_each_phase_called_once_per_inner_iteration(self, er2_problem, monkeypatch):
        import repro.core.least as least_module
        from repro.core.acyclicity import SpectralAcyclicityBound
        from repro.core.losses import LeastSquaresLoss
        from repro.core.optimizers import AdamOptimizer

        counts: dict[str, int] = {}

        def count(key, owner, attr):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        count("bound", SpectralAcyclicityBound, "value_and_gradient")
        count("bound_value", SpectralAcyclicityBound, "value")
        count("loss", LeastSquaresLoss, "value_and_gradient")
        count("adam", AdamOptimizer, "update")
        count("batch", least_module, "sample_batch")

        config = LEASTConfig(max_outer_iterations=3, max_inner_iterations=40, batch_size=50)
        result = LEAST(config).fit(er2_problem["data"], seed=0)
        inner = result.n_inner_iterations
        assert inner > 0
        for key in ("bound", "loss", "adam", "batch"):
            assert counts[key] == inner, key
        # One plain bound evaluation per outer iteration, after its loop.
        assert counts["bound_value"] == result.n_outer_iterations
