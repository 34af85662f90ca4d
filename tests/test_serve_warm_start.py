"""Tests for warm starts: alignment, solver init_weights, and the scheduler."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.least import LEAST, LEASTConfig
from repro.core.least_sparse import SparseLEAST, SparseLEASTConfig
from repro.exceptions import ValidationError
from repro.serve.scheduler import RelearnScheduler
from repro.serve.warm_start import (
    WarmStartState,
    align_weights,
    damp_weights,
    prepare_init,
)


class TestAlignWeights:
    def test_identity_when_vocabularies_match(self):
        weights = np.arange(9.0).reshape(3, 3)
        aligned = align_weights(weights, ["a", "b", "c"], ["a", "b", "c"])
        np.testing.assert_array_equal(aligned, weights)

    def test_permutation(self):
        weights = np.zeros((2, 2))
        weights[0, 1] = 3.0
        aligned = align_weights(weights, ["a", "b"], ["b", "a"])
        assert aligned[1, 0] == 3.0 and aligned[0, 1] == 0.0

    def test_new_nodes_start_at_zero_and_vanished_edges_drop(self):
        weights = np.zeros((2, 2))
        weights[0, 1] = 1.5
        aligned = align_weights(weights, ["a", "b"], ["b", "c"])
        assert aligned.shape == (2, 2)
        np.testing.assert_array_equal(aligned, np.zeros((2, 2)))

    def test_partial_overlap_copies_shared_block(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = 1.0  # a -> b survives
        weights[1, 2] = 2.0  # b -> c drops (c vanishes)
        aligned = align_weights(weights, ["a", "b", "c"], ["b", "d", "a"])
        assert aligned[2, 0] == 1.0  # a -> b at new positions
        assert np.count_nonzero(aligned) == 1

    def test_accepts_sparse_input(self):
        weights = sp.csr_matrix(np.diag([0.0, 0.0]) + np.array([[0, 2.0], [0, 0]]))
        aligned = align_weights(weights, ["a", "b"], ["a", "b"])
        assert aligned[0, 1] == 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            align_weights(np.zeros((2, 2)), ["a", "b", "c"], ["a"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            align_weights(np.zeros((2, 2)), ["a", "a"], ["a", "b"])
        with pytest.raises(ValidationError):
            align_weights(np.zeros((2, 2)), ["a", "b"], ["a", "a"])


class TestDampWeights:
    def test_scales_and_thresholds(self):
        weights = np.array([[0.0, 1.0], [0.05, 0.0]])
        damped = damp_weights(weights, damping=0.5, threshold=0.1)
        assert damped[0, 1] == 0.5
        assert damped[1, 0] == 0.0

    def test_clears_diagonal(self):
        damped = damp_weights(np.eye(3), damping=1.0)
        np.testing.assert_array_equal(damped, np.zeros((3, 3)))

    def test_validates_damping(self):
        with pytest.raises(ValidationError):
            damp_weights(np.zeros((2, 2)), damping=1.5)


class TestPrepareInit:
    def test_none_without_state(self):
        assert prepare_init(None, ["a"]) is None

    def test_none_when_overlap_too_small(self):
        state = WarmStartState(np.zeros((2, 2)), ["a", "b"])
        assert prepare_init(state, ["c", "d"], min_shared=1) is None

    def test_builds_aligned_damped_init(self):
        weights = np.zeros((2, 2))
        weights[0, 1] = 2.0
        state = WarmStartState(weights, ["a", "b"])
        init = prepare_init(state, ["b", "a"], damping=0.5)
        assert init[1, 0] == 1.0


class TestSolverInitWeights:
    def test_least_accepts_and_validates_init(self, er2_problem):
        config = LEASTConfig(max_outer_iterations=2, max_inner_iterations=30)
        data = er2_problem["data"]
        d = data.shape[1]
        cold = LEAST(config).fit(data, seed=0)
        warm = LEAST(config).fit(data, seed=0, init_weights=cold.weights)
        assert warm.weights.shape == (d, d)
        with pytest.raises(ValidationError):
            LEAST(config).fit(data, seed=0, init_weights=np.zeros((d + 1, d + 1)))
        with pytest.raises(ValidationError):
            LEAST(config).fit(data, seed=0, init_weights=np.full((d, d), np.nan))

    def test_least_warm_start_converges_to_equivalent_solution(self, er2_problem):
        """Warm-starting from a converged solution recovers the same structure."""
        data = er2_problem["data"]
        config = LEASTConfig(max_outer_iterations=6, max_inner_iterations=200)
        cold = LEAST(config).fit(data, seed=0)
        warm = LEAST(config).fit(data, seed=1, init_weights=cold.weights)
        strong = np.abs(cold.weights) > 0.3
        assert strong.sum() > 0
        # Every strong cold edge survives in the warm solution with the same
        # sign and non-negligible magnitude...
        assert np.all(np.sign(warm.weights[strong]) == np.sign(cold.weights[strong]))
        assert np.all(np.abs(warm.weights[strong]) > 0.1)
        # ...and the strong-edge sets of the two solutions largely coincide.
        cold_edges = set(zip(*np.where(strong)))
        warm_edges = set(zip(*np.where(np.abs(warm.weights) > 0.3)))
        jaccard = len(cold_edges & warm_edges) / len(cold_edges | warm_edges)
        assert jaccard >= 0.6

    def test_least_tracks_inner_iterations(self, er2_problem):
        config = LEASTConfig(max_outer_iterations=2, max_inner_iterations=30)
        result = LEAST(config).fit(er2_problem["data"], seed=0)
        assert 1 <= result.n_inner_iterations <= 60
        assert result.n_inner_iterations == int(
            result.log.column("inner_iterations").sum()
        )

    def test_sparse_least_accepts_dense_and_sparse_init(self, er2_problem):
        data = er2_problem["data"]
        d = data.shape[1]
        config = SparseLEASTConfig(
            max_outer_iterations=2, max_inner_iterations=30, init_density=0.05
        )
        dense_init = np.zeros((d, d))
        dense_init[0, 1] = 0.4
        dense_init[2, 3] = -0.2
        result = SparseLEAST(config).fit(data, seed=0, init_weights=dense_init)
        assert sp.issparse(result.weights)
        assert result.n_inner_iterations >= 1
        sparse_init = sp.csr_matrix(dense_init)
        result2 = SparseLEAST(config).fit(data, seed=0, init_weights=sparse_init)
        np.testing.assert_allclose(
            result.weights.toarray(), result2.weights.toarray()
        )

    def test_sparse_least_rejects_both_inits(self, er2_problem):
        data = er2_problem["data"]
        d = data.shape[1]
        init = sp.csr_matrix((d, d))
        with pytest.raises(ValidationError):
            SparseLEAST().fit(data, initial_support=init, init_weights=init)


class TestRelearnScheduler:
    def _window(self, seed: int, d: int = 8, n: int = 120):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), [f"x{i}" for i in range(d)]

    def test_first_window_is_cold_then_warm(self):
        scheduler = RelearnScheduler(
            LEASTConfig(max_outer_iterations=2, max_inner_iterations=30)
        )
        data, names = self._window(0)
        scheduler.step(data, names, seed=0)
        scheduler.step(data, names, seed=0)
        assert [s.warm_started for s in scheduler.history] == [False, True]
        assert scheduler.history[1].n_shared_nodes == len(names)

    def test_warm_windows_use_reduced_inner_budget(self):
        config = LEASTConfig(max_outer_iterations=2, max_inner_iterations=40)
        scheduler = RelearnScheduler(config, warm_inner_scale=0.5)
        data, names = self._window(0)
        scheduler.step(data, names, seed=0)
        scheduler.step(data, names, seed=0)
        cold, warm = scheduler.history
        assert warm.n_inner_iterations <= cold.n_inner_iterations
        assert warm.n_inner_iterations <= 2 * 20

    def test_vocabulary_change_falls_back_to_cold(self):
        scheduler = RelearnScheduler(
            LEASTConfig(max_outer_iterations=1, max_inner_iterations=10),
            min_shared_nodes=2,
        )
        data, names = self._window(0)
        scheduler.step(data, names, seed=0)
        other_data, other_names = self._window(1)
        scheduler.step(other_data, [f"y{i}" for i in range(8)], seed=0)
        assert scheduler.history[1].warm_started is False

    def test_warm_start_disabled(self):
        scheduler = RelearnScheduler(
            LEASTConfig(max_outer_iterations=1, max_inner_iterations=10),
            warm_start=False,
        )
        data, names = self._window(0)
        scheduler.step(data, names, seed=0)
        scheduler.step(data, names, seed=0)
        assert all(not s.warm_started for s in scheduler.history)

    def test_reset_clears_state(self):
        scheduler = RelearnScheduler(
            LEASTConfig(max_outer_iterations=1, max_inner_iterations=10)
        )
        data, names = self._window(0)
        scheduler.step(data, names, seed=0)
        scheduler.reset()
        assert scheduler.state is None and scheduler.history == []
        scheduler.step(data, names, seed=0)
        assert scheduler.history[0].warm_started is False

    def test_stats_summary_totals(self):
        scheduler = RelearnScheduler(
            LEASTConfig(max_outer_iterations=1, max_inner_iterations=10)
        )
        data, names = self._window(0)
        scheduler.step(data, names, seed=0)
        scheduler.step(data, names, seed=0)
        summary = scheduler.stats_summary()
        assert summary["n_windows"] == 2.0
        assert summary["n_warm_windows"] == 1.0
        assert summary["total_inner_iterations"] >= 2.0

    def test_validates_warm_inner_scale(self):
        with pytest.raises(ValidationError):
            RelearnScheduler(warm_inner_scale=0.0)
        with pytest.raises(ValidationError):
            RelearnScheduler(warm_inner_scale=1.5)


class TestPipelineWarmStart:
    def test_pipeline_exposes_window_stats(self):
        from repro.monitoring import BookingSimulator, MonitoringPipeline

        simulator = BookingSimulator(seed=3)
        pipeline = MonitoringPipeline(
            simulator,
            window_seconds=900.0,
            least_config=LEASTConfig(
                max_outer_iterations=2,
                max_inner_iterations=40,
                l1_penalty=0.02,
                tolerance=1e-3,
            ),
        )
        pipeline.run(3, seed=5)
        # Window 0 establishes the baseline without learning; windows 1-2 learn.
        assert len(pipeline.window_stats) == 2
        assert pipeline.window_stats[0].warm_started is False
        assert pipeline.window_stats[1].warm_started is True
        summary = pipeline.solver_summary()
        assert summary["n_windows"] == 2.0
        assert summary["n_warm_windows"] == 1.0


class TestRepresentationRoundTrips:
    """CSR↔dense warm-start alignment under vocabulary growth/shrinkage."""

    def _weighted(self, d: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(d, d)) * (rng.random((d, d)) < 0.2)
        np.fill_diagonal(weights, 0.0)
        return weights

    def test_sparse_alignment_matches_dense_alignment(self):
        dense = self._weighted(6)
        source = [f"n{i}" for i in range(6)]
        target = ["n4", "n1", "new0", "n2", "new1"]  # shrink + grow + permute
        aligned_dense = align_weights(dense, source, target)
        aligned_sparse = align_weights(sp.csr_matrix(dense), source, target)
        assert sp.issparse(aligned_sparse)
        np.testing.assert_allclose(aligned_sparse.toarray(), aligned_dense)

    def test_damp_weights_sparse_matches_dense(self):
        dense = self._weighted(5, seed=1)
        damped_dense = damp_weights(dense, damping=0.5, threshold=0.2)
        damped_sparse = damp_weights(sp.csr_matrix(dense), damping=0.5, threshold=0.2)
        assert sp.issparse(damped_sparse)
        np.testing.assert_allclose(damped_sparse.toarray(), damped_dense)

    def test_dense_state_to_sparse_init_under_growth(self):
        dense = self._weighted(4, seed=2)
        state = WarmStartState(weights=dense, node_names=["a", "b", "c", "d"])
        target = ["b", "a", "c", "d", "e", "f"]  # two new nodes appear
        init = prepare_init(state, target, damping=1.0, representation="sparse")
        assert sp.issparse(init) and init.shape == (6, 6)
        reference = prepare_init(state, target, damping=1.0, representation="dense")
        np.testing.assert_allclose(init.toarray(), reference)

    def test_sparse_state_to_dense_init_under_shrinkage(self):
        dense = self._weighted(6, seed=3)
        state = WarmStartState(
            weights=sp.csr_matrix(dense), node_names=[f"n{i}" for i in range(6)]
        )
        target = ["n5", "n0", "n3"]  # half the vocabulary vanishes
        init = prepare_init(state, target, damping=0.9, representation="dense")
        assert isinstance(init, np.ndarray) and init.shape == (3, 3)
        # Entries survive at their re-indexed positions, damped.
        assert init[1, 2] == pytest.approx(dense[0, 3] * 0.9)

    def test_round_trip_preserves_values(self):
        """dense → CSR → dense across two vocabulary changes is lossless."""
        dense = self._weighted(5, seed=4)
        names = [f"n{i}" for i in range(5)]
        state = WarmStartState(weights=dense, node_names=names)
        grown = names + ["extra0", "extra1"]
        as_sparse = prepare_init(state, grown, damping=1.0, representation="sparse")
        back = prepare_init(
            WarmStartState(weights=as_sparse, node_names=grown),
            names,
            damping=1.0,
            representation="dense",
        )
        np.testing.assert_allclose(back, dense)

    def test_invalid_representation_rejected(self):
        state = WarmStartState(weights=np.zeros((2, 2)), node_names=["a", "b"])
        with pytest.raises(ValidationError):
            prepare_init(state, ["a", "b"], representation="csr")


class TestSchedulerSparseEscalation:
    """The scheduler's solver knob, auto-escalation, and stitched-seed path."""

    def _window(self, seed: int, d: int = 24, n: int = 150):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d))
        for i in range(1, d):
            data[:, i] += 0.5 * data[:, i - 1]
        return data, [f"x{i}" for i in range(d)]

    def _scheduler(self, **kwargs):
        from repro.core.least_sparse import SparseLEASTConfig

        return RelearnScheduler(
            LEASTConfig(max_outer_iterations=2, max_inner_iterations=30),
            sparse_config=SparseLEASTConfig(
                max_outer_iterations=2,
                max_inner_iterations=30,
                support="correlation",
                support_max_parents=4,
            ),
            **kwargs,
        )

    def test_escalates_above_threshold_and_deescalates_below(self):
        scheduler = self._scheduler(sparse_vocabulary_threshold=20)
        data, names = self._window(0)
        big = scheduler.step(data, names, seed=0)
        assert scheduler.history[-1].solver == "least_sparse"
        assert sp.issparse(big.weights)
        small = scheduler.step(data[:, :8], names[:8], seed=0)
        stats = scheduler.history[-1]
        assert stats.solver == "least"
        assert stats.warm_started  # CSR state seeded the dense re-learn
        assert isinstance(small.weights, np.ndarray)

    def test_dense_state_seeds_sparse_window(self):
        scheduler = self._scheduler(sparse_vocabulary_threshold=20)
        data, names = self._window(1)
        scheduler.step(data[:, :8], names[:8], seed=0)  # dense first
        assert scheduler.history[-1].solver == "least"
        result = scheduler.step(data, names, seed=0)  # grows past threshold
        stats = scheduler.history[-1]
        assert stats.solver == "least_sparse"
        assert stats.warm_started
        assert sp.issparse(result.weights)

    def test_sharded_sparse_window_stitch_seeds_warm_start(self):
        """shard + sparse escalation: the CSR stitched result seeds the next
        (dense, monolithic) window's warm start."""
        scheduler = self._scheduler(
            sparse_vocabulary_threshold=20,
            shard_vocabulary_threshold=20,
            shard_edge_threshold=0.05,
        )
        data, names = self._window(2)
        stitched = scheduler.step(data, names, seed=0)
        stats = scheduler.history[-1]
        assert stats.sharded and stats.solver == "least_sparse"
        assert sp.issparse(stitched.weights)
        assert sp.issparse(scheduler.state.weights)

        follow_up = scheduler.step(data[:, :8], names[:8], seed=0)
        stats = scheduler.history[-1]
        assert not stats.sharded and stats.solver == "least"
        assert stats.warm_started
        assert isinstance(follow_up.weights, np.ndarray)

    def test_solver_knob_accepts_sparse_outright(self):
        scheduler = self._scheduler(solver="least_sparse")
        data, names = self._window(3, d=10)
        result = scheduler.step(data, names, seed=0)
        assert scheduler.history[-1].solver == "least_sparse"
        assert sp.issparse(result.weights)
        assert sp.issparse(scheduler.state.weights)

    def test_unknown_solver_rejected_up_front(self):
        with pytest.raises(ValidationError):
            RelearnScheduler(solver="leest")

    def test_window_stats_record_solver_in_dict(self):
        scheduler = self._scheduler(sparse_vocabulary_threshold=20)
        data, names = self._window(4)
        scheduler.step(data, names, seed=0)
        assert scheduler.history[-1].as_dict()["solver"] == "least_sparse"


class TestSchedulerBackendEdgeCases:
    """Regression tests: non-warm-startable and custom backends in the loop."""

    def _window(self, seed: int, d: int = 6, n: int = 80):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), [f"x{i}" for i in range(d)]

    def test_notears_windows_never_receive_init_weights(self):
        scheduler = RelearnScheduler(solver="notears")
        data, names = self._window(0)
        scheduler.step(data, names, seed=0)
        result = scheduler.step(data, names, seed=0)  # used to crash
        assert result.solver == "notears"
        assert all(not s.warm_started for s in scheduler.history)

    def test_custom_backend_without_inner_iteration_field_warm_starts(self):
        """warm_inner_scale must not read fields a custom config lacks."""
        from dataclasses import dataclass

        from repro.core.backend import (
            BackendSpec,
            SolveResult,
            register_backend,
            unregister_backend,
        )

        @dataclass(frozen=True)
        class _BareConfig:
            pass

        class _BareBackend:
            name = "bare"

            def __init__(self, config):
                self.config = config

            def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
                d = data.shape[1]
                return SolveResult(
                    solver=self.name,
                    weights=np.eye(d) * 0.0,
                    constraint_value=0.0,
                    converged=True,
                    n_outer_iterations=1,
                )

        register_backend(
            BackendSpec(
                name="bare", backend_class=_BareBackend, config_class=_BareConfig
            ),
            overwrite=True,
        )
        try:
            scheduler = RelearnScheduler(solver="bare")
            data, names = self._window(1)
            scheduler.step(data, names, seed=0)
            result = scheduler.step(data, names, seed=0)  # used to crash
            assert scheduler.history[-1].warm_started
            assert result.converged
        finally:
            unregister_backend("bare")

    def test_sharded_sparse_default_uses_correlation_support(self, monkeypatch):
        """The dumped sparse defaults must not pin support="random"."""
        from repro.shard.executor import ShardExecutor

        captured = {}
        original = ShardExecutor.run

        def _capture(self, data, plan, seed=0):
            captured["support"] = self.config.get("support")
            return original(self, data, plan, seed=seed)

        monkeypatch.setattr(ShardExecutor, "run", _capture)
        scheduler = RelearnScheduler(
            sparse_vocabulary_threshold=6,
            shard_vocabulary_threshold=6,
        )
        data, names = self._window(2, d=8)
        scheduler.step(data, names, seed=0)
        assert captured["support"] == "correlation"

    def test_align_weights_accepts_array_like(self):
        aligned = align_weights([[0.0, 1.0], [0.0, 0.0]], ["a", "b"], ["b", "a"])
        assert aligned[1, 0] == 1.0
