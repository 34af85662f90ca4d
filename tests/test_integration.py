"""Integration tests exercising several subsystems together."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    LEAST,
    LEASTConfig,
    NOTEARS,
    NOTEARSConfig,
    evaluate_structure,
    random_dag,
    simulate_linear_sem,
)
from repro.bn import conditional_distribution, fit_linear_gaussian
from repro.core import SparseLEAST, SparseLEASTConfig, correlation_support, grid_search_epsilon_tau
from repro.core.thresholding import threshold_to_dag
from repro.datasets import load_sachs, make_movielens
from repro.graph.dag import is_dag
from repro.metrics import auc_roc, pearson_correlation, trace_correlation
from repro.monitoring import BookingSimulator, Incident, MonitoringPipeline
from repro.recommend import ExplainableRecommender, hub_analysis, top_edges


class TestLearnThenModel:
    """Structure learning feeding the BN layer (learn -> fit -> infer)."""

    def test_end_to_end_on_er2(self, er2_problem):
        config = LEASTConfig(max_outer_iterations=8, max_inner_iterations=300, keep_history=True)
        result = LEAST(config).fit(er2_problem["data"], seed=0)
        pruned, _ = threshold_to_dag(result.weights, initial_threshold=0.1)
        assert is_dag(pruned)
        network = fit_linear_gaussian(pruned, er2_problem["data"])
        log_likelihood = network.log_likelihood(er2_problem["data"])
        empty = fit_linear_gaussian(np.zeros_like(pruned), er2_problem["data"])
        assert log_likelihood >= empty.log_likelihood(er2_problem["data"])
        # Conditional inference runs on the learned model.
        posterior = conditional_distribution(network, [0], {1: 1.0})
        assert np.isfinite(posterior.mean).all()

    def test_least_and_notears_agree_on_structure_quality(self, er2_problem):
        least_result = LEAST(
            LEASTConfig(max_outer_iterations=10, max_inner_iterations=400, keep_history=True, track_h=True)
        ).fit(er2_problem["data"], seed=1)
        notears_result = NOTEARS(
            NOTEARSConfig(max_outer_iterations=10, max_inner_iterations=60)
        ).fit(er2_problem["data"], seed=1)
        least_f1 = grid_search_epsilon_tau(least_result, er2_problem["truth"]).best_f1
        notears_f1 = evaluate_structure(
            np.where(np.abs(notears_result.weights) > 0.3, notears_result.weights, 0.0),
            er2_problem["truth"],
        ).f1
        # Both should clearly beat chance; LEAST should be within reach of NOTEARS.
        assert notears_f1 >= 0.6
        assert least_f1 >= 0.6

    def test_delta_and_h_traces_are_correlated(self, er2_problem):
        """Reproduces the consistency claim behind Fig. 4 row 3 at small scale."""
        config = LEASTConfig(
            max_outer_iterations=10, max_inner_iterations=200, track_h=True, tolerance=1e-6
        )
        result = LEAST(config).fit(er2_problem["data"], seed=2)
        if len(result.log) >= 3:
            assert trace_correlation(result.log) > 0.5


class TestSachsWorkflow:
    def test_gene_benchmark_runs_and_beats_chance(self):
        dataset = load_sachs(n_samples=800, seed=0)
        config = LEASTConfig(max_outer_iterations=10, max_inner_iterations=400, keep_history=True)
        result = LEAST(config).fit(dataset.data, seed=1)
        auc = auc_roc(result.weights, dataset.truth)
        assert auc > 0.6  # the paper reports ~0.9; well above 0.5 is required here


class TestSparseWorkflow:
    def test_sparse_solver_with_screening_on_larger_graph(self):
        truth = random_dag("ER-2", 80, seed=10)
        data = simulate_linear_sem(truth, 600, seed=11)
        support = correlation_support(data, max_parents=6, rng=np.random.default_rng(12))
        config = SparseLEASTConfig(
            max_outer_iterations=6, max_inner_iterations=250, batch_size=None, tolerance=1e-3
        )
        result = SparseLEAST(config).fit(data, seed=13, initial_support=support)
        assert result.weights.nnz > 0
        metrics = evaluate_structure(
            np.where(np.abs(result.weights.toarray()) > 0.2, 1.0, 0.0), truth
        )
        assert metrics.f1 > 0.3


class TestMonitoringWorkflow:
    def test_incident_is_detected_and_attributed(self):
        simulator = BookingSimulator(seed=20)
        simulator.add_incident(
            Incident(
                "airline",
                "AC",
                "step3_reserve",
                0.6,
                start=3600,
                end=7200,
                category="airline",
                description="Air Canada maintenance",
            )
        )
        pipeline = MonitoringPipeline(simulator, window_seconds=3600.0)
        reports = pipeline.run(3, seed=21)
        incident_report = reports[1]
        assert incident_report.n_anomalies >= 1
        assert any(finding.is_true_positive for finding in incident_report.findings)
        summary = pipeline.detection_summary()
        assert summary["incident_recall"] == 1.0

    def test_quiet_period_produces_few_or_no_reports(self):
        simulator = BookingSimulator(seed=30)
        pipeline = MonitoringPipeline(simulator, window_seconds=1800.0)
        reports = pipeline.run(3, seed=31)
        total_reports = sum(r.n_anomalies for r in reports)
        assert total_reports <= 2  # no incidents were injected

    def test_pipeline_runs_windows_on_the_sparse_backend(self):
        """MonitoringPipeline drives least_sparse windows (auto-escalated)."""
        import scipy.sparse as sp

        simulator = BookingSimulator(seed=32)
        pipeline = MonitoringPipeline(
            simulator,
            window_seconds=1800.0,
            least_config=LEASTConfig(
                max_outer_iterations=2,
                max_inner_iterations=40,
                l1_penalty=0.02,
                tolerance=1e-3,
            ),
            sparse_vocabulary_threshold=1,  # every window escalates to CSR
        )
        reports = pipeline.run(3, seed=33)
        assert len(reports) == 3
        stats = pipeline.window_stats
        assert stats and all(s.solver == "least_sparse" for s in stats)
        assert sp.issparse(pipeline.scheduler.state.weights)
        assert stats[1].warm_started  # CSR state seeded the next CSR window

    def test_pipeline_runs_windows_on_the_dense_backend(self):
        """By default every window solves with dense ``"least"``, warm-started."""
        simulator = BookingSimulator(seed=34)
        pipeline = MonitoringPipeline(
            simulator,
            window_seconds=1800.0,
            least_config=LEASTConfig(
                max_outer_iterations=2,
                max_inner_iterations=40,
                l1_penalty=0.02,
                tolerance=1e-3,
            ),
        )
        reports = pipeline.run(3, seed=35)
        assert len(reports) == 3
        stats = pipeline.window_stats
        assert stats and all(s.solver == "least" for s in stats)
        assert stats[1].warm_started  # dense state flows between windows


class TestRecommendationWorkflow:
    def test_movielens_pipeline_learns_planted_relations(self):
        dataset = make_movielens(n_movies=50, n_users=1500, n_series=8, seed=40)
        config = LEASTConfig(
            max_outer_iterations=8, max_inner_iterations=400, l1_penalty=0.02, tolerance=1e-3
        )
        result = LEAST(config).fit(dataset.centered, seed=41)
        edges = top_edges(result.weights, n=15)
        related = sum(
            1
            for source, target, _ in edges
            if dataset.relation_of(int(source), int(target)) != "unrelated"
            or dataset.relation_of(int(target), int(source)) != "unrelated"
        )
        # The planted graph covers ~5% of ordered movie pairs, so hitting a
        # planted relation by chance in a top-15 list is rare; requiring at
        # least 3 hits (20%) checks the learned edges are far above chance.
        assert related >= 3

        recommender = ExplainableRecommender(
            np.where(np.abs(result.weights) > 0.05, result.weights, 0.0),
            labels=list(dataset.movie_titles),
        )
        source_item = max(
            range(dataset.n_movies),
            key=lambda i: np.abs(np.where(np.abs(result.weights[i]) > 0.05, result.weights[i], 0)).sum(),
        )
        recommendations = recommender.recommend({source_item: 1.5}, n=5)
        assert all(np.isfinite(r.score) for r in recommendations)

    def test_blockbuster_asymmetry_is_measurable_on_planted_graph(self):
        dataset = make_movielens(n_movies=60, n_users=200, n_series=10, seed=50)
        summary = hub_analysis(dataset.truth, dataset.blockbusters)
        assert summary["popular_in_out_ratio"] >= 1.0
