"""End-to-end sliding-window monitoring pipeline (the Fliggy loop).

The production deployment the paper describes re-learns a BN every half hour
from the latest 24-hour window of logs, extracts paths into the error nodes,
and reports statistically significant ones.  :class:`MonitoringPipeline`
implements that loop over a :class:`~repro.monitoring.booking_simulator.BookingSimulator`
so the whole Section VI-A application can be reproduced and evaluated against
the simulator's known incident schedule.

Per-window learning is delegated to a
:class:`~repro.serve.scheduler.RelearnScheduler`: by default each window's
solve is warm-started from the previous window's solution (re-aligned to the
window's vocabulary), which is how the production loop keeps re-learning cheap.
Pass ``warm_start=False`` to recover the old cold-start-every-window behavior.
The scheduler runs each window as one job on the serving engine
(:class:`~repro.serve.streaming.StreamingRunner`), the same engine the CLI
and the daemon use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.least import LEASTConfig
from repro.core.thresholding import threshold_to_dag
from repro.exceptions import ValidationError
from repro.monitoring.anomaly import AnomalyReport, detect_anomalies, extract_error_paths
from repro.monitoring.booking_simulator import BookingSimulator, Incident
from repro.monitoring.encoder import LogEncoder
from repro.monitoring.events import BookingRecord
from repro.monitoring.root_cause import RootCauseAnalyzer, RootCauseFinding
from repro.sem.standardize import standardize_columns
from repro.serve.scheduler import RelearnScheduler, WindowStats
from repro.utils.random import RandomState
from repro.utils.validation import check_positive

__all__ = ["MonitoringReport", "MonitoringPipeline"]


@dataclass
class MonitoringReport:
    """Output of one monitoring window."""

    window_index: int
    window_start: float
    n_records: int
    reports: list[AnomalyReport] = field(default_factory=list)
    findings: list[RootCauseFinding] = field(default_factory=list)
    active_incidents: list[Incident] = field(default_factory=list)

    @property
    def n_anomalies(self) -> int:
        """Number of anomaly paths reported for this window."""
        return len(self.reports)


class MonitoringPipeline:
    """Windowed learn–extract–test loop over simulated booking logs.

    Parameters
    ----------
    simulator:
        The booking simulator (with its incident schedule) providing logs.
    window_seconds:
        Length of each analysis window (the paper uses 24 h of logs refreshed
        every 30 min; tests use much shorter windows to stay fast).
    least_config:
        Configuration of the LEAST solver used per window.  The default keeps
        iterations modest because windows are re-learned frequently.
    edge_threshold:
        Threshold applied to the learned weights before path extraction.
    p_value_threshold, min_support:
        Passed through to :func:`repro.monitoring.anomaly.detect_anomalies`.
    warm_start:
        When True (default) every window after the first is solved starting
        from the previous window's weights, re-aligned to the current
        vocabulary; False reproduces the original cold-start loop.
    warm_damping:
        Shrinkage applied to carried-over weights between windows.
    window_deadline:
        Optional hard per-window solve budget in seconds, forwarded to the
        :class:`~repro.serve.scheduler.RelearnScheduler`.  Each window's job
        then runs on a pool worker; a window whose solve overruns is killed
        (hard preemption), recorded as preempted in the solver telemetry,
        and the loop continues with the next window — one pathological
        window can no longer stall the monitoring service.
    shard_vocabulary_threshold:
        When set, a window whose encoded vocabulary reaches this many nodes
        is solved block-partitioned via :mod:`repro.shard` (forwarded to the
        scheduler): the correlation skeleton is split into blocks, each block
        runs as a streamed job (a ``window_deadline`` is split across the
        blocks so the whole window stays bounded), and the stitched DAG
        replaces the monolithic solve.  Block sub-graphs are pruned at this
        pipeline's ``edge_threshold`` before stitching.  ``None`` (default)
        always solves monolithically.
    shard_n_workers:
        Concurrent block workers for sharded windows (forwarded to the
        scheduler).
    solver:
        Registered backend name driving the per-window solves (forwarded to
        the scheduler; default dense ``"least"``).
    sparse_vocabulary_threshold:
        When set, a window whose encoded vocabulary reaches this many nodes
        escalates from dense LEAST to CSR-end-to-end LEAST-SP (forwarded to
        the scheduler) — the knob that keeps very large monitoring
        vocabularies solvable without a dense ``d × d`` matrix, mirroring
        ``shard_vocabulary_threshold``.  Downstream stays sparse too:
        thresholding and path extraction both operate on the CSR weights
        directly.  ``None`` (default) never escalates.
    tracer:
        Optional :class:`~repro.obs.Tracer` forwarded to the re-learn
        scheduler — every processed window then contributes a ``window``
        span with its job's ``job`` → ``solve`` → ``outer_iter`` subtree
        (and warm/cold counters) to the trace.
    """

    def __init__(
        self,
        simulator: BookingSimulator,
        window_seconds: float = 3600.0,
        least_config: LEASTConfig | None = None,
        edge_threshold: float = 0.05,
        p_value_threshold: float = 0.01,
        min_support: int = 5,
        max_path_length: int = 3,
        warm_start: bool = True,
        warm_damping: float = 0.9,
        window_deadline: float | None = None,
        shard_vocabulary_threshold: int | None = None,
        shard_n_workers: int = 1,
        solver: str = "least",
        sparse_vocabulary_threshold: int | None = None,
        tracer=None,
    ):
        check_positive(window_seconds, "window_seconds")
        check_positive(edge_threshold, "edge_threshold")
        self.simulator = simulator
        self.window_seconds = window_seconds
        self.least_config = least_config or LEASTConfig(
            max_outer_iterations=6,
            max_inner_iterations=200,
            l1_penalty=0.02,
            tolerance=1e-3,
        )
        self.edge_threshold = edge_threshold
        self.p_value_threshold = p_value_threshold
        self.min_support = min_support
        self.max_path_length = max_path_length
        self.scheduler = RelearnScheduler(
            self.least_config,
            warm_start=warm_start,
            damping=warm_damping,
            window_deadline=window_deadline,
            shard_vocabulary_threshold=shard_vocabulary_threshold,
            shard_n_workers=shard_n_workers,
            shard_edge_threshold=edge_threshold,
            solver=solver,
            sparse_vocabulary_threshold=sparse_vocabulary_threshold,
            tracer=tracer,
        )
        self.analyzer = RootCauseAnalyzer()
        self.reports: list[MonitoringReport] = []

    # -- single window -----------------------------------------------------------

    def learn_window_graph(self, records: list[BookingRecord], seed: RandomState = None):
        """Learn and threshold a BN over one window of records.

        The encoded indicator matrix is standardized column-wise before
        learning: error-step columns are rare events with tiny variance, and
        standardization puts them on the same scale as the entity indicators
        so that genuine entity→error dependencies receive large weights.

        Returns ``(weights, window)`` where the weights have been pruned to a
        DAG with :func:`repro.core.thresholding.threshold_to_dag`.
        """
        encoder = LogEncoder(center=False)
        window = encoder.encode(records)
        data = standardize_columns(window.data)
        result = self.scheduler.step(data, list(window.node_names), seed=seed)
        pruned, _ = threshold_to_dag(result.weights, initial_threshold=self.edge_threshold)
        return pruned, window

    def run(
        self,
        n_windows: int,
        start: float = 0.0,
        seed: RandomState = None,
    ) -> list[MonitoringReport]:
        """Run the monitoring loop for ``n_windows`` consecutive windows.

        The first window only establishes the baseline (no reports are
        produced because there is no previous window to compare against).
        """
        if n_windows < 1:
            raise ValidationError(f"n_windows must be >= 1, got {n_windows}")
        previous_records: list[BookingRecord] | None = None
        outputs: list[MonitoringReport] = []

        for index in range(n_windows):
            window_start = start + index * self.window_seconds
            records = self.simulator.simulate_window(window_start, self.window_seconds)
            report = MonitoringReport(
                window_index=index,
                window_start=window_start,
                n_records=len(records),
                active_incidents=self.simulator.active_incidents(
                    window_start, self.window_seconds
                ),
            )
            if previous_records and records:
                pruned, window = self.learn_window_graph(records, seed=seed)
                paths = extract_error_paths(
                    pruned,
                    window.node_names,
                    error_nodes=window.error_nodes,
                    max_length=self.max_path_length,
                )
                anomaly_reports = detect_anomalies(
                    paths,
                    records,
                    previous_records,
                    p_value_threshold=self.p_value_threshold,
                    min_support=self.min_support,
                )
                report.reports = anomaly_reports
                report.findings = self.analyzer.evaluate_window(
                    anomaly_reports, report.active_incidents
                )
            previous_records = records
            outputs.append(report)
            self.reports.append(report)
        return outputs

    # -- aggregate views -----------------------------------------------------------

    @property
    def window_stats(self) -> list[WindowStats]:
        """Per-window solver telemetry recorded by the re-learn scheduler."""
        return self.scheduler.history

    def solver_summary(self) -> dict[str, float]:
        """Aggregate solver-iteration/time totals across all learned windows."""
        return self.scheduler.stats_summary()

    def category_breakdown(self) -> dict[str, float]:
        """Fig. 7 style category breakdown across all processed windows."""
        return self.analyzer.category_breakdown()

    def detection_summary(self) -> dict[str, float]:
        """Aggregate detection quality across all processed windows."""
        incident_windows = sum(
            1 for report in self.reports[1:] if report.active_incidents
        )
        detected = sum(
            1
            for report in self.reports[1:]
            if report.active_incidents
            and any(finding.is_true_positive for finding in report.findings)
        )
        return {
            "n_windows": float(len(self.reports)),
            "n_reports": float(self.analyzer.n_reports()),
            "true_positive_rate": self.analyzer.true_positive_rate(),
            "false_alarm_rate": self.analyzer.false_alarm_rate(),
            "incident_windows": float(incident_windows),
            "incident_windows_detected": float(detected),
            "incident_recall": (detected / incident_windows) if incident_windows else 0.0,
        }
