"""monitor-windows: the warm-started monitoring loop over one-hour windows.

``MonitoringPipeline`` with warm start and a per-window deadline re-learns a
BN every window, extracts the paths into error nodes, tests them against the
previous window and scores the findings against injected incidents.  The
window logs are simulated before timing and replayed, so a unit is one
window from logs to reports.  This is the only workload on the encoder, the
anomaly tests and root cause, and on the re-learn scheduler's per-window
process (``call_with_deadline``).
"""

from __future__ import annotations

import os
import time

import numpy as np
from repro.monitoring import BookingSimulator, Incident, MonitoringPipeline
from repro.monitoring.booking_simulator import BOOKING_STEPS, SimulatorConfig
from repro.obs import Tracer, validate_trace

from perfbench.collector import merge_totals
from perfbench.common import Outcome, PeakRSS, digest
from perfbench.layers import from_totals

HOUR = 3600.0
WINDOW_DEADLINE = 30.0
#: One incident every INCIDENT_EVERY windows, starting at window 3.
INCIDENT_EVERY = 6
#: The two most popular values of each field: an incident on them moves
#: enough bookings that a missed detection is the pipeline's fault.
INCIDENT_ENTITIES = (
    ("airline", "AC"),
    ("airline", "MU"),
    ("arrival_city", "PEK"),
    ("arrival_city", "SHA"),
    ("departure_city", "PEK"),
    ("departure_city", "SHA"),
    ("fare_source", "fare_source_1"),
    ("fare_source", "fare_source_2"),
    ("agent", "agent_01"),
    ("agent", "agent_02"),
)
INCIDENT_ERROR_PROBABILITY = 0.8
SIZES = {
    # windows per run per second of --seconds, floor on windows, bookings per hour
    "full": (1 / 0.55, 15, 600),
    "tiny": (1.0, 5, 150),
}
RECALL_FLOOR = {"full": 0.5, "tiny": 0.0}


class ReplaySimulator(BookingSimulator):
    """Serves windows simulated in advance and notes when each is requested.

    The pipeline asks for window ``i + 1`` as soon as window ``i`` is
    reported, so consecutive request times bound each window's work.
    """

    def __init__(self, windows, incidents) -> None:
        super().__init__(incidents=incidents, seed=0)
        self.windows = windows
        self.requested_at: list[float] = []

    def simulate_window(self, start: float, duration: float):
        self.requested_at.append(time.perf_counter())
        return self.windows[round(start / duration)]


def build(size: str, simulator=None, tracer=None):
    """The pipeline a user builds before the first window."""
    simulator = simulator if simulator is not None else ReplaySimulator([], [])
    return MonitoringPipeline(
        simulator, window_seconds=HOUR, window_deadline=WINDOW_DEADLINE, tracer=tracer
    )


def make_inputs(seed: int, seconds: float, size: str) -> dict:
    """Simulated logs for every window, with incidents chosen by the seed."""
    per_second, floor, bookings = SIZES[size]
    n_windows = max(floor, round(seconds * per_second))
    rng = np.random.default_rng(seed)
    incidents = []
    for start in range(3, n_windows, INCIDENT_EVERY):
        field, value = INCIDENT_ENTITIES[rng.integers(len(INCIDENT_ENTITIES))]
        incidents.append(
            Incident(
                entity_field=field,
                entity_value=value,
                step=str(rng.choice(BOOKING_STEPS)),
                error_probability=INCIDENT_ERROR_PROBABILITY,
                start=start * HOUR,
                end=(start + 1) * HOUR,
                category="external system",
            )
        )
    simulator = BookingSimulator(
        SimulatorConfig(bookings_per_hour=bookings), incidents=incidents, seed=seed
    )
    windows = [simulator.simulate_window(i * HOUR, HOUR) for i in range(n_windows)]
    return {"windows": windows, "incidents": incidents, "seed": seed}


def describe(inputs: dict) -> dict:
    stamps = (np.array([r.timestamp for r in window]) for window in inputs["windows"])
    return {"units": len(inputs["windows"]) - 1, "digest": digest(stamps)}


def measure(inputs: dict, size: str, work_dir, collector=None) -> Outcome:
    """Run the pipeline over every window; check recall and preemptions."""
    tracer = Tracer() if collector is not None else None
    simulator = ReplaySimulator(inputs["windows"], inputs["incidents"])
    pipeline = build(size, simulator, tracer)
    with PeakRSS(os.getpid()) as rss:
        if collector is not None:
            collector.install()
        try:
            pipeline.run(n_windows=len(inputs["windows"]), seed=inputs["seed"])
            finished = time.perf_counter()
        finally:
            if collector is not None:
                collector.uninstall()
    # Window 0 only sets the baseline; every later window is learned.
    stamps = simulator.requested_at[1:] + [finished]
    latencies = list(np.diff(stamps))
    summary = pipeline.detection_summary()
    stats = pipeline.window_stats
    preempted = sum(1 for s in stats if s.preempted)
    recall = summary["incident_recall"]
    layers = {}
    if collector is not None:
        layers = from_totals(merge_totals(collector.collect_dir, own=collector.snapshot()))
        spans = tracer.sink.spans()
        layers.update(
            {
                "scheduler.isolation_s": layers["scheduler.step_s"] - layers["core.fit_s"],
                "scheduler.warm_frac": sum(1 for s in stats if s.warm_started) / len(stats),
                "obs.spans": len(spans),
                "obs.orphans": validate_trace(spans)["n_orphans"],
            }
        )
    return Outcome(
        latencies=latencies,
        n_done=len(latencies),
        busy_s=sum(latencies),
        accuracy=recall,
        attempted=len(latencies),
        failed=preempted + (recall < RECALL_FLOOR[size]),
        checks={"recall_floor": 1, "not_preempted": len(stats)},
        peak_rss_mb=rss.mb,
        layers=layers,
        detail={
            "incident_recall": recall,
            "incident_windows": summary["incident_windows"],
            "false_alarm_rate": summary["false_alarm_rate"],
            "preempted": preempted,
        },
    )
