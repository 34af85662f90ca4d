"""The per-layer metrics of the traced pass, and the core-layer arithmetic.

Every traced run prints every metric below; a layer a workload does not
reach reads 0.  Seconds are totals over the traced pass (all processes).
"""

from __future__ import annotations

PER_LAYER = (
    # repro.core: the solver's inner loop, summed over every process.
    ("core.fit_s", "s"),
    ("core.outer_iters", "count"),
    ("core.inner_iters", "count"),
    ("core.iter_ms", "ms"),
    ("core.bound_s", "s"),
    ("core.loss_grad_s", "s"),
    ("core.adam_s", "s"),
    ("core.batch_s", "s"),
    ("core.h_s", "s"),
    ("core.loop_other_s", "s"),
    # repro.serve: daemon, pool and cache (medians per job where per-job).
    ("serve.intake_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.dispatch_s", "s"),
    ("serve.materialize_s", "s"),
    ("serve.result_s", "s"),
    ("serve.overhead_s", "s"),
    ("pool.workers_spawned", "count"),
    ("pool.busy_frac", "ratio"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("load.send_lag_max_s", "s"),
    # repro.shard
    ("shard.plan_s", "s"),
    ("shard.blocks", "count"),
    ("shard.waves", "count"),
    ("shard.block_solve_s", "s"),
    ("shard.busy_frac", "ratio"),
    ("shard.resolve_s", "s"),
    ("shard.stitch_s", "s"),
    ("shard.missing_nodes", "count"),
    # repro.serve.scheduler and repro.monitoring
    ("scheduler.step_s", "s"),
    ("scheduler.isolation_s", "s"),
    ("scheduler.warm_frac", "ratio"),
    ("monitor.encode_s", "s"),
    ("monitor.extract_s", "s"),
    ("monitor.detect_s", "s"),
    ("monitor.threshold_s", "s"),
    # repro.obs
    ("obs.spans", "count"),
    ("obs.orphans", "count"),
    ("obs.trace_overhead_frac", "ratio"),
)

_PHASES = ("core.bound", "core.loss_grad", "core.adam", "core.batch", "core.h")


def from_totals(totals: dict) -> dict[str, float]:
    """Layer values that come straight from the collector's merged totals."""
    seconds, counts = totals["seconds"], totals["counts"]
    fit_s = seconds.get("core.fit", 0.0)
    inner = counts.get("core.inner_iters", 0.0)
    values = {
        "core.fit_s": fit_s,
        "core.outer_iters": counts.get("core.outer_iters", 0.0),
        "core.inner_iters": inner,
        "core.iter_ms": 1000.0 * fit_s / inner if inner else 0.0,
        "core.loop_other_s": fit_s - sum(seconds.get(key, 0.0) for key in _PHASES)
        if fit_s
        else 0.0,
        "shard.plan_s": seconds.get("shard.plan", 0.0),
        "shard.stitch_s": seconds.get("shard.stitch", 0.0),
        "cache.get_s": seconds.get("cache.get", 0.0),
        "cache.put_s": seconds.get("cache.put", 0.0),
        "scheduler.step_s": seconds.get("scheduler.step", 0.0),
        "monitor.encode_s": seconds.get("monitor.encode", 0.0),
        "monitor.extract_s": seconds.get("monitor.extract", 0.0),
        "monitor.detect_s": seconds.get("monitor.detect", 0.0),
        "monitor.threshold_s": seconds.get("monitor.threshold", 0.0),
    }
    for key in _PHASES:
        values[f"{key}_s"] = seconds.get(key, 0.0)
    return values


def table(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric with its unit; absent layers read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }
