"""shard-sparse: a sharded LEAST-SP solve from plan to stitch.

A 1280-node problem of ten independent 128-node ER-2 components is planned
with the chunked sparse skeleton, solved block by block in waves on two pool
workers, re-solved once along the block boundaries and stitched into a CSR
DAG.  It is the only workload that runs waves, boundary re-solve and the
stitcher; the sparse spectral bound dominates its solver time.
"""

from __future__ import annotations

import os
import time

import numpy as np
import scipy.sparse as sp
from repro.graph.dag import is_dag
from repro.graph.generation import random_dag
from repro.obs import Tracer, validate_trace
from repro.sem.linear_sem import simulate_linear_sem
from repro.shard import ShardExecutor, ShardPlanner

from perfbench.collector import merge_totals
from perfbench.common import Outcome, PeakRSS, digest
from perfbench.layers import from_totals

N_WORKERS = 2
#: Planner and solver options of ``benchmarks/bench_sparse_shard.py``.
PLANNER_OPTIONS = {
    "skeleton_threshold": 0.2,
    "max_block_size": 64,
    "min_block_size": 16,
    "max_halo_size": 8,
    "dense_skeleton_limit": 1024,
    "skeleton_chunk_columns": 512,
}
SOLVER_CONFIG = {
    "batch_size": 256,
    "max_inner_iterations": 80,
    "max_outer_iterations": 4,
    "support": "correlation",
    "support_max_parents": 6,
}
EXECUTOR_OPTIONS = {"edge_threshold": 0.3, "wave_blocks": 4, "boundary_rounds": 1}
SIZES = {
    # components, nodes per component, samples, seconds per unit on the reference host
    "full": (10, 128, 300, 15.0),
    "tiny": (2, 24, 120, 1.0),
}
F1_FLOOR = {"full": 0.3, "tiny": 0.0}


def build(size: str, tracer=None):
    """The planner and executor a user builds before the first solve."""
    planner = ShardPlanner(**PLANNER_OPTIONS)
    executor = ShardExecutor(
        solver="least_sparse",
        config=SOLVER_CONFIG,
        n_workers=N_WORKERS,
        tracer=tracer,
        **EXECUTOR_OPTIONS,
    )
    return planner, executor


def make_inputs(seed: int, seconds: float, size: str) -> list[dict]:
    """Block-diagonal problems: sparse truth plus per-component samples."""
    n_components, per_component, n_samples, per_unit = SIZES[size]
    problems = []
    for unit in range(max(1, round(seconds / per_unit))):
        truths, columns = [], []
        for index in range(n_components):
            graph_seed = seed * 100_000 + unit * 1000 + index
            truth = random_dag("ER-2", per_component, seed=graph_seed)
            truths.append(sp.csr_matrix(truth))
            columns.append(
                simulate_linear_sem(truth, n_samples, noise_type="gaussian", seed=graph_seed + 500)
            )
        problems.append({"truth": sp.block_diag(truths, format="csr"), "data": np.hstack(columns)})
    return problems


def describe(problems: list[dict]) -> dict:
    return {"units": len(problems), "digest": digest(p["data"] for p in problems)}


def sparse_f1(predicted, truth) -> float:
    """Directed F1 between two sparse adjacency patterns."""
    pred = (predicted != 0).astype(np.int8).tocsr()
    true = (truth != 0).astype(np.int8).tocsr()
    tp = int(pred.multiply(true).nnz)
    if tp == 0:
        return 0.0
    precision, recall = tp / pred.nnz, tp / true.nnz
    return 2 * precision * recall / (precision + recall)


def measure(problems: list[dict], size: str, work_dir, collector=None) -> Outcome:
    """Plan, solve and stitch each problem; check the stitched graph."""
    tracer = Tracer() if collector is not None else None
    planner, executor = build(size, tracer)
    latencies, f1s, failed = [], [], 0
    checks = {"csr": 0, "dag": 0, "complete": 0, "f1_floor": 0}
    blocks = waves = missing = 0
    resolve_s = solve_wall = 0.0
    with PeakRSS(os.getpid()) as rss:
        if collector is not None:
            collector.install()
        try:
            for problem in problems:
                stitches_before = len(collector.stitch_times) if collector else 0
                started = time.perf_counter()
                plan = planner.plan(problem["data"], tracer=tracer)
                result = executor.run(problem["data"], plan, seed=0, planner=planner)
                latencies.append(time.perf_counter() - started)
                weights = result.weights
                verdicts = {
                    "csr": sp.issparse(weights) and weights.format == "csr",
                    "dag": is_dag(weights),
                    "complete": result.complete,
                }
                f1 = sparse_f1(weights, problem["truth"]) if verdicts["csr"] else 0.0
                verdicts["f1_floor"] = f1 >= F1_FLOOR[size]
                for name in checks:
                    checks[name] += 1
                failed += not all(verdicts.values())
                f1s.append(f1)
                blocks += plan.n_blocks + sum(entry["n_blocks"] for entry in result.rounds)
                waves += result.n_waves
                missing += len(result.missing_nodes)
                solve_wall += result.total_seconds
                if collector is not None:
                    stitches = collector.stitch_times[stitches_before:]
                    if len(stitches) > 1:
                        resolve_s += stitches[-1][0] - stitches[0][1]
        finally:
            if collector is not None:
                collector.uninstall()
    layers = {}
    if collector is not None:
        layers = from_totals(merge_totals(collector.collect_dir, own=collector.snapshot()))
        spans = tracer.sink.spans()
        attempt_s = sum(s["duration"] for s in spans if s["name"] == "worker")
        layers.update(
            {
                "shard.blocks": blocks,
                "shard.waves": waves,
                "shard.block_solve_s": attempt_s,
                "shard.busy_frac": attempt_s / (N_WORKERS * solve_wall),
                "shard.resolve_s": resolve_s,
                "shard.missing_nodes": missing,
                "pool.workers_spawned": sum(1 for s in spans if s["name"] == "worker_spawn"),
                "obs.spans": len(spans),
                "obs.orphans": validate_trace(spans)["n_orphans"],
            }
        )
    return Outcome(
        latencies=latencies,
        n_done=len(latencies),
        busy_s=sum(latencies),
        accuracy=float(np.mean(f1s)),
        attempted=len(problems),
        failed=failed,
        checks=checks,
        peak_rss_mb=rss.mb,
        layers=layers,
        detail={"f1": f1s, "blocks": blocks, "waves": waves},
    )
