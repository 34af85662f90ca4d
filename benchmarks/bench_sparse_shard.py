"""E-sparse-shard — a ≥5k-node sharded LEAST-SP solve at serving scale.

First step on the paper's Fig. 5 scalability curve *through the serving
stack*: a 5120-node problem (40 independent ER-2 components) is planned with
the chunked sparse correlation skeleton
(:func:`repro.shard.planner.sparse_correlation_skeleton` — never a dense
``d × d``), solved block-by-block with the CSR-end-to-end ``least_sparse``
backend on the streaming engine, and stitched into a CSR DAG.

The benchmark records wall-clock per phase (plan / solve+stitch), the
process's **peak RSS** (``resource.getrusage``), and sparse-vs-dense memory
context into ``BENCH_sparse_shard.json`` (uploaded as a CI artifact), and
asserts every run that

* the stitched result is CSR and a DAG with every block completing,
* the end-to-end solve finishes under :data:`DEADLINE_SECONDS`,
* peak RSS stays under :data:`MEMORY_BUDGET_MB` — a coarse guard against
  dense-materialization regressions (the precise per-allocation gate is the
  tier-1 ``tests/test_sparse_memory.py`` tracemalloc budget).

Run as a script (``python benchmarks/bench_sparse_shard.py``) or through
pytest (``pytest benchmarks/bench_sparse_shard.py -s``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # direct `python benchmarks/bench_sparse_shard.py` run
    for entry in (str(_REPO_ROOT / "src"), str(_REPO_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

import numpy as np
import scipy.sparse as sp

from benchmarks.helpers import append_bench_history, print_table
from repro.graph.dag import is_dag
from repro.graph.generation import random_dag
from repro.sem.linear_sem import simulate_linear_sem
from repro.shard import ShardExecutor, ShardPlanner
from repro.utils.timer import Timer

N_NODES = 5120
N_COMPONENTS = 40  # 128 nodes each
N_SAMPLES = 300
N_WORKERS = 4
EDGE_THRESHOLD = 0.3
DEADLINE_SECONDS = 420.0
MEMORY_BUDGET_MB = 1536.0
BOUNDARY_ROUNDS = 1
SOLVER_CONFIG = {
    "batch_size": 256,
    "max_inner_iterations": 80,
    "max_outer_iterations": 4,
    "support": "correlation",
    "support_max_parents": 6,
}
PLANNER_OPTIONS = {
    "skeleton_threshold": 0.2,
    "max_block_size": 64,
    "min_block_size": 16,
    "max_halo_size": 8,
    "dense_skeleton_limit": 1024,
    "skeleton_chunk_columns": 512,
}

# The scale rung: hierarchically planned, one job per block, streamed.  A slimmer
# iteration budget keeps the 5× larger problem inside a CI-friendly deadline —
# this section gates *scale* (completion + memory), not accuracy.
SCALE_N_NODES = 25600
SCALE_N_COMPONENTS = 200  # 128 nodes each
SCALE_N_SAMPLES = 200
SCALE_PARTITION_COLUMNS = 5120
SCALE_DEADLINE_SECONDS = 900.0
SCALE_MEMORY_BUDGET_MB = 2560.0
SCALE_SOLVER_CONFIG = {
    "batch_size": 256,
    "max_inner_iterations": 40,
    "max_outer_iterations": 2,
    "support": "correlation",
    "support_max_parents": 6,
}
OUTPUT_PATH = _REPO_ROOT / "BENCH_sparse_shard.json"


def peak_rss_mb() -> float:
    """Current peak RSS of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_problem(
    n_nodes: int = N_NODES,
    n_components: int = N_COMPONENTS,
    n_samples: int = N_SAMPLES,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """A block-diagonal scenario: sparse truth + per-component data.

    Each component's truth and sample matrix are generated independently
    (components are disconnected, so this is exact) — the full dense truth is
    never materialized; it is assembled as a block-diagonal CSR matrix.
    """
    per_block = n_nodes // n_components
    truths = []
    columns = []
    for index in range(n_components):
        truth = random_dag("ER-2", per_block, seed=300 + index)
        truths.append(sp.csr_matrix(truth))
        columns.append(
            simulate_linear_sem(
                truth, n_samples, noise_type="gaussian", seed=500 + index
            )
        )
    return sp.block_diag(truths, format="csr"), np.hstack(columns)


def sparse_f1(predicted: sp.spmatrix, truth: sp.spmatrix) -> dict:
    """Directed precision/recall/F1 between two sparse adjacency patterns."""
    pred = (predicted != 0).astype(np.int8).tocsr()
    true = (truth != 0).astype(np.int8).tocsr()
    tp = int(pred.multiply(true).nnz)
    n_pred = int(pred.nnz)
    n_true = int(true.nnz)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_true if n_true else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {
        "f1": f1,
        "n_predicted_edges": n_pred,
        "n_true_edges": n_true,
        "precision": precision,
        "recall": recall,
        "true_positives": tp,
    }


def scale_section() -> dict:
    """The 25,600-node rung: hierarchical plan + overlapped streaming."""
    truth, data = build_problem(
        n_nodes=SCALE_N_NODES,
        n_components=SCALE_N_COMPONENTS,
        n_samples=SCALE_N_SAMPLES,
    )
    planner = ShardPlanner(
        **PLANNER_OPTIONS, partition_columns=SCALE_PARTITION_COLUMNS
    )
    executor = ShardExecutor(
        solver="least_sparse",
        config=SCALE_SOLVER_CONFIG,
        n_workers=N_WORKERS,
        edge_threshold=EDGE_THRESHOLD,
    )
    with Timer() as timer:
        result = executor.run_stream(data, planner, seed=0)
    total_seconds = timer.elapsed
    rss_peak = peak_rss_mb()

    stitched_sparse = sp.issparse(result.weights)
    dense_matrix_mb = SCALE_N_NODES * SCALE_N_NODES * 8 / 1e6
    section = {
        "complete": result.complete,
        "deadline_seconds": SCALE_DEADLINE_SECONDS,
        "dense_equivalent_mb": dense_matrix_mb,
        "is_dag": bool(is_dag(result.weights)),
        "memory_budget_mb": SCALE_MEMORY_BUDGET_MB,
        "metrics": sparse_f1(result.weights, truth) if stitched_sparse else {},
        "n_blocks": result.plan.n_blocks,
        "n_components": SCALE_N_COMPONENTS,
        "n_nodes": SCALE_N_NODES,
        "n_samples": SCALE_N_SAMPLES,
        "partition_columns": SCALE_PARTITION_COLUMNS,
        "peak_rss_mb": rss_peak,
        "rss_below_dense_equivalent": rss_peak < dense_matrix_mb,
        "solver_config": dict(SCALE_SOLVER_CONFIG),
        "stitch": result.stitched.report.as_dict(),
        "stitched_is_sparse": stitched_sparse,
        "total_seconds": total_seconds,
        "under_deadline": total_seconds < SCALE_DEADLINE_SECONDS,
    }

    # Scale-rung claims, asserted every run.
    assert stitched_sparse, "the scale rung must stay CSR end to end"
    assert section["is_dag"], "the 25.6k stitched graph must be a DAG"
    assert result.complete, (
        f"every block must complete at 25.6k nodes: "
        f"{result.n_blocks_failed} failed, {result.n_blocks_preempted} preempted"
    )
    assert section["under_deadline"], (
        f"25.6k-node streamed solve took {total_seconds:.1f}s, over the "
        f"{SCALE_DEADLINE_SECONDS:.0f}s deadline"
    )
    assert rss_peak < SCALE_MEMORY_BUDGET_MB, (
        f"peak RSS {rss_peak:.0f} MB exceeded the scale budget "
        f"{SCALE_MEMORY_BUDGET_MB:.0f} MB"
    )
    assert rss_peak < dense_matrix_mb, (
        f"peak RSS {rss_peak:.0f} MB is not below one dense d×d copy "
        f"({dense_matrix_mb:.0f} MB) — the scale claim fails"
    )
    return section


def main() -> dict:
    """Run the sharded sparse solve, assert the budget claims, write JSON."""
    rss_start = peak_rss_mb()
    truth, data = build_problem()

    planner = ShardPlanner(**PLANNER_OPTIONS)
    with Timer() as plan_timer:
        plan = planner.plan(data)
    plan_seconds = plan_timer.elapsed

    executor = ShardExecutor(
        solver="least_sparse",
        config=SOLVER_CONFIG,
        n_workers=N_WORKERS,
        edge_threshold=EDGE_THRESHOLD,
        boundary_rounds=BOUNDARY_ROUNDS,
    )
    result = executor.run(data, plan, seed=0, planner=planner)
    total_seconds = plan_seconds + result.total_seconds
    rss_peak = peak_rss_mb()

    stitched_sparse = sp.issparse(result.weights)
    metrics = sparse_f1(result.weights, truth) if stitched_sparse else {}
    dense_matrix_mb = N_NODES * N_NODES * 8 / 1e6
    results = {
        "cpu_count": os.cpu_count(),
        "deadline_seconds": DEADLINE_SECONDS,
        "dense_equivalent_mb": dense_matrix_mb,
        "edge_threshold": EDGE_THRESHOLD,
        "memory_budget_mb": MEMORY_BUDGET_MB,
        "metrics": metrics,
        "n_components": N_COMPONENTS,
        "n_nodes": N_NODES,
        "n_samples": N_SAMPLES,
        "n_workers": N_WORKERS,
        "peak_rss_mb": rss_peak,
        "peak_rss_mb_at_start": rss_start,
        "plan": plan.summary(),
        "plan_seconds": plan_seconds,
        "profile": "default",
        "resolve": {
            "boundary_rounds": BOUNDARY_ROUNDS,
            "n_rounds": len(result.rounds),
            "rounds": [
                {key: value for key, value in entry.items() if key != "blocks"}
                for entry in result.rounds
            ],
        },
        "solve_seconds": result.total_seconds,
        "solver": "least_sparse",
        "solver_config": dict(SOLVER_CONFIG),
        "stitch": result.stitched.report.as_dict(),
        "stitched_is_sparse": stitched_sparse,
        "total_seconds": total_seconds,
        "under_deadline": total_seconds < DEADLINE_SECONDS,
    }

    print_table(
        f"repro.shard × least_sparse: d={N_NODES}, {plan.n_blocks} blocks, "
        f"{N_WORKERS} workers",
        ["phase", "value"],
        [
            ["plan (chunked sparse skeleton)", f"{plan_seconds:.2f}s"],
            ["solve + stitch", f"{result.total_seconds:.2f}s"],
            ["total", f"{total_seconds:.2f}s (deadline {DEADLINE_SECONDS:.0f}s)"],
            ["peak RSS", f"{rss_peak:.0f} MB (budget {MEMORY_BUDGET_MB:.0f} MB)"],
            ["dense d×d would need", f"{dense_matrix_mb:.0f} MB per copy"],
            ["stitched edges", result.stitched.report.n_edges],
            ["boundary rounds", len(result.rounds)],
            ["F1 vs truth", f"{metrics.get('f1', float('nan')):.3f}"],
            ["recall vs truth", f"{metrics.get('recall', float('nan')):.4f}"],
        ],
    )

    # The headline claims of the benchmark, asserted every run.
    assert stitched_sparse, "the sparse sharded path must produce CSR weights"
    assert is_dag(result.weights), "the stitched graph must be a DAG"
    assert result.complete, (
        f"every block must complete: {result.n_blocks_failed} failed, "
        f"{result.n_blocks_preempted} preempted"
    )
    assert results["under_deadline"], (
        f"sharded sparse solve took {total_seconds:.1f}s, "
        f"over the {DEADLINE_SECONDS:.0f}s deadline"
    )
    assert rss_peak < MEMORY_BUDGET_MB, (
        f"peak RSS {rss_peak:.0f} MB exceeded the {MEMORY_BUDGET_MB:.0f} MB "
        "budget — a dense materialization likely crept into the sparse path"
    )

    results["scale"] = scale_section()
    print_table(
        f"scale rung: d={SCALE_N_NODES}, partitions of "
        f"{SCALE_PARTITION_COLUMNS} columns",
        ["phase", "value"],
        [
            ["blocks", results["scale"]["n_blocks"]],
            ["plan+solve+stitch (streamed)",
             f"{results['scale']['total_seconds']:.2f}s "
             f"(deadline {SCALE_DEADLINE_SECONDS:.0f}s)"],
            ["peak RSS", f"{results['scale']['peak_rss_mb']:.0f} MB "
                         f"(budget {SCALE_MEMORY_BUDGET_MB:.0f} MB)"],
            ["dense d×d would need",
             f"{results['scale']['dense_equivalent_mb']:.0f} MB per copy"],
            ["complete", results["scale"]["complete"]],
            ["stitched edges", results["scale"]["stitch"]["n_edges"]],
        ],
    )

    OUTPUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")
    history = append_bench_history("sparse_shard", results)
    print(f"appended history row to {history}")
    return results


def test_sparse_shard_benchmark(benchmark):
    """Pytest entry point (used by CI to regenerate the artifact)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep this test active under --benchmark-only
    main()


if __name__ == "__main__":
    main()
