"""Gap accounting, hierarchical planning, and boundary re-solve.

Every block is its own job: when all of them fail the report still accounts
each block and owned node, and contract violations (an "ok" result with no
weights) surface as anomalies instead of silently shrinking the graph.
Hierarchical planning must assemble the same kind of plan partition by
partition, and a boundary re-solve round must recover cross-partition edges
the partitioned first pass cannot see.  (A hard-killed block losing only
itself, and dispatch-independent stitched weights, are pinned in
``test_shard_streaming.py``.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backend import (
    BackendSpec,
    SolveResult,
    register_backend,
    unregister_backend,
)
from repro.exceptions import ValidationError
from repro.graph.dag import is_dag
from repro.metrics.structural import recall
from repro.shard.executor import (
    MISSING_NODES_REPORT_CAP,
    ShardExecutor,
    ShardResult,
    solve_sharded,
)
from repro.shard.planner import ShardBlock, ShardPlan, ShardPlanner, _core_affinities
from repro.shard.stitcher import StitchedGraph, Stitcher, StitchReport

# Abort with tracebacks instead of hanging CI.
pytestmark = pytest.mark.timeout(180)


# -- helper solvers (module level so spawn can pickle them) --------------------


@dataclass(frozen=True)
class _AlwaysBoomConfig:
    """Config of the always-crashing solver."""

    message: str = "block solver exploded"


class _AlwaysBoomBackend:
    """Raises on every fit call — the all-blocks-failed scenario."""

    name = "wave-boom"

    def __init__(self, config: _AlwaysBoomConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        raise ValueError(self.config.message)


@dataclass(frozen=True)
class _NoWeightsConfig:
    """Config of the contract-violating solver."""

    pass


class _NoWeightsBackend:
    """Reports a successful solve but returns no weight matrix."""

    name = "wave-noweights"

    def __init__(self, config: _NoWeightsConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        return SolveResult(
            solver=self.name,
            weights=None,
            constraint_value=0.0,
            converged=True,
            n_outer_iterations=1,
        )


@pytest.fixture
def boom_solver():
    register_backend(
        BackendSpec(
            name="wave-boom",
            backend_class=_AlwaysBoomBackend,
            config_class=_AlwaysBoomConfig,
        ),
        overwrite=True,
    )
    yield "wave-boom"
    unregister_backend("wave-boom")


@pytest.fixture
def no_weights_solver():
    register_backend(
        BackendSpec(
            name="wave-noweights",
            backend_class=_NoWeightsBackend,
            config_class=_NoWeightsConfig,
        ),
        overwrite=True,
    )
    yield "wave-noweights"
    unregister_backend("wave-noweights")


def _chain_data(d: int, n: int = 300, seed: int = 1) -> np.ndarray:
    """Samples of a coefficient-0.7 chain over ``d`` nodes."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    for j in range(1, d):
        data[:, j] += 0.7 * data[:, j - 1]
    return data


def _dense(weights) -> np.ndarray:
    return weights.toarray() if sp.issparse(weights) else np.asarray(weights)


# -- gap accounting ------------------------------------------------------------


def test_executor_rejects_negative_boundary_rounds():
    with pytest.raises(ValidationError):
        ShardExecutor(boundary_rounds=-1)


def test_all_blocks_failed_yields_empty_dag_and_complete_gap_report(boom_solver):
    """Total failure still produces a valid (empty) DAG and exact gap record."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(30, 12))
    plan = ShardPlan(
        n_nodes=12,
        blocks=[
            ShardBlock(index=i, core=tuple(range(3 * i, 3 * i + 3)))
            for i in range(4)
        ],
    )
    executor = ShardExecutor(solver=boom_solver)
    result = executor.run(data, plan, seed=0)

    assert result.n_blocks_ok == 0
    assert result.n_blocks_failed == 4
    assert not result.complete
    assert is_dag(result.weights)
    assert np.count_nonzero(_dense(result.weights)) == 0
    assert result.missing_nodes == list(range(12))
    report = result.report()
    assert report["gaps"]["n_blocks_ok"] == 0
    assert report["gaps"]["n_blocks_failed"] == 4
    assert report["gaps"]["n_missing_nodes"] == 12
    assert report["gaps"]["missing_nodes"] == list(range(12))
    assert report["gaps"]["missing_nodes_truncated"] is False
    assert all(entry["status"] == "failed" for entry in report["blocks"])
    assert all("exploded" in (entry["error"] or "") for entry in report["blocks"])


def test_ok_without_weights_is_anomaly_and_counts_as_missing(no_weights_solver):
    """status=="ok" with no weights must not silently shrink the graph."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(30, 6))
    plan = ShardPlan(
        n_nodes=6,
        blocks=[
            ShardBlock(index=0, core=(0, 1, 2)),
            ShardBlock(index=1, core=(3, 4, 5)),
        ],
    )
    executor = ShardExecutor(solver=no_weights_solver)
    result = executor.run(data, plan, seed=0)

    # Both blocks claim success, yet nothing usable came back.
    assert result.n_blocks_ok == 2
    assert result.missing_nodes == list(range(6))
    assert not result.complete
    assert len(result.anomalies) == 2
    report = result.report()
    assert report["gaps"]["n_anomalies"] == 2
    assert report["gaps"]["n_missing_nodes"] == 6
    assert all(entry["anomaly"] for entry in report["blocks"])


def test_missing_nodes_report_is_truncated_but_counted_exactly():
    """The report embeds a bounded prefix, never the full 100k-node list."""
    n_missing = MISSING_NODES_REPORT_CAP + 37
    stitched = StitchedGraph(
        weights=np.zeros((n_missing, n_missing)), report=StitchReport()
    )
    result = ShardResult(
        weights=stitched.weights,
        plan=ShardPlan(
            n_nodes=n_missing,
            blocks=[ShardBlock(index=0, core=tuple(range(n_missing)))],
        ),
        stitched=stitched,
        block_results=[],
        missing_nodes=list(range(n_missing)),
    )
    gaps = result.report()["gaps"]
    assert gaps["n_missing_nodes"] == n_missing
    assert gaps["missing_nodes"] == list(range(MISSING_NODES_REPORT_CAP))
    assert gaps["missing_nodes_truncated"] is True


# -- hierarchical planning -----------------------------------------------------


def test_hierarchical_plan_partitions_nodes_and_matches_batches():
    data = _chain_data(40)
    planner = ShardPlanner(
        skeleton_threshold=0.2, max_block_size=8, partition_columns=20
    )
    plan = planner.plan(data)

    cores = sorted(node for block in plan.blocks for node in block.core)
    assert cores == list(range(40))
    assert [block.index for block in plan.blocks] == list(range(plan.n_blocks))
    # Every block (core and halo) stays inside its own column partition.
    for block in plan.blocks:
        partition = min(block.core) // 20
        lo, hi = partition * 20, partition * 20 + 20
        assert all(lo <= node < hi for node in block.core + block.halo)
    # The incremental generator and the one-shot plan agree exactly.
    batches = list(planner.iter_block_batches(data))
    flat = [block for batch, _ in batches for block in batch]
    assert [block.core for block in flat] == [block.core for block in plan.blocks]
    assert [block.halo for block in flat] == [block.halo for block in plan.blocks]
    assert sum(edges for _, edges in batches) == plan.n_skeleton_edges


def test_partition_columns_must_fit_a_block():
    with pytest.raises(ValidationError):
        ShardPlanner(max_block_size=64, partition_columns=32)


def test_overlapped_run_stream_matches_plan_first_run():
    data = _chain_data(36)
    planner = ShardPlanner(
        skeleton_threshold=0.2, max_block_size=6, partition_columns=18
    )
    config = {"max_outer_iterations": 3, "max_inner_iterations": 30}
    executor = ShardExecutor(config=config)
    streamed = executor.run_stream(data, planner, seed=0)
    plan = planner.plan(data)
    planned = ShardExecutor(config=config).run(data, plan, seed=0)

    assert streamed.complete and planned.complete
    assert streamed.plan.n_blocks == planned.plan.n_blocks
    np.testing.assert_allclose(_dense(streamed.weights), _dense(planned.weights))


def test_solve_sharded_routes_partitioned_planners_through_run_stream():
    data = _chain_data(24)
    planner = ShardPlanner(
        skeleton_threshold=0.2, max_block_size=6, partition_columns=12
    )
    executor = ShardExecutor(
        config={"max_outer_iterations": 3, "max_inner_iterations": 30}
    )
    result = solve_sharded(data, planner, executor, seed=0)
    assert result.complete
    assert result.plan.n_nodes == 24
    assert [r.job_id for r in result.block_results] == [
        f"block-{k:03d}" for k in range(result.plan.n_blocks)
    ]


# -- vectorized halo ranking ---------------------------------------------------


def test_core_affinities_match_naive_loop_dense_and_sparse():
    rng = np.random.default_rng(5)
    affinity = np.abs(rng.normal(size=(30, 30)))
    affinity = (affinity + affinity.T) / 2
    np.fill_diagonal(affinity, 0.0)
    core = np.asarray([2, 7, 11], dtype=int)
    candidates = np.asarray([0, 4, 9, 15, 22, 29], dtype=int)

    expected = np.asarray(
        [max(affinity[candidate, c] for c in core) for candidate in candidates]
    )
    dense_scores = _core_affinities(affinity, candidates, core)
    np.testing.assert_allclose(dense_scores, expected)
    sparse_scores = _core_affinities(sp.csr_matrix(affinity), candidates, core)
    np.testing.assert_allclose(sparse_scores, expected)


def test_halo_ranking_unchanged_by_vectorization():
    """max_halo_size keeps the strongest-affinity candidates, ties ascending."""
    data = _chain_data(20, seed=3)
    capped = ShardPlanner(
        skeleton_threshold=0.15, max_block_size=5, max_halo_size=2
    ).plan(data)
    uncapped = ShardPlanner(skeleton_threshold=0.15, max_block_size=5).plan(data)
    for block_capped, block_full in zip(capped.blocks, uncapped.blocks):
        assert set(block_capped.halo) <= set(block_full.halo)
        assert len(block_capped.halo) <= 2


# -- boundary re-solve ---------------------------------------------------------


def _two_component_problem() -> tuple[np.ndarray, np.ndarray]:
    """Two chain components plus cross-component edges only a global view sees."""
    d, half = 40, 20
    truth = np.zeros((d, d))
    for part in (0, half):
        for j in range(part + 1, part + half):
            truth[j - 1, j] = 0.8
    for a, b in ((5, 25), (10, 30), (15, 35)):
        truth[a, b] = 0.9
    rng = np.random.default_rng(7)
    n = 600
    data = np.zeros((n, d))
    for j in range(d):  # truth is upper-triangular: 0..d-1 is topological
        data[:, j] = truth[:, j] @ data.T + rng.normal(size=n)
    return data, truth


def test_boundary_resolve_strictly_increases_recall():
    """A re-solve round recovers cross-partition edges the first pass misses."""
    data, truth = _two_component_problem()
    planner = ShardPlanner(
        skeleton_threshold=0.25, max_block_size=5, partition_columns=20
    )
    executor = ShardExecutor(
        config={"max_outer_iterations": 4, "max_inner_iterations": 40},
        edge_threshold=0.15,
        boundary_rounds=1,
    )
    result = solve_sharded(data, planner, executor, seed=0)

    assert result.initial_weights is not None
    before = recall(result.initial_weights, truth)
    after = recall(result.weights, truth)
    assert after > before
    assert is_dag(result.weights)
    # The partitioned first pass cannot produce cross-partition edges at all.
    initial = _dense(result.initial_weights)
    assert np.count_nonzero(initial[:20, 20:]) == 0
    assert np.count_nonzero(initial[20:, :20]) == 0
    # The round is accounted in the report.
    assert len(result.rounds) == 1
    entry = result.rounds[0]
    assert entry["round"] == 1
    assert entry["n_blocks_ok"] >= 1
    assert entry["n_edges_after"] > entry["n_edges_before"]
    report = result.report()
    assert report["resolve"]["n_rounds"] == 1
    assert report["resolve"]["rounds"][0]["n_boundary_nodes"] == entry[
        "n_boundary_nodes"
    ]


def test_boundary_resolve_noop_without_boundary():
    """No halos and no gaps -> the round loop exits without doing anything."""
    rng = np.random.default_rng(2)
    data = rng.normal(size=(60, 6))
    planner = ShardPlanner(skeleton_threshold=0.99, max_block_size=6, halo_depth=0)
    executor = ShardExecutor(
        config={"max_outer_iterations": 2, "max_inner_iterations": 20},
        boundary_rounds=2,
    )
    result = solve_sharded(data, planner, executor, seed=0)
    assert result.rounds == []
    assert result.initial_weights is not None


def test_wave_stitcher_default() -> None:
    """A default Stitcher instance is shared state-free across runs."""
    stitcher = Stitcher()
    graph = stitcher.stitch([], 4)
    assert is_dag(graph.weights)
    assert graph.report.n_blocks == 0
