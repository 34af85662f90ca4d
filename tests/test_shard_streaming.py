"""Failure paths of sharded execution on the streaming engine.

A block job that hangs is preempted (SIGKILL at the deadline), or requeued
first under the ``"requeue"`` policy; a block whose solver raises fails.  In
every case the stitcher must still emit a DAG from the surviving blocks and
the gap (which blocks, which owned nodes) must be recorded in the run report.
These tests run the real engine with worker processes, so they are written to
pass under both ``fork`` and ``spawn`` start methods (module-level solver
classes, picklable configs).  The same goes for the determinism pin: the
stitched weights depend only on (data, plan, config, seed), never on how the
blocks were dispatched.
"""

from __future__ import annotations

import time
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
from repro.core.least import LEASTConfig
from repro.exceptions import ValidationError
from repro.graph.dag import is_dag
from repro.serve.job import JobResult
from repro.serve.scheduler import RelearnScheduler
from repro.shard.executor import ShardExecutor, ShardResult, solve_sharded
from repro.shard.planner import ShardBlock, ShardPlan, ShardPlanner
from repro.shard.stitcher import StitchedGraph, Stitcher

# Concurrency suite: abort with tracebacks instead of hanging CI on deadlock.
pytestmark = pytest.mark.timeout(120)

#: Deadline generous enough that a spawn-started worker can import and solve
#: the instant blocks, yet short against the hanging solver's sleep.
DEADLINE = 3.0


@dataclass(frozen=True)
class _SizeHangConfig:
    """Config of the size-triggered hanging solver (picklable for spawn)."""

    hang_at_least: int = 10_000
    duration: float = 60.0


def _chain_result(solver: str, d: int) -> SolveResult:
    """A converged solve returning the chain 0 → 1 → ... → d-1."""
    weights = np.zeros((d, d))
    for i in range(d - 1):
        weights[i, i + 1] = 1.0
    return SolveResult(
        solver=solver,
        weights=weights,
        constraint_value=0.0,
        converged=True,
        n_outer_iterations=1,
    )


class _SizeHangBackend:
    """Hangs on blocks with >= ``hang_at_least`` columns, else solves a chain."""

    name = "shard-hang"

    def __init__(self, config: _SizeHangConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        """Return a chain graph instantly, or sleep far past any deadline."""
        d = data.shape[1]
        if d >= self.config.hang_at_least:
            time.sleep(self.config.duration)
        return _chain_result(self.name, d)


@dataclass(frozen=True)
class _SizeBoomConfig:
    """Config of the size-triggered crashing solver."""

    boom_at_least: int = 10_000


class _SizeBoomBackend:
    """Raises on blocks with >= ``boom_at_least`` columns, else solves a chain."""

    name = "shard-boom"

    def __init__(self, config: _SizeBoomConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        """Return a chain graph, or raise to exercise the failed path."""
        d = data.shape[1]
        if d >= self.config.boom_at_least:
            raise ValueError("block solver exploded")
        return _chain_result(self.name, d)


@pytest.fixture()
def hang_solver():
    """Register the hanging solver for the duration of one test."""
    register_backend(
        BackendSpec(
            name="shard-hang",
            backend_class=_SizeHangBackend,
            config_class=_SizeHangConfig,
        ),
        overwrite=True,
    )
    yield "shard-hang"
    unregister_backend("shard-hang")


@pytest.fixture()
def boom_solver():
    """Register the crashing solver for the duration of one test."""
    register_backend(
        BackendSpec(
            name="shard-boom",
            backend_class=_SizeBoomBackend,
            config_class=_SizeBoomConfig,
        ),
        overwrite=True,
    )
    yield "shard-boom"
    unregister_backend("shard-boom")


def _two_block_plan() -> tuple[np.ndarray, ShardPlan]:
    """An 11-node problem with one 8-node block and one 3-node block."""
    rng = np.random.default_rng(42)
    data = rng.normal(size=(30, 11))
    plan = ShardPlan(
        n_nodes=11,
        blocks=[
            ShardBlock(index=0, core=tuple(range(8))),
            ShardBlock(index=1, core=(8, 9, 10)),
        ],
    )
    return data, plan


def test_preempted_block_reported_and_survivors_stitch_to_dag(hang_solver):
    data, plan = _two_block_plan()
    executor = ShardExecutor(
        solver=hang_solver,
        config={"hang_at_least": 8, "duration": 60.0},
        n_workers=2,
        timeout=DEADLINE,
        preempt_policy="fail",
    )
    result = executor.run(data, plan, seed=0)

    assert result.n_blocks_preempted == 1
    assert result.n_blocks_ok == 1
    assert not result.complete
    # The surviving 3-node block contributes its chain; the stitched graph is
    # a DAG restricted to the survivor's nodes.
    assert is_dag(result.weights)
    assert result.weights[8, 9] == 1.0 and result.weights[9, 10] == 1.0
    assert np.count_nonzero(result.weights[:8, :]) == 0
    assert np.count_nonzero(result.weights[:, :8]) == 0
    # The gap is recorded: the preempted block's owned nodes are missing.
    assert result.missing_nodes == list(range(8))
    report = result.report()
    assert report["gaps"]["n_blocks_preempted"] == 1
    assert report["gaps"]["n_missing_nodes"] == 8
    assert report["gaps"]["missing_nodes"] == list(range(8))
    assert report["blocks"][0]["status"] == "preempted"
    assert report["blocks"][1]["status"] == "ok"
    assert result.preemption["n_killed"] >= 1.0


def test_requeue_policy_grants_fresh_attempts_before_reporting(hang_solver):
    data, plan = _two_block_plan()
    executor = ShardExecutor(
        solver=hang_solver,
        config={"hang_at_least": 8, "duration": 60.0},
        n_workers=2,
        timeout=DEADLINE,
        preempt_policy="requeue",
        preempt_retries=1,
    )
    result = executor.run(data, plan, seed=0)

    # The hanging block was requeued once, hung again, and was then reported.
    assert result.preemption["n_requeued"] == 1.0
    assert result.n_blocks_preempted == 1
    assert result.n_blocks_ok == 1
    assert is_dag(result.weights)
    assert result.missing_nodes == list(range(8))


def test_failed_block_recorded_as_gap(boom_solver):
    data, plan = _two_block_plan()
    executor = ShardExecutor(
        solver=boom_solver,
        config={"boom_at_least": 8},
        n_workers=2,
        timeout=DEADLINE,
    )
    result = executor.run(data, plan, seed=0)

    assert result.n_blocks_failed == 1
    assert result.n_blocks_ok == 1
    assert is_dag(result.weights)
    assert result.missing_nodes == list(range(8))
    failed = result.block_results[0]
    assert failed.status == "failed"
    assert "exploded" in (failed.error or "")


def test_all_blocks_preempted_yields_empty_dag(hang_solver):
    data, plan = _two_block_plan()
    executor = ShardExecutor(
        solver=hang_solver,
        config={"hang_at_least": 1, "duration": 60.0},  # every block hangs
        n_workers=2,
        timeout=DEADLINE,
    )
    result = executor.run(data, plan, seed=0)

    assert result.n_blocks_ok == 0
    assert result.n_blocks_preempted == 2
    assert np.count_nonzero(result.weights) == 0
    assert is_dag(result.weights)
    assert result.missing_nodes == list(range(11))


def test_stitched_weights_bitwise_equal_across_dispatch():
    """Workers, entry point and ``wave_blocks`` do not move a single bit."""
    rng = np.random.default_rng(3)
    data = rng.normal(size=(200, 36))
    for j in range(1, 36):
        data[:, j] += 0.7 * data[:, j - 1]
    planner = ShardPlanner(
        skeleton_threshold=0.2, max_block_size=6, partition_columns=18
    )
    plan = planner.plan(data)
    assert plan.n_blocks >= 4
    config = {"max_outer_iterations": 3, "max_inner_iterations": 40}

    def stitched(n_workers, entry, wave_blocks, planner=planner, plan=plan):
        executor = ShardExecutor(
            solver="least_sparse",
            config=config,
            n_workers=n_workers,
            edge_threshold=0.1,
            wave_blocks=wave_blocks,
            boundary_rounds=1,
        )
        if entry == "run":
            result = executor.run(data, plan, seed=0, planner=planner)
        elif entry == "run_stream":
            result = executor.run_stream(data, planner, seed=0)
        else:
            result = solve_sharded(data, planner, executor, seed=0)
        assert result.complete
        assert result.n_waves == 0
        return sp.csr_matrix(result.weights)

    reference = stitched(1, "run", None)
    assert reference.nnz > 0
    for n_workers in (1, 2):
        for entry in ("run", "run_stream"):
            for wave_blocks in (None, 4):
                weights = stitched(n_workers, entry, wave_blocks)
                case = (n_workers, entry, wave_blocks)
                assert weights.shape == reference.shape, case
                assert np.array_equal(weights.toarray(), reference.toarray()), case

    # solve_sharded on an unpartitioned planner is run() on that planner's plan.
    flat = planner.unpartitioned()
    flat_plan = flat.plan(data)
    assert flat_plan.n_blocks >= 4
    flat_reference = stitched(1, "run", None, flat, flat_plan)
    for n_workers in (1, 2):
        weights = stitched(n_workers, "solve_sharded", None, flat, flat_plan)
        assert np.array_equal(weights.toarray(), flat_reference.toarray()), n_workers


@pytest.mark.parametrize(
    "options",
    [
        {"n_workers": 0},
        {"preempt_policy": "bogus"},
        {"timeout": -1.0},
        {"timeout": 1.0, "soft_timeout": 2.0},
    ],
    ids=["n_workers", "preempt_policy", "timeout", "soft_above_hard"],
)
def test_bad_engine_options_rejected_at_construction(options):
    with pytest.raises(ValidationError):
        ShardExecutor(**options)


def test_scheduler_shards_large_windows_and_stitches_a_dag(er2_problem):
    data = er2_problem["data"]
    scheduler = RelearnScheduler(
        LEASTConfig(max_outer_iterations=2, max_inner_iterations=30),
        shard_vocabulary_threshold=10,
    )
    names = [f"n{i}" for i in range(data.shape[1])]
    result = scheduler.step(data, names, seed=3)

    stats = scheduler.history[-1]
    assert stats.sharded
    assert stats.n_blocks >= 1
    assert stats.n_blocks_unsolved == 0
    assert not stats.preempted
    assert is_dag(result.weights)
    assert scheduler.state is not None  # stitched result seeds future windows
    assert scheduler.last_shard_result is not None
    assert scheduler.last_shard_result.complete

    # A small vocabulary stays monolithic (and can warm-start off the stitch).
    scheduler.step(data[:, :6], names[:6], seed=3)
    assert not scheduler.history[-1].sharded
    assert scheduler.history[-1].warm_started


def test_scheduler_degrades_window_when_no_block_survives(monkeypatch, er2_problem):
    data = er2_problem["data"]
    d = data.shape[1]
    plan = ShardPlan(n_nodes=d, blocks=[ShardBlock(index=0, core=tuple(range(d)))])

    def _all_preempted(self, run_data, run_plan, seed=0):
        from repro.serve.job import JobResult

        return ShardResult(
            weights=np.zeros((d, d)),
            plan=run_plan,
            stitched=Stitcher().stitch([], d),
            block_results=[
                JobResult(job_id="block-000", solver="least", status="preempted")
            ],
            missing_nodes=list(range(d)),
        )

    monkeypatch.setattr(ShardExecutor, "run", _all_preempted)
    scheduler = RelearnScheduler(
        LEASTConfig(max_outer_iterations=2, max_inner_iterations=30),
        shard_vocabulary_threshold=1,
        shard_planner=_PlanStub(plan),
    )
    result = scheduler.step(data, [f"n{i}" for i in range(d)], seed=0)

    stats = scheduler.history[-1]
    assert stats.sharded and stats.preempted
    assert stats.n_blocks == 1 and stats.n_blocks_unsolved == 1
    assert not result.converged
    assert np.count_nonzero(result.weights) == 0
    assert scheduler.state is None  # carried state untouched by the lost window


class _PlanStub:
    """A planner stand-in returning a fixed plan (used by the degrade test)."""

    def __init__(self, plan: ShardPlan):
        self._plan = plan

    def plan(self, data) -> ShardPlan:
        """Return the canned plan regardless of the data."""
        return self._plan


def test_stitched_graph_type_roundtrip(hang_solver):
    """A StitchedGraph carries the weights the executor exposes."""
    data, plan = _two_block_plan()
    executor = ShardExecutor(
        solver=hang_solver,
        config={"hang_at_least": 10_000},  # nothing hangs
        n_workers=1,
    )
    result = executor.run(data, plan, seed=0)
    assert isinstance(result.stitched, StitchedGraph)
    assert result.complete
    assert result.stitched.weights is result.weights
    assert result.stitched.report.n_blocks == 2


def test_sharded_window_reproducible_with_generator_seed(er2_problem):
    """A generator seed must reproduce sharded windows, not silently unseed them."""
    data = er2_problem["data"]
    names = [f"n{i}" for i in range(data.shape[1])]
    weights = []
    for _ in range(2):
        scheduler = RelearnScheduler(
            LEASTConfig(max_outer_iterations=2, max_inner_iterations=30),
            shard_vocabulary_threshold=10,
        )
        result = scheduler.step(data, names, seed=np.random.default_rng(123))
        weights.append(result.weights)
    assert np.array_equal(weights[0], weights[1])


def test_scheduler_splits_window_deadline_across_blocks(monkeypatch, er2_problem):
    """window_deadline bounds the WINDOW: blocks share it, not multiply it."""
    data = er2_problem["data"]
    d = data.shape[1]
    blocks = [
        ShardBlock(index=0, core=tuple(range(0, 7))),
        ShardBlock(index=1, core=tuple(range(7, 14))),
        ShardBlock(index=2, core=tuple(range(14, d))),
    ]
    plan = ShardPlan(n_nodes=d, blocks=blocks)
    seen = {}

    def _capture(self, run_data, run_plan, seed=0):
        seen["timeout"] = self.timeout
        seen["edge_threshold"] = self.edge_threshold
        return ShardResult(
            weights=np.zeros((d, d)),
            plan=run_plan,
            stitched=Stitcher().stitch([], d),
            block_results=[
                JobResult(job_id=f"block-{b.index:03d}", solver="least", status="ok")
                for b in run_plan.blocks
            ],
        )

    monkeypatch.setattr(ShardExecutor, "run", _capture)
    scheduler = RelearnScheduler(
        LEASTConfig(max_outer_iterations=2, max_inner_iterations=30),
        shard_vocabulary_threshold=1,
        shard_planner=_PlanStub(plan),
        window_deadline=9.0,
        shard_edge_threshold=0.25,
    )
    scheduler.step(data, [f"n{i}" for i in range(d)], seed=0)
    assert seen["timeout"] == pytest.approx(3.0)  # 9s window / 3 serial blocks
    assert seen["edge_threshold"] == 0.25
