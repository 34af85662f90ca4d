"""Executing a shard plan on the streaming serving engine.

:class:`ShardExecutor` materializes the blocks of a
:class:`~repro.shard.planner.ShardPlan` as inline-data
:class:`~repro.serve.job.LearningJob` records and drives them through its
:class:`~repro.serve.streaming.StreamingRunner` — inheriting the engine's
parallel workers, hard per-block deadlines (SIGKILL + suicide timers), the
fail/requeue preemption policy, and result caching.  Block results are
consumed as they stream in; once the stream drains, the surviving sub-graphs
are merged by :class:`~repro.shard.stitcher.Stitcher` into one global DAG.
:meth:`ShardExecutor.run` (a plan) and :meth:`ShardExecutor.run_stream` (a
planner) are entry points over one pass, whose solve step the boundary
rounds reuse.  A plan-first pass runs inline at one worker without a
deadline, like :meth:`~repro.serve.streaming.StreamingRunner.stream`; a
partitioned pass always runs on pool workers.

Two mechanisms push the sharded path toward very wide problems:

* **Overlapped plan/execute** (:meth:`ShardExecutor.run_stream`): with a
  hierarchical planner (:attr:`~repro.shard.planner.ShardPlanner.partition_columns`)
  each partition's block jobs are submitted the moment that partition is
  planned, so block solves run while later partitions are still being
  planned — and no single global skeleton ever has to exist in memory.
* **Boundary re-solve** (:attr:`ShardExecutor.boundary_rounds`): after the
  first stitch, the nodes around block boundaries (owned nodes of failed
  blocks plus every halo node) are re-planned over a *fresh* skeleton — one
  that may connect nodes from different partitions — warm-started from the
  stitched graph, solved, and stitched in with everything else.  Each round
  recovers cross-partition edges the partitioned first pass could not see.

Failure containment is the point of running blocks as independent jobs: a
block whose worker crashes or blows its deadline costs exactly that block,
and the stitcher assembles a DAG from the survivors while the gap (which
blocks and which owned nodes are missing) is recorded in the
:class:`ShardResult` report instead of poisoning the whole solve.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.backend import get_spec
from repro.core.thresholding import threshold_weights
from repro.exceptions import ValidationError
from repro.serve.cache import ResultCache
from repro.serve.job import JobResult, LearningJob
from repro.serve.streaming import StreamingRunner
from repro.shard.planner import ShardBlock, ShardPlan, ShardPlanner
from repro.shard.stitcher import StitchedGraph, Stitcher
from repro.utils.timer import Timer
from repro.utils.validation import check_non_negative, ensure_2d

__all__ = [
    "MISSING_NODES_REPORT_CAP",
    "ShardResult",
    "ShardExecutor",
    "solve_sharded",
]

#: Upper bound on the ``missing_nodes`` list embedded in a report.  At the
#: 100k-node regime a bad pass can lose tens of thousands of nodes; the JSON
#: report keeps an exact count plus a bounded prefix instead of the full list.
MISSING_NODES_REPORT_CAP = 200


@dataclass
class ShardResult:
    """Outcome of one sharded solve.

    Attributes
    ----------
    weights:
        The stitched global ``d × d`` weight matrix — always a DAG, built
        from the blocks that completed.  CSR when the blocks were solved by
        a sparse backend (the sharded path never densifies sparse results),
        dense ndarray otherwise.
    plan:
        The executed :class:`~repro.shard.planner.ShardPlan`.
    stitched:
        The :class:`~repro.shard.stitcher.StitchedGraph` carrying the
        conflict-accounting report (the *final* stitch when boundary
        re-solve rounds ran).
    block_results:
        One :class:`~repro.serve.job.JobResult` per block of the plan, in
        block order.
    missing_nodes:
        Global indices owned by blocks that did not produce a usable
        sub-graph (failed, preempted, or anomalously weight-less) and that
        no boundary re-solve round recovered; their outgoing/incoming edges
        may be absent from :attr:`weights`.
    total_seconds:
        Wall-clock duration of the execute-and-stitch pass (including any
        boundary re-solve rounds).
    preemption:
        The streaming engine's preemption counters, accumulated over the
        first pass and every re-solve round
        (``n_killed`` / ``n_suicide_exits`` / ``n_requeued``).
    anomalies:
        Map from block job id to a description of a contract violation —
        currently the one observable from outside a worker: a result whose
        ``status`` is ``"ok"`` but whose weights are missing.  Anomalous
        blocks are treated as gaps (their owned nodes count as missing).
    rounds:
        One JSON-able record per executed boundary re-solve round (counters
        plus per-block digests).
    initial_weights:
        The stitched weights of the first pass, before any boundary
        re-solve round touched them (``None`` when no rounds ran) — kept so
        callers can measure what the rounds changed.
    """

    weights: np.ndarray | sp.csr_matrix
    plan: ShardPlan
    stitched: StitchedGraph
    block_results: list[JobResult] = field(default_factory=list)
    missing_nodes: list[int] = field(default_factory=list)
    total_seconds: float = 0.0
    preemption: dict[str, float] = field(default_factory=dict)
    anomalies: dict[str, str] = field(default_factory=dict)
    rounds: list[dict[str, Any]] = field(default_factory=list)
    initial_weights: np.ndarray | sp.csr_matrix | None = None

    @property
    def n_waves(self) -> int:
        """Always 0: every block is its own job.

        Kept so callers that still add it up keep running.
        """
        return 0

    @property
    def n_blocks_ok(self) -> int:
        """Blocks that solved successfully."""
        return sum(1 for r in self.block_results if r.status == "ok")

    @property
    def n_blocks_failed(self) -> int:
        """Blocks that failed (dataset/solver error or worker crash)."""
        return sum(1 for r in self.block_results if r.status == "failed")

    @property
    def n_blocks_preempted(self) -> int:
        """Blocks killed at their deadline (after any requeue attempts)."""
        return sum(1 for r in self.block_results if r.status == "preempted")

    @property
    def complete(self) -> bool:
        """True when every owned node is covered by a usable block solve.

        Coverage counts both the first pass and boundary re-solve rounds: a
        node owned by a failed block that a later round re-solved is not
        missing.  A block that claimed ``"ok"`` without returning weights
        does *not* cover its nodes (see :attr:`anomalies`).
        """
        return not self.missing_nodes

    def report(self) -> dict[str, Any]:
        """JSON-able run report: plan and stitch digests plus the gap record.

        The ``gaps`` block is how a degraded solve is surfaced: which blocks
        did not complete, why, and which owned nodes the stitched graph is
        therefore missing context for.  ``n_missing_nodes`` is always the
        exact count; the embedded ``missing_nodes`` list is truncated to the
        first :data:`MISSING_NODES_REPORT_CAP` entries (flagged by
        ``missing_nodes_truncated``) so a catastrophic pass cannot bloat the
        report.
        """
        return {
            "plan": self.plan.summary(),
            "stitch": self.stitched.report.as_dict(),
            "blocks": [
                {
                    "job_id": r.job_id,
                    "status": r.status,
                    "n_edges": r.n_edges,
                    "elapsed_seconds": r.elapsed_seconds,
                    "attempts": r.attempts,
                    "error": r.error,
                    "anomaly": self.anomalies.get(r.job_id),
                }
                for r in self.block_results
            ],
            "gaps": {
                "n_blocks_ok": self.n_blocks_ok,
                "n_blocks_failed": self.n_blocks_failed,
                "n_blocks_preempted": self.n_blocks_preempted,
                "n_anomalies": len(self.anomalies),
                "n_missing_nodes": len(self.missing_nodes),
                "missing_nodes": list(
                    self.missing_nodes[:MISSING_NODES_REPORT_CAP]
                ),
                "missing_nodes_truncated": (
                    len(self.missing_nodes) > MISSING_NODES_REPORT_CAP
                ),
            },
            "resolve": {
                "n_rounds": len(self.rounds),
                "rounds": [dict(entry) for entry in self.rounds],
            },
            "total_seconds": self.total_seconds,
            "preemption": dict(self.preemption),
        }


def _block_digest(result: JobResult, anomaly: str | None) -> dict[str, Any]:
    """Small JSON-able record of one block outcome (round reports)."""
    return {
        "job_id": result.job_id,
        "status": result.status,
        "n_edges": result.n_edges,
        "attempts": result.attempts,
        "error": result.error,
        "anomaly": anomaly,
    }


def _edge_count(weights: np.ndarray | sp.spmatrix) -> int:
    """Non-zero entries of a stitched weight matrix (dense or CSR)."""
    if sp.issparse(weights):
        return int(weights.nnz)
    return int(np.count_nonzero(weights))


class ShardExecutor:
    """Solve every block of a plan as a streamed job and stitch the results.

    The engine options (``n_workers`` to ``max_jobs_per_worker``) build the
    executor's :class:`~repro.serve.streaming.StreamingRunner`, so a bad
    value raises :class:`~repro.exceptions.ValidationError` here.

    Parameters
    ----------
    solver:
        Registered solver name used for every block job — any name in
        :func:`repro.serve.job.solver_names`.  With ``"least_sparse"`` the
        whole path stays CSR: each block job defaults to the per-block
        correlation support (``support="correlation"`` is injected into the
        block config unless the caller set one), block results are
        thresholded in sparse form, and the stitched graph is returned as
        CSR — no step materializes a dense ``d × d`` matrix.
    config:
        JSON-able keyword arguments for the solver's config class, shared by
        all blocks.
    n_workers:
        Concurrent worker processes of the underlying
        :class:`~repro.serve.streaming.StreamingRunner`.
    timeout:
        Hard per-block deadline in seconds (``None`` disables preemption).
    preempt_policy, preempt_retries:
        Forwarded to the streaming engine: what happens to a job killed at
        its deadline (``"fail"`` or ``"requeue"`` with fresh attempts).
    max_retries:
        Extra in-worker attempts for failing block solves.
    cache:
        Optional :class:`~repro.serve.cache.ResultCache` shared across runs —
        re-solving an unchanged block becomes a cache hit.
    edge_threshold:
        Entries with ``|weight|`` below this are dropped from each block's
        sub-graph *before* stitching, so conflict accounting operates on the
        edges that would survive anyway.
    stitcher:
        The :class:`~repro.shard.stitcher.Stitcher` to merge with (a default
        one is built when omitted).
    soft_timeout:
        Optional cooperative per-block deadline (seconds, ≤ ``timeout``):
        block solvers are asked to stop at an outer-iteration boundary before
        the hard SIGKILL tier fires.
    max_jobs_per_worker:
        Recycle a pool worker after this many jobs (``None`` keeps workers
        for the whole pass).
    wave_blocks:
        Accepted and ignored: every block is its own job.  Kept so callers
        that still pass it keep running.
    boundary_rounds:
        Boundary re-solve: after the first stitch, run this many extra
        rounds that re-plan the boundary node set (owned nodes of
        unfinished blocks plus every halo node) over a fresh skeleton,
        warm-start those blocks from the stitched graph, and re-stitch.
        ``0`` (default) disables the mechanism.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  A pass then executes
        inside a ``shard_solve`` span — block job spans (from the streaming
        engine) and the ``stitch`` span nest under it — and per-status block
        counters land in ``tracer.metrics``.
    """

    def __init__(
        self,
        solver: str = "least",
        config: dict[str, Any] | None = None,
        n_workers: int = 1,
        timeout: float | None = None,
        preempt_policy: str = "fail",
        preempt_retries: int = 1,
        max_retries: int = 0,
        cache: ResultCache | None = None,
        edge_threshold: float = 0.0,
        stitcher: Stitcher | None = None,
        soft_timeout: float | None = None,
        max_jobs_per_worker: int | None = None,
        wave_blocks: int | None = None,
        boundary_rounds: int = 0,
        tracer=None,
    ) -> None:
        check_non_negative(edge_threshold, "edge_threshold")
        if boundary_rounds < 0:
            raise ValidationError(
                f"boundary_rounds must be >= 0, got {boundary_rounds}"
            )
        self.solver = solver
        self.config = dict(config or {})
        get_spec(solver)  # validates the name against the live registry
        if solver == "least_sparse":
            # Blocks are small (≤ max_block_size + halo), so the correlation
            # screen is cheap there and recovers real edges far better than a
            # random support — callers can still override via config.
            self.config.setdefault("support", "correlation")
        self.edge_threshold = edge_threshold
        self.stitcher = stitcher or Stitcher()
        self.boundary_rounds = int(boundary_rounds)
        self.tracer = tracer
        # Built once, so bad engine options fail here rather than at the
        # first pass; every pass and boundary round runs on this runner.
        self._runner = StreamingRunner(
            n_workers=n_workers,
            cache=cache,
            timeout=timeout,
            max_retries=max_retries,
            preempt_policy=preempt_policy,
            preempt_retries=preempt_retries,
            tracer=tracer,
            soft_timeout=soft_timeout,
            max_jobs_per_worker=max_jobs_per_worker,
        )

    @property
    def timeout(self) -> float | None:
        """Hard per-block deadline in seconds (``None``: no preemption)."""
        return self._runner.timeout

    # -- job construction ------------------------------------------------------

    def _build_block_jobs(
        self,
        data: np.ndarray,
        blocks: Sequence[ShardBlock],
        seed: int | None,
        id_prefix: str = "",
        warm_starts: dict[int, np.ndarray | sp.spmatrix] | None = None,
    ) -> tuple[list[LearningJob], dict[str, ShardBlock]]:
        """Build one job per block plus the job-id → block routing map."""
        jobs: list[LearningJob] = []
        routing: dict[str, ShardBlock] = {}
        for block in blocks:
            job_id = f"{id_prefix}block-{block.index:03d}"
            columns = np.asarray(block.nodes, dtype=int)
            jobs.append(
                LearningJob(
                    solver=self.solver,
                    data=np.ascontiguousarray(data[:, columns]),
                    config=dict(self.config),
                    seed=None if seed is None else seed + block.index,
                    init_weights=(
                        None if warm_starts is None else warm_starts.get(block.index)
                    ),
                    job_id=job_id,
                )
            )
            routing[job_id] = block
        return jobs, routing

    # -- execution -------------------------------------------------------------

    def run(
        self,
        data: np.ndarray,
        plan: ShardPlan,
        seed: int | None = 0,
        planner: ShardPlanner | None = None,
    ) -> ShardResult:
        """Execute the plan on the streaming engine and stitch the survivors.

        Results are consumed in completion order as the engine yields them;
        preempted or failed blocks become gaps in the
        :class:`ShardResult` rather than errors.  With
        :attr:`boundary_rounds` set, the gaps-and-halos boundary is
        re-planned and re-solved after the first stitch (``planner``
        supplies the re-plan settings; a default-configured planner at the
        plan's skeleton threshold is used when omitted).
        """
        data = ensure_2d(data, "data")
        if data.shape[1] != plan.n_nodes:
            raise ValidationError(
                f"data has {data.shape[1]} columns but the plan covers "
                f"{plan.n_nodes} nodes"
            )
        return self._pass(data, seed, planner, plan=plan)

    def run_stream(
        self,
        data: np.ndarray,
        planner: ShardPlanner,
        seed: int | None = 0,
    ) -> ShardResult:
        """Plan with ``planner`` and execute, overlapping the two when partitioned.

        With :attr:`~repro.shard.planner.ShardPlanner.partition_columns`
        set, each partition's block jobs go to
        :meth:`~repro.serve.streaming.StreamingRunner.stream_batches` the
        moment it is planned, so block solves run while later partitions
        are planned; the result is identical to the plan-first path.
        Without partitioning this is :meth:`run` on ``planner.plan(data)``.
        """
        if planner.partition_columns is None:
            plan = planner.plan(data, tracer=self.tracer)
            return self.run(data, plan, seed=seed, planner=planner)
        return self._pass(ensure_2d(data, "data"), seed, planner)

    def _pass(
        self,
        data: np.ndarray,
        seed: int | None,
        planner: ShardPlanner | None,
        plan: ShardPlan | None = None,
    ) -> ShardResult:
        """Solve ``plan`` (or ``planner``'s batches), stitch, run boundary rounds."""
        timer = Timer()
        with contextlib.ExitStack() as stack:
            stack.enter_context(timer)
            shard_span = None
            if self.tracer is not None:
                # Entering the span makes it the ambient parent, so the block
                # job spans of the streaming engine nest under it.
                shard_span = stack.enter_context(
                    self.tracer.span(
                        "shard_solve",
                        solver=self.solver,
                        n_nodes=int(data.shape[1]),
                        overlapped=plan is None,
                    )
                )
            anomalies: dict[str, str] = {}
            preemption: dict[str, float] = {}
            if plan is not None:
                _, outcomes, survivors = self._solve(
                    data, [plan.blocks], seed, anomalies, preemption
                )
            else:
                batch_edges: list[int] = []

                def batches():
                    for batch, n_edges in planner.iter_block_batches(
                        data, tracer=self.tracer
                    ):
                        batch_edges.append(n_edges)
                        yield batch

                blocks, outcomes, survivors = self._solve(
                    data, batches(), seed, anomalies, preemption, batched=True
                )
                plan = ShardPlan(
                    n_nodes=int(data.shape[1]),
                    blocks=blocks,
                    n_skeleton_edges=sum(batch_edges),
                    skeleton_threshold=planner.skeleton_threshold,
                )
            survivors.sort(key=lambda pair: pair[0].index)
            stitched = self.stitcher.stitch(
                survivors, plan.n_nodes, tracer=self.tracer
            )
            block_results = [outcomes[block.index] for block in plan.blocks]
            covered = {block.index for block, _ in survivors}
            missing = sorted(
                node
                for block in plan.blocks
                if block.index not in covered
                for node in block.core
            )
            initial_weights = None
            rounds: list[dict[str, Any]] = []
            if self.boundary_rounds > 0:
                initial_weights = stitched.weights
                stitched, missing = self._boundary_resolve(
                    data=data,
                    plan=plan,
                    planner=planner,
                    seed=seed,
                    survivors=survivors,
                    stitched=stitched,
                    missing=missing,
                    anomalies=anomalies,
                    preemption=preemption,
                    rounds=rounds,
                )
            if shard_span is not None:
                shard_span.set_attributes(
                    n_blocks=plan.n_blocks,
                    n_blocks_ok=sum(1 for r in block_results if r.status == "ok"),
                    n_missing_nodes=len(missing),
                    n_resolve_rounds=len(rounds),
                )
        return ShardResult(
            weights=stitched.weights,
            plan=plan,
            stitched=stitched,
            block_results=block_results,
            missing_nodes=missing,
            total_seconds=timer.elapsed,
            preemption=preemption,
            anomalies=anomalies,
            rounds=rounds,
            initial_weights=initial_weights,
        )

    def _solve(
        self,
        data: np.ndarray,
        batches: Iterable[Sequence[ShardBlock]],
        seed: int | None,
        anomalies: dict[str, str],
        preemption: dict[str, float],
        *,
        batched: bool = False,
        id_prefix: str = "",
        warm_starts: dict[int, np.ndarray | sp.spmatrix] | None = None,
    ) -> tuple[
        list[ShardBlock],
        dict[int, JobResult],
        list[tuple[ShardBlock, np.ndarray | sp.spmatrix]],
    ]:
        """Solve block batches on the runner; route each result to its block.

        ``batched`` streams the batches lazily (``stream_batches``);
        otherwise all jobs are built first and run through ``stream``.
        Returns the blocks in submission order, each block's result by
        index, and the ``(block, weights)`` survivors.  A result that claims
        ``"ok"`` without weights is recorded in ``anomalies`` and its block
        is *not* a survivor: its owned nodes count as missing.
        """
        blocks: list[ShardBlock] = []
        routing: dict[str, ShardBlock] = {}

        def job_batches():
            for batch in batches:
                jobs, batch_routing = self._build_block_jobs(
                    data, batch, seed, id_prefix, warm_starts
                )
                blocks.extend(batch)
                routing.update(batch_routing)
                yield jobs

        if batched:
            results = self._runner.stream_batches(job_batches())
        else:
            results = self._runner.stream(
                [job for jobs in job_batches() for job in jobs]
            )
        outcomes: dict[int, JobResult] = {}
        survivors: list[tuple[ShardBlock, np.ndarray | sp.spmatrix]] = []
        for result in results:
            block = routing[result.job_id]
            outcomes[block.index] = result
            if self.tracer is not None:
                self.tracer.metrics.counter(
                    "shard_blocks_total", status=result.status
                ).inc()
            if result.status != "ok":
                continue
            if result.weights is None:
                anomalies[result.job_id] = (
                    "result claimed status 'ok' but carried no weights; "
                    "treating the block's owned nodes as missing"
                )
                continue
            # Keep each block's native representation: CSR block results are
            # thresholded on their data vector and handed to the stitcher
            # still sparse.
            local = result.weights
            if not sp.issparse(local):
                local = np.asarray(local, dtype=float)
            if self.edge_threshold > 0.0:
                local = threshold_weights(local, self.edge_threshold)
            survivors.append((block, local))
        for key, value in self._runner.telemetry.preemption_summary().items():
            preemption[key] = preemption.get(key, 0.0) + value
        return blocks, outcomes, survivors

    # -- boundary re-solve -----------------------------------------------------

    def _warm_starts(
        self,
        stitched_weights: np.ndarray | sp.spmatrix,
        blocks: Sequence[ShardBlock],
        data: np.ndarray,
        seed: int | None,
    ) -> dict[int, np.ndarray | sp.spmatrix] | None:
        """Per-block warm starts cut from the current stitched graph.

        For a sparse backend the init's non-zero pattern *is* the candidate
        edge set (``init_weights`` becomes ``initial_support`` in
        :class:`repro.core.least_sparse.SparseLEAST`), so handing it the bare
        stitched submatrix would make a re-solve structurally incapable of
        discovering any edge the first pass missed.  The sparse warm start is
        therefore the stitched submatrix *unioned* with a fresh per-block
        correlation support — stitched values win where both have an entry,
        and the support's candidates keep the round open to new edges.
        """
        spec = get_spec(self.solver)
        if not spec.supports_init_weights:
            return None
        sparse = sp.issparse(stitched_weights)
        source = stitched_weights.tocsr() if sparse else np.asarray(stitched_weights)
        warm: dict[int, np.ndarray | sp.spmatrix] = {}
        for block in blocks:
            nodes = np.asarray(block.nodes, dtype=int)
            if sparse:
                sub = source[nodes][:, nodes].tocsr()
            else:
                sub = source[np.ix_(nodes, nodes)]
            if spec.sparse:
                sub = sp.csr_matrix(sub)
                fresh = self._fresh_support(data[:, nodes], block.index, seed)
                if fresh is not None:
                    fresh = fresh - fresh.multiply(sub != 0)
                    sub = (sub + fresh).tocsr()
                warm[block.index] = sub
            else:
                warm[block.index] = np.array(
                    sub.todense() if sp.issparse(sub) else sub, dtype=float
                )
        return warm

    def _fresh_support(
        self, block_data: np.ndarray, block_index: int, seed: int | None
    ) -> sp.csr_matrix | None:
        """Correlation-screened candidate edges of one re-solve block."""
        from repro.core.least_sparse import SparseLEASTConfig, correlation_support

        max_parents = self.config.get("support_max_parents")
        if max_parents is None:
            max_parents = getattr(SparseLEASTConfig(), "support_max_parents", 8)
        rng = np.random.default_rng(
            None if seed is None else seed + block_index
        )
        return correlation_support(
            np.ascontiguousarray(block_data), max_parents=int(max_parents), rng=rng
        )

    def _boundary_resolve(
        self,
        data: np.ndarray,
        plan: ShardPlan,
        planner: ShardPlanner | None,
        seed: int | None,
        survivors: list[tuple[ShardBlock, np.ndarray | sp.spmatrix]],
        stitched: StitchedGraph,
        missing: list[int],
        anomalies: dict[str, str],
        preemption: dict[str, float],
        rounds: list[dict[str, Any]],
    ) -> tuple[StitchedGraph, list[int]]:
        """Run the configured boundary re-solve rounds; returns final stitch.

        Each round re-plans the boundary node set (missing owned nodes plus
        every halo node of the plan) over a fresh skeleton built from the
        boundary columns only — that skeleton can connect nodes from
        different partitions, which is exactly what the partitioned first
        pass cannot see.  Round blocks are warm-started from the current
        stitched graph, executed like any other block set, and stitched in with every earlier survivor.
        """
        # Boundary re-solve exists to recover edges *across* partitions, so
        # the boundary skeleton is always global over the boundary columns.
        sub_planner = (
            planner or ShardPlanner(skeleton_threshold=plan.skeleton_threshold)
        ).unpartitioned()
        halo_nodes = sorted({node for block in plan.blocks for node in block.halo})
        next_index = plan.n_blocks
        for round_no in range(1, self.boundary_rounds + 1):
            boundary = sorted(set(missing) | set(halo_nodes))
            if len(boundary) < 2:
                break
            boundary_arr = np.asarray(boundary, dtype=int)
            sub = np.ascontiguousarray(data[:, boundary_arr])
            if self.tracer is not None:
                with self.tracer.span(
                    "boundary_replan",
                    round=round_no,
                    n_boundary_nodes=len(boundary),
                ):
                    local_plan = sub_planner._plan_global(sub)
            else:
                local_plan = sub_planner._plan_global(sub)
            round_blocks = [
                ShardBlock(
                    index=next_index + position,
                    core=tuple(int(boundary_arr[i]) for i in block.core),
                    halo=tuple(int(boundary_arr[i]) for i in block.halo),
                )
                for position, block in enumerate(local_plan.blocks)
            ]
            next_index += len(round_blocks)
            _, round_outcomes, round_survivors = self._solve(
                data,
                [round_blocks],
                seed,
                anomalies,
                preemption,
                id_prefix=f"r{round_no}-",
                warm_starts=self._warm_starts(
                    stitched.weights, round_blocks, data, seed
                ),
            )
            edges_before = _edge_count(stitched.weights)
            survivors.extend(round_survivors)
            survivors.sort(key=lambda pair: pair[0].index)
            stitched = self.stitcher.stitch(
                survivors, plan.n_nodes, tracer=self.tracer
            )
            recovered = {
                node for block, _ in round_survivors for node in block.core
            }
            missing_before = len(missing)
            missing = sorted(set(missing) - recovered)
            round_results = [
                round_outcomes[block.index] for block in round_blocks
            ]
            rounds.append(
                {
                    "round": round_no,
                    "n_boundary_nodes": len(boundary),
                    "n_blocks": len(round_blocks),
                    "n_blocks_ok": sum(
                        1 for r in round_results if r.status == "ok"
                    ),
                    "n_skeleton_edges": local_plan.n_skeleton_edges,
                    "n_edges_before": edges_before,
                    "n_edges_after": _edge_count(stitched.weights),
                    "n_missing_before": missing_before,
                    "n_missing_after": len(missing),
                    "blocks": [
                        _block_digest(r, anomalies.get(r.job_id))
                        for r in round_results
                    ],
                }
            )
        return stitched, missing


def solve_sharded(
    data: np.ndarray,
    planner: ShardPlanner | None = None,
    executor: ShardExecutor | None = None,
    seed: int | None = 0,
) -> ShardResult:
    """Plan, execute, and stitch in one call.

    Parameters
    ----------
    data:
        ``n × d`` sample matrix.
    planner:
        The :class:`~repro.shard.planner.ShardPlanner` to decompose with
        (defaults used when omitted).  A planner with
        :attr:`~repro.shard.planner.ShardPlanner.partition_columns` set
        routes through :meth:`ShardExecutor.run_stream`, overlapping each
        partition's planning with the previous partition's block solves.
    executor:
        The :class:`ShardExecutor` to solve with (a serial single-worker one
        when omitted).
    seed:
        Base seed for the block solves.

    Returns
    -------
    ShardResult
        The stitched DAG plus the full plan/stitch/gap report.
    """
    executor = executor or ShardExecutor()
    return executor.run_stream(data, planner or ShardPlanner(), seed=seed)
