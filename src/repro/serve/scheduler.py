"""Windowed re-learn scheduling with warm starts (the paper's Fliggy loop).

:class:`RelearnScheduler` owns the state that makes consecutive window solves
incremental: after every :meth:`~RelearnScheduler.step` it keeps the learned
weights together with the window's node vocabulary, and seeds the next solve
with the re-aligned, damped previous solution via
:mod:`repro.serve.warm_start`.  The
:class:`~repro.monitoring.pipeline.MonitoringPipeline` delegates its per-window
learning to this class instead of cold-starting a solver every 30 simulated
minutes.

Every window is one :class:`~repro.serve.job.LearningJob` (or, sharded, one
job per block) submitted to a :class:`~repro.serve.streaming.StreamingRunner`
— the same engine the CLI and the daemon use — so any registered backend can
drive the loop, and a ``window_deadline`` gets the engine's hard preemption,
worker spans and resource sampling.  Two escalation knobs mirror each
other: ``shard_vocabulary_threshold`` switches a big window to
block-partitioned solving, and ``sparse_vocabulary_threshold`` switches the
default dense LEAST to CSR-end-to-end LEAST-SP — above it no dense ``d × d``
matrix is materialized by the solve, the warm-start alignment, or (when both
knobs fire) the stitched sharded result.

Per-window iteration counts and timings are recorded in
:attr:`RelearnScheduler.history` so the cold-vs-warm comparison of the serving
benchmark (``benchmarks/bench_serve_throughput.py``) can read them directly.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.backend import SolveResult, config_overrides, get_spec
from repro.core.least import LEASTConfig
from repro.core.least_sparse import SparseLEASTConfig
from repro.exceptions import ValidationError
from repro.serve.job import LearningJob
from repro.serve.streaming import StreamingRunner
from repro.serve.warm_start import WarmStartState, prepare_init
from repro.utils.random import RandomState, as_generator
from repro.utils.timer import Timer
from repro.utils.validation import check_non_negative, check_unit_interval

__all__ = ["WindowStats", "RelearnScheduler"]


@dataclass
class WindowStats:
    """Telemetry of one scheduled window solve.

    Attributes
    ----------
    window_index:
        Zero-based position of the window in the schedule.
    warm_started:
        True when the solve was seeded from the previous window's solution.
    n_nodes, n_shared_nodes:
        Size of the window's vocabulary and its overlap with the previous one.
    n_outer_iterations, n_inner_iterations:
        Solver iteration counts of the window (0 for a preempted window).
    elapsed_seconds:
        Wall-clock duration of the solve (for a preempted window, roughly the
        deadline).
    converged:
        Solver convergence flag (always False for a preempted window).
    preempted:
        True when the window solve was killed at the scheduler's
        ``window_deadline`` instead of finishing.
    sharded:
        True when the window was solved block-partitioned via
        :mod:`repro.shard` because its vocabulary exceeded
        ``shard_vocabulary_threshold``.
    n_blocks:
        Number of blocks of a sharded window's plan (0 for monolithic
        windows).
    n_blocks_unsolved:
        Blocks of a sharded window that failed or were preempted — the
        stitched graph has gaps at their owned nodes.
    solver:
        Registered backend name that solved this window — records when the
        dense → sparse auto-escalation fired.
    """

    window_index: int
    warm_started: bool
    n_nodes: int
    n_shared_nodes: int
    n_outer_iterations: int
    n_inner_iterations: int
    elapsed_seconds: float
    converged: bool
    preempted: bool = False
    sharded: bool = False
    n_blocks: int = 0
    n_blocks_unsolved: int = 0
    solver: str = "least"

    def as_dict(self) -> dict[str, Any]:
        """JSON-able view of the window telemetry."""
        return {
            "window_index": self.window_index,
            "warm_started": self.warm_started,
            "n_nodes": self.n_nodes,
            "n_shared_nodes": self.n_shared_nodes,
            "n_outer_iterations": self.n_outer_iterations,
            "n_inner_iterations": self.n_inner_iterations,
            "elapsed_seconds": self.elapsed_seconds,
            "converged": self.converged,
            "preempted": self.preempted,
            "sharded": self.sharded,
            "n_blocks": self.n_blocks,
            "n_blocks_unsolved": self.n_blocks_unsolved,
            "solver": self.solver,
        }


class RelearnScheduler:
    """Drive repeated window solves, warm-starting each from the last.

    Parameters
    ----------
    least_config:
        Configuration of the dense ``"least"`` backend (used whenever a
        window solves dense).
    solver:
        Registered backend name driving the windows (default ``"least"``).
        Any name in :func:`repro.serve.job.solver_names` works; warm starts
        are converted to the backend's native representation (CSR for sparse
        backends) before seeding.
    sparse_config:
        Configuration of the ``"least_sparse"`` backend, used whenever a
        window solves sparse — because ``solver="least_sparse"`` was chosen
        outright or because ``sparse_vocabulary_threshold`` escalated the
        window.  Defaults to :class:`~repro.core.least_sparse.SparseLEASTConfig`
        defaults — except on sharded windows, where blocks then use the
        per-block correlation support (pass an explicit ``sparse_config``
        to pin ``support`` yourself).
    sparse_vocabulary_threshold:
        When set (and ``solver`` is the default dense ``"least"``), a window
        whose vocabulary has at least this many nodes is solved with
        ``"least_sparse"`` instead — the dense → sparse auto-escalation that
        mirrors ``shard_vocabulary_threshold``.  Above the threshold no
        dense ``d × d`` matrix is materialized anywhere in the window's
        path: the solve is CSR end to end, the carried state stays CSR, and
        warm starts are aligned sparsely.  Windows back under the threshold
        de-escalate to dense and warm-start from the densified carried
        solution.  ``None`` (default) never escalates.
    warm_start:
        When False the scheduler cold-starts every window (useful as the
        baseline in benchmarks; the paper's deployment always warm-starts).
    damping:
        Shrinkage applied to the carried-over weights (1.0 keeps them as-is).
    min_shared_nodes:
        Fall back to a cold start when fewer nodes than this survive the
        window-to-window vocabulary change.
    warm_inner_scale:
        Inner-iteration budget of a warm-started window as a fraction of
        ``max_inner_iterations``.  Starting from the previous solution, a
        refresh needs far fewer Adam steps per subproblem than a bootstrap;
        0.5 halves the per-window solver cost while leaving newly appearing
        dependencies (the anomalies the monitoring loop exists to catch)
        enough budget to emerge.  1.0 disables the budget cut.
    window_deadline:
        Optional hard per-window solve budget in seconds, the ``timeout`` of
        the :class:`~repro.serve.streaming.StreamingRunner` every monolithic
        window is submitted to.  When set, the window's job runs on a pool
        worker and is SIGKILLed if it overruns; the window is then recorded
        as ``preempted`` in :attr:`history`, the carried warm-start state is
        left untouched, and :meth:`step` returns a degraded result (the
        window's init — or zeros — with ``converged=False``) so the loop
        survives one runaway solve.  ``None`` (default) runs the job inline
        with no budget.
    shard_vocabulary_threshold:
        When set, a window whose vocabulary has at least this many nodes is
        solved *block-partitioned* via :mod:`repro.shard` instead of
        monolithically: a :class:`~repro.shard.planner.ShardPlanner`
        decomposes the window, each block runs as a streamed job, and the
        stitched DAG becomes the window's result.  A ``window_deadline`` is
        split across the serial block rounds (each block gets
        ``window_deadline / ceil(n_blocks / shard_n_workers)``) so the
        *window* stays bounded, not just each block.
        Sharded windows always solve cold (block solves cannot reuse the
        carried global solution), but they still *update* the carried state
        so the next monolithic window can warm-start from the stitch.
        ``None`` (default) never shards.
    shard_planner:
        Optional pre-configured :class:`~repro.shard.planner.ShardPlanner`
        for sharded windows (defaults are used when omitted).
    shard_n_workers:
        Concurrent block workers for sharded windows.
    shard_edge_threshold:
        ``|weight|`` threshold applied to each block's sub-graph before
        stitching a sharded window (forwarded to
        :class:`~repro.shard.executor.ShardExecutor`).  Raw LEAST outputs
        are near-dense, so stitching unthresholded blocks would be slow and
        its conflict telemetry meaningless; keep this at (or below) the
        threshold the consumer prunes with anyway.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  Each :meth:`step` then runs
        inside a ``window`` span (attributes: window index, solver,
        vocabulary size, warm/cold, sharded, preempted, converged).  A
        monolithic window nests the engine's job span tree underneath it
        (``job`` → ``queue_wait``/``data_materialize``/``solve`` →
        ``outer_iter``, with ``worker_spawn``/``worker`` spans when the job
        runs on a pool worker), a sharded window its plan/block/stitch spans,
        and warm/cold/preemption counters land in ``tracer.metrics``.
    """

    def __init__(
        self,
        least_config: LEASTConfig | None = None,
        warm_start: bool = True,
        damping: float = 0.9,
        min_shared_nodes: int = 1,
        warm_inner_scale: float = 0.5,
        window_deadline: float | None = None,
        shard_vocabulary_threshold: int | None = None,
        shard_planner=None,
        shard_n_workers: int = 1,
        shard_edge_threshold: float = 0.05,
        solver: str = "least",
        sparse_config: SparseLEASTConfig | None = None,
        sparse_vocabulary_threshold: int | None = None,
        tracer=None,
    ) -> None:
        check_unit_interval(damping, "damping")
        if not 0.0 < warm_inner_scale <= 1.0:
            raise ValidationError(
                f"warm_inner_scale must be in (0, 1], got {warm_inner_scale}"
            )
        if window_deadline is not None and window_deadline <= 0:
            raise ValidationError(
                f"window_deadline must be positive, got {window_deadline}"
            )
        if shard_vocabulary_threshold is not None and shard_vocabulary_threshold < 1:
            raise ValidationError(
                "shard_vocabulary_threshold must be >= 1, got "
                f"{shard_vocabulary_threshold}"
            )
        if sparse_vocabulary_threshold is not None and sparse_vocabulary_threshold < 1:
            raise ValidationError(
                "sparse_vocabulary_threshold must be >= 1, got "
                f"{sparse_vocabulary_threshold}"
            )
        get_spec(solver)  # validate against the live registry up front
        self.solver = solver
        self.sparse_config = sparse_config
        self.sparse_vocabulary_threshold = sparse_vocabulary_threshold
        self.least_config = least_config or LEASTConfig()
        self.warm_start = warm_start
        self.damping = damping
        self.min_shared_nodes = max(int(min_shared_nodes), 1)
        self.warm_inner_scale = warm_inner_scale
        self.window_deadline = window_deadline
        check_non_negative(shard_edge_threshold, "shard_edge_threshold")
        self.shard_vocabulary_threshold = shard_vocabulary_threshold
        self.shard_planner = shard_planner
        self.shard_n_workers = int(shard_n_workers)
        self.shard_edge_threshold = float(shard_edge_threshold)
        self.tracer = tracer
        self._runner = StreamingRunner(timeout=window_deadline, tracer=tracer)
        self.state: WarmStartState | None = None
        self.history: list[WindowStats] = []
        self.last_shard_result = None

    # -- public API ------------------------------------------------------------

    def step(
        self, data: np.ndarray, node_names: Sequence[str], seed: RandomState = None
    ) -> SolveResult:
        """Solve one window and update the carried warm-start state.

        Parameters
        ----------
        data:
            The window's ``n × d`` (standardized) sample matrix.
        node_names:
            Vocabulary of the window's ``d`` columns, used to re-align the
            previous solution across vocabulary changes.
        seed:
            Seed of the window's solve.  An int (or ``None``) is the job's
            seed as-is; a generator is reduced to one drawn int, so the
            window reproduces for a fixed generator state whether it runs
            inline or on a worker.

        Returns
        -------
        SolveResult
            The window's solve result — dense or CSR weights depending on
            the window's effective backend.  With a ``window_deadline`` set,
            a preempted window returns a degraded result (its init — or
            zeros — with ``converged=False``) instead of raising.

        Raises
        ------
        RuntimeError
            The window's solve failed; the message names the original
            exception.  The carried state and :attr:`history` are untouched.
        """
        names = list(node_names)
        solver_name = self._effective_solver(len(names))
        spec = get_spec(solver_name)
        sharded = (
            self.shard_vocabulary_threshold is not None
            and len(names) >= self.shard_vocabulary_threshold
        )
        init = None
        shared = 0
        if (
            not sharded
            and self.warm_start
            and self.state is not None
            and spec.supports_init_weights  # e.g. notears cannot warm-start
        ):
            shared = len(set(self.state.node_names) & set(names))
            init = prepare_init(
                self.state,
                names,
                damping=self.damping,
                min_shared=self.min_shared_nodes,
                representation="sparse" if spec.sparse else "dense",
            )

        config = self._config_for(solver_name)
        if (
            init is not None
            and self.warm_inner_scale < 1.0
            # Custom backends may not declare the inner-iteration cap at all.
            and is_dataclass(config)
            and "max_inner_iterations" in {f.name for f in fields(config)}
        ):
            config = replace(
                config,
                max_inner_iterations=max(
                    int(config.max_inner_iterations * self.warm_inner_scale), 1
                ),
            )
        job_seed = _job_seed(seed)
        window_index = len(self.history)
        timer = Timer()
        n_blocks = 0
        n_blocks_unsolved = 0
        with contextlib.ExitStack() as stack:
            window_span = None
            if self.tracer is not None:
                # The window span is the ambient parent while the solve runs,
                # so the job (or plan/block/stitch) spans nest under it.
                window_span = stack.enter_context(
                    self.tracer.span(
                        "window",
                        window_index=window_index,
                        solver=solver_name,
                        n_nodes=len(names),
                    )
                )
            with timer:
                if sharded:
                    result, preempted, n_blocks, n_blocks_unsolved = (
                        self._step_sharded(data, names, job_seed, solver_name)
                    )
                else:
                    result, preempted = self._step_monolithic(
                        data, window_index, job_seed, solver_name, config, init
                    )
            if window_span is not None:
                window_span.set_attributes(
                    warm_started=init is not None,
                    sharded=sharded,
                    preempted=preempted,
                    converged=bool(result.converged),
                )
                if preempted:
                    window_span.status = "preempted"
        if self.tracer is not None:
            self.tracer.metrics.counter(
                "relearn_windows_total", mode="warm" if init is not None else "cold"
            ).inc()
            if preempted:
                self.tracer.metrics.counter(
                    "relearn_window_preemptions_total"
                ).inc()

        if not preempted:
            # A preempted window leaves the carried state untouched so the
            # next window warm-starts from the last *completed* solve.
            self.state = WarmStartState(
                weights=result.weights.copy(), node_names=names
            )
        self.history.append(
            WindowStats(
                window_index=window_index,
                warm_started=init is not None,
                n_nodes=len(names),
                n_shared_nodes=shared,
                n_outer_iterations=result.n_outer_iterations,
                n_inner_iterations=result.n_inner_iterations,
                elapsed_seconds=timer.elapsed,
                converged=result.converged,
                preempted=preempted,
                sharded=sharded,
                n_blocks=n_blocks,
                n_blocks_unsolved=n_blocks_unsolved,
                solver=solver_name,
            )
        )
        return result

    # -- solver selection --------------------------------------------------------

    def _effective_solver(self, n_nodes: int) -> str:
        """The backend name for a window, after dense → sparse escalation."""
        if (
            self.sparse_vocabulary_threshold is not None
            and self.solver == "least"
            and n_nodes >= self.sparse_vocabulary_threshold
        ):
            return "least_sparse"
        return self.solver

    def _config_for(self, solver_name: str):
        """The configured dataclass driving ``solver_name`` windows."""
        if solver_name == "least_sparse":
            return self.sparse_config or SparseLEASTConfig()
        if solver_name == "least":
            return self.least_config
        try:
            return get_spec(solver_name).config_class()
        except TypeError as exc:
            raise ValidationError(
                f"the config of solver {solver_name!r} cannot be built without "
                f"arguments ({exc}); the scheduler only drives custom solvers "
                "whose config class has an argless constructor"
            ) from exc

    @staticmethod
    def _degraded_result(
        solver_name: str, n_nodes: int, sparse: bool, init=None
    ) -> SolveResult:
        """The placeholder result of a lost window (its init, or zeros).

        A sparse window's placeholder is an empty CSR matrix — degrading a
        100k-node window must not be the one code path that allocates
        ``d × d``.
        """
        if init is not None:
            weights = (
                init.copy()
                if sp.issparse(init)
                else np.asarray(init, dtype=float).copy()
            )
        elif sparse:
            weights = sp.csr_matrix((n_nodes, n_nodes))
        else:
            weights = np.zeros((n_nodes, n_nodes))
        return SolveResult(
            solver=solver_name,
            weights=weights,
            constraint_value=float("inf"),
            converged=False,
            n_outer_iterations=0,
            n_inner_iterations=0,
        )

    def _step_monolithic(
        self,
        data: np.ndarray,
        window_index: int,
        seed: int | None,
        solver_name: str,
        config,
        init,
    ) -> tuple[SolveResult, bool]:
        """Solve one window as a single job on the scheduler's engine.

        Returns ``(result, window_preempted)``.  The engine decides where the
        job runs: inline without a ``window_deadline``, on a pool worker that
        is SIGKILLed at the deadline otherwise.  A preempted job becomes the
        degraded result; a failed one raises :class:`RuntimeError`.
        """
        job = LearningJob(
            solver=solver_name,
            data=data,
            config=config_overrides(config) if is_dataclass(config) else {},
            seed=seed,
            init_weights=init,
            job_id=f"window-{window_index:03d}",
        )
        (outcome,) = self._runner.run([job]).results
        if outcome.status == "preempted":
            sparse = get_spec(solver_name).sparse
            return (
                self._degraded_result(solver_name, data.shape[1], sparse, init=init),
                True,
            )
        if outcome.status != "ok":
            raise RuntimeError(outcome.error)
        result = SolveResult(
            solver=solver_name,
            weights=outcome.weights,
            constraint_value=outcome.constraint_value,
            converged=outcome.converged,
            n_outer_iterations=outcome.n_outer_iterations,
            n_inner_iterations=outcome.n_inner_iterations,
            elapsed_seconds=outcome.elapsed_seconds,
        )
        return result, False

    def _step_sharded(
        self, data: np.ndarray, names: list[str], seed: int | None, solver_name: str
    ) -> tuple[SolveResult, bool, int, int]:
        """Solve one window block-partitioned via :mod:`repro.shard`.

        Returns ``(result, window_preempted, n_blocks, n_blocks_unsolved)``.
        The window counts as preempted only when *no* block completed — a
        partially stitched window is a degraded success, its gaps recorded in
        :attr:`last_shard_result` (and in the window's
        ``n_blocks_unsolved``).  ``window_deadline`` bounds the *window*:
        each block's hard deadline is the window budget divided by the number
        of serial block rounds.  Blocks run on the window's effective backend
        (``solver_name``); sparse blocks stitch into a CSR result.
        """
        from repro.shard.executor import ShardExecutor
        from repro.shard.planner import ShardPlanner

        spec = get_spec(solver_name)
        planner = self.shard_planner or ShardPlanner()
        plan = (
            planner.plan(data, tracer=self.tracer)
            if self.tracer is not None
            else planner.plan(data)
        )
        base_config = self._config_for(solver_name)
        config_dict = config_overrides(base_config) if is_dataclass(base_config) else {}
        if solver_name == "least_sparse" and self.sparse_config is None:
            # The dumped defaults would pin support="random" and defeat the
            # executor's per-block correlation-screen default; only an
            # explicit sparse_config overrides that choice.
            config_dict["support"] = "correlation"
        block_deadline = None
        if self.window_deadline is not None:
            # Blocks run in ceil(n_blocks / workers) serial rounds; giving each
            # block (window / rounds) keeps the whole window within budget.
            serial_rounds = -(-plan.n_blocks // max(self.shard_n_workers, 1))
            block_deadline = self.window_deadline / max(serial_rounds, 1)
        executor = ShardExecutor(
            solver=solver_name,
            config=config_dict,
            n_workers=self.shard_n_workers,
            timeout=block_deadline,
            edge_threshold=self.shard_edge_threshold,
            tracer=self.tracer,
        )
        shard_result = executor.run(data, plan, seed=seed)
        self.last_shard_result = shard_result

        n_unsolved = plan.n_blocks - shard_result.n_blocks_ok
        if shard_result.n_blocks_ok == 0:
            # Nothing survived: degrade exactly like a preempted monolithic
            # window (zeros, untouched carried state).
            result = self._degraded_result(solver_name, len(names), spec.sparse)
            return result, True, plan.n_blocks, n_unsolved
        ok_results = [r for r in shard_result.block_results if r.status == "ok"]
        result = SolveResult(
            solver=solver_name,
            weights=shard_result.weights,
            constraint_value=0.0,
            converged=shard_result.complete and all(r.converged for r in ok_results),
            n_outer_iterations=sum(r.n_outer_iterations for r in ok_results),
            n_inner_iterations=sum(r.n_inner_iterations for r in ok_results),
        )
        return result, False, plan.n_blocks, n_unsolved

    def reset(self) -> None:
        """Forget the carried state and telemetry (next step is cold)."""
        self.state = None
        self.history.clear()
        self.last_shard_result = None

    # -- aggregate views ---------------------------------------------------------

    def stats_summary(self) -> dict[str, float]:
        """Totals across all scheduled windows (cold and warm counted apart).

        Warm/cold counts and iteration means cover *completed* solves only —
        preempted windows report 0 iterations and would deflate the means;
        they are tallied separately under ``n_preempted_windows``, so
        ``n_warm_windows + n_cold_windows + n_preempted_windows ==
        n_windows``.
        """
        completed = [stats for stats in self.history if not stats.preempted]
        warm = [stats for stats in completed if stats.warm_started]
        cold = [stats for stats in completed if not stats.warm_started]

        def _mean_inner(windows: list[WindowStats]) -> float:
            if not windows:
                return 0.0
            return sum(s.n_inner_iterations for s in windows) / len(windows)

        return {
            "n_windows": float(len(self.history)),
            "n_warm_windows": float(len(warm)),
            "n_cold_windows": float(len(cold)),
            "n_preempted_windows": float(
                sum(1 for s in self.history if s.preempted)
            ),
            "total_inner_iterations": float(
                sum(s.n_inner_iterations for s in self.history)
            ),
            "total_outer_iterations": float(
                sum(s.n_outer_iterations for s in self.history)
            ),
            "mean_inner_iterations_warm": _mean_inner(warm),
            "mean_inner_iterations_cold": _mean_inner(cold),
            "total_seconds": sum(s.elapsed_seconds for s in self.history),
        }


def _job_seed(seed: RandomState) -> int | None:
    """The int seed of a window's job: ints and ``None`` pass through.

    A generator is reduced to one drawn int — deterministic for a fixed
    generator state, and a plain value a job can carry to a worker.
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        return None if seed is None else int(seed)
    return int(as_generator(seed).integers(2**31))
