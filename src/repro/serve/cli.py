"""Command-line entry point: run a job manifest and emit a JSON report.

Usage::

    python -m repro.serve manifest.json --workers 4 --output report.json
    repro-serve manifest.json --cache-dir .serve-cache --max-retries 1
    repro-serve manifest.json --workers 4 --timeout 30 --stream
    repro-serve shard data.npy --workers 4 --edge-threshold 0.3

The manifest is either ``{"jobs": [...]}`` or a bare JSON list, where each
entry follows :meth:`repro.serve.job.LearningJob.from_dict`::

    {
      "jobs": [
        {"dataset": "er2", "solver": "least", "seed": 0,
         "dataset_options": {"n_nodes": 30},
         "config": {"max_outer_iterations": 6}},
        {"dataset": "sf4", "solver": "least_sparse", "seed": 1}
      ]
    }

Without ``--stream`` the report (the aggregate ``summary`` block of
:class:`~repro.serve.streaming.BatchReport` plus one digest per job) is
printed to stdout, or written to ``--output``.  With ``--stream`` stdout
instead carries one NDJSON line per *completed* job, emitted the moment the
streaming engine yields it (completion order, not manifest order); the full
report then goes to ``--output`` when given.  Weight matrices are never
serialized — use the cache or the Python API to retrieve them.

``--timeout`` is a hard deadline: overrunning workers are SIGKILLed and the
job is reported ``"preempted"`` (``--preempt-policy requeue`` grants killed
jobs a fresh attempt first).  Exit status is 0 when every job succeeded, 1
when any failed or was preempted, 2 for a malformed manifest.

Observability (both faces): ``--trace-out trace.ndjson`` records the run's
spans — per-job ``queue_wait → worker_spawn → data_materialize → solve →
cache_store`` trees, merged across worker processes — and ``--metrics-out
metrics.json`` dumps the metrics registry on exit (``--metrics-format
prometheus`` switches to the text exposition).  See ``docs/observability.md``
for the span model and schema.

The ``daemon`` subcommand turns the service resident: ``repro-serve daemon
spool/ --workers 4 --timeout 30`` keeps a pre-forked worker pool alive and
trades NDJSON with clients through the spool directory — submissions dropped
into ``spool/incoming/``, per-file result streams appended under
``spool/results/`` as each job finishes (see :mod:`repro.serve.daemon` for
the spool protocol, per-tenant fairness, and admission control).  ``SIGTERM``
or touching ``spool/stop`` drains accepted jobs and exits 0.

The ``shard`` subcommand instead solves **one large problem** by block
partition: it loads a sample matrix (``.npy``, or ``.csv``/``.txt`` with
comma-separated rows), plans blocks from the correlation skeleton
(:class:`~repro.shard.planner.ShardPlanner`), solves each block as a streamed
job (:class:`~repro.shard.executor.ShardExecutor` — ``--timeout`` becomes a
hard *per-block* deadline), and stitches the surviving sub-graphs into a
global DAG.  The JSON report carries the plan/stitch digests and the gap
record; ``--save-weights`` additionally writes the stitched matrix as
``.npy``.  Exit status is 0 when every block completed, 1 when the stitched
graph has gaps, 2 for unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.serve.cache import DiskCache
from repro.serve.job import JobResult, LearningJob, solver_names
from repro.serve.pool import PREEMPT_POLICIES
from repro.serve.streaming import StreamingRunner

__all__ = [
    "build_daemon_parser",
    "build_parser",
    "build_shard_parser",
    "daemon_main",
    "load_manifest",
    "load_sample_matrix",
    "main",
    "shard_main",
]


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-serve`` argument parser.

    The description lists the solvers from the *live* backend registry, so
    ``repro-serve --help`` reflects :func:`repro.core.backend.register_backend`
    calls made before parsing instead of an import-time snapshot.
    """
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Run a batch of structure-learning jobs from a JSON manifest. "
            f"Registered solvers: {', '.join(solver_names())}."
        ),
    )
    parser.add_argument("manifest", help="path to the job manifest (JSON), or - for stdin")
    parser.add_argument(
        "--workers", type=int, default=1, help="max concurrent worker processes"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="hard per-job deadline in seconds (overrunning workers are killed)",
    )
    parser.add_argument(
        "--soft-timeout",
        type=float,
        default=None,
        help=(
            "cooperative per-job deadline in seconds: the solver is asked to "
            "stop at the next outer-iteration boundary, sparing its worker "
            "(must not exceed --timeout, which stays the SIGKILL escalation)"
        ),
    )
    parser.add_argument(
        "--preempt-policy",
        choices=PREEMPT_POLICIES,
        default="fail",
        help="what happens to a job killed at its deadline (default: fail)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0, help="extra attempts for failing jobs"
    )
    parser.add_argument(
        "--max-jobs-per-worker",
        type=int,
        default=None,
        help="recycle each pooled worker after serving this many jobs",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the on-disk result cache (created if missing)",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        help="LRU bound on the number of disk-cache entries",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="LRU bound on the total disk-cache size in bytes",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="emit one NDJSON line per completed job on stdout as results arrive",
    )
    parser.add_argument(
        "--output", default=None, help="write the JSON report here (default: stdout)"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the human-readable summary"
    )
    _add_obs_arguments(parser)
    return parser


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags (tracing + metrics export)."""
    parser.add_argument(
        "--trace-out",
        default=None,
        help=(
            "write the run's spans here as NDJSON (one event per line; "
            "see docs/observability.md for the schema)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the run's metrics registry here on exit",
    )
    parser.add_argument(
        "--metrics-format",
        choices=("json", "prometheus"),
        default="json",
        help="format of --metrics-out: json dump or Prometheus text exposition",
    )


def _build_tracer(args: argparse.Namespace):
    """The run's :class:`~repro.obs.Tracer`, or ``None`` with tracing off.

    ``--trace-out`` spools spans to NDJSON as they finish; ``--metrics-out``
    alone still needs a tracer (the instrumented layers fold counters into
    its registry) but keeps the spans in memory.
    """
    if not (args.trace_out or args.metrics_out):
        return None
    from repro.obs import InMemorySink, NDJSONFileSink, Tracer

    sink = NDJSONFileSink(args.trace_out) if args.trace_out else InMemorySink()
    return Tracer(sink=sink)


def _write_obs_outputs(tracer, args: argparse.Namespace) -> None:
    """Close the tracer and write ``--metrics-out`` (no-op without a tracer)."""
    if tracer is None:
        return
    tracer.close()
    if args.metrics_out:
        if args.metrics_format == "prometheus":
            payload = tracer.metrics.to_prometheus()
        else:
            payload = (
                json.dumps(tracer.metrics.as_dict(), indent=2, sort_keys=True) + "\n"
            )
        Path(args.metrics_out).write_text(payload)


def _cache_summary_line(stats: dict) -> str:
    """The human cache digest printed under the final summary."""
    return (
        f"cache: {stats.get('hits', 0):.0f} hits, "
        f"{stats.get('misses', 0):.0f} misses "
        f"(hit rate {stats.get('hit_rate', 0.0):.1%}), "
        f"{stats.get('evictions', 0):.0f} evictions"
    )


def _latency_summary_line(metrics) -> str | None:
    """The per-job latency percentile digest, or ``None`` with no samples.

    Reads the ``serve_job_seconds`` histogram the streaming engine observes
    per finished job; the percentiles are bucket-interpolated estimates
    (:meth:`repro.obs.Histogram.quantile`).
    """
    histogram = metrics.histogram("serve_job_seconds")
    if histogram.count == 0:
        return None
    p = histogram.percentiles()
    return (
        f"latency: n={histogram.count} mean={histogram.mean:.3f}s "
        f"p50={p['p50']:.3f}s p95={p['p95']:.3f}s p99={p['p99']:.3f}s"
    )


def load_manifest(source: str) -> list[LearningJob]:
    """Parse the manifest file (or stdin when ``source`` is ``-``) into jobs."""
    if source == "-":
        raw = sys.stdin.read()
    else:
        path = Path(source)
        if not path.exists():
            raise ValidationError(f"manifest file not found: {source}")
        raw = path.read_text()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest is not valid JSON: {exc}") from exc
    if isinstance(payload, dict):
        entries = payload.get("jobs")
        if not isinstance(entries, list):
            raise ValidationError('manifest object must contain a "jobs" list')
    elif isinstance(payload, list):
        entries = payload
    else:
        raise ValidationError("manifest must be a JSON object or list")
    if not entries:
        raise ValidationError("manifest contains no jobs")
    return [LearningJob.from_dict(entry) for entry in entries]


def _emit_ndjson(result: JobResult) -> None:
    """Print one completed job as a single NDJSON line (flushed immediately)."""
    print(json.dumps(result.summary(), sort_keys=True), flush=True)


def build_shard_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``repro-serve shard`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-serve shard",
        description=(
            "Solve one large structure-learning problem by block partition: "
            "plan blocks from the correlation skeleton, solve each block as a "
            "streamed job, stitch the results into a global DAG."
        ),
    )
    parser.add_argument(
        "data", help="sample matrix: .npy, or .csv/.txt with comma-separated rows"
    )
    parser.add_argument(
        "--skeleton-threshold",
        type=float,
        default=0.2,
        help="|correlation| above which two columns are skeleton neighbors",
    )
    parser.add_argument(
        "--max-block-size", type=int, default=64, help="max core nodes per block"
    )
    parser.add_argument(
        "--min-block-size",
        type=int,
        default=1,
        help="pack smaller skeleton components together up to this size",
    )
    parser.add_argument(
        "--halo-depth",
        type=int,
        default=1,
        help="skeleton hops of halo context around each block (0 disables)",
    )
    parser.add_argument(
        "--max-halo-size",
        type=int,
        default=None,
        help="cap on halo nodes per block (strongest correlations kept)",
    )
    parser.add_argument(
        "--partition-columns",
        type=int,
        default=None,
        help=(
            "hierarchical planning: plan each contiguous run of this many "
            "columns independently and overlap its block solves with planning "
            "the next partition (no global skeleton is ever materialized)"
        ),
    )
    parser.add_argument(
        "--boundary-rounds",
        type=int,
        default=0,
        help=(
            "after the first stitch, re-plan and re-solve the boundary node "
            "set (missing cores plus all halos) this many times, warm-started "
            "from the stitched graph (default: 0, off)"
        ),
    )
    parser.add_argument(
        "--solver",
        default="least",
        help=(
            "registered solver used for every block; validated against the "
            f"live registry (currently: {', '.join(solver_names())}). "
            "least_sparse keeps blocks CSR end to end"
        ),
    )
    parser.add_argument(
        "--config",
        default=None,
        help='solver config as inline JSON, e.g. \'{"max_outer_iterations": 5}\'',
    )
    parser.add_argument(
        "--edge-threshold",
        type=float,
        default=0.05,
        help=(
            "drop |weight| below this from each block before stitching "
            "(default 0.05; raw solver outputs are near-dense, so stitching "
            "at 0 is slow and its conflict counters are noise)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (block k solves with seed+k)"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="max concurrent worker processes"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="hard per-BLOCK deadline in seconds (overrunning workers are killed)",
    )
    parser.add_argument(
        "--preempt-policy",
        choices=PREEMPT_POLICIES,
        default="fail",
        help="what happens to a block killed at its deadline (default: fail)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0, help="extra attempts for failing blocks"
    )
    parser.add_argument(
        "--save-weights",
        default=None,
        help=(
            "also write the stitched weight matrix here (.npy; a sparse "
            "solver's CSR result is written with scipy.sparse.save_npz as "
            ".npz instead — never densified)"
        ),
    )
    parser.add_argument(
        "--output", default=None, help="write the JSON report here (default: stdout)"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the human-readable summary"
    )
    _add_obs_arguments(parser)
    return parser


def load_sample_matrix(source: str) -> np.ndarray:
    """Load the shard subcommand's ``n × d`` sample matrix from disk."""
    path = Path(source)
    if not path.exists():
        raise ValidationError(f"data file not found: {source}")
    try:
        if path.suffix == ".npy":
            matrix = np.load(path)
        else:
            matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read sample matrix from {source}: {exc}") from exc
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError(
            f"sample matrix must be 2-D, got shape {matrix.shape}"
        )
    return matrix


def shard_main(argv: Sequence[str] | None = None) -> int:
    """Run the ``shard`` subcommand; returns the process exit code."""
    from repro.shard import ShardExecutor, ShardPlanner

    parser = build_shard_parser()
    args = parser.parse_args(argv)

    try:
        if args.solver not in solver_names():
            raise ValidationError(
                f"unknown solver {args.solver!r}; "
                f"available: {', '.join(solver_names())}"
            )
        data = load_sample_matrix(args.data)
        config = json.loads(args.config) if args.config else {}
        if not isinstance(config, dict):
            raise ValidationError("--config must be a JSON object")
        planner = ShardPlanner(
            skeleton_threshold=args.skeleton_threshold,
            max_block_size=args.max_block_size,
            min_block_size=args.min_block_size,
            halo_depth=args.halo_depth,
            max_halo_size=args.max_halo_size,
            partition_columns=args.partition_columns,
        )
        tracer = _build_tracer(args)
        executor = ShardExecutor(
            solver=args.solver,
            config=config,
            n_workers=args.workers,
            timeout=args.timeout,
            preempt_policy=args.preempt_policy,
            max_retries=args.max_retries,
            edge_threshold=args.edge_threshold,
            boundary_rounds=args.boundary_rounds,
            tracer=tracer,
        )
    except (ValidationError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        # With --partition-columns, planning overlaps the block solves and no
        # global skeleton is ever built.
        result = executor.run_stream(data, planner, seed=args.seed)
    except ValidationError as exc:  # e.g. an unknown --solver name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _write_obs_outputs(tracer, args)

    serialized = json.dumps(result.report(), indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(serialized + "\n")
    else:
        print(serialized)
    if args.save_weights:
        import scipy.sparse as sp

        if sp.issparse(result.weights):
            target = Path(args.save_weights)
            if target.suffix != ".npz":
                # save_npz would append the suffix silently; make the actual
                # output path explicit so downstream tooling can find it.
                target = Path(str(target) + ".npz")
                print(
                    f"sparse stitched weights written to {target} "
                    "(CSR results are saved as .npz, never densified)",
                    file=sys.stderr,
                )
            sp.save_npz(target, result.weights.tocsr())
        else:
            np.save(args.save_weights, result.weights)

    if not args.quiet:
        summary = result.plan.summary()
        stitch = result.stitched.report
        rounds = f", {len(result.rounds)} re-solve rounds" if result.rounds else ""
        print(
            f"{summary['n_blocks']} blocks over {summary['n_nodes']} nodes: "
            f"{result.n_blocks_ok} ok, {result.n_blocks_failed} failed, "
            f"{result.n_blocks_preempted} preempted{rounds} | "
            f"{stitch.n_edges} stitched edges "
            f"({stitch.n_duplicate_edges} dups, "
            f"{stitch.n_direction_conflicts} direction conflicts, "
            f"{stitch.n_cycle_edges_removed} cycle edges removed) | "
            f"{result.total_seconds:.2f}s wall ({args.workers} workers)",
            file=sys.stderr,
        )

    return 0 if result.complete else 1


def build_daemon_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``repro-serve daemon`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-serve daemon",
        description=(
            "Serve jobs from a spool directory on a persistent worker pool: "
            "clients drop NDJSON submission files into <spool>/incoming and "
            "read per-file NDJSON result streams from <spool>/results. "
            "Touch <spool>/stop (or send SIGTERM) to drain and exit."
        ),
    )
    parser.add_argument(
        "spool", help="spool directory (incoming/work/results created if missing)"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="size of the resident worker pool"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="hard per-job deadline in seconds (overrunning workers are killed)",
    )
    parser.add_argument(
        "--soft-timeout",
        type=float,
        default=None,
        help=(
            "cooperative deadline in seconds (<= --timeout): ask the solver "
            "to stop at the next outer-iteration boundary before the SIGKILL "
            "tier fires"
        ),
    )
    parser.add_argument(
        "--preempt-policy",
        choices=PREEMPT_POLICIES,
        default="fail",
        help="what happens to a job killed at its deadline (default: fail)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0, help="extra attempts for failing jobs"
    )
    parser.add_argument(
        "--max-jobs-per-worker",
        type=int,
        default=None,
        help="recycle a pool worker after this many jobs (default: never)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission bound: queued jobs past this are rejected (queue full)",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        help="idle sleep between spool scans, in seconds",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the on-disk result cache (created if missing)",
    )
    _add_obs_arguments(parser)
    return parser


def daemon_main(argv: Sequence[str] | None = None) -> int:
    """Run the ``daemon`` subcommand; returns the process exit code.

    Blocks until a stop is requested — ``SIGTERM``/``SIGINT`` and the
    ``<spool>/stop`` sentinel all trigger the same cooperative shutdown:
    intake closes, accepted jobs drain, the pool exits cleanly.
    """
    import signal
    import threading

    from repro.serve.daemon import ServeDaemon

    parser = build_daemon_parser()
    args = parser.parse_args(argv)
    try:
        cache = DiskCache(args.cache_dir) if args.cache_dir else None
        runner = StreamingRunner(
            n_workers=args.workers,
            cache=cache,
            timeout=args.timeout,
            max_retries=args.max_retries,
            preempt_policy=args.preempt_policy,
            tracer=_build_tracer(args),
            soft_timeout=args.soft_timeout,
            max_jobs_per_worker=args.max_jobs_per_worker,
        )
        daemon = ServeDaemon(
            runner,
            args.spool,
            max_pending=args.max_pending,
            poll_interval=args.poll_interval,
        )
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def _handle_stop(signum, frame):  # pragma: no cover - signal path
        daemon.request_stop()

    previous = {}
    if threading.current_thread() is threading.main_thread():
        # Signal handlers can only be installed from the main thread; test
        # harnesses driving the CLI on a worker thread stop via the sentinel.
        previous = {
            sig: signal.signal(sig, _handle_stop)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
    try:
        daemon.run()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        _write_obs_outputs(runner.tracer, args)
    print(
        f"daemon drained: {daemon.n_accepted} accepted, "
        f"{daemon.n_completed} completed, {daemon.n_rejected} rejected",
        file=sys.stderr,
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit code (see module docstring)."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "shard":
        return shard_main(argv[1:])
    if argv and argv[0] == "daemon":
        return daemon_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        jobs = load_manifest(args.manifest)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        cache = (
            DiskCache(
                args.cache_dir,
                max_entries=args.cache_max_entries,
                max_bytes=args.cache_max_bytes,
            )
            if args.cache_dir
            else None
        )
        runner = StreamingRunner(
            n_workers=args.workers,
            cache=cache,
            timeout=args.timeout,
            max_retries=args.max_retries,
            preempt_policy=args.preempt_policy,
            soft_timeout=args.soft_timeout,
            max_jobs_per_worker=args.max_jobs_per_worker,
            tracer=_build_tracer(args),
        )
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = runner.run(jobs, on_result=_emit_ndjson if args.stream else None)
    finally:
        _write_obs_outputs(runner.tracer, args)

    if args.output or not args.stream:
        payload = {
            "summary": report.summary(),
            "jobs": [result.summary() for result in report.results],
        }
        serialized = json.dumps(payload, indent=2, sort_keys=True)
        if args.output:
            Path(args.output).write_text(serialized + "\n")
        else:
            print(serialized)

    if not args.quiet:
        summary = report.summary()
        print(
            f"{summary['n_jobs']} jobs: {summary['n_ok']} ok, "
            f"{summary['n_failed']} failed, {summary['n_preempted']} preempted, "
            f"{summary['n_cache_hits']} cache hits | "
            f"{summary['total_seconds']:.2f}s wall, "
            f"first result after {summary['time_to_first_result'] or 0.0:.2f}s, "
            f"{summary['jobs_per_second']:.2f} jobs/s "
            f"({summary['n_workers']} workers)",
            file=sys.stderr,
        )
        if cache is not None:
            print(_cache_summary_line(summary["cache_stats"]), file=sys.stderr)
        if runner.tracer is not None:
            latency = _latency_summary_line(runner.tracer.metrics)
            if latency is not None:
                print(latency, file=sys.stderr)

    return 0 if report.n_failed + report.n_preempted == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
