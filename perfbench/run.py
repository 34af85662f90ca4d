"""Benchmark driver: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
inputs untraced and then traced, and prints every per-layer metric together
with the tracing overhead.  ``--size tiny`` shrinks every problem so the
self-tests finish in seconds.  The last line of standard output is the
result object; the lines before it are a human-readable table and tagged
JSON detail (``perfbench-env``, ``perfbench-inputs``, ``perfbench-checks``).
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {
    "paper-dense": "perfbench.paper_dense",
    "serve-daemon": "perfbench.serve_daemon",
    "shard-sparse": "perfbench.shard_sparse",
    "monitor-windows": "perfbench.monitor_windows",
}
#: What ``accuracy`` is on each workload, for the human-readable table.
ACCURACY_NAME = {
    "paper-dense": "f1",
    "serve-daemon": "f1",
    "shard-sparse": "f1",
    "monitor-windows": "incident_recall",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    # Raising SystemExit runs the cleanup below, which stops the daemon and
    # removes the work directory.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # Forked workers keep the program's own signal behaviour.
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's source ({ROOT / 'src' / 'repro'}) is missing", file=sys.stderr)
        return 2
    if sys.path and Path(sys.path[0]).resolve() == ROOT / "perfbench":
        sys.path.pop(0)
    paths = [str(ROOT / "src"), str(ROOT)]
    sys.path[:0] = paths
    # Child interpreters (set-up probes, the daemon, spawned workers) import
    # the same code.
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + ([existing] if existing else []))
    from perfbench.collector import Collector
    from perfbench.common import HostProbe, emit, end_to_end, time_setup
    from perfbench.layers import table
    module = importlib.import_module(WORKLOADS[args.workload])
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    (work_dir / "tmp").mkdir(parents=True, exist_ok=True)
    # Temporary files of the program (trace spools) stay inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(work_dir / "tmp")
    try:
        host = HostProbe()
        inputs = module.make_inputs(args.seed, args.seconds, args.size)
        emit("perfbench-inputs", module.describe(inputs))
        setup_times = None
        if not args.trace:
            # The daemon's set-up ends when its pool serves; the others'
            # when their objects are built.
            setup_times = (
                module.measure_setup(args.size, work_dir)
                if hasattr(module, "measure_setup")
                else time_setup(args.workload, args.size)
            )
        outcome = module.measure(inputs, args.size, work_dir=work_dir / "plain")
        outcomes = [outcome]
        if args.trace:
            collector = Collector(work_dir / "collect")
            traced = module.measure(
                inputs, args.size, work_dir=work_dir / "traced", collector=collector
            )
            outcomes.append(traced)
        emit("perfbench-env", host.finish())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    checks: dict[str, int] = {}
    for item in outcomes:
        for name, count in item.checks.items():
            checks[name] = checks.get(name, 0) + count
    emit("perfbench-checks", checks)
    for index, item in enumerate(outcomes):
        emit("perfbench-detail", {"pass": ("plain", "traced")[index], **item.detail})

    if args.trace:
        layers = dict(traced.layers)
        layers["obs.trace_overhead_frac"] = (
            statistics.median(traced.latencies) / statistics.median(outcome.latencies) - 1.0
        )
        metrics = table(layers)
    else:
        metrics = end_to_end(outcome, setup_times)
    print(f"{args.workload}  seed={args.seed}  trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:14.6g} {entry['unit']}")
    if not args.trace:
        print(
            f"  ({ACCURACY_NAME[args.workload]} = {outcome.accuracy:.4f}; "
            f"{len(outcome.latencies)} latency samples)"
        )
    attempted = sum(item.attempted for item in outcomes)
    failed = sum(item.failed for item in outcomes)
    correct = failed == 0 and all(checks.values()) and bool(checks)
    if args.trace:
        correct = correct and traced.layers.get("obs.orphans", 0) == 0
    print(
        json.dumps(
            {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
