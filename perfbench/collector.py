"""Per-layer timing collector for the traced benchmark pass.

The collector measures the program's layers from outside: it replaces a
fixed set of public functions and methods with wrappers that add the call's
wall time (and a call count) to per-process totals.  Nothing in ``src/`` is
edited and no wrapper changes an argument or a result, so a traced solve
learns the same weights as an untraced one.

Processes
---------
Wrappers are installed in the process that forks the workers, so forked
workers inherit them.  ``os.register_at_fork`` clears the inherited totals
in each child, because a child must report only its own work.  Pool workers
and ``call_with_deadline`` children leave through ``os._exit`` and never run
``atexit`` handlers, so a child ships its totals out explicitly: after every
solve (the last call a worker makes for a job) it rewrites
``<collect_dir>/<pid>.json``.  :func:`merge_totals` adds those files to the
root process's own totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute path, totals key) of every wrapped callable.  Module
#: attributes (``sample_batch``, the monitoring helpers) are patched in the
#: module that looks them up, not where they are defined.
TIMED = (
    ("repro.core.acyclicity", "SpectralAcyclicityBound.value", "core.bound"),
    ("repro.core.acyclicity", "SpectralAcyclicityBound.value_and_gradient", "core.bound"),
    ("repro.core.losses", "LeastSquaresLoss.value_and_gradient", "core.loss_grad"),
    ("repro.core.losses", "LeastSquaresLoss.sparse_value_and_gradient", "core.loss_grad"),
    ("repro.core.optimizers", "AdamOptimizer.update", "core.adam"),
    ("repro.core.optimizers", "SparseAdamOptimizer.update", "core.adam"),
    ("repro.core.least", "sample_batch", "core.batch"),
    ("repro.core.least_sparse", "sample_batch", "core.batch"),
    ("repro.core.least", "notears_constraint", "core.h"),
    ("repro.serve.cache", "DiskCache.get", "cache.get"),
    ("repro.serve.cache", "DiskCache.put", "cache.put"),
    ("repro.shard.planner", "ShardPlanner.plan", "shard.plan"),
    ("repro.serve.scheduler", "RelearnScheduler.step", "scheduler.step"),
    ("repro.monitoring.encoder", "LogEncoder.encode", "monitor.encode"),
    ("repro.monitoring.pipeline", "detect_anomalies", "monitor.detect"),
    ("repro.monitoring.pipeline", "extract_error_paths", "monitor.extract"),
    ("repro.monitoring.pipeline", "threshold_to_dag", "monitor.threshold"),
)

#: Solver entry points: timed, and their results give the iteration counts.
FITS = (
    ("repro.core.least", "LEAST.fit"),
    ("repro.core.least_sparse", "SparseLEAST.fit"),
)

#: The stitcher also records when each call started and ended, which places
#: the boundary re-solve between the first and the last stitch of a run.
STITCH = ("repro.shard.stitcher", "Stitcher.stitch")

_INHERITED = object()


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Collector:
    """Wrap the layer entry points and accumulate their per-process totals.

    Parameters
    ----------
    collect_dir:
        Directory where child processes write their totals, one JSON file
        per pid.  The root process keeps its totals in memory.
    """

    def __init__(self, collect_dir: str | os.PathLike[str]) -> None:
        self.collect_dir = Path(collect_dir)
        self.collect_dir.mkdir(parents=True, exist_ok=True)
        self.root_pid = os.getpid()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.stitch_times: list[tuple[float, float]] = []
        self._originals: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._reset_in_child)

    def _reset_in_child(self) -> None:
        self.seconds.clear()
        self.counts.clear()
        self.stitch_times.clear()

    # -- wrappers --------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        # A method inherited from a base class is absent from the owner's
        # own namespace; uninstall then deletes the wrapper instead.
        self._originals.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def _timed(self, fn, key: str):
        seconds, counts = self.seconds, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - started
                counts[key] += 1

        return wrapper

    def _fit(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            self.seconds["core.fit"] += time.perf_counter() - started
            self.counts["core.fit"] += 1
            self.counts["core.outer_iters"] += result.n_outer_iterations
            self.counts["core.inner_iters"] += result.n_inner_iterations
            if os.getpid() != self.root_pid:
                self.flush()
            return result

        return wrapper

    def _stitch(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = time.monotonic()
                self.seconds["shard.stitch"] += ended - started
                self.stitch_times.append((started, ended))

        return wrapper

    def install(self) -> None:
        """Replace every entry point with its wrapper."""
        for module_name, path, key in TIMED:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._timed(getattr(owner, attr), key))
        for module_name, path in FITS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._fit(getattr(owner, attr)))
        owner, attr = _resolve(*STITCH)
        self._patch(owner, attr, self._stitch(getattr(owner, attr)))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- shipping --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    def flush(self) -> None:
        """Atomically rewrite this process's totals file."""
        target = self.collect_dir / f"{os.getpid()}.json"
        partial = target.with_suffix(".tmp")
        partial.write_text(json.dumps(self.snapshot()))
        os.replace(partial, target)


def merge_totals(collect_dir: str | os.PathLike[str], own: dict | None = None) -> dict:
    """Sum the totals files of every process (plus ``own``, if given).

    Returns ``{"seconds": {...}, "counts": {...}}``.
    """
    merged = {"seconds": defaultdict(float), "counts": defaultdict(float)}
    snapshots = [own] if own is not None else []
    snapshots.extend(json.loads(path.read_text()) for path in Path(collect_dir).glob("*.json"))
    for snap in snapshots:
        for section, totals in merged.items():
            for key, value in snap[section].items():
                totals[key] += value
    return {section: dict(totals) for section, totals in merged.items()}
