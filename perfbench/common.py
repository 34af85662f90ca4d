"""Shared pieces of the benchmark: environment record, memory, set-up timing."""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PYTHON = sys.executable or "python3"

#: Fresh-interpreter launches per run that time the set-up; ``setup_s`` is
#: their median.
SETUP_REPEATS = 3


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty list."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- environment record ------------------------------------------------------------


def _steal_ticks() -> int:
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read through its C API."""
    with open("/proc/self/maps") as handle:
        libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(libraries):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def reference_kernel_seconds() -> float:
    """Time a fixed single-thread numpy kernel (sort + cumsum, no BLAS).

    Its inputs never change, so a shift in this number between two sets of
    runs is the host, not the program.
    """
    values = np.random.default_rng(12345).random(1_000_000)
    started = time.perf_counter()
    for _ in range(3):
        np.cumsum(np.sort(values))
    return time.perf_counter() - started


def environment_record() -> dict:
    """CPU, BLAS, versions and thread defaults the run's numbers depend on."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "REPRO_SERVE_START_METHOD": os.environ.get("REPRO_SERVE_START_METHOD"),
        "numba_available": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "steal_ticks": _steal_ticks(),
    }


class HostProbe:
    """Reference-kernel time and steal ticks around the measured work."""

    def __init__(self) -> None:
        self.record = environment_record()
        self.record["ref_kernel_before_s"] = reference_kernel_seconds()

    def finish(self) -> dict:
        self.record["ref_kernel_after_s"] = reference_kernel_seconds()
        self.record["steal_ticks"] = _steal_ticks() - self.record["steal_ticks"]
        return self.record


# -- memory ------------------------------------------------------------------------


def _process_table() -> dict[int, int]:
    """Map pid -> parent pid for every visible process."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        parents[int(entry)] = int(stat[stat.rfind(")") + 2 :].split()[1])
    return parents


def _tree(root: int) -> list[int]:
    parents = _process_table()
    members, frontier = [root], [root]
    while frontier:
        frontier = [pid for pid, ppid in parents.items() if ppid in frontier]
        members.extend(frontier)
    return members


def _hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRSS:
    """Peak resident memory of a process tree, sampled from ``/proc``.

    Every ``interval`` seconds it sums the peak RSS (``VmHWM``) of the
    processes alive in the tree; the reported peak is the largest such sum.
    """

    def __init__(self, root: int, interval: float = 0.1) -> None:
        self.root = root
        self.interval = interval
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        total = sum(_hwm_kib(pid) for pid in _tree(self.root))
        self.peak_kib = max(self.peak_kib, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRSS":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def mb(self) -> float:
        return self.peak_kib / 1024.0


# -- set-up timing -----------------------------------------------------------------


def time_setup(workload: str, size: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from launching a fresh interpreter until the program is built.

    ``setup_probe.py`` imports ``repro``, builds the workload's objects and
    prints ``ready``; the time is taken when that line arrives, so the
    interpreter's shutdown is not counted.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        with subprocess.Popen(
            [PYTHON, str(ROOT / "perfbench" / "setup_probe.py"), workload, size],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - started)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return times


def digest(arrays) -> str:
    """Short SHA-256 of a sequence of arrays, to show which inputs ran."""
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def emit(tag: str, payload) -> None:
    """Print one tagged JSON line of run detail (before the result line)."""
    print(f"{tag} {json.dumps(payload, sort_keys=True, default=float)}", flush=True)


@dataclass
class Outcome:
    """What one pass over a workload's inputs produced.

    ``latencies`` are the seconds of each measured unit; ``n_done`` units
    took ``busy_s`` seconds of wall time (``jobs_per_s``).  ``checks`` counts
    how many times each output check ran; ``attempted``/``failed`` count the
    operations, where a failed, preempted, rejected or incorrect one is
    failed.  ``layers`` holds per-layer values (traced pass only).
    """

    latencies: list[float]
    n_done: int
    busy_s: float
    accuracy: float
    attempted: int
    failed: int
    checks: dict[str, int]
    peak_rss_mb: float
    layers: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def end_to_end(outcome: Outcome, setup_times: list[float]) -> dict:
    """Every end-to-end metric of an untraced pass, with its unit."""
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "latency_p50_s": {"value": statistics.median(outcome.latencies), "unit": "s"},
        "latency_p90_s": {"value": percentile(outcome.latencies, 90), "unit": "s"},
        "jobs_per_s": {"value": outcome.n_done / outcome.busy_s, "unit": "1/s"},
        "accuracy": {"value": outcome.accuracy, "unit": "ratio"},
        "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MB"},
    }
