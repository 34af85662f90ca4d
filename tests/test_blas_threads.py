"""Served solves run on one BLAS thread (``repro.utils.blas``).

Every job goes through :func:`repro.serve.job.execute_job`, which pins each
loaded OpenBLAS to one thread for data resolution and the solve.  So served
weights are bitwise the same whatever ``OPENBLAS_NUM_THREADS`` says, a pool
worker never runs BLAS helper threads, and an inline job hands the caller
back its own thread count without starting the thread pool.

Runs under both start methods in CI's stress job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.job import LearningJob, execute_job
from repro.serve.pool import PoolJob, WorkerPool
from repro.utils import blas
from repro.utils.blas import single_blas_thread, stop_blas_threads

pytestmark = pytest.mark.timeout(180)

SRC = Path(__file__).resolve().parents[1] / "src"

#: A served dense fit large enough that its products are threaded when
#: OpenBLAS may use two threads: ER-2, d = 100, n = 1000, 3 × 200 iterations.
DENSE_JOB = {
    "dataset": "er2",
    "seed": 0,
    "dataset_options": {"n_nodes": 100},
    "config": {"max_outer_iterations": 3, "max_inner_iterations": 200},
}

_SERVED_FIT = """
import hashlib, json, sys
import numpy as np
from repro.serve.job import LearningJob, execute_job
result = execute_job(LearningJob(**json.loads(sys.argv[1])))
print(hashlib.sha256(np.ascontiguousarray(result.weights).tobytes()).hexdigest())
"""


def _needs_proc_and_openblas() -> None:
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc on this platform")
    blas._find_openblas()
    if not blas._counts:
        pytest.skip("no OpenBLAS loaded")


def _threads(pid: int | str = "self") -> int:
    return len(os.listdir(f"/proc/{pid}/task"))


def _counts() -> list[int]:
    return [get() for get, _ in blas._counts]


def test_served_weights_do_not_depend_on_the_blas_thread_count():
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-c", _SERVED_FIT, json.dumps(DENSE_JOB)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.append(completed.stdout.strip())
    assert digests[0] == digests[1]


def test_pool_worker_keeps_one_thread_after_a_threaded_job():
    """The worker resolves the data and solves; no BLAS helper thread remains."""
    _needs_proc_and_openblas()
    pool = WorkerPool(1, timeout=120.0)
    try:
        pool.submit(PoolJob(job=LearningJob(**DENSE_JOB)))
        done = []
        deadline = time.monotonic() + 120.0
        while not done and time.monotonic() < deadline:
            done = pool.poll(timeout=1.0)
        assert [result.status for _, result in done] == ["ok"]
        (pid,) = pool.live_pids()
        assert _threads(pid) == 1
    finally:
        pool.close()


def test_inline_job_restores_the_count_and_starts_no_thread():
    _needs_proc_and_openblas()
    stop_blas_threads()  # a threaded product from here on would start the pool again
    before, threads = _counts(), _threads()
    result = execute_job(LearningJob(**DENSE_JOB))
    assert result.ok
    assert _counts() == before
    assert _threads() == threads


def test_pin_is_shared_by_nested_and_restored_once():
    _needs_proc_and_openblas()
    before = _counts()
    with single_blas_thread() as outer:
        assert outer == 1 and _counts() == [1] * len(before)
        with single_blas_thread() as inner:
            assert inner == 1
        assert _counts() == [1] * len(before)
    assert _counts() == before

