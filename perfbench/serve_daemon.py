"""serve-daemon: ``repro-serve daemon`` under paced and burst load.

The daemon runs as its own process with two pool workers, a fresh spool and
a fresh ``DiskCache``.  Two tenants submit ER-2 jobs with d=30 under a
``track_h`` configuration (about half a second per solve).

* paced: an open loop at a fixed rate well below capacity, one submission
  file per job.  Every fifth submission repeats an earlier one exactly, so
  the cache is read as well as written.  Latency runs from when a job was
  due to when its result line was written.
* burst: one file of distinct jobs dropped at once; its drain rate is the
  capacity (``jobs_per_s``).

Intake polling, dispatch, materialization and the cache matter most here;
the paced phase exposes intake latency and the burst phase hides it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np
from repro.datasets.registry import load_dataset
from repro.obs import read_trace, validate_trace
from repro.serve.cache import DiskCache

from perfbench.collector import merge_totals
from perfbench.common import (
    PYTHON,
    ROOT,
    SETUP_REPEATS,
    Outcome,
    PeakRSS,
    digest,
    percentile,
)
from perfbench.layers import from_totals

N_WORKERS = 2
TENANTS = ("tenant-a", "tenant-b")
JOB_CONFIG = {"max_outer_iterations": 6, "max_inner_iterations": 200, "track_h": True, "tolerance": 1e-4}
SIZES = {
    # nodes, paced jobs per second, burst jobs per second of burst phase, config
    "full": (30, 1.0, 2.3, JOB_CONFIG),
    "tiny": (8, 4.0, 6.0, dict(JOB_CONFIG, max_outer_iterations=2, max_inner_iterations=30)),
}
#: Share of ``--seconds`` spent in the paced phase; the rest is the burst.
PACED_SHARE = 0.75
#: Every REPEAT_EVERY-th paced job repeats one due at least REPEAT_MIN_AGE
#: arrivals before it, so the original has normally finished and the repeat
#: reads its cached result.
REPEAT_EVERY = 5
REPEAT_MIN_AGE = 3
#: Each arrival is due at a random point of the daemon's 50 ms intake tick,
#: so the tick's phase averages out within a run instead of between runs.
ARRIVAL_JITTER_S = 0.05
EDGE_THRESHOLD = 0.3
F1_FLOOR = {"full": 0.3, "tiny": 0.0}
PROBE_JOB = {
    "dataset": "er2",
    "dataset_options": {"n_nodes": 4},
    "config": {"max_outer_iterations": 1, "max_inner_iterations": 5},
    "tenant": "probe",
}
TIMEOUT_S = 120.0


def _job(n_nodes: int, config: dict, dataset_seed: int, tenant: str, job_id: str) -> dict:
    return {
        "dataset": "er2",
        "dataset_seed": dataset_seed,
        "dataset_options": {"n_nodes": n_nodes},
        "solver": "least",
        "seed": dataset_seed,
        "config": config,
        "tenant": tenant,
        "job_id": job_id,
    }


def make_inputs(seed: int, seconds: float, size: str) -> dict:
    """The paced schedule (with repeats) and the burst file's jobs."""
    n_nodes, paced_rate, burst_rate, config = SIZES[size]
    rng = np.random.default_rng(seed)
    paced_seconds = PACED_SHARE * seconds
    n_paced = max(4, round(paced_rate * paced_seconds))
    paced = []
    for index in range(n_paced):
        due = index / paced_rate + rng.uniform(0.0, ARRIVAL_JITTER_S)
        old = [job for job in paced[: max(0, index - REPEAT_MIN_AGE)] if not job["repeat_of"]]
        tenant = TENANTS[index % 2]
        job_id = f"p{index:04d}"
        if old and index % REPEAT_EVERY == REPEAT_EVERY - 1:
            original = old[rng.integers(len(old))]
            spec = dict(original["spec"], tenant=tenant, job_id=job_id)
            paced.append({"due": due, "spec": spec, "repeat_of": original["spec"]["job_id"]})
        else:
            spec = _job(n_nodes, config, seed * 100_000 + index, tenant, job_id)
            paced.append({"due": due, "spec": spec, "repeat_of": None})
    n_burst = max(2, round(burst_rate * (1 - PACED_SHARE) * seconds))
    burst = [
        _job(n_nodes, config, seed * 100_000 + 50_000 + index, TENANTS[index % 2], f"b{index:04d}")
        for index in range(n_burst)
    ]
    return {"paced": paced, "burst": burst, "n_nodes": n_nodes}


def describe(inputs: dict) -> dict:
    seeds = [job["spec"]["dataset_seed"] for job in inputs["paced"]]
    seeds += [job["dataset_seed"] for job in inputs["burst"]]
    return {
        "units": len(inputs["paced"]),
        "repeats": sum(1 for job in inputs["paced"] if job["repeat_of"]),
        "burst": len(inputs["burst"]),
        "digest": digest([np.asarray(seeds)]),
    }


# -- the daemon process ------------------------------------------------------------


class Daemon:
    """One daemon process over a fresh spool and cache, driven through files."""

    def __init__(self, work_dir: Path, collect_dir: Path | None = None, trace_out: Path | None = None):
        self.spool = work_dir / "spool"
        self.cache_dir = work_dir / "cache"
        self.outbox = work_dir / "outbox"
        for directory in (self.spool / "incoming", self.outbox):
            directory.mkdir(parents=True, exist_ok=True)
        command = [PYTHON, str(ROOT / "perfbench" / "serve_launcher.py")]
        if collect_dir is not None:
            command += ["--collect", str(collect_dir)]
        command += [
            str(self.spool),
            "--workers",
            str(N_WORKERS),
            "--cache-dir",
            str(self.cache_dir),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )

    def submit(self, name: str, lines: list[dict]) -> float:
        """Drop one submission file atomically; returns the wall time it landed."""
        staged = self.outbox / f"{name}.ndjson"
        staged.write_text("".join(json.dumps(line) + "\n" for line in lines))
        os.rename(staged, self.spool / "incoming" / staged.name)
        return time.time()

    def results(self, name: str) -> list[dict]:
        path = self.spool / "results" / f"{name}.ndjson"
        try:
            text = path.read_text()
        except FileNotFoundError:
            return []
        return [json.loads(line) for line in text.splitlines() if line.endswith("}")]

    def written_at(self, name: str) -> float:
        """Wall time the last record of a result stream was written."""
        return os.stat(self.spool / "results" / f"{name}.ndjson").st_mtime_ns / 1e9

    def wait(self, expected: dict[str, int], timeout: float = TIMEOUT_S) -> None:
        """Block until every named stream holds its expected record count."""
        deadline = time.monotonic() + timeout
        pending = dict(expected)
        while pending:
            pending = {n: c for n, c in pending.items() if len(self.results(n)) < c}
            if not pending:
                return
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self.process.stderr.read()}")
            if time.monotonic() > deadline:
                raise TimeoutError(f"no results for {sorted(pending)[:5]}")
            time.sleep(0.005)

    def warm(self) -> float:
        """Serve one probe job per worker; returns seconds since launch."""
        name = f"probe-{os.getpid()}"
        self.submit(name, [dict(PROBE_JOB, seed=k, job_id=f"probe-{k}") for k in range(N_WORKERS)])
        self.wait({name: N_WORKERS})
        return time.perf_counter() - self.started

    def stop(self) -> None:
        """Ask the daemon to drain and wait until it has exited."""
        (self.spool / "stop").touch()
        try:
            self.process.wait(timeout=TIMEOUT_S)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self.process.stderr.close()


def measure_setup(size: str, work_dir: Path) -> list[float]:
    """Seconds from launching the daemon until its pool has served a job."""
    times = []
    for index in range(SETUP_REPEATS):
        daemon = Daemon(work_dir / f"setup-{index}")
        try:
            times.append(daemon.warm())
        finally:
            daemon.stop()
    return times


# -- one pass --------------------------------------------------------------------


def _f1(weights: np.ndarray, truth: np.ndarray) -> float:
    predicted = np.abs(weights) > EDGE_THRESHOLD
    actual = truth != 0
    tp = int(np.sum(predicted & actual))
    if tp == 0:
        return 0.0
    precision, recall = tp / predicted.sum(), tp / actual.sum()
    return float(2 * precision * recall / (precision + recall))


def measure(inputs: dict, size: str, work_dir: Path, collector=None) -> Outcome:
    """Paced phase, burst phase, then check every record and cached result."""
    collect_dir = trace_out = None
    if collector is not None:
        collect_dir = collector.collect_dir
        trace_out = work_dir / "trace.ndjson"
    paced, burst = inputs["paced"], inputs["burst"]
    paced_ids = [job["spec"]["job_id"] for job in paced]
    daemon = Daemon(work_dir, collect_dir, trace_out)
    try:
        with PeakRSS(daemon.process.pid) as rss:
            daemon.warm()
            origin = time.time() + 0.1
            due = [origin + job["due"] for job in paced]
            sent = []
            for job, due_at in zip(paced, due):
                delay = due_at - time.time()
                if delay > 0:
                    time.sleep(delay)
                sent.append(daemon.submit(job["spec"]["job_id"], [job["spec"]]))
            daemon.wait({job_id: 1 for job_id in paced_ids})
            dropped = daemon.submit("burst", burst)
            daemon.wait({"burst": len(burst)})
            drained = daemon.written_at("burst")
    finally:
        daemon.stop()
    written = [daemon.written_at(job_id) for job_id in paced_ids]
    latencies = [w - d for w, d in zip(written, due)]
    lags = [s - d for s, d in zip(sent, due)]

    # Checks: every accepted line has exactly one record and it is ok; a
    # cache hit carries its original's fingerprint and edge count; every
    # distinct job's result is in the cache and meets the F1 floor.
    checks = {"one_ok_record_per_line": 0, "hit_matches_original": 0, "f1_floor": 0}
    ok = {}
    for job_id in paced_ids:
        lines = daemon.results(job_id)
        checks["one_ok_record_per_line"] += 1
        if len(lines) == 1 and lines[0].get("type") == "result" and lines[0]["status"] == "ok":
            ok[job_id] = lines[0]
    burst_records = daemon.results("burst")
    checks["one_ok_record_per_line"] += len(burst)
    if sorted(r.get("job_id") for r in burst_records) == sorted(j["job_id"] for j in burst):
        ok.update(
            (r["job_id"], r) for r in burst_records if r["type"] == "result" and r["status"] == "ok"
        )
    failed = len(paced) + len(burst) - len(ok)
    hits = repeats = 0
    for job in paced:
        record = ok.get(job["spec"]["job_id"])
        if job["repeat_of"] is None or record is None:
            continue
        repeats += 1
        if record["cache_hit"]:
            hits += 1
            checks["hit_matches_original"] += 1
            original = ok.get(job["repeat_of"], {})
            same = (original.get("fingerprint"), original.get("n_edges"))
            failed += same != (record["fingerprint"], record["n_edges"])
    cache = DiskCache(daemon.cache_dir)
    distinct = [job["spec"] for job in paced if not job["repeat_of"]] + burst
    f1s = []
    for spec in distinct:
        record = ok.get(spec["job_id"])
        if record is None:
            continue
        checks["f1_floor"] += 1
        cached = cache.get(record["fingerprint"])
        truth = load_dataset("er2", seed=spec["dataset_seed"], n_nodes=inputs["n_nodes"])["truth"]
        f1s.append(_f1(cached.weights, truth) if cached is not None else 0.0)
        failed += f1s[-1] < F1_FLOOR[size]

    # Latency minus solve time, for solved (not cached) paced jobs.
    overhead = [
        lat - ok[job_id]["elapsed_seconds"]
        for lat, job_id in zip(latencies, paced_ids)
        if job_id in ok and not ok[job_id]["cache_hit"]
    ]
    layers = {}
    if collector is not None:
        layers = _layers(collector, trace_out, dict(zip(paced_ids, zip(due, written))), burst, drained - dropped)
        layers.update(
            {
                "serve.overhead_s": statistics.median(overhead),
                "cache.hits": hits,
                "cache.hit_ratio": hits / repeats if repeats else 0.0,
                "load.send_lag_max_s": max(lags),
            }
        )
    return Outcome(
        latencies=latencies,
        n_done=len(burst),
        busy_s=drained - dropped,
        accuracy=statistics.fmean(f1s) if f1s else 0.0,
        attempted=len(paced) + len(burst),
        failed=int(failed),
        checks=checks,
        peak_rss_mb=rss.mb,
        layers=layers,
        detail={
            "paced": len(paced),
            "burst": len(burst),
            "repeats": repeats,
            "cache_hits": hits,
            "send_lag_p50_s": statistics.median(lags),
            "send_lag_max_s": max(lags),
            "latency_p99_s": percentile(latencies, 99),
            "overhead_p50_s": statistics.median(overhead) if overhead else 0.0,
        },
    )


def _layers(collector, trace_out: Path, paced: dict, burst: list[dict], burst_s: float) -> dict:
    """Per-layer values from the daemon's trace and the merged totals.

    ``paced`` maps each paced job id to its (due, result written) wall
    times.  Span times are on the monotonic clock, which every process on
    the host shares, so one offset converts them to wall time.
    """
    offset = time.time() - time.monotonic()
    spans = read_trace(trace_out)
    children: dict[str, dict[str, dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), {})[span["name"]] = span
    jobs = {
        s["attributes"]["job_id"]: s
        for s in spans
        if s["name"] == "job" and "job_id" in (s.get("attributes") or {})
    }
    phases = {name: [] for name in ("intake", "queue_wait", "dispatch", "materialize", "result")}
    for job_id, (due, written) in paced.items():
        job = jobs[job_id]
        parts = children.get(job["span_id"], {})
        phases["intake"].append(job["start"] + offset - due)
        phases["queue_wait"].append(parts["queue_wait"]["duration"])
        phases["materialize"].append(parts["data_materialize"]["duration"])
        if "worker" in parts:  # solved, not served from the cache
            phases["dispatch"].append(parts["job_dispatch"]["duration"])
            worker = parts["worker"]
            phases["result"].append(written - (worker["start"] + worker["duration"] + offset))
    burst_busy = sum(
        children.get(jobs[job["job_id"]]["span_id"], {}).get("worker", {}).get("duration", 0.0)
        for job in burst
    )
    layers = from_totals(merge_totals(collector.collect_dir))
    layers.update({f"serve.{name}_s": statistics.median(v) for name, v in phases.items() if v})
    layers.update(
        {
            "pool.busy_frac": burst_busy / (N_WORKERS * burst_s),
            "pool.workers_spawned": sum(1 for s in spans if s["name"] == "worker_spawn"),
            "obs.spans": len(spans),
            "obs.orphans": validate_trace(spans)["n_orphans"],
        }
    )
    return layers
