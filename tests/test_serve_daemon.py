"""Integration tests for repro.serve.daemon: spool intake over the pool.

The daemon is driven deterministically through :meth:`ServeDaemon.step` —
one intake→dispatch→poll turn at a time — so the tests control exactly when
submissions land relative to the scheduler, without racing a background
thread.  The CLI test is the exception: it runs the real blocking
``repro-serve daemon`` loop on a thread and stops it with the spool's
``stop`` sentinel, exercising the same shutdown path a SIGTERM takes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.backend import (
    BackendSpec,
    SolveResult,
    register_backend,
    unregister_backend,
)
from repro.exceptions import ValidationError
from repro.serve.daemon import ServeDaemon
from repro.serve.streaming import StreamingRunner

pytestmark = pytest.mark.timeout(180)


@dataclass(frozen=True)
class _InstantConfig:
    duration: float = 0.0


class _InstantBackend:
    """Return an empty result immediately (optionally after a short nap)."""

    name = "instant"

    def __init__(self, config: _InstantConfig):
        self.config = config

    def fit(self, data, *, init_weights=None, deadline_hooks=None, rng=None):
        if self.config.duration > 0:
            time.sleep(self.config.duration)
        d = data.shape[1]
        return SolveResult(
            solver=self.name,
            weights=np.zeros((d, d)),
            constraint_value=0.0,
            converged=True,
            n_outer_iterations=1,
        )


@pytest.fixture
def instant_solver():
    register_backend(
        BackendSpec(
            name="instant", backend_class=_InstantBackend, config_class=_InstantConfig
        ),
        overwrite=True,
    )
    yield
    unregister_backend("instant")


def _submission_line(tenant: str | None = None, **overrides) -> str:
    payload = {
        "solver": "instant",
        "data": [[0.0, 0.0, 0.0]] * 4,
        "config": {},
    }
    if tenant is not None:
        payload["tenant"] = tenant
    payload.update(overrides)
    return json.dumps(payload)


def _submit(daemon: ServeDaemon, name: str, lines: list[str]) -> None:
    """Drop one submission file the way a client would: write, then rename."""
    staging = daemon.spool_dir / f".{name}.tmp"
    staging.write_text("\n".join(lines) + "\n")
    os.rename(staging, daemon.incoming_dir / f"{name}.ndjson")


def _result_lines(daemon: ServeDaemon, name: str) -> list[dict]:
    path = daemon.results_dir / f"{name}.ndjson"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def _drain(daemon: ServeDaemon, deadline: float = 60.0) -> None:
    started = time.monotonic()
    daemon.step(timeout=0.05)  # before the first intake, drained() is vacuous
    while not daemon.drained():
        daemon.step(timeout=0.05)
        assert time.monotonic() - started < deadline, "daemon failed to drain"


class TestDaemonValidation:
    def test_rejects_bad_parameters(self, tmp_path):
        runner = StreamingRunner(n_workers=1)
        with pytest.raises(ValidationError):
            ServeDaemon(runner, tmp_path / "spool", max_pending=0)
        with pytest.raises(ValidationError):
            ServeDaemon(runner, tmp_path / "spool", poll_interval=0.0)

    def test_creates_spool_layout(self, tmp_path):
        daemon = ServeDaemon(StreamingRunner(n_workers=1), tmp_path / "spool")
        assert daemon.incoming_dir.is_dir()
        assert daemon.work_dir.is_dir()
        assert daemon.results_dir.is_dir()


class TestDaemonIntake:
    def test_jobs_submitted_mid_run_stream_results_incrementally(
        self, instant_solver, tmp_path
    ):
        """The acceptance scenario: 20 jobs arriving in two waves mid-run,
        results appended to the per-file stream as each finishes."""
        runner = StreamingRunner(n_workers=2, timeout=30.0)
        daemon = ServeDaemon(runner, tmp_path / "spool", max_pending=32)

        _submit(daemon, "wave-a", [_submission_line() for _ in range(8)])
        # First wave: step until at least one result is out while work is
        # still in flight — proof results stream, not batch at drain.
        started = time.monotonic()
        while not _result_lines(daemon, "wave-a"):
            daemon.step(timeout=0.05)
            assert time.monotonic() - started < 60.0
        assert not daemon.drained() or len(_result_lines(daemon, "wave-a")) < 8

        # Second wave lands while the first is still being served.
        _submit(daemon, "wave-b", [_submission_line() for _ in range(12)])
        _drain(daemon)
        daemon.close()

        results_a = _result_lines(daemon, "wave-a")
        results_b = _result_lines(daemon, "wave-b")
        assert len(results_a) == 8
        assert len(results_b) == 12
        for record in results_a + results_b:
            assert record["type"] == "result"
            assert record["status"] == "ok"
        # Auto-assigned ids are <file>:<line> — one per line, none repeated.
        assert {r["job_id"] for r in results_a} == {
            f"wave-a:{n}" for n in range(1, 9)
        }
        assert daemon.n_accepted == 20
        assert daemon.n_completed == 20
        assert daemon.n_rejected == 0
        # The submission files were claimed out of incoming/ exactly once.
        assert list(daemon.incoming_dir.iterdir()) == []

    def test_malformed_lines_are_rejected_not_fatal(
        self, instant_solver, tmp_path
    ):
        daemon = ServeDaemon(
            StreamingRunner(n_workers=1, timeout=30.0), tmp_path / "spool"
        )
        _submit(
            daemon,
            "mixed",
            [
                _submission_line(),
                "{definitely not json",
                json.dumps(["a", "list", "not", "an", "object"]),
                json.dumps({"solver": "instant", "unknown_key": 1}),
                _submission_line(),
            ],
        )
        _drain(daemon)
        daemon.close()
        records = _result_lines(daemon, "mixed")
        rejected = [r for r in records if r["type"] == "rejected"]
        completed = [r for r in records if r["type"] == "result"]
        assert len(completed) == 2
        assert {r["line"] for r in rejected} == {2, 3, 4}
        assert all("malformed submission" in r["reason"] for r in rejected)
        assert daemon.n_rejected == 3
        assert daemon.n_accepted == 2

    def test_wave_submission_is_rejected(self, instant_solver, tmp_path):
        """A line carrying the removed ``wave`` key gets a rejected record."""
        daemon = ServeDaemon(
            StreamingRunner(n_workers=1, timeout=30.0), tmp_path / "spool"
        )
        wave = [
            {"job_id": "block-000", "n_columns": 1},
            {"job_id": "block-001", "n_columns": 2},
        ]
        _submit(daemon, "waves", [_submission_line(wave=wave), _submission_line()])
        _drain(daemon)
        daemon.close()
        records = _result_lines(daemon, "waves")
        rejected = [r for r in records if r["type"] == "rejected"]
        completed = [r for r in records if r["type"] == "result"]
        assert [r["line"] for r in rejected] == [1]
        assert "wave" in rejected[0]["reason"]
        assert len(completed) == 1
        assert daemon.n_rejected == 1
        assert daemon.n_accepted == 1

    def test_admission_control_rejects_past_max_pending(
        self, instant_solver, tmp_path
    ):
        daemon = ServeDaemon(
            StreamingRunner(n_workers=1, timeout=30.0),
            tmp_path / "spool",
            max_pending=3,
        )
        _submit(daemon, "burst", [_submission_line() for _ in range(10)])
        _drain(daemon)
        daemon.close()
        records = _result_lines(daemon, "burst")
        rejected = [r for r in records if r["type"] == "rejected"]
        completed = [r for r in records if r["type"] == "result"]
        # The burst is parsed in one intake turn: the admission window is
        # max_pending queued jobs (dispatch happens after intake), the rest
        # bounce with an explicit queue-full record naming the job.
        assert len(rejected) == 7
        assert all(r["reason"] == "queue full" for r in rejected)
        assert all("job_id" in r for r in rejected)
        assert len(completed) == 3
        assert daemon.n_completed == 3

    def test_tenant_fairness_round_robin(self, instant_solver, tmp_path):
        """A bulk tenant cannot starve a trickle tenant: once both queues
        hold work, dispatch alternates between them."""
        daemon = ServeDaemon(
            StreamingRunner(n_workers=1, timeout=30.0),
            tmp_path / "spool",
            max_pending=32,
        )
        lines = [_submission_line(tenant="bulk") for _ in range(6)] + [
            _submission_line(tenant="trickle") for _ in range(2)
        ]
        _submit(daemon, "both", lines)
        _drain(daemon)
        daemon.close()
        order = [
            r["job_id"]
            for r in _result_lines(daemon, "both")
            if r["type"] == "result"
        ]
        assert len(order) == 8
        # trickle's 2 jobs (lines 7 and 8) finished before bulk's last job —
        # strict FIFO over the file would have put them dead last.
        bulk_last = order.index("both:6")
        assert order.index("both:7") < bulk_last
        assert order.index("both:8") < bulk_last

    def test_stop_drains_accepted_work_and_ignores_new(
        self, instant_solver, tmp_path
    ):
        daemon = ServeDaemon(
            StreamingRunner(n_workers=1, timeout=30.0), tmp_path / "spool"
        )
        _submit(daemon, "early", [_submission_line() for _ in range(3)])
        daemon.step(timeout=0.05)  # claim + start serving
        daemon.request_stop()
        _submit(daemon, "late", [_submission_line()])
        daemon.run()  # drains "early", never touches "late"
        assert daemon.n_completed == 3
        assert len(_result_lines(daemon, "early")) == 3
        assert _result_lines(daemon, "late") == []
        assert (daemon.incoming_dir / "late.ndjson").exists()
        # The pool went down with the session: no live workers remain.
        for pid in daemon.runner.telemetry.worker_pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_stop_sentinel_file_stops_the_loop(self, instant_solver, tmp_path):
        daemon = ServeDaemon(
            StreamingRunner(n_workers=1, timeout=30.0), tmp_path / "spool"
        )
        (daemon.spool_dir / "stop").touch()
        assert daemon.stop_requested()
        daemon.run()  # returns immediately: stop requested, nothing pending
        assert daemon.n_accepted == 0


class TestDaemonCLI:
    def test_cli_serves_spool_until_stopped(self, instant_solver, tmp_path):
        import threading

        from repro.serve.cli import daemon_main

        spool = tmp_path / "spool"
        codes: list[int] = []
        thread = threading.Thread(
            target=lambda: codes.append(
                daemon_main(
                    [
                        str(spool),
                        "--workers",
                        "1",
                        "--timeout",
                        "30",
                        "--poll-interval",
                        "0.02",
                    ]
                )
            ),
            daemon=True,
        )
        thread.start()
        started = time.monotonic()
        while not (spool / "incoming").is_dir():
            time.sleep(0.01)
            assert time.monotonic() - started < 30.0
        staging = tmp_path / ".jobs.tmp"
        staging.write_text(
            "\n".join([_submission_line() for _ in range(3)] + ["broken{"])
            + "\n"
        )
        os.rename(staging, spool / "incoming" / "jobs.ndjson")
        results = spool / "results" / "jobs.ndjson"
        while not (
            results.exists() and len(results.read_text().splitlines()) == 4
        ):
            time.sleep(0.05)
            assert time.monotonic() - started < 120.0
        (spool / "stop").touch()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert codes == [0]
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert sum(1 for r in records if r["type"] == "result") == 3
        assert sum(1 for r in records if r["type"] == "rejected") == 1
