"""Tests for the repro.serve CLI: manifest parsing, reports, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ValidationError
from repro.serve.cli import load_manifest, main

FAST_JOB = {
    "dataset": "er2",
    "solver": "least",
    "seed": 0,
    "dataset_options": {"n_nodes": 10},
    "config": {"max_outer_iterations": 2, "max_inner_iterations": 30},
}


def _write_manifest(tmp_path, jobs, wrap=True):
    path = tmp_path / "manifest.json"
    payload = {"jobs": jobs} if wrap else jobs
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadManifest:
    def test_object_and_list_forms(self, tmp_path):
        for wrap in (True, False):
            path = _write_manifest(tmp_path, [FAST_JOB], wrap=wrap)
            jobs = load_manifest(path)
            assert len(jobs) == 1 and jobs[0].dataset == "er2"

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            load_manifest("/nonexistent/manifest.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_manifest(str(path))

    def test_empty_jobs(self, tmp_path):
        with pytest.raises(ValidationError):
            load_manifest(_write_manifest(tmp_path, []))

    def test_non_list_jobs(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"jobs": "all of them"}))
        with pytest.raises(ValidationError):
            load_manifest(str(path))


class TestMain:
    def test_successful_run_writes_report(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [FAST_JOB, {**FAST_JOB, "seed": 1}])
        output = tmp_path / "report.json"
        code = main([manifest, "--output", str(output)])
        assert code == 0
        report = json.loads(output.read_text())
        assert report["summary"]["n_jobs"] == 2
        assert report["summary"]["n_ok"] == 2
        assert len(report["jobs"]) == 2
        assert all(job["status"] == "ok" for job in report["jobs"])
        assert "2 jobs: 2 ok" in capsys.readouterr().err

    def test_report_to_stdout(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [FAST_JOB])
        code = main([manifest, "--quiet"])
        assert code == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["summary"]["n_ok"] == 1
        assert captured.err == ""

    def test_failing_job_sets_exit_code(self, tmp_path):
        bad = {**FAST_JOB, "config": {"k": -3}}
        manifest = _write_manifest(tmp_path, [FAST_JOB, bad])
        code = main([manifest, "--quiet", "--output", str(tmp_path / "r.json")])
        assert code == 1
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["summary"]["n_failed"] == 1

    def test_bad_manifest_exit_code(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_disk_cache_across_invocations(self, tmp_path):
        manifest = _write_manifest(tmp_path, [FAST_JOB])
        cache_dir = tmp_path / "cache"
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main([manifest, "--cache-dir", str(cache_dir), "--quiet", "--output", str(out1)]) == 0
        assert main([manifest, "--cache-dir", str(cache_dir), "--quiet", "--output", str(out2)]) == 0
        first = json.loads(out1.read_text())
        second = json.loads(out2.read_text())
        assert first["summary"]["n_cache_hits"] == 0
        assert second["summary"]["n_cache_hits"] == 1
        assert second["jobs"][0]["cache_hit"] is True

    def test_pool_flags_run_jobs_on_a_recycling_pool(self, tmp_path):
        manifest = _write_manifest(tmp_path, [FAST_JOB, {**FAST_JOB, "seed": 1}])
        output = tmp_path / "report.json"
        code = main(
            [
                manifest,
                "--workers",
                "2",
                "--timeout",
                "60",
                "--soft-timeout",
                "50",
                "--max-jobs-per-worker",
                "1",
                "--quiet",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        report = json.loads(output.read_text())
        assert report["summary"]["n_ok"] == 2

    def test_soft_timeout_above_hard_timeout_exits_2(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [FAST_JOB])
        code = main([manifest, "--timeout", "10", "--soft-timeout", "20"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point_exists(self):
        import repro.serve.__main__  # noqa: F401 - import is the test


class TestShardSubcommand:
    def _write_data(self, tmp_path, d=10, n=200, seed=2):
        import numpy as np

        from repro.graph.generation import random_dag
        from repro.sem.linear_sem import simulate_linear_sem

        truth = random_dag("ER-2", d, seed=0)
        data = simulate_linear_sem(truth, n, seed=seed)
        path = tmp_path / "data.npy"
        np.save(path, data)
        return str(path)

    def test_shard_report_and_weights(self, tmp_path, capsys):
        import numpy as np

        data_path = self._write_data(tmp_path)
        out = tmp_path / "report.json"
        weights_path = tmp_path / "weights.npy"
        code = main(
            [
                "shard",
                data_path,
                "--max-block-size",
                "5",
                "--edge-threshold",
                "0.3",
                "--config",
                '{"max_outer_iterations": 2, "max_inner_iterations": 30}',
                "--output",
                str(out),
                "--save-weights",
                str(weights_path),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {
            "plan",
            "stitch",
            "blocks",
            "gaps",
            "total_seconds",
            "preemption",
            "resolve",
        }
        assert report["plan"]["n_nodes"] == 10
        assert report["gaps"]["n_missing_nodes"] == 0
        assert report["resolve"]["n_rounds"] == 0
        assert all(block["status"] == "ok" for block in report["blocks"])
        weights = np.load(weights_path)
        assert weights.shape == (10, 10)
        assert "blocks over 10 nodes" in capsys.readouterr().err

    def test_shard_csv_input_and_stdout_report(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(0)
        path = tmp_path / "data.csv"
        np.savetxt(path, rng.normal(size=(60, 4)), delimiter=",")
        code = main(
            [
                "shard",
                str(path),
                "--config",
                '{"max_outer_iterations": 2, "max_inner_iterations": 20}',
                "--quiet",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plan"]["n_nodes"] == 4

    def test_shard_missing_data_exit_code(self, tmp_path, capsys):
        assert main(["shard", str(tmp_path / "nope.npy")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_shard_bad_config_exit_code(self, tmp_path, capsys):
        data_path = self._write_data(tmp_path, d=4, n=50)
        assert main(["shard", data_path, "--config", "[1, 2]"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_shard_unknown_solver_exit_code(self, tmp_path, capsys):
        data_path = self._write_data(tmp_path, d=4, n=50)
        assert main(["shard", data_path, "--solver", "leest"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_shard_sparse_solver_writes_npz_weights(self, tmp_path, capsys):
        import numpy as np
        import scipy.sparse as sp

        data_path = self._write_data(tmp_path, d=8, n=80)
        weights_path = tmp_path / "weights.npz"
        code = main(
            [
                "shard",
                data_path,
                "--solver",
                "least_sparse",
                "--max-block-size",
                "4",
                "--edge-threshold",
                "0.2",
                "--config",
                '{"max_outer_iterations": 2, "max_inner_iterations": 30}',
                "--quiet",
                "--save-weights",
                str(weights_path),
            ]
        )
        assert code == 0
        weights = sp.load_npz(weights_path)
        assert sp.issparse(weights)
        assert weights.shape == (8, 8)
        report = json.loads(capsys.readouterr().out)
        assert report["plan"]["n_nodes"] == 8

    def test_shard_unknown_solver_fails_before_reading_data(self, tmp_path, capsys):
        """--solver is validated against the live registry up front."""
        missing = tmp_path / "never-read.npy"  # does not exist
        assert main(["shard", str(missing), "--solver", "leest"]) == 2
        err = capsys.readouterr().err
        assert "unknown solver" in err and "least_sparse" in err

    def test_shard_sparse_save_weights_appends_npz_and_says_so(self, tmp_path, capsys):
        import scipy.sparse as sp

        data_path = self._write_data(tmp_path, d=6, n=60)
        asked = tmp_path / "weights.npy"  # wrong extension for a CSR result
        code = main(
            [
                "shard",
                data_path,
                "--solver",
                "least_sparse",
                "--max-block-size",
                "3",
                "--config",
                '{"max_outer_iterations": 2, "max_inner_iterations": 20}',
                "--quiet",
                "--output",
                str(tmp_path / "report.json"),
                "--save-weights",
                str(asked),
            ]
        )
        assert code == 0
        actual = tmp_path / "weights.npy.npz"
        assert actual.exists() and not asked.exists()
        assert str(actual) in capsys.readouterr().err


class TestObservabilityFlags:
    def test_trace_and_metrics_outputs(self, tmp_path, capsys):
        from repro.obs import read_trace, validate_trace

        manifest = _write_manifest(tmp_path, [FAST_JOB, {**FAST_JOB, "seed": 1}])
        trace_path = tmp_path / "trace.ndjson"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                manifest,
                "--quiet",
                "--output",
                str(tmp_path / "report.json"),
                "--trace-out",
                str(trace_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0

        spans = read_trace(trace_path)
        summary = validate_trace(spans)
        assert summary["n_orphans"] == 0
        for name in ("job", "queue_wait", "data_materialize", "solve", "outer_iter"):
            assert name in summary["names"], name

        metrics = json.loads(metrics_path.read_text())
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in metrics["counters"]
        }
        assert counters[("serve_jobs_total", (("status", "ok"),))] == 2.0
        histograms = {h["name"]: h for h in metrics["histograms"]}
        assert histograms["serve_job_seconds"]["count"] == 2

    def test_metrics_prometheus_format(self, tmp_path):
        manifest = _write_manifest(tmp_path, [FAST_JOB])
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                manifest,
                "--quiet",
                "--output",
                str(tmp_path / "report.json"),
                "--metrics-out",
                str(metrics_path),
                "--metrics-format",
                "prometheus",
            ]
        )
        assert code == 0
        text = metrics_path.read_text()
        assert "# TYPE serve_jobs_total counter" in text
        assert 'serve_jobs_total{status="ok"} 1' in text
        assert "serve_job_seconds_count 1" in text

    def test_metrics_only_run_uses_memory_sink(self, tmp_path):
        # --metrics-out alone must not require (or write) a trace file.
        manifest = _write_manifest(tmp_path, [FAST_JOB])
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                manifest,
                "--quiet",
                "--output",
                str(tmp_path / "report.json"),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        assert metrics_path.exists()
        assert not (tmp_path / "trace.ndjson").exists()

    def test_no_obs_flags_no_outputs(self, tmp_path):
        manifest = _write_manifest(tmp_path, [FAST_JOB])
        code = main([manifest, "--quiet", "--output", str(tmp_path / "report.json")])
        assert code == 0
        assert list(tmp_path.glob("*.ndjson")) == []

    def test_cache_summary_line_in_stderr(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [FAST_JOB])
        cache_dir = tmp_path / "cache"
        for _ in range(2):
            code = main(
                [
                    manifest,
                    "--cache-dir",
                    str(cache_dir),
                    "--output",
                    str(tmp_path / "report.json"),
                ]
            )
            assert code == 0
        err = capsys.readouterr().err
        # Each invocation opens its own DiskCache, so the stats are
        # per-invocation: a miss+store on the first run, a pure hit on the
        # second.
        assert "cache: 0 hits, 1 misses (hit rate 0.0%)" in err
        assert "cache: 1 hits, 0 misses (hit rate 100.0%), 0 evictions" in err

    def test_latency_summary_line_in_traced_run(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [FAST_JOB])
        code = main(
            [
                manifest,
                "--trace-out",
                str(tmp_path / "trace.ndjson"),
                "--output",
                str(tmp_path / "report.json"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("latency:"))
        assert "n=1" in line
        assert "p50=" in line and "p95=" in line and "p99=" in line

    def test_no_latency_line_without_tracer(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [FAST_JOB])
        code = main([manifest, "--output", str(tmp_path / "report.json")])
        assert code == 0
        assert "latency:" not in capsys.readouterr().err

    def test_cache_summary_line_in_stream_mode(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [FAST_JOB])
        cache_dir = tmp_path / "cache"
        code = main(
            [
                manifest,
                "--stream",
                "--cache-dir",
                str(cache_dir),
                "--output",
                str(tmp_path / "report.json"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "cache:" in err and "misses" in err

    def test_shard_trace_and_metrics(self, tmp_path, capsys):
        import numpy as np

        from repro.obs import read_trace, validate_trace

        rng = np.random.default_rng(2)
        data_path = tmp_path / "data.npy"
        np.save(data_path, rng.normal(size=(60, 8)))
        trace_path = tmp_path / "shard-trace.ndjson"
        metrics_path = tmp_path / "shard-metrics.json"
        code = main(
            [
                "shard",
                str(data_path),
                "--max-block-size",
                "4",
                "--config",
                json.dumps({"max_outer_iterations": 2, "max_inner_iterations": 30}),
                "--output",
                str(tmp_path / "report.json"),
                "--trace-out",
                str(trace_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        summary = validate_trace(read_trace(trace_path))
        assert summary["n_orphans"] == 0
        for name in ("shard_plan", "shard_solve", "stitch", "job", "solve"):
            assert name in summary["names"], name
        metrics = json.loads(metrics_path.read_text())
        names = {c["name"] for c in metrics["counters"]}
        assert "shard_blocks_total" in names
