"""Tests for tools/bench_gate.py — the benchmark regression gate."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_gate", REPO_ROOT / "tools" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)


class TestResolvePath:
    def test_nested_lookup(self):
        payload = {"a": {"b": {"c": 3}}}
        assert bench_gate.resolve_path(payload, "a.b.c") == 3

    def test_missing_key_returns_none(self):
        assert bench_gate.resolve_path({"a": {}}, "a.b") is None
        assert bench_gate.resolve_path({"a": 1}, "a.b") is None


class TestCheckMetric:
    def test_max_rule(self):
        assert bench_gate.check_metric("m", 1.0, {"max": 2.0}) is None
        assert "exceeds max" in bench_gate.check_metric("m", 3.0, {"max": 2.0})

    def test_min_rule(self):
        assert bench_gate.check_metric("m", 5.0, {"min": 2.0}) is None
        assert "below min" in bench_gate.check_metric("m", 1.0, {"min": 2.0})

    def test_baseline_lower_is_better(self):
        rule = {"baseline": 10.0, "tolerance_pct": 50, "direction": "lower"}
        assert bench_gate.check_metric("m", 14.0, rule) is None
        assert "regressed" in bench_gate.check_metric("m", 16.0, rule)

    def test_baseline_higher_is_better(self):
        rule = {"baseline": 1.0, "tolerance_pct": 20, "direction": "higher"}
        assert bench_gate.check_metric("m", 0.9, rule) is None
        assert "regressed" in bench_gate.check_metric("m", 0.7, rule)

    def test_bool_coerced(self):
        assert bench_gate.check_metric("m", True, {"min": 1}) is None
        assert "below min" in bench_gate.check_metric("m", False, {"min": 1})

    def test_non_numeric_fails(self):
        assert "not numeric" in bench_gate.check_metric("m", "fast", {"max": 1})

    def test_unknown_direction_fails(self):
        rule = {"baseline": 1.0, "direction": "sideways"}
        assert "unknown direction" in bench_gate.check_metric("m", 1.0, rule)


class TestCheckBenchFile:
    def test_missing_file_is_failure(self, tmp_path):
        failures, n = bench_gate.check_bench_file(
            tmp_path / "BENCH_x.json", {"metrics": {"a": {"max": 1}}}
        )
        assert failures and "missing" in failures[0]

    def test_missing_metric_is_failure(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"a": 1.0}))
        failures, n = bench_gate.check_bench_file(
            path, {"metrics": {"a": {"max": 2}, "b.c": {"max": 2}}}
        )
        assert n == 2
        assert len(failures) == 1 and "metric missing" in failures[0]

    def test_invalid_json_is_failure(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{not json")
        failures, _ = bench_gate.check_bench_file(path, {"metrics": {}})
        assert failures and "not valid JSON" in failures[0]

    def test_non_object_rule_is_failure(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"speedup": 1.0}))
        failures, _ = bench_gate.check_bench_file(
            path, {"metrics": {"speedup": ["min 3"]}}
        )
        assert len(failures) == 1 and "is not an object" in failures[0]


class TestCheckHistory:
    def _row(self, **overrides):
        row = {
            "schema": bench_gate.HISTORY_SCHEMA_VERSION,
            "bench": "serve",
            "written_at": "2026-08-08T00:00:00+00:00",
            "run_id": "local",
            "metrics": {"throughput.speedup": 1.2},
        }
        row.update(overrides)
        return row

    def test_valid_history_passes(self, tmp_path):
        path = tmp_path / "BENCH_history.ndjson"
        path.write_text(json.dumps(self._row()) + "\n")
        assert bench_gate.check_history(path) == []

    def test_empty_history_fails(self, tmp_path):
        path = tmp_path / "BENCH_history.ndjson"
        path.write_text("")
        assert any("no history rows" in f for f in bench_gate.check_history(path))

    def test_wrong_schema_version_fails(self, tmp_path):
        path = tmp_path / "BENCH_history.ndjson"
        path.write_text(json.dumps(self._row(schema=99)) + "\n")
        assert any("schema" in f for f in bench_gate.check_history(path))

    def test_missing_key_fails(self, tmp_path):
        row = self._row()
        del row["run_id"]
        path = tmp_path / "BENCH_history.ndjson"
        path.write_text(json.dumps(row) + "\n")
        assert any("run_id" in f for f in bench_gate.check_history(path))

    def test_non_numeric_metric_fails(self, tmp_path):
        path = tmp_path / "BENCH_history.ndjson"
        path.write_text(
            json.dumps(self._row(metrics={"m": "fast"})) + "\n"
        )
        assert any("non-numeric" in f for f in bench_gate.check_history(path))


class TestMainAgainstCommittedArtifacts:
    """The gate must pass against the repo's committed BENCH files."""

    def test_gate_passes_on_committed_baselines(self, capsys):
        code = bench_gate.main(
            [
                "--baselines", str(REPO_ROOT / "benchmarks" / "baselines.json"),
                "--bench-dir", str(REPO_ROOT),
                "--history", str(REPO_ROOT / "BENCH_history.ndjson"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "within tolerance" in out

    def test_gate_fails_on_degraded_copy(self, tmp_path, capsys):
        # Degrade one gated metric in a copy of the committed artifact and
        # check the gate turns red.
        payload = json.loads((REPO_ROOT / "BENCH_serve.json").read_text())
        payload["cache"]["hits"] = 0
        (tmp_path / "BENCH_serve.json").write_text(json.dumps(payload))
        baselines = {
            "BENCH_serve.json": {"metrics": {"cache.hits": {"min": 16}}}
        }
        (tmp_path / "baselines.json").write_text(json.dumps(baselines))
        code = bench_gate.main(
            [
                "--baselines", str(tmp_path / "baselines.json"),
                "--bench-dir", str(tmp_path),
            ]
        )
        assert code == 1
        assert "cache.hits" in capsys.readouterr().err

    def test_missing_baselines_file_exits_two(self, tmp_path):
        assert bench_gate.main(["--baselines", str(tmp_path / "nope.json")]) == 2


class TestHistoryAppend:
    """benchmarks/helpers.append_bench_history + flatten_metrics."""

    def test_flatten_skips_pid_keyed_dicts_and_strings(self):
        from benchmarks.helpers import flatten_metrics

        flat = flatten_metrics(
            {
                "speedup": 1.5,
                "ok": True,
                "label": "fast",
                "nested": {"seconds": 2.0},
                "per_worker": {"1234": 9.9, "5678": 8.8},
            }
        )
        assert flat == {"speedup": 1.5, "ok": 1.0, "nested.seconds": 2.0}

    def test_append_bench_history_row_schema(self, tmp_path):
        from benchmarks.helpers import HISTORY_SCHEMA_VERSION, append_bench_history

        path = tmp_path / "history.ndjson"
        append_bench_history("serve", {"speedup": 1.5}, path=path)
        append_bench_history("shard", {"f1": 0.6}, path=path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["bench"] for r in rows] == ["serve", "shard"]
        for row in rows:
            assert row["schema"] == HISTORY_SCHEMA_VERSION
            assert row["run_id"] == "local" or row["run_id"]
            assert "written_at" in row
        assert rows[0]["metrics"] == {"speedup": 1.5}

    def test_history_rows_validate_against_gate(self, tmp_path):
        from benchmarks.helpers import append_bench_history

        path = tmp_path / "history.ndjson"
        append_bench_history("serve", {"speedup": 1.5, "flag": True}, path=path)
        assert bench_gate.check_history(path) == []

    def test_schema_versions_agree(self):
        from benchmarks.helpers import HISTORY_SCHEMA_VERSION

        assert HISTORY_SCHEMA_VERSION == bench_gate.HISTORY_SCHEMA_VERSION
