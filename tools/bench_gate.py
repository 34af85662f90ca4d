#!/usr/bin/env python
"""Benchmark regression gate: compare ``BENCH_*.json`` against baselines.

CI runs this after the benchmark jobs, pointing it at the committed
``benchmarks/baselines.json``::

    python tools/bench_gate.py --baselines benchmarks/baselines.json

The baselines file maps each benchmark artifact to per-metric rules keyed by
dotted paths into its JSON::

    {
      "BENCH_serve.json": {
        "metrics": {
          "wall_clock_breakdown.n_orphans": {"max": 0},
          "cache.hits":                     {"min": 16},
          "throughput.speedup":             {"baseline": 0.95,
                                             "tolerance_pct": 40,
                                             "direction": "higher"}
        }
      }
    }

Three rule shapes; each metric maps to exactly one rule object:

``{"max": v}`` / ``{"min": v}``
    Hard bound — the metric may never exceed / fall below ``v``.
``{"baseline": v, "tolerance_pct": p, "direction": "lower"|"higher"}``
    Tolerance band around a committed reference value.  ``direction`` names
    which way is *better*: ``"lower"`` (e.g. seconds) fails when the metric
    grows past ``v * (1 + p/100)``; ``"higher"`` (e.g. speedup, F1) fails
    when it drops below ``v * (1 - p/100)``.

A missing benchmark file, a missing metric path, or a non-numeric value is a
failure too — schema drift must not silently disable the gate.  Exit status:
0 all metrics pass, 1 any regression or missing data, 2 bad usage.

``--history BENCH_history.ndjson`` additionally validates the appended
history rows (see ``benchmarks/helpers.py:append_bench_history`` for the row
schema).  Deliberately stdlib-only so CI can run it without installing the
package.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: History row schema version this gate understands.
HISTORY_SCHEMA_VERSION = 1


def resolve_path(payload: dict, dotted: str):
    """Walk a dotted path into nested dicts; returns None when absent."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_metric(dotted: str, value, rule: dict) -> str | None:
    """Check one metric against its rule; returns a failure message or None."""
    if isinstance(value, bool):
        value = 1.0 if value else 0.0
    if not isinstance(value, (int, float)):
        return f"{dotted}: value {value!r} is not numeric"
    value = float(value)
    if "max" in rule and value > float(rule["max"]):
        return f"{dotted}: {value:g} exceeds max {float(rule['max']):g}"
    if "min" in rule and value < float(rule["min"]):
        return f"{dotted}: {value:g} below min {float(rule['min']):g}"
    if "baseline" in rule:
        baseline = float(rule["baseline"])
        tolerance = float(rule.get("tolerance_pct", 0.0)) / 100.0
        direction = rule.get("direction", "lower")
        if direction == "lower":
            limit = baseline * (1.0 + tolerance)
            if value > limit:
                return (
                    f"{dotted}: {value:g} regressed past {limit:g} "
                    f"(baseline {baseline:g} +{rule.get('tolerance_pct', 0)}%)"
                )
        elif direction == "higher":
            limit = baseline * (1.0 - tolerance)
            if value < limit:
                return (
                    f"{dotted}: {value:g} regressed below {limit:g} "
                    f"(baseline {baseline:g} -{rule.get('tolerance_pct', 0)}%)"
                )
        else:
            return f"{dotted}: unknown direction {direction!r}"
    return None


def check_bench_file(path: Path, spec: dict) -> tuple[list[str], int]:
    """Gate one benchmark artifact; returns (failures, n metrics checked)."""
    if not path.exists():
        return [f"{path}: benchmark artifact missing"], 0
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: not valid JSON ({exc})"], 0
    failures: list[str] = []
    metrics = spec.get("metrics", {})
    for dotted, rule in sorted(metrics.items()):
        value = resolve_path(payload, dotted)
        if value is None:
            failures.append(f"{path.name}:{dotted}: metric missing from artifact")
            continue
        if not isinstance(rule, dict):
            failures.append(f"{path.name}:{dotted}: rule {rule!r} is not an object")
            continue
        message = check_metric(dotted, value, rule)
        if message is not None:
            failures.append(f"{path.name}:{message}")
    return failures, len(metrics)


def check_history(path: Path) -> list[str]:
    """Validate the schema of every row in a ``BENCH_history.ndjson`` file."""
    if not path.exists():
        return [f"{path}: history file missing"]
    failures: list[str] = []
    n_rows = 0
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            failures.append(f"{path.name}:{lineno}: not valid JSON")
            continue
        n_rows += 1
        if row.get("schema") != HISTORY_SCHEMA_VERSION:
            failures.append(
                f"{path.name}:{lineno}: schema {row.get('schema')!r} "
                f"(expected {HISTORY_SCHEMA_VERSION})"
            )
        for key in ("bench", "written_at", "run_id", "metrics"):
            if key not in row:
                failures.append(f"{path.name}:{lineno}: missing {key!r}")
        metrics = row.get("metrics")
        if isinstance(metrics, dict):
            bad = [k for k, v in metrics.items() if not isinstance(v, (int, float))]
            if bad:
                failures.append(
                    f"{path.name}:{lineno}: non-numeric metrics {bad[:3]}"
                )
        elif metrics is not None:
            failures.append(f"{path.name}:{lineno}: metrics is not an object")
    if n_rows == 0:
        failures.append(f"{path.name}: no history rows")
    return failures


def main(argv: list[str] | None = None) -> int:
    """Run the gate; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="bench_gate",
        description="Fail when any BENCH_*.json metric regressed past its baseline.",
    )
    parser.add_argument(
        "--baselines",
        default="benchmarks/baselines.json",
        help="baselines file (default benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--bench-dir",
        default=".",
        help="directory holding the BENCH_*.json artifacts (default .)",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="NDJSON",
        help="also validate the schema of this BENCH_history.ndjson file",
    )
    args = parser.parse_args(argv)

    baselines_path = Path(args.baselines)
    if not baselines_path.exists():
        print(f"bench_gate: baselines file not found: {baselines_path}", file=sys.stderr)
        return 2
    try:
        baselines = json.loads(baselines_path.read_text())
    except json.JSONDecodeError as exc:
        print(f"bench_gate: baselines not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(baselines, dict) or not baselines:
        print("bench_gate: baselines must be a non-empty JSON object", file=sys.stderr)
        return 2

    failures: list[str] = []
    n_checked = 0
    for bench_name, spec in sorted(baselines.items()):
        bench_failures, n_metrics = check_bench_file(
            Path(args.bench_dir) / bench_name, spec
        )
        failures.extend(bench_failures)
        n_checked += n_metrics
        status = "FAIL" if bench_failures else "ok"
        print(f"{bench_name}: {n_metrics} metrics checked — {status}")
    if args.history:
        history_failures = check_history(Path(args.history))
        failures.extend(history_failures)
        print(
            f"{args.history}: history schema — "
            f"{'FAIL' if history_failures else 'ok'}"
        )

    if failures:
        print(f"\nbench_gate: {len(failures)} failure(s):", file=sys.stderr)
        for message in failures:
            print(f"  {message}", file=sys.stderr)
        return 1
    print(f"bench_gate: all {n_checked} metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
