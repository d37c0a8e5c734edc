"""Result export: JSON/CSV artifacts for the benchmark harness.

The ASCII tables are for humans; these exporters produce
machine-consumable records so results can be diffed across runs, plotted
externally, or archived next to ``bench_output.txt``.  JSON reports
(``bench holes``, ``chaos``) carry a :func:`bench_metadata` provenance
block and are written by :func:`write_report`.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math
import subprocess
from pathlib import Path
from typing import Mapping

from .cdf import cdf_series
from .runner import SuiteResult


def suite_to_records(suite: SuiteResult) -> list[dict]:
    """Flat per-task records for one solver run."""
    records = []
    for name, report in suite.reports.items():
        records.append(
            {
                "solver": suite.solver,
                "task": name,
                "success": report.success,
                "elapsed_s": round(report.elapsed_s, 6),
                "failure_reason": report.failure_reason,
                "methods": dict(report.method_counts),
                "online_size": report.online_size(),
            }
        )
    return records


def matrix_to_json(matrix: Mapping[str, SuiteResult], indent: int = 1) -> str:
    """Serialize a solver matrix (solver -> SuiteResult) to JSON."""
    payload = {
        solver: {
            "percent_solved": suite.percent_solved(),
            "average_time_s": (
                None
                if math.isnan(avg := suite.average_time())
                else round(avg, 6)
            ),
            "cdf": [[round(t, 6), pct] for t, pct in cdf_series(suite)],
            "tasks": suite_to_records(suite),
        }
        for solver, suite in matrix.items()
    }
    return json.dumps(payload, indent=indent)


def matrix_to_csv(matrix: Mapping[str, SuiteResult]) -> str:
    """One CSV row per (solver, task)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["solver", "task", "success", "elapsed_s", "failure_reason"])
    for suite in matrix.values():
        for record in suite_to_records(suite):
            writer.writerow(
                [
                    record["solver"],
                    record["task"],
                    int(record["success"]),
                    record["elapsed_s"],
                    record["failure_reason"] or "",
                ]
            )
    return buffer.getvalue()


def write_artifacts(matrix: Mapping[str, SuiteResult], json_path: str, csv_path: str) -> None:
    with open(json_path, "w") as handle:
        handle.write(matrix_to_json(matrix))
    with open(csv_path, "w") as handle:
        handle.write(matrix_to_csv(matrix))


def git_commit(cwd: str | None = None) -> str:
    """The current ``git rev-parse HEAD``, or ``"unknown"`` outside a
    checkout (or wherever git is missing/broken) — bench reports must be
    writable from an unpacked tarball too."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def bench_metadata() -> dict:
    """The ``meta`` block of a JSON report: which commit produced it, when,
    and what kind of clock timed it."""
    now = datetime.datetime.now(datetime.timezone.utc)
    return {
        "git_commit": git_commit(),
        "timestamp": now.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "clock": "time.perf_counter/time.monotonic (monotonic; timestamps are wall-clock UTC)",
    }


def write_report(report: dict, path) -> None:
    """Write a JSON report with sorted keys and a trailing newline."""
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
