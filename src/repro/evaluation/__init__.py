"""Evaluation harness: runners and table/figure regenerators (Section 7).

The suite runner executes sequentially or across a process pool with hard
wall-clock kills (:mod:`repro.evaluation.parallel`), backed by the
persistent synthesis store that ``repro compile`` also uses
(:mod:`repro.store`); see ``run_suite(workers=..., store=...)`` and the
``--workers`` / ``--no-cache`` flags of ``python -m repro bench``.

Besides the paper's artifacts, ``bench holes`` measures hole-parallel
against sequential synthesis (:mod:`repro.evaluation.hole_bench`) and
``repro chaos`` runs seeded fault trials against ``repro serve``
(:mod:`repro.evaluation.chaos`).  End-to-end performance is measured by
``perfbench/`` at the repository root, not here.
"""

from .cdf import ascii_cdf, cdf_series
from .export import (
    bench_metadata,
    matrix_to_csv,
    matrix_to_json,
    suite_to_records,
    write_artifacts,
    write_report,
)
from .hole_bench import run_hole_benchmark
from .parallel import Task, default_hole_workers, default_workers, execute_tasks
from .runner import SuiteResult, default_timeout, run_matrix, run_suite
from .tables import qualitative, table1, table2

__all__ = [
    "SuiteResult",
    "Task",
    "ascii_cdf",
    "bench_metadata",
    "cdf_series",
    "default_hole_workers",
    "default_timeout",
    "default_workers",
    "execute_tasks",
    "matrix_to_csv",
    "matrix_to_json",
    "qualitative",
    "run_hole_benchmark",
    "run_matrix",
    "run_suite",
    "suite_to_records",
    "table1",
    "table2",
    "write_artifacts",
    "write_report",
]
