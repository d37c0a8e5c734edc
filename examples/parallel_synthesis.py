"""Intra-task parallel synthesis: spreading one task's holes across cores.

``--workers`` parallelizes across benchmark tasks; ``hole_workers`` (CLI:
``--hole-workers`` / env: ``REPRO_HOLE_WORKERS``) parallelizes *within* one
task — each sketch hole is an independent sub-task (Lemma 1), so a
multi-hole synthesis can use several cores.  The contract demonstrated
below: the parallel report is identical to the sequential one in everything
but wall-clock, so you can turn the knob freely (stored results are even
shared across worker counts).

CLI equivalents::

    python -m repro synthesize --benchmark variance --hole-workers 4
    python -m repro bench table1 --workers 2 --hole-workers 2
    python -m repro bench holes --hole-workers 4 --assert-speedup 1.5

Related deployment-side knob shown at the end: ``repro run`` now refuses
unbounded source specs (``constant:3``, ``counter``) unless you bound them
with ``--max-elements N`` — previously such a run hung forever.
"""

import os
import time
from dataclasses import replace

from repro.core import SynthesisConfig, synthesize
from repro.suites import get_benchmark


def main() -> None:
    bench = get_benchmark("variance")  # 3 holes: 1 template + 2 implicates
    base = SynthesisConfig(timeout_s=60, element_arity=bench.element_arity)

    reports = {}
    for hole_workers in (1, 2):
        config = replace(base, hole_workers=hole_workers)
        started = time.monotonic()
        reports[hole_workers] = synthesize(bench.program, config, bench.name)
        wall = time.monotonic() - started
        print(
            f"hole_workers={hole_workers}: solved {bench.name} in {wall:.2f}s "
            f"({len(reports[hole_workers].holes)} holes, "
            f"{os.cpu_count()} core(s) available)"
        )

    sequential, parallel = reports[1], reports[2]
    assert parallel.scheme == sequential.scheme
    assert [(h.hole_id, h.method) for h in parallel.holes] == [
        (h.hole_id, h.method) for h in sequential.holes
    ]
    print("parallel report is identical to sequential (modulo elapsed_s)")
    print()
    print(sequential.scheme.describe())


if __name__ == "__main__":
    main()
