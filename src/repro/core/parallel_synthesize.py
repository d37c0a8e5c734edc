"""Intra-task parallel synthesis: one process-pool job per sketch hole.

``--workers N`` parallelizes *across* (solver, benchmark) cells; before this
module, a single hard task with many sketch holes still ran its entire
search on one core.  Lemma 1 (see :mod:`repro.core.decompose`) makes the
fix natural: every hole carries its own offline specification and the holes
share no fill dependencies, so each ``SynthesizeExpr`` call is an
independent, picklable sub-task.  This module dispatches them over the same
:class:`~repro.supervisor.ProcessSupervisor` the benchmark harness uses,
with two extra properties the harness does not need:

**Determinism.** ``hole_workers`` is an execution knob, never a search
knob: parallel and sequential synthesis produce identical
:class:`~repro.core.report.SynthesisReport`\\ s modulo ``elapsed_s``
(whenever the budget does not bind — wall-clock timeouts are inherently
racy in either mode).  Hole outcomes are recorded in sorted hole order
regardless of completion order; a failing hole raises exactly the exception
the sequential loop would raise, after the same prefix of hole outcomes has
been recorded.  Each hole is one job running the full sequential
``SynthesizeExpr``, so that job's outcome *is* the hole's decision.  The
config fingerprint therefore *excludes* ``hole_workers``: cache entries are
shared across worker counts.

**Budget accounting.** Every sub-task inherits the task's *remaining*
budget at dispatch, and the supervisor additionally caps every kill
deadline at the task deadline, so the hard wall-clock guarantee of the
outer harness still bounds the whole task: no hole worker survives past
``timeout_s + KILL_GRACE_S``.

Workers are forked where available and spawned elsewhere (payloads are
picklable).  Inside a *daemonic* bench worker the pool is unavailable
(daemonic processes may not have children); ``solve_sketch_parallel``
detects that and declines, and the caller falls back to the sequential
loop — which is why ``execute_tasks`` spawns non-daemonic workers whenever
a task config asks for ``hole_workers > 1``.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import replace

from ..ir.nodes import Expr, OnlineProgram
from ..ir.pretty import pretty
from ..ir.traversal import ast_size, fill_holes
from ..supervisor import Job, ProcessSupervisor
from .config import SynthesisConfig
from .decompose import Sketch
from .exceptions import HoleSynthesisFailure, SynthesisError, SynthesisTimeout
from .report import HoleOutcome, SynthesisReport
from .rfs import RFS
from .simplify import simplify_expr

#: Sub-task outcome tags (the picklable payload of one hole worker).
_OK, _NONE, _TIMEOUT, _ERROR = "ok", "none", "timeout", "error"


def _hole_job(
    rfs: RFS,
    spec: Expr,
    config: SynthesisConfig,
    salt: str,
) -> tuple:
    """Child-process body: solve one hole; exceptions become tagged
    outcomes, not crashes."""
    from .synthesize import synthesize_expr

    config.start_clock()
    try:
        expr, method = synthesize_expr(rfs, spec, config, salt=salt)
        return (_OK, expr, method)
    except HoleSynthesisFailure as exc:
        return (_NONE, exc.reason, None)
    except SynthesisTimeout as exc:
        return (_TIMEOUT, str(exc), None)


def solve_sketch_parallel(
    rfs: RFS,
    sketch: Sketch,
    config: SynthesisConfig,
    report: SynthesisReport,
) -> OnlineProgram | None:
    """Algorithm 3 with holes spread over ``config.hole_workers`` processes.

    Returns ``None`` when the pool is unavailable or useless (single
    sub-task, daemonic process) — the caller then runs the sequential loop.
    Otherwise the result, the recorded hole outcomes, and any raised failure
    are identical to :func:`repro.core.synthesize._solve_sketch` (modulo
    wall-clock, and assuming a non-binding budget).
    """
    holes = sorted(sketch.specs.items())
    if len(holes) < 2 or mp.current_process().daemon:
        return None

    remaining = config.remaining()
    if remaining <= 0:
        raise SynthesisTimeout(f"budget exhausted at hole {holes[0][0]}")
    job_config = replace(config, timeout_s=remaining, hole_workers=1)
    jobs = [
        Job(hole_id, _hole_job, (rfs, spec, job_config, str(hole_id)), remaining)
        for hole_id, spec in holes
    ]

    supervisor = ProcessSupervisor(min(config.hole_workers, len(jobs)))
    resolved: dict[int, tuple] = {}
    fills: dict[int, Expr] = {}
    cursor = 0  # holes[:cursor] are recorded in the report, in sorted order

    def settle() -> None:
        """Advance through holes in sorted order as decisions land: record
        successes (before any later failure, exactly as the sequential loop
        does) and raise the first decisive failure."""
        nonlocal cursor
        while cursor < len(holes):
            hole_id, spec = holes[cursor]
            decision = resolved.get(hole_id)
            if decision is None:
                return  # this hole is still open: nothing to conclude yet
            tag, value, method = decision
            if tag == _OK:
                fills[hole_id] = value
                report.record_hole(HoleOutcome(hole_id, method, ast_size(spec), ast_size(value)))
                cursor += 1
                continue
            if tag == _NONE:
                raise HoleSynthesisFailure(hole_id, pretty(spec), value)
            if tag == _TIMEOUT:
                raise SynthesisTimeout(value)
            raise SynthesisError(f"hole {hole_id} worker failed: {value}")

    results = supervisor.run(jobs, deadline=time.monotonic() + remaining)
    try:
        for result in results:
            hole_id = result.job.key
            if result.kind == "ok":
                outcome = result.value
            elif result.kind == "timeout":
                outcome = (
                    _TIMEOUT,
                    f"budget exhausted at hole {hole_id} "
                    f"(worker killed after {result.elapsed_s:.1f}s)",
                    None,
                )
            else:  # "error" / "crashed"
                detail = result.message or f"exit code {result.exitcode}"
                outcome = (_ERROR, detail, None)
            resolved[hole_id] = outcome
            settle()  # raises on a decisive failure
    finally:
        results.close()  # kills any straggling workers promptly

    outputs = tuple(simplify_expr(fill_holes(out, fills)) for out in sketch.program.outputs)
    return OnlineProgram(
        state_params=sketch.program.state_params,
        elem_param=sketch.program.elem_param,
        outputs=outputs,
        extra_params=sketch.program.extra_params,
    )
