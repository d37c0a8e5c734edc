"""Generic process supervision with hard wall-clock deadlines.

One spawn/reap core, three tenants: the *bench-level* parallelism of
:mod:`repro.evaluation.parallel` (one process per (solver, benchmark) cell),
the *hole-level* parallelism of :mod:`repro.core.parallel_synthesize`
(one process per sketch hole), and the *shard workers* of
:mod:`repro.serve` (long-lived, restartable — see
:class:`ServiceSupervisor`).  The core is :class:`_Child`, one
``_child_entry`` process with the read end of its result pipe: it spawns
the child, collects its terminal :class:`JobResult` once the payload has
arrived or the process has died (a payload that landed before the death
wins over ``crashed``), and kills it.  Both supervisors spawn and reap
through it and differ only in policy: deadlines for batches of jobs,
restarts for services.

Both wait on each child's result pipe as well as its process sentinel.  A
child whose pickled result exceeds the pipe buffer blocks in ``send``
until the parent reads; a wait on the sentinel alone would sleep until the
deadline killed that child, and its finished result would surface as a
``timeout``.

Contract of :class:`ProcessSupervisor`:

* a :class:`Job` is a picklable ``fn(*args)`` call with a per-job budget;
* :meth:`ProcessSupervisor.run` is a generator yielding one
  :class:`JobResult` per job **in completion order**, each tagged ``ok`` /
  ``error`` / ``timeout`` / ``crashed``;
* no result arrives later than ``timeout_s + KILL_GRACE_S`` after its job
  started (the kill is a SIGKILL, not a poll), and an optional absolute
  ``deadline`` additionally caps every job — the knob that lets a caller
  bound a whole *family* of jobs by one outer budget;
* closing the generator early (``close()``, or leaving a ``for`` loop over
  it by an exception) kills every active worker and drops pending jobs —
  how a caller that has already seen a decisive result stops the rest.

The supervisor sleeps until ``min(next deadline, next pipe event)`` — it
does **not** poll on a fixed tick, so a pool of workers that are all
minutes from their deadlines costs zero supervisor wake-ups.

Workers are forked where available (Linux; payloads reach the child by
inheritance) and spawned elsewhere, in which case ``fn``/``args`` must be
picklable.  Children are daemonic by default so a dying supervisor cannot
leak runaway processes; pass ``daemon=False`` when jobs themselves need to
spawn children (multiprocessing forbids daemonic processes from having
children of their own).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Extra wall-clock slack past a job's budget before the supervisor kills
#: its worker, so cooperative in-process timeouts (which produce richer
#: failure reports) win the race on well-behaved payloads.
KILL_GRACE_S = 0.5


@dataclass(frozen=True)
class Job:
    """One unit of work: ``fn(*args)`` under a wall-clock budget."""

    key: Any  # caller's identifier, echoed back on the result
    fn: Callable
    args: tuple
    timeout_s: float


@dataclass
class JobResult:
    """Outcome of one job, yielded in completion order."""

    job: Job
    kind: str  # "ok" | "error" | "timeout" | "crashed"
    value: Any = None  # fn's return value (kind == "ok")
    message: str = ""  # exception summary (kind == "error")
    elapsed_s: float = 0.0
    exitcode: int | None = None  # kind == "crashed"


def _mp_context() -> mp.context.BaseContext:
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn")


def _arm_parent_death_signal() -> None:
    """Ask the kernel to SIGKILL this child if its parent dies (Linux).

    SIGKILL of a supervisor bypasses multiprocessing's daemon cleanup, so
    without this a killed bench worker would orphan its hole-worker
    grandchildren, which would keep burning CPU until their cooperative
    timeouts fired.  Best-effort: a no-op on platforms without prctl.
    """
    try:
        import ctypes

        PR_SET_PDEATHSIG = 1
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, 9)  # SIGKILL
    except Exception:  # pragma: no cover - non-Linux platforms
        pass


def _child_entry(conn, fn, args) -> None:
    """Child-process body: run the payload, ship ``(kind, value, msg)``."""
    _arm_parent_death_signal()
    try:
        payload = ("ok", fn(*args), "")
    except BaseException as exc:  # crashes become error results, not hangs
        payload = ("error", None, f"{type(exc).__name__}: {exc}")
    try:
        conn.send(payload)
    except (BrokenPipeError, OSError):  # supervisor already gave up on us
        pass
    except Exception as exc:  # unpicklable return value
        try:
            conn.send(("error", None, f"unsendable result: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


def _from_payload(payload, job: Job, elapsed: float) -> JobResult:
    if isinstance(payload, tuple) and len(payload) == 3 and payload[0] in ("ok", "error"):
        kind, value, message = payload
        return JobResult(job, kind, value=value, message=message, elapsed_s=elapsed)
    return JobResult(
        job, "error", message=f"malformed worker payload: {payload!r}", elapsed_s=elapsed
    )


class _Child:
    """One ``_child_entry`` process and the read end of its result pipe."""

    __slots__ = ("proc", "conn", "started")

    def __init__(self, ctx, fn: Callable, args: tuple, daemon: bool = True) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(target=_child_entry, args=(child_conn, fn, args), daemon=daemon)
        self.started = time.monotonic()
        self.proc.start()
        child_conn.close()  # the child owns its end now

    def collect(self, job: Job) -> JobResult | None:
        """The terminal result of ``job`` once its payload has arrived or
        the process has died, ``None`` while it still runs.  A terminal
        result reaps the process and closes the pipe."""
        elapsed = time.monotonic() - self.started
        try:
            ready = self.conn.poll()
            if not ready and self.proc.is_alive():
                return None
            # Pipe data survives the writer's death: a payload that landed
            # just before the child died wins over reporting a crash.
            payload = self.conn.recv() if ready or self.conn.poll() else None
        except (EOFError, OSError):  # died mid-send, or without sending
            payload = None
        self.proc.join()  # publishes exitcode
        self.conn.close()
        if payload is None:
            return JobResult(job, "crashed", elapsed_s=elapsed, exitcode=self.proc.exitcode)
        return _from_payload(payload, job, elapsed)

    def kill(self) -> None:
        """SIGKILL and reap the process; the pipe stays open for
        :meth:`collect` (or for the caller to close)."""
        self.proc.kill()
        self.proc.join()


def _wait(children, timeout: float | None) -> None:
    """Sleep until some child's payload or death arrives, or ``timeout``
    seconds pass (``None``: no limit)."""
    mp.connection.wait(
        [handle for child in children for handle in (child.conn, child.proc.sentinel)],
        timeout=timeout,
    )


class ProcessSupervisor:
    """Run jobs across at most ``workers`` concurrent child processes."""

    def __init__(self, workers: int, daemon: bool = True) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.daemon = daemon
        self._ctx = _mp_context()

    def run(self, jobs: list[Job], deadline: float | None = None) -> Iterator[JobResult]:
        """Execute ``jobs``; yield a :class:`JobResult` per job in
        completion order.

        ``deadline`` (a ``time.monotonic()`` instant) additionally caps
        every job's kill time at ``deadline + KILL_GRACE_S``, bounding the
        whole batch by one outer budget regardless of per-job budgets.
        """
        pending = list(reversed(jobs))  # pop() preserves submission order
        active: dict[_Child, tuple[Job, float]] = {}  # child -> (job, kill time)
        try:
            while pending or active:
                while pending and len(active) < self.workers:
                    job = pending.pop()
                    child = _Child(self._ctx, job.fn, job.args, self.daemon)
                    kill_at = child.started + job.timeout_s + KILL_GRACE_S
                    if deadline is not None:
                        kill_at = min(kill_at, deadline + KILL_GRACE_S)
                    active[child] = (job, kill_at)
                # Sleep until something completes or the nearest kill time —
                # no polling tick (a 100 ms cap here once made the
                # supervisor busy-wake ~10x/s for idle minutes).
                next_kill = min(kill_at for _, kill_at in active.values())
                _wait(active, max(0.0, next_kill - time.monotonic()))
                now = time.monotonic()
                for child, (job, kill_at) in list(active.items()):
                    result = child.collect(job)
                    if result is None and now >= kill_at:
                        # Reap before collecting: an unreaped corpse still
                        # reads as running.  A payload that landed inside
                        # the grace window is kept; anything else timed out.
                        child.kill()
                        result = child.collect(job)
                        if result.kind == "crashed":
                            result = JobResult(job, "timeout", elapsed_s=result.elapsed_s)
                    if result is not None:
                        del active[child]
                        yield result
        finally:
            for child in active:
                child.kill()
                child.conn.close()


class _Service:
    """Book-keeping for one long-lived service: the current incarnation,
    the spawn recipe for restarts, and the terminal result."""

    __slots__ = ("key", "fn", "args", "child", "restarts", "result")

    def __init__(self, key, fn, args, child: _Child):
        self.key = key
        self.fn = fn
        self.args = args
        self.child = child
        self.restarts = 0
        self.result: JobResult | None = None

    def job(self) -> Job:
        return Job(self.key, self.fn, self.args, 0.0)


class ServiceSupervisor:
    """Long-lived *restartable* services on the same spawn/reap core as
    :class:`ProcessSupervisor`.

    Where :meth:`ProcessSupervisor.run` drives a finite batch of jobs to
    completion, a service is a worker that is *supposed* to keep running —
    a shard of a streaming server, say — until its payload returns (its
    result ships over the same ``_child_entry`` pipe protocol) or it dies.
    A service has no wall-clock budget: the caller decides when one is
    hung (:meth:`kill`) or no longer wanted (:meth:`shutdown`).  The
    supervisor's contract:

    * :meth:`start` spawns a service under ``key``; :meth:`restart` kills
      (if needed) and respawns it with fresh ``args`` — the crash-restore
      hook: the caller rebuilds channels and checkpoint arguments, the
      supervisor reuses the spawn machinery and counts incarnations
      (:meth:`restarts`).
    * :meth:`poll` waits until a service finishes — payload arrives or the
      process dies — and returns the keys that just reached a terminal
      :meth:`result` (``ok`` / ``error`` / ``crashed``, the
      :class:`JobResult` vocabulary).
    * :meth:`shutdown` kills every running service and marks it
      ``cancelled``; cancelled (and successfully finished) services refuse
      :meth:`restart` — restore logic cannot accidentally resurrect
      something the caller shut down.

    Children are daemonic forks armed with a parent-death SIGKILL (see
    :func:`_arm_parent_death_signal`), so a dying supervisor cannot leak
    shard workers.
    """

    def __init__(self) -> None:
        self._ctx = _mp_context()
        self._services: dict = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self, key, fn: Callable, args: tuple = ()) -> None:
        """Spawn a service under ``key``."""
        svc = self._services.get(key)
        if svc is not None and svc.result is None:
            raise ValueError(f"service {key!r} is already running")
        self._services[key] = _Service(key, fn, args, _Child(self._ctx, fn, args))

    def restart(self, key, args: tuple | None = None) -> int:
        """Kill (if alive) and respawn ``key`` — with fresh ``args`` when
        given, the stored recipe otherwise.  Returns the incarnation count.
        Finished or cancelled services refuse to restart."""
        svc = self._require(key)
        if svc.result is not None and svc.result.kind == "cancelled":
            raise ValueError(f"service {key!r} was cancelled")
        if svc.result is not None and svc.result.kind == "ok":
            raise ValueError(f"service {key!r} already finished")
        if svc.result is None:  # a terminal result already closed the pipe
            svc.child.kill()
            svc.child.conn.close()
        if args is not None:
            svc.args = args
        svc.result = None
        svc.restarts += 1
        svc.child = _Child(self._ctx, svc.fn, svc.args)
        return svc.restarts

    def kill(self, key) -> None:
        """SIGKILL the live incarnation of ``key`` *without* recording a
        result — the hammer for a hung (not dead) worker.  The corpse
        surfaces through :meth:`poll` as a normal ``crashed`` result, so
        the caller's existing crash-restore path (and :meth:`restart`)
        applies unchanged; a finished or already-dead service is a no-op."""
        svc = self._require(key)
        if svc.result is None:
            svc.child.kill()

    def shutdown(self) -> None:
        """Kill every still-running service (results of finished ones stay
        readable)."""
        for svc in self._services.values():
            if svc.result is None:
                svc.child.kill()
                svc.child.conn.close()
                svc.result = JobResult(
                    svc.job(), "cancelled", elapsed_s=time.monotonic() - svc.child.started
                )

    def __enter__(self) -> "ServiceSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- observation -------------------------------------------------------

    def alive(self, key) -> bool:
        svc = self._services.get(key)
        return svc is not None and svc.result is None and svc.child.proc.is_alive()

    def pid(self, key) -> int | None:
        return self._require(key).child.proc.pid

    def restarts(self, key) -> int:
        return self._require(key).restarts

    def result(self, key) -> JobResult | None:
        """The terminal result of ``key``, or ``None`` while it runs."""
        return self._require(key).result

    def poll(self, timeout: float | None = 0.0) -> list:
        """Reap services that finished (payload or death); block up to
        ``timeout`` seconds for one to do so (``None``: until the next
        event).  Returns the keys newly holding a :meth:`result`, in no
        particular order."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            running = [svc for svc in self._services.values() if svc.result is None]
            finished = []
            for svc in running:
                svc.result = svc.child.collect(svc.job())
                if svc.result is not None:
                    finished.append(svc.key)
            if finished or not running:
                return finished
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return []
            _wait([svc.child for svc in running], remaining)

    # -- internals ---------------------------------------------------------

    def _require(self, key) -> _Service:
        svc = self._services.get(key)
        if svc is None:
            raise KeyError(f"unknown service {key!r}")
        return svc
