"""The streaming server: sharded, checkpointed, crash-restoring ingestion.

:class:`StreamServer` turns the keyed runtime into a *system*: N shard
worker processes (:mod:`repro.serve.worker`), each owning the
:class:`~repro.runtime.keyed.KeyedOperator` partitions for the slice of the
key space a consistent-hash ring (:mod:`repro.serve.hashring`) assigns it.
Elements are routed by key, coalesced into batches, and handed off over
pipes; each worker folds its hand-offs through the scheme's compiled
keyed loop and checkpoints its
partitions to disk every ``checkpoint_every`` elements (atomically — see
:mod:`repro.runtime.checkpoint`).

**Delivery contract.**  The final per-key states of a serve run are
bit-identical to a single-process ``KeyedOperator`` run over the same
element sequence — *including* runs where workers were SIGKILLed
mid-stream.  The mechanism is a per-shard replay buffer with exactly-once
delivery into the aggregates:

* every batch sent to a shard stays in the server's buffer, tagged with
  its absolute offset in that shard's element sequence;
* each ack carries the shard's *checkpointed* count — the durable prefix —
  and the buffer drops exactly the batches that prefix covers;
* when a worker dies, the replacement restores the last checkpoint (count
  ``C``) and the server re-sends every buffered element from offset ``C``
  on.  Scheme steps are pure and deterministic, so replaying the
  non-durable suffix reproduces the lost state exactly; elements the
  checkpoint already covers are never re-applied.

A crash between a checkpoint write and its ack only means the server
replays from an older offset than it strictly needed to — the checkpoint
count in the file is what the replacement worker restores and what the
replay is sliced against, so no element is applied twice.

**Backpressure.**  The inbound queue per shard is bounded: at most
``max_inflight`` unacknowledged batches.  ``push`` blocks once the hottest
shard's queue is full — the load generator slows to the system's actual
drain rate instead of ballooning memory.  Memory per shard is bounded by
the replay window: O(``checkpoint_every`` + ``batch_size`` x
``max_inflight``) elements.

Workers are spawned, reaped, and restarted through
:class:`repro.supervisor.ServiceSupervisor`; deterministic worker errors
(a scheme step raising on an element) are *not* restarted — replay would
fail forever — but surface as :class:`ServeError` (or, with
``on_error="quarantine"``, are retried once and dead-lettered by the
worker itself — see :mod:`repro.serve.worker`).

**Hardening.**  Checkpoints are integrity-verified *lineages* (BLAKE2b
digest + monotonic generation number, newest
:data:`~repro.runtime.checkpoint.KEEP_GENERATIONS` retained); restore
quarantines damaged generations as ``*.corrupt`` and falls back to the
newest intact one, and only an entirely corrupt lineage is a refusal
(never a silent fresh start).  Workers heartbeat through the
ack pipe while idle; a shard that neither acks nor heartbeats within
``liveness_timeout_s`` is SIGKILLed and restored like a crash (a *hung*
worker, not just a dead one).  Restarts pay a jittered exponential
backoff and draw from a sliding-window budget (``restart_budget`` within
``restart_window_s``) instead of a lifetime cap, so an old incident never
counts against a fresh one.  Fault injection threads through the same
seams (:mod:`repro.faults`): stalls and checkpoint corruption ride into
workers on their :class:`~repro.serve.worker.WorkerConfig`, kills are
driven by the pusher, and ``repro chaos`` differentially verifies the lot.

**Wire form.**  Batches travel in :func:`~repro.serve.worker.encode_batch`'s
*canonical* form, integral ``Fraction`` values as ``int``, when the server
can tell that a worker folding ``k`` reaches the state the single-process
fold of ``Fraction(k)`` does.  It decides that once, at construction: the
scheme must be representation-blind
(:func:`~repro.ir.analysis.liveness.element_blind`), ``on_error`` must be
``"fail"`` (dead-letter records ``repr`` the element), and the key and value
fields must be indices (a callable extractor may look at the type).  Partition
keys are not the scheme's to normalize: the checkpoint records each key's
type, so the first key the canonical form would change (an integral
``Fraction`` key) switches the server to the exact form for every later
send, replays included.  :attr:`ServeResult.wire` says which form the run
ended on, and why it is exact.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Hashable, Iterable, Mapping

import multiprocessing as mp

from ..core.scheme import OnlineScheme
from ..faults import FaultPlan
from ..ir.analysis.liveness import element_blind
from ..runtime.checkpoint import (
    CheckpointError,
    atomic_write_text,
    load_latest_generation,
    restore_keyed,
)
from ..runtime.keyed import KeyedOperator
from ..supervisor import ServiceSupervisor, _mp_context
from ..ir.values import Value
from .hashring import HashRing
from .worker import WorkerConfig, encode_batch, field_extractor, shard_worker

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro/serve-manifest"
#: v2: per-shard checkpoints became digest-verified generation lineages
#: ({base}.genNNNNNNNN.json) — a v1 directory's single-file layout cannot
#: be resumed, so the version check below refuses it.
#: v3: the hash ring hashes a canonical form of each key, so equal keys of
#: different types (``3`` / ``Fraction(3)``, ``0`` / ``False``) share a
#: shard.  Nothing else changed, and ``int``/``str`` keys hash exactly as
#: in v2, so a v2 directory whose checkpointed keys are all ``int`` or
#: ``str`` is resumed (and its manifest rewritten as v3); one holding any
#: other key may hold it on another shard than v3 routes it to, so it is
#: refused rather than misrouted.
MANIFEST_VERSION = 3

#: Longest restart backoff, before jitter.
BACKOFF_MAX_S = 2.0

#: How long one wait for acks/deaths may sleep before re-checking (bounds
#: crash-detection latency while the server is blocked on backpressure).
_WAIT_S = 0.25

#: Key types the canonical wire form hands to a worker unchanged.
_PLAIN_KEYS = frozenset({int, str, bytes, float, bool, type(None)})


def _wire_changes(key) -> str | None:
    """Why ``key`` keeps the server off the canonical wire form: it holds a
    ``Fraction`` (an integral one would arrive as an ``int``), or its type
    pickles by its own rules.  ``None`` when the form hands it over as is."""
    cls = key.__class__
    if cls in _PLAIN_KEYS:
        return None
    if cls is Fraction:
        return "Fraction key"
    if cls is tuple:
        for item in key:
            reason = _wire_changes(item)
            if reason is not None:
                return reason
        return None
    return "key type"  # pickled by its own rules, which may reach a Fraction


class ServeError(RuntimeError):
    """The server cannot make progress (worker error, restart budget
    exhausted, checkpoint-directory mismatch, ...)."""


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]) of ``values``;
    ``nan`` for an empty sample."""
    data = sorted(values)
    if not data:
        return math.nan
    position = q * (len(data) - 1)
    lo = math.floor(position)
    hi = math.ceil(position)
    if lo == hi:
        return data[lo]
    fraction = position - lo
    return data[lo] * (1 - fraction) + data[hi] * fraction


@dataclass
class ServeResult:
    """Everything a drained server knows: the merged aggregates plus the
    run's operational telemetry."""

    operator: KeyedOperator  #: merged single-process-equivalent operator
    checkpoint: dict  #: merged keyed checkpoint (JSON-ready, loadable)
    count: int  #: total elements *applied* across shards
    shard_counts: dict[int, int]  #: elements handed off per shard
    restarts: int  #: worker incarnations beyond the first, total
    elapsed_s: float  #: start() to drain() wall clock
    consumed: int = 0  #: elements handed off (count + dead_lettered)
    dead_lettered: int = 0  #: elements quarantined to dead-letter files
    hung_restarts: int = 0  #: restarts triggered by the liveness deadline
    quarantined: int = 0  #: checkpoint generations renamed *.corrupt
    #: The wire form the run ended on: "canonical", or "exact (REASON)"
    #: with REASON one of unlicensed, quarantine, callable field, Fraction
    #: key, key type.
    wire: str = "exact"
    latencies_s: list[float] = field(repr=False, default_factory=list)

    @property
    def states(self) -> dict[Hashable, tuple]:
        """Final accumulator tuple per key — the differential contract's
        unit of comparison."""
        return {key: part.state for key, part in self.operator.partitions.items()}

    def snapshot(self) -> dict[Hashable, Value]:
        return self.operator.snapshot()

    def p99_latency_s(self) -> float:
        """99th percentile batch hand-off latency (send to ack)."""
        return percentile(self.latencies_s, 0.99)


class _Batch:
    __slots__ = ("seq", "start", "elements", "sent_at", "acked")

    def __init__(self, seq: int, start: int, elements: list, sent_at: float):
        self.seq = seq
        self.start = start
        self.elements = elements
        self.sent_at = sent_at
        self.acked = False


class _Shard:
    __slots__ = (
        "sid", "cmd", "ack", "pending", "sent", "ckpt_count", "buffer",
        "inflight", "final", "drain_sent", "last_seen", "restart_times",
    )

    def __init__(self, sid: int):
        self.sid = sid
        self.cmd = None  #: server's send end of the command pipe
        self.ack = None  #: server's recv end of the ack pipe
        self.pending: list = []
        self.sent = 0  #: absolute offset: elements handed off so far
        self.ckpt_count = 0  #: durable prefix (last acked checkpoint floor)
        self.buffer: deque[_Batch] = deque()
        self.inflight = 0  #: sent, unacknowledged batches
        self.final: dict | None = None  #: final worker payload after drain
        self.drain_sent = False
        self.last_seen = 0.0  #: monotonic instant of the last ack/heartbeat
        self.restart_times: list[float] = []  #: sliding restart-budget window


class StreamServer:
    """A long-running sharded deployment of one keyed scheme.

    >>> server = StreamServer(scheme, key_field=1, value_field=0,
    ...                       shards=4, checkpoint_dir="ckpts")
    >>> server.start()
    >>> server.push_many(source)          # blocks under backpressure
    >>> result = server.drain()           # flush + merge final aggregates
    >>> result.states                     # == single-process KeyedOperator

    ``key_field`` / ``value_field`` take a tuple index (portable across
    processes) or a callable (fork platforms).  A checkpoint directory that
    already holds a manifest is *resumed*: shard counts continue from their
    checkpoints, provided the manifest's shard count and scheme match
    (``fresh=True`` wipes it instead).
    """

    def __init__(
        self,
        scheme: OnlineScheme,
        *,
        shards: int,
        checkpoint_dir,
        key_field,
        value_field=None,
        extra: Mapping[str, Value] | None = None,
        checkpoint_every: int = 1000,
        batch_size: int = 64,
        max_inflight: int = 8,
        restart_budget: int = 5,
        restart_window_s: float = 60.0,
        backoff_base_s: float = 0.05,
        liveness_timeout_s: float = 10.0,
        on_error: str = "fail",
        faults: FaultPlan | None = None,
        seed: int | None = None,
        fresh: bool = False,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if on_error not in ("fail", "quarantine"):
            raise ValueError(f"on_error must be 'fail' or 'quarantine', got {on_error!r}")
        # A nan or infinite duration would silently switch off hung-worker
        # detection or the restart budget's window.
        for name, seconds in (("liveness_timeout_s", liveness_timeout_s),
                              ("restart_window_s", restart_window_s)):
            if seconds <= 0:
                raise ValueError(f"{name} must be > 0, got {seconds}")
            if not math.isfinite(seconds):
                raise ValueError(f"{name} must be finite, got {seconds}")
        if restart_budget < 0:
            raise ValueError(f"restart_budget must be >= 0, got {restart_budget}")
        self.scheme = scheme
        self.shards = shards
        self.checkpoint_dir = Path(checkpoint_dir)
        self.key_field = key_field
        self.value_field = value_field
        self.extra = dict(extra or {})
        self.checkpoint_every = checkpoint_every
        self.batch_size = batch_size
        self.max_inflight = max_inflight
        self.restart_budget = restart_budget
        self.restart_window_s = restart_window_s
        self.backoff_base_s = backoff_base_s
        self.liveness_timeout_s = liveness_timeout_s
        self.on_error = on_error
        self.faults = faults.validate(shards) if faults is not None else None
        self.fresh = fresh
        self.ring = HashRing(shards)
        self.latencies_s: list[float] = []
        self.quarantine_events: list[tuple[str, str]] = []  #: (path, error)
        self._rng = random.Random(seed)  #: backoff jitter (seedable for chaos)
        self._key_fn = field_extractor(key_field)
        #: Why batches travel in the exact wire form; None: canonical.
        self._wire_reason = self._exact_wire_reason()
        self._ctx = _mp_context()
        self._supervisor: ServiceSupervisor | None = None
        self._shards: dict[int, _Shard] = {}
        self._seq = 0
        self._started_at = 0.0
        self._draining = False
        self._closed = False
        self._hung_restarts = 0

    def _exact_wire_reason(self) -> str | None:
        """What keeps this deployment off the canonical wire form from the
        start (see *Wire form* in the module docstring), or ``None``."""
        if not element_blind(self.scheme.program):
            return "unlicensed"
        if self.on_error == "quarantine":
            return "quarantine"
        if callable(self.key_field) or callable(self.value_field):
            return "callable field"
        return None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "StreamServer":
        """Create/validate the checkpoint directory and spawn the shard
        workers (resuming their checkpoints when the directory holds a
        compatible previous deployment)."""
        if self._supervisor is not None:
            raise ServeError("server already started")
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        resume = self._prepare_manifest()
        self._supervisor = ServiceSupervisor()
        for sid in range(self.shards):
            shard = _Shard(sid)
            self._shards[sid] = shard
            if resume:
                shard.sent = shard.ckpt_count = self._checkpoint_count(sid)
            self._spawn_shard(shard, resume=resume, restart=False)
        self._started_at = time.monotonic()
        return self

    def __enter__(self) -> "StreamServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Hard stop: kill every worker (their last checkpoints remain on
        disk; a later server over the same directory resumes them)."""
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.shutdown()
        for shard in self._shards.values():
            for conn in (shard.cmd, shard.ack):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass

    # -- ingestion ---------------------------------------------------------

    def push(self, element: Value) -> None:
        """Route one element to its key's shard; blocks when that shard's
        inbound queue is full (backpressure)."""
        self.push_many((element,))

    def push_many(self, elements: Iterable[Value]) -> None:
        """Route each element to its key's shard, handing a shard's pending
        elements off every ``batch_size`` of them; blocks while the shard
        being flushed has ``max_inflight`` unacknowledged batches.  Batch
        boundaries depend only on the element sequence, not on how it is
        split across calls."""
        if self._supervisor is None or self._draining or self._closed:
            raise ServeError("server is not accepting elements")
        key_fn = self._key_fn
        shard_for = self.ring.shard_for
        shards = self._shards
        batch_size = self.batch_size
        canonical = self._wire_reason is None
        for element in elements:
            key = key_fn(element)
            if canonical and key.__class__ not in _PLAIN_KEYS:
                self._wire_reason = _wire_changes(key)
                canonical = self._wire_reason is None
            shard = shards[shard_for(key)]
            pending = shard.pending
            pending.append(element)
            if len(pending) >= batch_size:
                self._flush_shard(shard)

    def kill_shard(self, sid: int) -> None:
        """SIGKILL a shard's current worker process (fault injection; the
        next interaction triggers crash-restore)."""
        self._supervisor.kill(sid)

    def restart_count(self) -> int:
        return sum(self._supervisor.restarts(sid) for sid in self._shards)

    # -- drain -------------------------------------------------------------

    def drain(self) -> ServeResult:
        """Flush every pending batch, ask each worker for its final
        checkpoint, and merge the shards into one
        :class:`~repro.runtime.keyed.KeyedOperator`-equivalent result.

        Workers that die mid-drain are restored and re-drained; the merged
        aggregates are bit-identical to a single-process run regardless.
        """
        if self._supervisor is None:
            raise ServeError("server was never started")
        if self._draining:
            raise ServeError("server already drained")
        for shard in self._shards.values():
            self._flush_shard(shard)
        self._draining = True
        for shard in self._shards.values():
            self._send_drain(shard)
        while any(s.final is None for s in self._shards.values()):
            self._pump(block=True)
        elapsed = time.monotonic() - self._started_at
        return self._merge(elapsed)

    # -- internals: spawn/restore ------------------------------------------

    def _manifest(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "shards": self.shards,
            "checkpoint_every": self.checkpoint_every,
            "scheme": self.scheme.to_dict(),
        }

    def _prepare_manifest(self) -> bool:
        """Write or validate the manifest; returns True when resuming."""
        path = self.checkpoint_dir / MANIFEST_NAME
        if self.fresh or not path.exists():
            if self.fresh:
                for entry in self.checkpoint_dir.iterdir():
                    name = entry.name
                    if name.startswith(("shard-", "deadletter-")):
                        entry.unlink(missing_ok=True)
            atomic_write_text(path, json.dumps(self._manifest(), indent=2, sort_keys=True) + "\n")
            return False
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(
                f"serve manifest {path} is torn or not JSON ({exc}); "
                "pass --fresh (fresh=True) to rebuild the checkpoint "
                "directory, or point at a clean one"
            ) from None
        if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
            raise ServeError(
                f"{path} is not a serve manifest; pass --fresh (fresh=True) "
                "to rebuild the checkpoint directory"
            )
        version = manifest.get("version")
        if version not in (2, MANIFEST_VERSION):
            raise ServeError(
                f"checkpoint dir {self.checkpoint_dir} was written by a build "
                f"with manifest version {version!r} (this one "
                f"writes {MANIFEST_VERSION}, with a different checkpoint "
                "layout or key placement); use a fresh directory or fresh=True"
            )
        if manifest.get("shards") != self.shards:
            raise ServeError(
                f"checkpoint dir {self.checkpoint_dir} was written by a "
                f"{manifest.get('shards')}-shard deployment, not {self.shards} "
                "(the hash ring would route keys to the wrong checkpoints); "
                "use a fresh directory or fresh=True"
            )
        if manifest.get("scheme") != self.scheme.to_dict():
            raise ServeError(
                f"checkpoint dir {self.checkpoint_dir} belongs to a different "
                "scheme; use a fresh directory or fresh=True"
            )
        if version == 2:
            self._check_v2_keys()
            manifest["version"] = MANIFEST_VERSION
            atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return True

    def _check_v2_keys(self) -> None:
        """Refuse a v2 directory unless every key in each shard's newest
        intact generation is an ``int`` or a ``str`` — the keys v3 routes
        exactly as v2 did."""
        for sid in range(self.shards):
            latest = self._latest_generation(sid)
            for entry in [] if latest is None else latest[2].get("partitions", []):
                encoded = entry[0] if isinstance(entry, list) and entry else None
                if not (isinstance(encoded, list) and encoded[:1] in (["int"], ["str"])):
                    raise ServeError(
                        f"checkpoint dir {self.checkpoint_dir} was written by a build "
                        f"with manifest version 2 and shard {sid} holds the key "
                        f"{encoded!r}, which this build may route to another shard; "
                        "use a fresh directory or fresh=True"
                    )

    def _checkpoint_base(self, sid: int) -> Path:
        """Lineage prefix: generations are ``shard-NN.genNNNNNNNN.json``."""
        return self.checkpoint_dir / f"shard-{sid:02d}"

    def _deadletter_path(self, sid: int) -> Path:
        return self.checkpoint_dir / f"deadletter-{sid:02d}.jsonl"

    def _note_quarantine(self, path, error) -> None:
        self.quarantine_events.append((str(path), str(error)))

    def _latest_generation(self, sid: int):
        """A shard's newest *intact* checkpoint generation as ``(generation,
        consumed, payload)``, ``None`` without any.  Damaged generations
        are quarantined on the way; an entirely corrupt lineage is a
        refusal, never a silent restart from zero."""
        try:
            return load_latest_generation(
                self._checkpoint_base(sid), on_quarantine=self._note_quarantine
            )
        except CheckpointError as exc:
            raise ServeError(f"shard {sid} cannot be restored: {exc}") from None

    def _checkpoint_count(self, sid: int) -> int:
        """The durable element count of a shard's newest intact checkpoint
        generation (0 without any) — what a restored worker will resume
        from, hence where replay must start."""
        latest = self._latest_generation(sid)
        return 0 if latest is None else latest[1]

    def _worker_config(self, shard: _Shard, *, resume: bool, incarnation: int) -> WorkerConfig:
        # A worker that neither acks nor heartbeats for liveness_timeout_s
        # is presumed hung; beat several times per deadline so scheduling
        # hiccups alone cannot trip it.
        heartbeat = max(0.05, min(1.0, self.liveness_timeout_s / 5.0))
        return WorkerConfig(
            shard_id=shard.sid,
            scheme=self.scheme,
            key_field=self.key_field,
            value_field=self.value_field,
            extra=self.extra,
            checkpoint_base=str(self._checkpoint_base(shard.sid)),
            checkpoint_every=self.checkpoint_every,
            resume=resume,
            heartbeat_every_s=heartbeat,
            on_error=self.on_error,
            deadletter_path=str(self._deadletter_path(shard.sid)),
            faults=self.faults.shard_plan(shard.sid) if self.faults else None,
            incarnation=incarnation,
        )

    def _spawn_shard(self, shard: _Shard, *, resume: bool, restart: bool) -> None:
        cmd_recv, cmd_send = self._ctx.Pipe(duplex=False)
        ack_recv, ack_send = self._ctx.Pipe(duplex=False)
        incarnation = self._supervisor.restarts(shard.sid) + 1 if restart else 0
        config = self._worker_config(shard, resume=resume, incarnation=incarnation)
        args = (config, cmd_recv, ack_send)
        if restart:
            self._supervisor.restart(shard.sid, args=args)
        else:
            self._supervisor.start(shard.sid, shard_worker, args)
        # Close this process's copies of the worker-side ends: the worker's
        # death must surface as EPIPE on cmd.send and EOF on ack.recv, which
        # only happens once no other process holds those ends open.
        cmd_recv.close()
        ack_send.close()
        shard.cmd = cmd_send
        shard.ack = ack_recv
        shard.last_seen = time.monotonic()

    def _restore_shard(self, shard: _Shard) -> None:
        """Crash-restore: respawn the worker from its last checkpoint and
        replay the non-durable suffix of the shard's element sequence."""
        result = self._supervisor.result(shard.sid)
        if result is not None and result.kind != "crashed":
            # Deterministic failures (scheme step raised, bad command)
            # would fail again on replay; surface them instead.
            raise ServeError(f"shard {shard.sid} worker failed: {result.kind} {result.message}")
        # Sliding-window restart budget: only restarts inside the window
        # count, so an incident an hour ago never dooms this one — but a
        # crash loop exhausts the budget fast no matter how long it runs.
        now = time.monotonic()
        shard.restart_times = [t for t in shard.restart_times if now - t < self.restart_window_s]
        if len(shard.restart_times) >= self.restart_budget:
            raise ServeError(
                f"shard {shard.sid} exhausted its restart budget "
                f"({self.restart_budget} restarts within {self.restart_window_s:g}s); "
                "giving up"
            )
        # Jittered exponential backoff: doubling per recent restart, the
        # jitter (x0.5–1.5, from the seedable RNG) de-synchronizing shards
        # that all crashed on the same cause.
        delay = min(
            BACKOFF_MAX_S,
            self.backoff_base_s * (2 ** len(shard.restart_times)),
        ) * (0.5 + self._rng.random())
        shard.restart_times.append(now)
        if delay > 0:
            time.sleep(delay)
        for conn in (shard.cmd, shard.ack):
            try:
                conn.close()
            except OSError:
                pass
        durable = self._checkpoint_count(shard.sid)
        if durable < shard.ckpt_count:
            raise ServeError(
                f"shard {shard.sid} checkpoint went backwards "
                f"({durable} < {shard.ckpt_count})"
            )
        self._spawn_shard(shard, resume=True, restart=True)
        # Rebuild the replay window: everything past the durable prefix is
        # re-sent; the checkpoint already covers the rest.
        old = list(shard.buffer)
        shard.buffer.clear()
        shard.inflight = 0
        shard.ckpt_count = durable
        for batch in old:
            end = batch.start + len(batch.elements)
            if end <= durable:
                continue
            cut = max(0, durable - batch.start)
            self._transmit(shard, batch.elements[cut:], batch.start + cut)
        if self._draining:
            shard.drain_sent = False
            self._send_drain(shard)

    # -- internals: hand-off loop ------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _flush_shard(self, shard: _Shard) -> None:
        if not shard.pending:
            return
        elements, shard.pending = shard.pending, []
        while shard.inflight >= self.max_inflight:
            self._pump(block=True, shard=shard)
        self._transmit(shard, elements, shard.sent)

    def _transmit(self, shard: _Shard, elements: list, start: int) -> None:
        """Send one batch (recording it in the replay buffer first — a send
        that dies mid-flight is replayed from the buffer).  The buffer keeps
        the elements, which restore slices by offset; each send, a replay's
        too, carries them in :func:`~repro.serve.worker.encode_batch`'s
        encoding, in the wire form in force at the send."""
        if not elements:
            return
        seq = self._next_seq()
        batch = _Batch(seq, start, elements, time.monotonic())
        shard.buffer.append(batch)
        shard.inflight += 1
        shard.sent = max(shard.sent, start + len(elements))
        try:
            shard.cmd.send(("batch", seq, encode_batch(elements, self._wire_reason is None)))
        except (BrokenPipeError, OSError):
            self._restore_shard(shard)

    def _send_drain(self, shard: _Shard) -> None:
        if shard.drain_sent or shard.final is not None:
            return
        shard.drain_sent = True
        try:
            shard.cmd.send(("drain", self._next_seq()))
        except (BrokenPipeError, OSError):
            self._restore_shard(shard)

    def _pump(self, *, block: bool, shard: _Shard | None = None) -> None:
        """One supervision round: reap worker deaths/finals, drain acks,
        kill hung workers; optionally block until something happens
        (bounded by ``_WAIT_S`` so a SIGKILLed worker is noticed even while
        we wait on its acks)."""
        progressed = False
        for sid in self._supervisor.poll(0.0):
            progressed = True
            self._on_finished(self._shards[sid])
        for each in self._shards.values():
            progressed |= self._drain_acks(each)
        self._check_liveness()
        if progressed or not block:
            return
        waitables = []
        targets = [shard] if shard is not None else list(self._shards.values())
        for each in targets:
            if each.final is None and each.ack is not None:
                waitables.append(each.ack)
        if waitables:
            try:
                mp.connection.wait(waitables, timeout=_WAIT_S)
            except OSError:  # a pipe died mid-wait; the next poll reaps it
                pass

    def _check_liveness(self) -> None:
        """SIGKILL any worker that has neither acked nor heartbeat within
        the liveness deadline — a *hung* worker (wedged step, fault-injected
        stall) that EPIPE/EOF detection can never catch because the process
        is still alive.  The kill surfaces through the normal reap path, so
        restore, replay, and the restart budget all apply unchanged."""
        now = time.monotonic()
        for shard in self._shards.values():
            if shard.final is not None or not self._supervisor.alive(shard.sid):
                continue
            if now - shard.last_seen > self.liveness_timeout_s:
                self._hung_restarts += 1
                self._supervisor.kill(shard.sid)
                # Reset the clock so the deadline cannot re-fire during the
                # (short) gap before the supervisor reaps the corpse.
                shard.last_seen = now

    def _drain_acks(self, shard: _Shard) -> bool:
        progressed = False
        if shard.ack is None:
            return False
        try:
            while shard.ack.poll():
                message = shard.ack.recv()
                shard.last_seen = time.monotonic()
                if message[0] == "hb":
                    progressed = True
                    continue
                if message[0] != "ack":
                    raise ServeError(f"shard {shard.sid}: unexpected message {message[0]!r}")
                _, seq, _count, ckpt = message
                now = time.monotonic()
                for batch in shard.buffer:
                    if not batch.acked and batch.seq <= seq:
                        batch.acked = True
                        shard.inflight -= 1
                        self.latencies_s.append(now - batch.sent_at)
                shard.ckpt_count = max(shard.ckpt_count, ckpt)
                while (
                    shard.buffer
                    and shard.buffer[0].acked
                    and shard.buffer[0].start + len(shard.buffer[0].elements)
                    <= shard.ckpt_count
                ):
                    shard.buffer.popleft()
                progressed = True
        except (EOFError, OSError):
            pass  # worker death; the supervisor poll will reap and restore
        return progressed

    def _on_finished(self, shard: _Shard) -> None:
        result = self._supervisor.result(shard.sid)
        if result is None:  # pragma: no cover - poll just reported it
            return
        if result.kind == "ok":
            if not self._draining:
                raise ServeError(f"shard {shard.sid} worker exited mid-stream: {result.value!r}")
            self._drain_acks(shard)  # acks sent before the final payload
            shard.final = result.value
            shard.inflight = 0
            return
        self._restore_shard(shard)

    # -- internals: merge --------------------------------------------------

    def _merge(self, elapsed_s: float) -> ServeResult:
        finals = {sid: self._shards[sid].final for sid in sorted(self._shards)}
        shard_counts = {}
        applied = 0
        consumed = 0
        dead_lettered = 0
        partitions: list = []
        seen: set = set()
        checkpoints = {}
        for sid, payload in finals.items():
            if not isinstance(payload, dict) or not isinstance(payload.get("checkpoint"), dict):
                raise ServeError(f"shard {sid} returned no final checkpoint")
            ckpt = payload["checkpoint"]
            checkpoints[sid] = ckpt
            applied += int(ckpt.get("count", 0))
            shard_counts[sid] = int(payload.get("consumed", ckpt.get("count", 0)))
            consumed += shard_counts[sid]
            dead_lettered += int(payload.get("dead_lettered", 0))
            for entry in ckpt.get("partitions", ()):
                raw_key = json.dumps(entry[0], sort_keys=True)
                if raw_key in seen:
                    raise ServeError(
                        f"key {entry[0]!r} appears in more than one shard "
                        "(hash-ring mismatch between runs?)"
                    )
                seen.add(raw_key)
                partitions.append(entry)
        base = checkpoints[min(checkpoints)] if checkpoints else {}
        merged = {
            "kind": base.get("kind", "repro/checkpoint-keyed"),
            "version": base.get("version", 1),
            "name": self.scheme.provenance,
            # Applied elements, not handed-off ones: dead-lettered elements
            # never reached an accumulator, and a restored merged operator
            # must agree with its partitions.
            "count": applied,
            "extra": base.get("extra", {}),
            "scheme": self.scheme.to_dict(),
            "partitions": partitions,
        }
        operator = restore_keyed(
            merged,
            field_extractor(self.key_field),
            value_fn=field_extractor(self.value_field),
        )
        if len(operator.partitions) < len(partitions):
            raise ServeError(
                f"{len(partitions)} shard partitions collapsed into "
                f"{len(operator.partitions)} keys on merge: equal keys were "
                "routed to different shards (hash-ring mismatch between runs?)"
            )
        return ServeResult(
            operator=operator,
            checkpoint=merged,
            count=applied,
            shard_counts=shard_counts,
            restarts=self.restart_count(),
            elapsed_s=elapsed_s,
            consumed=consumed,
            dead_lettered=dead_lettered,
            hung_restarts=self._hung_restarts,
            quarantined=len(self.quarantine_events),
            wire=f"exact ({self._wire_reason})" if self._wire_reason else "canonical",
            latencies_s=list(self.latencies_s),
        )


def reference_states(
    scheme: OnlineScheme,
    elements: Iterable[Value],
    *,
    key_field,
    value_field=None,
    extra: Mapping[str, Value] | None = None,
) -> KeyedOperator:
    """The single-process oracle a serve run must match bit-for-bit: one
    ``KeyedOperator`` folding the same element sequence in one process."""
    op = KeyedOperator(
        scheme,
        field_extractor(key_field),
        value_fn=field_extractor(value_field),
        extra=extra,
    )
    op.push_many(list(elements))
    return op


def states_match(result: ServeResult, oracle: KeyedOperator) -> bool:
    """Bit-identical comparison of a serve result against the oracle: same
    total element count, same key set, and each key's accumulator tuple
    compared in its checkpoint encoding.  That encoding tags every value's
    type, so ``Fraction(3)`` does not pass for ``3``, nor ``0.0`` for
    ``-0.0``, as they would under ``==``."""

    def states(checkpoint: dict) -> dict:
        return {json.dumps(key): state for key, state, _ in checkpoint["partitions"]}

    return result.count == oracle.count and states(result.checkpoint) == states(oracle.checkpoint())
