"""The shard worker: one process, one slice of the key space.

A worker owns the :class:`~repro.runtime.keyed.KeyedOperator` partitions for
every key the server's hash ring routes to it.  Its whole life is a loop on
the command pipe:

* ``("batch", seq, data)`` — decode the elements (``data`` is
  :func:`encode_batch`'s bytes, see *Wire format* below), fold them through
  ``KeyedOperator.push_many`` (one pass of the scheme's compiled keyed
  loop over the whole batch), checkpoint to disk
  if ``checkpoint_every`` elements accumulated since the last one, then
  acknowledge with ``("ack", seq, consumed, durable)``.
* ``("drain", seq)`` — write a final checkpoint and *return* the final
  payload (see below), which ships to the server over the supervisor's
  result pipe (:func:`repro.supervisor._child_entry` protocol).

While *idle* — no command within ``heartbeat_every_s`` — the worker sends
``("hb", consumed)`` through the ack pipe.  That is the liveness signal the
server's per-shard deadline watches: a worker that neither acks nor
heartbeats (wedged in a scheme step, swapped out, stalled by fault
injection) is SIGKILLed and restored like a crash.

Checkpoints are a *lineage* of integrity-verified generations
(:func:`repro.runtime.checkpoint.save_generation` — BLAKE2b digest +
monotonic generation number, newest
:data:`~repro.runtime.checkpoint.KEEP_GENERATIONS` retained), written
atomically, so a SIGKILL at any instant leaves restorable state on disk.
The ``durable`` field of each ack is deliberately conservative: it is the
consumed count of the *oldest retained* generation, not the newest — if
restore ever has to fall back past a corrupt newest generation, the
server's replay buffer still covers everything after the generation
actually restored.

Restore is the worker's own first move: spawned with ``resume=True`` it
walks its lineage newest-first, quarantines damaged generations
(``*.corrupt``), restores the newest intact one, and continues from that
offset; the server replays the non-durable suffix.  ``consumed`` (elements
handed off to this shard) is tracked separately from ``op.count``
(elements applied): with ``on_error="quarantine"`` a deterministically
failing element is retried once and then dead-lettered — appended to a
per-shard JSONL file as ``{"shard", "seq", "element", "error"}`` — and
skipped, so the two counts diverge by exactly the dead-lettered elements.

**Wire format.**  Both ends of the command pipe import this module, so it
owns the batch encoding.  :func:`encode_batch` pickles the element list as
pickle does, except for exact-type ``Fraction`` values with denominator 1
(what every spec source yields), at any depth.  It has two forms:

* *exact* (the default): such a value travels as its numerator alone and
  decodes through the one-argument ``Fraction(numerator)``, which skips the
  gcd that pickle's own two-argument ``Fraction(numerator, 1)`` runs per
  element.  Every value decodes to the same type and value it was sent as.
* *canonical* (``canonical=True``): such a value travels as its numerator
  and decodes to that ``int`` itself, the form
  ``normalize_number`` gives it, so the worker neither builds nor folds a
  ``Fraction`` per element.  The server picks this form only for a scheme
  the license :func:`repro.ir.analysis.liveness.element_blind` proves
  cannot tell ``Fraction(k)`` from ``k``, and only while no partition key
  would change type with it (see :class:`~repro.serve.server.StreamServer`).
  Non-integral and subclass values travel as in the exact form.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable

from ..faults import ShardFaultPlan
from ..runtime.checkpoint import (
    KEEP_GENERATIONS,
    CheckpointError,
    list_generations,
    load_latest_generation,
    quarantine_generation,
    restore_keyed,
    save_generation,
    verify_generation,
)
from ..runtime.keyed import KeyedOperator


def _reduce_fraction(value: Fraction):
    numerator, denominator = value.as_integer_ratio()
    if denominator == 1:
        return Fraction, (numerator,)
    return Fraction, (numerator, denominator)  # Fraction.__reduce__'s form


def _int(numerator: int) -> int:
    # Decodes like ``int(numerator)``; a reduction through this function
    # pickles ~9% faster than one through the builtin type ``int``.
    return numerator


def _reduce_canonical(value: Fraction):
    numerator, denominator = value.as_integer_ratio()
    if denominator == 1:
        return _int, (numerator,)
    return Fraction, (numerator, denominator)


class _BatchPickler(pickle.Pickler):
    # Keyed by exact type: Fraction subclasses keep their own reduction.
    dispatch_table = {Fraction: _reduce_fraction}


class _CanonicalPickler(pickle.Pickler):
    dispatch_table = {Fraction: _reduce_canonical}


def encode_batch(elements: list, canonical: bool = False) -> bytes:
    """One batch as the command pipe carries it, in the exact form or the
    canonical one (see *Wire format*)."""
    buffer = io.BytesIO()
    (_CanonicalPickler if canonical else _BatchPickler)(buffer).dump(elements)
    return buffer.getvalue()


def decode_batch(data: bytes) -> list:
    """The inverse of :func:`encode_batch`."""
    return pickle.loads(data)


def field_extractor(field) -> Callable | None:
    """Turn a CLI-style field index into an extractor (``None`` and
    callables pass through).  The extractor is an ``operator.itemgetter``:
    it pickles (a closure would not), and it runs in C once per element in
    the server's routing loop and each worker's keyed loop."""
    if field is None or callable(field):
        return field
    return itemgetter(int(field))


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a shard worker needs, in one picklable bundle.

    The server builds one per spawn; ``incarnation`` counts restarts (0 for
    the first life), which fault plans use to avoid re-triggering one-shot
    faults like stalls in the restored replacement.  ``REPRO_JIT`` is not
    a field: forked and spawned workers inherit the server's environment.
    """

    shard_id: int
    scheme: object
    key_field: object
    value_field: object
    checkpoint_base: str  #: lineage prefix; files are {base}.genNNNNNNNN.json
    checkpoint_every: int
    extra: dict = field(default_factory=dict)
    resume: bool = False
    heartbeat_every_s: float = 1.0
    on_error: str = "fail"  #: "fail" | "quarantine"
    deadletter_path: str | None = None
    faults: ShardFaultPlan | None = None
    incarnation: int = 0


def _restore_lineage(config: WorkerConfig, key_fn, value_fn):
    """Restore from the newest intact generation; returns ``(op, consumed,
    history)`` or ``None`` when no generations exist.

    ``history`` is the surviving ``(generation, consumed)`` lineage oldest
    first — its head is the durable floor acks report.  Older generations
    that fail verification are quarantined here too, so the floor never
    names a file restore could not actually use.
    """
    latest = load_latest_generation(config.checkpoint_base)
    if latest is None:
        return None
    generation, consumed, payload = latest
    op = restore_keyed(payload, key_fn, value_fn=value_fn)
    if op.scheme != config.scheme:
        raise CheckpointError(
            f"shard {config.shard_id} checkpoint was taken under a different scheme"
        )
    op.extra.update(config.extra)
    history = []
    for gen, path in list_generations(config.checkpoint_base):
        if gen == generation:
            history.append((gen, consumed))
        elif gen < generation:
            try:
                _, gen_consumed, _ = verify_generation(path)
                history.append((gen, gen_consumed))
            except CheckpointError:
                quarantine_generation(path)
    history.sort()
    return op, consumed, history


def _dead_letter(config: WorkerConfig, element, seq: int, error: str) -> None:
    """Append one dead-letter record.  Appends are at-least-once across
    crash/replay (the same element re-fails on replay); readers dedupe by
    ``(shard, seq)`` — the element's absolute offset in the shard's
    sequence, which replay reproduces exactly."""
    line = json.dumps(
        {
            "shard": config.shard_id,
            "seq": seq,
            "element": repr(element),
            "error": error,
        },
        sort_keys=True,
    )
    with open(config.deadletter_path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def _apply(config: WorkerConfig, op: KeyedOperator, elements: list, consumed: int) -> int:
    """Push one batch; returns how many elements were dead-lettered.

    ``push_many`` has exact partial-progress semantics — on failure the
    prefix is applied and ``op.count`` is the resumable offset — so the
    failing element is identified positionally, retried once (state is
    already rewound to just before it), and only an *identically repeating*
    failure is quarantined.  A retry that fails differently is not
    deterministic, so it surfaces as a worker error instead.
    """
    if config.on_error != "quarantine":
        op.push_many(elements)
        return 0
    dead = 0
    offset = 0
    while offset < len(elements):
        before = op.count
        try:
            op.push_many(elements[offset:])
            return dead
        except Exception as first:
            offset += op.count - before
            failing = elements[offset]
            try:
                op.push_many([failing])
                offset += 1
            except Exception as again:
                if repr(again) != repr(first):
                    raise
                _dead_letter(config, failing, consumed + offset, repr(again))
                dead += 1
                offset += 1
    return dead


def shard_worker(config: WorkerConfig, cmd_conn, ack_conn):
    """Process body of one shard (run under the service supervisor).

    Returns the final payload dict ``{"checkpoint": keyed checkpoint,
    "consumed": handed-off count, "dead_lettered": skipped count}`` (the
    supervisor ships it back as the service's ``ok`` result).  Raises —
    which the supervisor reports as an ``error`` result — on malformed
    commands or deterministic scheme-step failures; those would fail again
    on replay, so the server must *not* restart them.
    """
    key_fn = field_extractor(config.key_field)
    value_fn = field_extractor(config.value_field)
    op = None
    consumed = 0
    history: list[tuple[int, int]] = []  # (generation, consumed), oldest first
    if config.resume:
        restored = _restore_lineage(config, key_fn, value_fn)
        if restored is not None:
            op, consumed, history = restored
    if op is None:
        op = KeyedOperator(
            config.scheme,
            key_fn,
            value_fn=value_fn,
            extra=config.extra,
            name=f"shard-{config.shard_id}",
        )
    generation = history[-1][0] if history else 0
    checkpointed = consumed  # consumed count at the last checkpoint write
    writes = 0  # per-incarnation write ordinal (torn-write faults count these)
    stalled = False
    dead_lettered = 0

    def durable_floor() -> int:
        # The oldest retained generation's consumed count: any generation
        # restore could fall back to covers at least this much, so the
        # server may trim its replay buffer exactly this far.
        return history[0][1] if history else 0

    def write_generation() -> None:
        nonlocal generation, checkpointed, writes
        generation += 1
        writes += 1
        faults = config.faults
        save_generation(
            op.checkpoint(),
            config.checkpoint_base,
            generation=generation,
            consumed=consumed,
            damage=None if faults is None else lambda text: faults.damage(text, generation, writes),
        )
        history.append((generation, consumed))
        del history[:-KEEP_GENERATIONS]
        checkpointed = consumed

    def final_payload() -> dict:
        return {
            "checkpoint": op.checkpoint(),
            "consumed": consumed,
            "dead_lettered": dead_lettered,
        }

    while True:
        try:
            # Heartbeat while idle: no command within a beat means the
            # server sees ("hb", consumed) instead of silence, so only a
            # genuinely wedged worker trips the liveness deadline.
            while not cmd_conn.poll(config.heartbeat_every_s):
                ack_conn.send(("hb", consumed))
            message = cmd_conn.recv()
        except (EOFError, OSError):
            # Server gone (crash or hard close): parent-death SIGKILL is the
            # usual exit; this path covers an explicitly closed pipe.
            return final_payload()
        kind = message[0]
        if kind == "batch":
            _, seq, data = message
            elements = decode_batch(data)
            dead_lettered += _apply(config, op, elements, consumed)
            consumed += len(elements)
            if config.faults is not None and config.faults.should_stall(
                consumed, config.incarnation, stalled
            ):
                # A hang mid-processing: no checkpoint, no ack, no
                # heartbeat.  Only the server's liveness deadline ends it.
                stalled = True
                time.sleep(config.faults.stall_secs)
            if config.checkpoint_every and consumed - checkpointed >= config.checkpoint_every:
                write_generation()
            try:
                ack_conn.send(("ack", seq, consumed, durable_floor()))
            except OSError:
                return final_payload()
        elif kind == "drain":
            write_generation()
            return final_payload()
        else:
            raise ValueError(f"shard {config.shard_id}: unknown command {kind!r}")
