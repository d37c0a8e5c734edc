"""Checkpoint / restore for running operators (restart-safe deployment).

A long-running stream deployment must survive process restarts without
replaying the stream from the beginning.  A checkpoint bundles everything a
resumed process needs: the *scheme* (via the versioned serialization of
:mod:`repro.core.serialize`) and the *operator state* (accumulator tuples,
element counts, extra-parameter bindings), all as exact JSON-safe values —
resuming from a checkpoint is bit-for-bit identical to never having stopped,
which the tests assert.

Three operator shapes are supported, each with ``checkpoint()`` /
``restore()`` on the class itself, plus file helpers here::

    save_checkpoint(op, "ck.json")
    ...process restarts...
    op = load_checkpoint("ck.json")          # operator / pipeline
    op = load_checkpoint("ck.json", key_fn=lambda e: e[1])   # keyed

Key/value extractor *functions* of keyed operators are code, not data; a
restore of a keyed checkpoint takes them as arguments.

Execution backends are process artifacts, not state: a restored operator
re-resolves its scalar step *and* its batch :class:`~repro.ir.compile.StepKernel`
exactly as a fresh one does (honouring ``REPRO_JIT``), so batched
ingestion after a resume remains bit-for-bit identical to never having
stopped.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Callable, Hashable

from ..core.serialize import (
    SchemeFormatError,
    decode_value,
    encode_value,
    scheme_from_dict,
)
from ..ir.values import Value

CHECKPOINT_VERSION = 1

_OPERATOR = "repro/checkpoint-operator"
_PIPELINE = "repro/checkpoint-pipeline"
_KEYED = "repro/checkpoint-keyed"


class CheckpointError(ValueError):
    """The checkpoint is malformed, inconsistent, or from the future."""


def _check_envelope(data, kind: str) -> None:
    if not isinstance(data, dict):
        raise CheckpointError(f"checkpoint must be an object, got {type(data).__name__}")
    if data.get("kind") != kind:
        raise CheckpointError(f"expected a {kind!r} checkpoint, got {data.get('kind')!r}")
    if data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {data.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )


def _decode_state(raw, arity: int, what: str) -> tuple[Value, ...]:
    if not isinstance(raw, list):
        raise CheckpointError(f"{what} state must be an array")
    try:
        state = tuple(decode_value(v) for v in raw)
    except SchemeFormatError as exc:
        raise CheckpointError(f"bad {what} state: {exc}") from None
    if len(state) != arity:
        raise CheckpointError(f"{what} state arity {len(state)} != scheme arity {arity}")
    return state


def _decode_extra(raw) -> dict[str, Value]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise CheckpointError("extra bindings must be an object")
    try:
        return {str(k): decode_value(v) for k, v in raw.items()}
    except SchemeFormatError as exc:
        raise CheckpointError(f"bad extra bindings: {exc}") from None


def _decode_count(raw) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 0:
        raise CheckpointError(f"count must be a non-negative integer, got {raw!r}")
    return raw


# -- OnlineOperator ---------------------------------------------------------


def operator_checkpoint(op) -> dict:
    return {
        "kind": _OPERATOR,
        "version": CHECKPOINT_VERSION,
        "name": op.name,
        "count": op.count,
        "extra": {k: encode_value(v) for k, v in op.extra.items()},
        "state": [encode_value(v) for v in op.state],
        "scheme": op.scheme.to_dict(),
    }


def restore_operator(data: dict, *, backend: str | None = None, bounds=None):
    from .stream import OnlineOperator

    _check_envelope(data, _OPERATOR)
    try:
        scheme = scheme_from_dict(data.get("scheme"))
    except SchemeFormatError as exc:
        raise CheckpointError(f"invalid scheme in checkpoint: {exc}") from None
    op = OnlineOperator(
        scheme, _decode_extra(data.get("extra")), data.get("name"),
        backend=backend, bounds=bounds,
    )
    op.state = _decode_state(data.get("state"), scheme.arity, "operator")
    op.count = _decode_count(data.get("count"))
    return op


# -- StreamPipeline ---------------------------------------------------------


def pipeline_checkpoint(pipeline) -> dict:
    return {
        "kind": _PIPELINE,
        "version": CHECKPOINT_VERSION,
        "operators": {
            name: operator_checkpoint(op) for name, op in pipeline.operators.items()
        },
    }


def restore_pipeline(data: dict, *, backend: str | None = None, bounds=None):
    from .stream import StreamPipeline

    _check_envelope(data, _PIPELINE)
    raw_ops = data.get("operators")
    if not isinstance(raw_ops, dict):
        raise CheckpointError("pipeline checkpoint needs an 'operators' object")
    return StreamPipeline({
        str(name): restore_operator(entry, backend=backend, bounds=bounds)
        for name, entry in raw_ops.items()
    })


# -- KeyedOperator ----------------------------------------------------------


def keyed_checkpoint(op) -> dict:
    return {
        "kind": _KEYED,
        "version": CHECKPOINT_VERSION,
        "name": op.name,
        "count": op.count,
        "extra": {k: encode_value(v) for k, v in op.extra.items()},
        "scheme": op.scheme.to_dict(),
        "partitions": [
            [
                encode_value(key),
                [encode_value(v) for v in part.state],
                part.count,
            ]
            for key, part in op.partitions.items()
        ],
    }


def restore_keyed(
    data: dict,
    key_fn: Callable[[Value], Hashable],
    *,
    value_fn: Callable[[Value], Value] | None = None,
):
    from .keyed import KeyedOperator

    _check_envelope(data, _KEYED)
    try:
        scheme = scheme_from_dict(data.get("scheme"))
    except SchemeFormatError as exc:
        raise CheckpointError(f"invalid scheme in checkpoint: {exc}") from None
    keyed = KeyedOperator(
        scheme,
        key_fn,
        value_fn=value_fn,
        extra=_decode_extra(data.get("extra")),
        name=data.get("name"),
    )
    keyed.count = _decode_count(data.get("count"))
    raw_parts = data.get("partitions")
    if not isinstance(raw_parts, list):
        raise CheckpointError("keyed checkpoint needs a 'partitions' array")
    entries = []
    for entry in raw_parts:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise CheckpointError(f"malformed partition entry: {entry!r}")
        raw_key, raw_state, raw_count = entry
        try:
            key = decode_value(raw_key)
        except SchemeFormatError as exc:
            raise CheckpointError(f"bad partition key: {exc}") from None
        if isinstance(key, list):  # decoded containers: only tuples hash
            raise CheckpointError("partition keys must be hashable values")
        state = _decode_state(raw_state, scheme.arity, f"partition {key!r}")
        entries.append((key, state, _decode_count(raw_count)))
    keyed._restore_partitions(entries)
    return keyed


# -- file helpers -----------------------------------------------------------


def _fsync_dir(directory) -> None:
    """Best-effort fsync of a directory (persists a rename in its entry
    table).  Platforms that cannot open directories for fsync (Windows)
    simply skip it — the file contents are already durable either way."""
    try:
        fd = os.open(directory, getattr(os, "O_DIRECTORY", os.O_RDONLY))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically and durably: temp file in the
    same directory, fsync, ``os.replace``, then fsync the directory.

    A checkpoint is the *only* thing standing between a crashed worker and
    replaying the stream from zero, so a crash mid-write must never leave a
    torn file behind — readers see either the previous complete checkpoint
    or the new complete one, nothing in between.  The temp file lives next
    to the target (``os.replace`` must not cross filesystems) and is
    removed if the write itself fails.  The final directory fsync persists
    the rename itself: without it a power loss shortly after ``os.replace``
    can roll the directory entry back to the old file even though the new
    contents were fsynced.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(target.parent)


def save_checkpoint(op, path) -> None:
    """Write ``op.checkpoint()`` (or a ready-made checkpoint dict) to
    ``path`` as JSON, atomically (see :func:`atomic_write_text`) — a crash
    mid-write leaves the previous checkpoint intact instead of a torn file.
    """
    data = op if isinstance(op, dict) else op.checkpoint()
    atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_checkpoint(
    path,
    *,
    key_fn: Callable[[Value], Hashable] | None = None,
    value_fn: Callable[[Value], Value] | None = None,
    backend: str | None = None,
    bounds=None,
):
    """Load any checkpoint file, dispatching on its ``kind``.

    Keyed checkpoints need ``key_fn`` (and optionally ``value_fn``) supplied
    again; passing them for other kinds is an error, as is omitting them for
    a keyed one.  ``backend``/``bounds`` (like ``REPRO_JIT``) are process
    decisions, not state: an operator or pipeline checkpoint written under
    any backend restores under any other (bit-identically on the certified
    int64 path), and every operator of a pipeline restores under the same
    choice.  Keyed operators run exact only.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    kind = data.get("kind")
    if kind == _KEYED:
        if key_fn is None:
            raise CheckpointError(
                "restoring a keyed checkpoint requires key_fn= (extractors are "
                "code, not data)"
            )
        return restore_keyed(data, key_fn, value_fn=value_fn)
    if key_fn is not None or value_fn is not None:
        raise CheckpointError(f"key_fn/value_fn only apply to keyed checkpoints, not {kind!r}")
    if kind == _OPERATOR:
        return restore_operator(data, backend=backend, bounds=bounds)
    if kind == _PIPELINE:
        return restore_pipeline(data, backend=backend, bounds=bounds)
    raise CheckpointError(f"unknown checkpoint kind {kind!r}")


# -- checkpoint generations (integrity-verified lineage) ---------------------
#
# Atomicity (above) protects a single write against a crash mid-write; it
# does not protect against a file that *was* replaced but arrives damaged —
# a torn sector, bit rot, a filesystem that lied about durability.  For that
# the serve workers keep a short *lineage* of checkpoints instead of one
# file: ``{base}.gen00000001.json``, ``.gen00000002.json``, ... each wrapped
# in an envelope carrying a monotonic generation number, the stream offset
# it covers (``consumed``), and a BLAKE2b content digest.  The loader
# verifies the digest, quarantines anything damaged by renaming it
# ``*.corrupt`` (preserved for inspection, never silently deleted), and
# falls back to the newest intact generation.  Only when files existed but
# *none* survive does it raise — restoring "from scratch" silently would
# violate exactly-once delivery, so that case must be a refusal.

GENERATION_FORMAT = "repro/checkpoint-generation"
GENERATION_VERSION = 1
#: Generations a lineage keeps on disk (the newest ones).
KEEP_GENERATIONS = 3

_GEN_RE = re.compile(r"\.gen(\d{8})\.json$")


def content_digest(generation: int, consumed: int, payload: dict) -> str:
    """BLAKE2b-128 over the canonical JSON of the *protected* envelope
    fields.  Covering generation and consumed (not just the payload) means
    renaming-based tampering — swapping one generation's body into
    another's envelope — is also caught."""
    canon = json.dumps(
        {"generation": generation, "consumed": consumed, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=16).hexdigest()


def generation_path(base, generation: int) -> Path:
    """``{base}.gen{generation:08d}.json`` — zero-padded so lexicographic
    order is generation order."""
    base = Path(base)
    return base.with_name(f"{base.name}.gen{generation:08d}.json")


def list_generations(base) -> list[tuple[int, Path]]:
    """All on-disk generations for ``base``, oldest first."""
    base = Path(base)
    if not base.parent.is_dir():
        return []
    found = []
    for entry in base.parent.iterdir():
        if not entry.name.startswith(base.name):
            continue
        match = _GEN_RE.search(entry.name)
        if match and entry.name == f"{base.name}.gen{match.group(1)}.json":
            found.append((int(match.group(1)), entry))
    found.sort()
    return found


def save_generation(
    payload: dict,
    base,
    *,
    generation: int,
    consumed: int,
    damage: Callable[[str], str] | None = None,
) -> Path:
    """Write one generation of a checkpoint lineage atomically and prune
    generations older than the newest :data:`KEEP_GENERATIONS`.

    Returns the path written.  Pruning never touches ``*.corrupt`` files —
    quarantined evidence outlives the lineage that produced it.  ``damage``
    (fault injection) rewrites the file's text before it is published.
    """
    path = generation_path(base, generation)
    envelope = {
        "format": GENERATION_FORMAT,
        "version": GENERATION_VERSION,
        "generation": generation,
        "consumed": consumed,
        "digest": content_digest(generation, consumed, payload),
        "payload": payload,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, text if damage is None else damage(text))
    for gen, old in list_generations(base):
        if gen <= generation - KEEP_GENERATIONS:
            try:
                os.unlink(old)
            except OSError:
                pass
    return path


def verify_generation(path) -> tuple[int, int, dict]:
    """Load and integrity-check one generation file.

    Returns ``(generation, consumed, payload)``; raises
    :class:`CheckpointError` on torn JSON, a malformed envelope, or a
    digest mismatch.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: not a readable generation file: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != GENERATION_FORMAT:
        raise CheckpointError(f"{path}: not a checkpoint generation envelope")
    if data.get("version") != GENERATION_VERSION:
        raise CheckpointError(f"{path}: unsupported generation version {data.get('version')!r}")
    generation = data.get("generation")
    consumed = data.get("consumed")
    payload = data.get("payload")
    if (
        not isinstance(generation, int)
        or isinstance(generation, bool)
        or generation < 1
        or not isinstance(consumed, int)
        or isinstance(consumed, bool)
        or consumed < 0
        or not isinstance(payload, dict)
    ):
        raise CheckpointError(f"{path}: malformed generation envelope")
    if data.get("digest") != content_digest(generation, consumed, payload):
        raise CheckpointError(f"{path}: content digest mismatch (corrupt checkpoint)")
    return generation, consumed, payload


def quarantine_generation(path) -> Path:
    """Rename a damaged generation file to ``{name}.corrupt`` so it is out
    of the lineage but preserved for inspection.  Returns the new path (a
    numeric suffix is added if a previous quarantine left one there)."""
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    n = 1
    while target.exists():
        target = path.with_name(f"{path.name}.corrupt.{n}")
        n += 1
    os.replace(path, target)
    _fsync_dir(path.parent)
    return target


def load_latest_generation(
    base,
    on_quarantine: Callable[[Path, CheckpointError], None] | None = None,
):
    """Restore from the newest intact generation of a lineage.

    Walks the on-disk generations newest-first; each damaged file is
    quarantined (renamed ``*.corrupt``, reported through ``on_quarantine``)
    and the walk falls back to the next older one.  Returns
    ``(generation, consumed, payload)`` from the first file that verifies,
    ``None`` when no generation files exist at all (a genuinely fresh
    start), and raises :class:`CheckpointError` when files existed but all
    were damaged — that situation must be a refusal, never a silent
    restart from zero.
    """
    found = list_generations(base)
    if not found:
        return None
    for _, path in reversed(found):
        try:
            return verify_generation(path)
        except CheckpointError as exc:
            quarantined = quarantine_generation(path)
            if on_quarantine is not None:
                on_quarantine(quarantined, exc)
    raise CheckpointError(
        f"all {len(found)} checkpoint generation(s) under {base} are corrupt "
        "(quarantined as *.corrupt); refusing to restart from scratch"
    )
