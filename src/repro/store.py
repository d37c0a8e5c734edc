"""Persistent, content-addressed store of compiled online schemes.

The synthesis half of Figure 1 runs once; the streaming half runs forever.
This store is the bridge: :func:`repro.api.compile` keys each compilation by
*what was compiled, with which knobs, by which code* and persists the
serialized scheme (:mod:`repro.core.serialize`), so every later ``compile``
of the same batch function — in any process, after any restart — is a disk
read instead of a synthesis search.

Store key
    ``sha256`` over the task fingerprint
    (:func:`repro.fingerprint.program_fingerprint`, or
    ``Benchmark.source_fingerprint()`` for suite tasks), the config
    fingerprint (:meth:`repro.core.config.SynthesisConfig.fingerprint`), the
    synthesizer implementation digest
    (:func:`repro.fingerprint.implementation_digest`) and the scheme format
    version.  Changing the batch program, a synthesis knob, or the
    synthesizer's own source all mint a fresh key — stale schemes are
    unreachable, never served.

On-disk layout
    ``<root>/schemes/<key[:2]>/<key>.json``, sharing the fan-out and
    atomic-write machinery of the result cache via
    :class:`repro.diskstore.ObjectDirectory`; the root defaults to the
    shared cache root (``$REPRO_CACHE_DIR``, else ``~/.cache/repro``), and
    ``REPRO_CACHE=0`` disables the store wherever it would be used by
    default.

Entries are the JSON scheme envelope plus ``task`` / ``created_at``
metadata; they are plain text, safe to inspect, diff, and ship to other
machines (unlike the pickled result cache, loading one executes no code).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from . import fingerprint
from .core.config import SynthesisConfig
from .core.scheme import OnlineScheme
from .core.serialize import (
    SCHEME_FORMAT_VERSION,
    SchemeFormatError,
    scheme_from_dict,
    scheme_to_dict,
)
from .diskstore import ObjectDirectory
from .ir.nodes import Program


def default_store_dir() -> Path:
    """The shared cache root: result pickles live under ``objects/``,
    schemes under ``schemes/`` — one tree to relocate or wipe."""
    from .evaluation.cache import default_cache_dir

    return default_cache_dir()


def store_enabled() -> bool:
    """The store honours the same ``REPRO_CACHE`` master switch as the
    result cache."""
    from .evaluation.cache import cache_enabled

    return cache_enabled()


def resolve_store(
    enabled: bool | None = None, directory: str | os.PathLike | None = None
) -> "SchemeStore | None":
    """Build the store the API/CLI should use, honouring the env knobs.

    ``enabled=None`` defers to :func:`store_enabled`; an explicit ``False``
    (e.g. the CLI's ``--no-store``) always wins.
    """
    if enabled is None:
        enabled = store_enabled()
    if not enabled:
        return None
    return SchemeStore(directory)


def scheme_key(program: Program, config: SynthesisConfig) -> str:
    """The content address of one compilation: canonical program x config
    knobs x synthesizer implementation x format version."""
    blob = "\n".join(
        (
            fingerprint.program_fingerprint(program, config.element_arity),
            config.fingerprint(),
            fingerprint.implementation_digest(),
            f"scheme-v{SCHEME_FORMAT_VERSION}",
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SchemeStore:
    """Content-addressed store of serialized :class:`OnlineScheme` entries.

    Mirrors the result cache's failure philosophy: all I/O is best-effort,
    an unwritable or corrupted store degrades to misses (i.e. recompiles),
    never to a crash or a wrong scheme.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_dir()
        self._objects = ObjectDirectory(self.root, "schemes", ".json")
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self._objects.path(key)

    def get(self, key: str) -> OnlineScheme | None:
        """The stored scheme for ``key``, or ``None`` on miss.

        Entries are fully re-validated on load; anything malformed counts as
        a miss (and will be overwritten by the next :meth:`put`).
        """
        try:
            data = json.loads(self._path(key).read_text(encoding="utf-8"))
            scheme = scheme_from_dict(data.get("scheme"))
        except (OSError, ValueError, SchemeFormatError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return scheme

    def put(self, key: str, scheme: OnlineScheme, task: str = "") -> None:
        entry = {
            "key": key,
            "task": task,
            "created_at": time.time(),
            "scheme": scheme_to_dict(scheme),
        }

        def write(handle):
            json.dump(entry, handle, indent=2, sort_keys=True)
            handle.write("\n")

        try:
            self._objects.write_atomic(key, write)
        except OSError:
            pass  # best-effort: an unwritable store is just a slow store

    # -- maintenance (the ``repro cache`` subcommand) ---------------------

    def entry_stats(self) -> tuple[int, int]:
        """``(entry count, total bytes)`` currently on disk."""
        return self._objects.entry_stats()

    def clear(self) -> int:
        """Delete every stored scheme; returns the number removed."""
        return self._objects.clear()

    def gc(self, max_age_s: float) -> int:
        """Delete entries older than ``max_age_s`` seconds (by mtime);
        returns the number removed."""
        return self._objects.gc(max_age_s)

    def stats_line(self) -> str:
        return f"scheme store: {self.hits} hits, {self.misses} misses ({self.root})"
