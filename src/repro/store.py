"""The persistent, content-addressed store of synthesis results.

In Figure 1 synthesis runs once and the online algorithm runs forever;
Section 7 counts the tasks each solver finishes within its budget.  Both
reuse results through this one store: :func:`repro.api.compile` (``repro
compile``) and :func:`repro.evaluation.run_suite` (``repro bench``) look a
task up before synthesizing it and persist what they synthesized, so a
``bench table1`` run makes a later ``compile`` of the same program a hit.

Key
    ``sha256`` over the task (:func:`repro.fingerprint.program_fingerprint`
    at the config's element arity), the solver name (``"opera"`` for
    :func:`repro.api.compile`), the config fingerprint
    (:meth:`repro.core.config.SynthesisConfig.fingerprint`), the synthesizer
    implementation digest (:func:`repro.fingerprint.implementation_digest`)
    and :data:`ENTRY_FORMAT_VERSION`.  Task names only label reports: no
    solver searches by them, so tasks with one program share one entry, and
    a hit is returned under the caller's task name.  A stored scheme keeps
    the provenance it was written with.

Entry
    ``<root>/schemes/<key[:2]>/<key>.json``: the report in the JSON form of
    :func:`repro.core.serialize.report_to_dict` and the budget it ran under.
    Entries are plain text, and loading one runs no code.  Writes are atomic
    (temp file, then ``os.replace``).  All I/O is best-effort: anything
    unreadable, malformed or of another format is a miss, and an unwritable
    store is just a slow store.

Reuse rule (:func:`reusable`)
    A stored failure is a hit only when it ran under at least the requested
    budget: a failure under 600 s implies one under 10 s, not the reverse.
    A stored success is a hit when it ran under at most the requested
    budget, or when its ``elapsed_s`` fits the requested one, so a 50 s
    solve never counts as solved under 10 s.  Crashed and errored workers
    are failures of the environment, not of the task, and are never stored.

The root is ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``.  ``REPRO_CACHE=0`` switches the store off wherever it
would be used by default; an explicit store instance ignores it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from . import fingerprint
from .core.config import SynthesisConfig
from .core.report import SynthesisReport
from .core.serialize import report_from_dict, report_to_dict
from .ir.nodes import Program

#: Root directory override for the store.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Master switch: "0" / "false" / "no" / "off" disables the store wherever
#: it would be used by default.
CACHE_ENV = "REPRO_CACHE"

#: Version of the entry layout; part of every key, so a new layout never
#: reads an old entry.
ENTRY_FORMAT_VERSION = 1

#: Failure reasons of the environment rather than of the task: storing one
#: would replay e.g. an OOM kill on every later run.
_UNSTORED_FAILURES = ("WorkerCrashed", "WorkerError")


def default_store_dir() -> Path:
    """Resolve the store root from the environment (without creating it)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def store_enabled() -> bool:
    """The ``REPRO_CACHE`` master switch (defaults to on)."""
    return os.environ.get(CACHE_ENV, "1").strip().lower() not in ("0", "false", "no", "off")


def resolve_store(
    enabled: bool | None = None, directory: str | os.PathLike | None = None
) -> "SchemeStore | None":
    """The store a verb should use, honouring the env knobs.

    ``enabled=None`` defers to :func:`store_enabled`; an explicit ``False``
    (the CLI's ``--no-store`` / ``--no-cache``) always wins.
    """
    if enabled is None:
        enabled = store_enabled()
    return SchemeStore(directory) if enabled else None


def synthesis_key(solver: str, program: Program, config: SynthesisConfig) -> str:
    """The content address of one synthesis: task x solver x config knobs x
    synthesizer implementation x entry format (see module docstring)."""
    blob = "\n".join(
        (
            fingerprint.program_fingerprint(program, config.element_arity),
            solver,
            config.fingerprint(),
            fingerprint.implementation_digest(),
            f"entry-v{ENTRY_FORMAT_VERSION}",
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def reusable(report: SynthesisReport, stored_budget_s: float, budget_s: float) -> bool:
    """Whether a report stored under ``stored_budget_s`` answers a request
    for ``budget_s`` (the reuse rule of the module docstring)."""
    if report.success:
        return stored_budget_s <= budget_s or report.elapsed_s <= budget_s
    return stored_budget_s >= budget_s


class SchemeStore:
    """Synthesis reports, schemes included, under ``<root>/schemes/``."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_dir()
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> Path:
        # Two-level fan-out, so that a full matrix run never piles thousands
        # of entries into one directory.
        return self.root / "schemes" / key[:2] / f"{key}.json"

    def get(self, key: str, budget_s: float, task: str) -> SynthesisReport | None:
        """The stored report for ``key`` under ``task``'s name, or ``None``
        on a miss: no entry, an unreadable one, or one the reuse rule
        refuses for ``budget_s``."""
        try:
            entry = json.loads(self.path(key).read_text(encoding="utf-8"))
            stored_budget_s = entry["budget_s"]
            report = report_from_dict(entry["report"])
            hit = reusable(report, float(stored_budget_s), budget_s)
        except (OSError, ValueError, KeyError, TypeError):
            hit = False
        if not hit:
            self.misses += 1
            return None
        self.hits += 1
        return replace(report, task=task)

    def put(self, key: str, budget_s: float, report: SynthesisReport) -> None:
        """Persist ``report`` as synthesized under ``budget_s``, unless it is
        a crashed or errored worker's."""
        if not report.success and (report.failure_reason or "").startswith(_UNSTORED_FAILURES):
            return
        path = self.path(key)
        try:
            text = json.dumps(
                {"budget_s": float(budget_s), "report": report_to_dict(report)},
                indent=2,
                sort_keys=True,
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, ValueError):
            pass  # best-effort: an unwritable store is just a slow store

    def stats_line(self) -> str:
        return f"{self.hits} hits, {self.misses} misses ({self.root})"

    # -- maintenance (the ``repro cache`` verb) ---------------------------

    def entries(self) -> Iterator[Path]:
        base = self.root / "schemes"
        if base.is_dir():
            yield from base.glob("*/*.json")

    def entry_stats(self) -> tuple[int, int]:
        """``(entry count, total bytes)`` currently on disk."""
        count = size = 0
        for path in self.entries():
            try:
                size += path.stat().st_size
                count += 1
            except OSError:
                pass
        return count, size

    def gc(self, max_age_s: float) -> int:
        """Delete entries last written more than ``max_age_s`` seconds ago;
        returns the number removed."""
        cutoff = time.time() - max_age_s
        removed = 0
        for path in self.entries():
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        return self.gc(-float("inf"))
