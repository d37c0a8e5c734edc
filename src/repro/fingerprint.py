"""Fingerprints of the synthesizer implementation and of synthesis tasks.

Stored synthesis results (:mod:`repro.store`) must be invalidated when the
*code that produced them* changes, not only when the task or the knobs
change.  This
module provides the missing ingredient: a content hash over the source tree
of the packages that determine synthesis behaviour (``repro.core``,
``repro.algebra``, ``repro.ir``, ``repro.frontend``).  Editing a docstring
still invalidates — a deliberately conservative trade: a spurious re-run
costs seconds, a stale scheme served after a semantics change costs
correctness.

Also home to :func:`program_fingerprint`, the task-identity hash of the
store's key, for ad-hoc programs and suite benchmarks alike.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

from .ir.nodes import Program
from .ir.pretty import program_to_sexpr

#: Sub-packages whose source defines what the synthesizer produces.  The
#: evaluation / CLI / runtime layers are excluded: they decide how results
#: are *presented and deployed*, never what a synthesized scheme computes.
IMPL_PACKAGES = ("core", "algebra", "ir", "frontend")


@lru_cache(maxsize=None)
def implementation_digest() -> str:
    """Stable hex digest of the synthesizer's own source tree.

    Hashes every ``*.py`` file under :data:`IMPL_PACKAGES` (path and
    content, in sorted order), so any code change — new axiom, fixed
    simplifier, different enumeration order — yields a different digest and
    auto-invalidates store entries produced by the old code.
    Cached per process: the source tree cannot change under a running
    interpreter in any way we should honour.
    """
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for package in IMPL_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
    return digest.hexdigest()


def program_fingerprint(program: Program, element_arity: int = 1) -> str:
    """Content hash of one synthesis *task* given directly as a program.

    The program is hashed through its canonical s-expression printing, so
    the same task reaches the same store entry whether it arrived as Python
    source, an s-expression file, or a hand-built IR value.
    """
    payload = f"{element_arity}\n\x00{program_to_sexpr(program)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
