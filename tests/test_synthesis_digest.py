"""The synthesis contract, pinned: the 50 suite tasks Opera solves
synthesize to exactly the schemes, by exactly the per-hole methods, they
synthesized when the digest below was taken.

A refactor of synthesis or of the code it evaluates through must leave the
digest alone, with the compiled evaluators and under ``REPRO_JIT=0``.  A
change that alters synthesized schemes on purpose re-pins the digest and
names every changed task.  Kurtosis (``expected_hard``) is left out: its
hole fails, after ~11 s of enumerating the tiers up to size 6, with
``search space of 1073859 programs at size 7 exceeds budget 500000``.
"""

import hashlib
import json

import pytest

from repro.core.config import SynthesisConfig
from repro.core.synthesize import synthesize
from repro.suites import all_benchmarks

#: SHA-256 of the canonical JSON of ``[{task, scheme, holes}]`` over the
#: solved suite tasks, in suite order.
SUITE_DIGEST = "f7077856c53c1fb8809034c7844738ce0a42343659c5d21f4eb95cebb480f517"


def suite_digest() -> str:
    entries = []
    for bench in all_benchmarks():
        if bench.expected_hard:
            continue
        config = SynthesisConfig(element_arity=bench.element_arity)
        report = synthesize(bench.program, config, bench.name)
        assert report.scheme is not None, (bench.name, report.failure_reason)
        entries.append(
            {
                "task": bench.name,
                "scheme": report.scheme.to_dict(),
                "holes": [[hole.hole_id, hole.method] for hole in report.holes],
            }
        )
    assert len(entries) == 50
    blob = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("jit", ["default", "off"])
def test_solved_suite_synthesizes_to_pinned_schemes(monkeypatch, jit):
    if jit == "off":
        monkeypatch.setenv("REPRO_JIT", "0")
    else:
        monkeypatch.delenv("REPRO_JIT", raising=False)
    assert suite_digest() == SUITE_DIGEST
