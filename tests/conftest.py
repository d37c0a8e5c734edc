"""Shared fixtures.  The helpers every differential test imports live in
``differential.py``: ``benchmarks/conftest.py`` shares the module name
``conftest``, so a name imported from here could resolve to that file."""

from __future__ import annotations

import pytest


@pytest.fixture(params=["1", "0"], ids=["jit", "nojit"])
def jit_mode(request, monkeypatch) -> bool:
    """Run the test once compiled and once on the interpreter, by setting
    ``REPRO_JIT`` (the one interpreter switch) for its whole body.  The
    value is whether compiled execution is on."""
    monkeypatch.setenv("REPRO_JIT", request.param)
    return request.param == "1"


@pytest.fixture
def ungated(monkeypatch):
    """Lift the int64 cost gate's length thresholds, so that short batches
    still run the columnar body."""
    from repro.ir import vectorize

    monkeypatch.setattr(vectorize, "_MIN_SCAN_BATCH", 1)
    monkeypatch.setattr(vectorize, "_MIN_MULTI_BATCH", 1)
