"""Shared fixtures."""

from __future__ import annotations

import pytest


@pytest.fixture(params=["1", "0"], ids=["jit", "nojit"])
def jit_mode(request, monkeypatch) -> bool:
    """Run the test once compiled and once on the interpreter, by setting
    ``REPRO_JIT`` (the one interpreter switch) for its whole body.  The
    value is whether compiled execution is on."""
    monkeypatch.setenv("REPRO_JIT", request.param)
    return request.param == "1"
