"""Exception hierarchy for the synthesizer."""

from __future__ import annotations


class SynthesisError(Exception):
    """Base class for synthesis failures."""


class SynthesisTimeout(SynthesisError):
    """The per-task time budget was exhausted (10 minutes in the paper)."""


class EnumerationCapExceeded(SynthesisTimeout):
    """The enumerator kept more than ``enumeration_max_kept`` distinct
    behaviours.  Unlike its wall-clock parent this memory cap is a pure
    function of the search, not of the machine, so a task that ends in it
    fails with the same ``failure_reason`` in any process and at any
    ``hole_workers`` count."""


class HoleSynthesisFailure(SynthesisError):
    """No online expression was found for a sketch hole."""

    def __init__(self, hole_id: int, spec_text: str):
        super().__init__(f"hole □{hole_id} unsolved (spec: {spec_text})")
        self.hole_id = hole_id
        self.spec_text = spec_text


class UnsupportedProgram(SynthesisError):
    """The offline program falls outside the supported IR fragment."""
