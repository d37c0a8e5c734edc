"""Exception hierarchy for the synthesizer."""

from __future__ import annotations


class SynthesisError(Exception):
    """Base class for synthesis failures."""


class SynthesisTimeout(SynthesisError):
    """The per-task time budget was exhausted (10 minutes in the paper)."""


class HoleSynthesisFailure(SynthesisError):
    """No online expression was found for a sketch hole.  ``reason`` says
    why the search stopped short of its size bound (a tier over budget)."""

    def __init__(self, hole_id: int, spec_text: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"hole □{hole_id} unsolved (spec: {spec_text}){detail}")
        self.hole_id = hole_id
        self.spec_text = spec_text
        self.reason = reason


class UnsupportedProgram(SynthesisError):
    """The offline program falls outside the supported IR fragment."""
