"""Structured synthesis outcomes for the evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.traversal import ast_size
from .scheme import OnlineScheme


@dataclass
class HoleOutcome:
    """How one sketch hole was solved."""

    hole_id: int
    method: str  # "implicate" | "mined" | "template" | "enumerative"
    spec_size: int
    solution_size: int


@dataclass
class SynthesisReport:
    """Everything Table 2 / Figures 11 and 13 need about one task."""

    task: str
    success: bool
    elapsed_s: float
    scheme: OnlineScheme | None = None
    holes: list[HoleOutcome] = field(default_factory=list)
    failure_reason: str | None = None
    method_counts: dict[str, int] = field(default_factory=dict)

    def record_hole(self, outcome: HoleOutcome) -> None:
        self.holes.append(outcome)
        self.method_counts[outcome.method] = (self.method_counts.get(outcome.method, 0) + 1)

    def online_size(self) -> int | None:
        if self.scheme is None:
            return None
        return sum(ast_size(out) for out in self.scheme.program.outputs)

    def summary_line(self) -> str:
        status = "ok" if self.success else f"FAIL ({self.failure_reason})"
        methods = ", ".join(f"{k}={v}" for k, v in sorted(self.method_counts.items()))
        return f"{self.task:<28} {self.elapsed_s:7.2f}s  {status}  [{methods}]"
