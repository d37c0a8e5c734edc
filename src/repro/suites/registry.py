"""Benchmark registry: the 51 offline-to-online conversion tasks of Section 7.

Two domains, mirroring the paper's Table 1:

* **stats** — 34 statistical computations collected from SciPy-style and
  OnlineStats.jl-style batch code (Section 7, "Sources of benchmarks");
* **auction** — 17 Nexmark-flavoured streaming-auction queries.

Each benchmark records the offline IR program, an optional Python source (for
tasks whose paper counterpart is Python, exercised through the frontend), a
hand-written ground-truth online scheme (used for Table 1's online AST sizes
and the qualitative comparison of Section 7.1), and the element arity of the
stream (auction events are tuples).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.scheme import OnlineScheme
from ..ir.nodes import Program


@dataclass
class Benchmark:
    name: str
    domain: str  # "stats" | "auction"
    program: Program
    description: str
    ground_truth: OnlineScheme | None = None
    python_source: str | None = None
    element_arity: int = 1
    #: the paper's single expected failure (kurtosis, Section 7.1)
    expected_hard: bool = False
    tags: tuple[str, ...] = field(default=())


_SUITES: dict[str, list[Benchmark]] = {}


def register_suite(domain: str, benchmarks: list[Benchmark]) -> None:
    _SUITES[domain] = benchmarks


def _ensure_loaded() -> None:
    if "stats" not in _SUITES:
        from . import stats  # noqa: F401  (registers on import)
    if "auction" not in _SUITES:
        from . import auction  # noqa: F401


def all_benchmarks() -> list[Benchmark]:
    _ensure_loaded()
    return list(_SUITES.get("stats", [])) + list(_SUITES.get("auction", []))


def benchmarks_for(domain: str) -> list[Benchmark]:
    _ensure_loaded()
    return list(_SUITES.get(domain, []))


def get_benchmark(name: str) -> Benchmark:
    for bench in all_benchmarks():
        if bench.name == name:
            return bench
    raise KeyError(f"unknown benchmark {name!r}")
