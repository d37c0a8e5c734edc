"""Initializer construction (line 3 of Algorithm 1).

The initializer is a model of ``Φ[xs ↦ Nil]``: each auxiliary parameter's
initial value is its specification evaluated on the empty list.  With a
concrete interpreter this is a single evaluation per entry rather than a
constraint-solving problem.

Programs with extra scalar parameters (Section 6) are supported as long as
the initial values do not depend on those parameters — fold initial
accumulators are constants in all our benchmarks.  Dependence is detected by
evaluating under two distinct parameter valuations.
"""

from __future__ import annotations

from typing import Mapping

from ..ir.evaluator import evaluate
from ..ir.values import Value, values_close
from .exceptions import UnsupportedProgram
from .rfs import RFS


def _evaluate_on_nil(rfs: RFS, extra: Mapping[str, Value]) -> tuple[Value, ...]:
    env: dict[str, Value] = dict(extra)
    env[rfs.list_param] = []
    # Interpreted: each spec is evaluated on nil at most twice, too few
    # times for compiling it to pay off.
    return tuple(evaluate(spec, env) for spec in rfs.entries.values())


def build_initializer(rfs: RFS) -> tuple[Value, ...]:
    """Evaluate every RFS entry on the empty list."""
    if not rfs.extra_params:
        return _evaluate_on_nil(rfs, {})
    probe_a = {name: 1 for name in rfs.extra_params}
    probe_b = {name: 2 for name in rfs.extra_params}
    init_a = _evaluate_on_nil(rfs, probe_a)
    init_b = _evaluate_on_nil(rfs, probe_b)
    if not values_close(init_a, init_b):
        raise UnsupportedProgram(
            "initializer depends on extra parameters; constant initializers "
            "are required (Figure 7)"
        )
    return init_a
