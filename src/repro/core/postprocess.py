"""Post-processing: drop auxiliary parameters the online program never uses
(the Remark below Algorithm 2).

``ConstructRFS`` over-approximates the needed accumulators (and we always add
a stream-length accumulator for template solving); after synthesis we keep
only the parameters transitively reachable from the first output.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.analysis.liveness import live_components
from ..ir.nodes import OnlineProgram
from ..ir.values import Value
from .rfs import RFS


@dataclass
class PrunedScheme:
    initializer: tuple[Value, ...]
    program: OnlineProgram
    kept_params: tuple[str, ...]


def prune_unused_accumulators(
    rfs: RFS,
    initializer: tuple[Value, ...],
    program: OnlineProgram,
) -> PrunedScheme:
    """Keep the result accumulator plus everything it transitively reads
    (:func:`~repro.ir.analysis.live_components`)."""
    live = sorted(live_components(program))
    kept = tuple(program.state_params[i] for i in live)
    if len(kept) == program.arity:
        return PrunedScheme(initializer, program, kept)

    new_program = OnlineProgram(
        state_params=kept,
        elem_param=program.elem_param,
        outputs=tuple(program.outputs[i] for i in live),
        extra_params=program.extra_params,
    )
    new_init = tuple(initializer[i] for i in live)
    return PrunedScheme(new_init, new_program, kept)
