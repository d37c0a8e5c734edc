"""Tunable knobs of the synthesizer, with the paper's defaults.

A single :class:`SynthesisConfig` travels through the pipeline; the ablations
of Section 7.2 are expressed as flags here (``use_decomposition``,
``use_symbolic``), and the evaluation harness scales ``timeout_s``.

Configs are picklable (they cross process boundaries in the parallel suite
runner) and expose a stable :meth:`SynthesisConfig.fingerprint` used as part
of the synthesis store's key (:mod:`repro.store`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields


@dataclass
class SynthesisConfig:
    #: Wall-clock budget per task in seconds (600 s in the paper, Section 7).
    timeout_s: float = 60.0

    #: Unrolling depth ``k`` for MineExpressions (the paper uses a small
    #: constant; Example 5.6 shows k = 3).
    unroll_depth: int = 3

    #: Maximum degree for interpolated coefficient polynomials over ``n``.
    interpolation_max_degree: int = 6

    #: Maximum AST size explored by the enumerative fallback.  A size tier
    #: over the enumerator's fixed ``BUDGET`` fails the hole before it runs.
    enumeration_max_size: int = 11

    #: Number of random tests used by the equivalence oracle.
    equivalence_tests: int = 24

    #: RNG seed for the testing oracle (determinism across runs).
    seed: int = 2024

    #: Arity of stream elements: 1 for plain numbers, k for k-tuples (e.g.
    #: auction bids modelled as (price, category) pairs).  Drives the test
    #: generators of the equivalence oracle.
    element_arity: int = 1

    #: Ablation switches (Section 7.2): Opera-NoDecomp / Opera-NoSymbolic.
    use_decomposition: bool = True
    use_symbolic: bool = True

    #: Worker processes for *intra-task* parallelism: independent sketch
    #: holes are dispatched over a process pool, one job per hole
    #: (:mod:`repro.core.parallel_synthesize`).  Purely an execution knob —
    #: it decides which process solves each hole, never what is
    #: synthesized, so it is excluded from the fingerprint.
    hole_workers: int = 1

    #: Internal: deadline computed at synthesis start.
    _deadline: float | None = field(default=None, repr=False)

    def start_clock(self) -> None:
        self._deadline = time.monotonic() + self.timeout_s

    def remaining(self) -> float:
        if self._deadline is None:
            return self.timeout_s
        return self._deadline - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def fingerprint(self) -> str:
        """Stable hex digest of every behaviour-relevant knob.

        Two configs with equal fingerprints make the synthesizer explore the
        same search space in the same order (the RNG is seeded), so stored
        results keyed by this digest are safe to reuse.  ``timeout_s`` is
        deliberately *excluded*: the budget decides only whether the search
        finishes, not what it finds, and the store checks budgets against
        each entry itself.  ``hole_workers`` is likewise excluded —
        it only decides which *process* solves each sketch hole, and the
        invariant (enforced by tests) is that parallel and sequential
        synthesis produce identical reports modulo ``elapsed_s``, so stored
        results are shared across worker counts.  ``_deadline`` is
        process-local transient state and is excluded.
        """
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("timeout_s", "hole_workers", "_deadline")
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __getstate__(self) -> dict:
        # Deadlines are ``time.monotonic()`` instants, meaningless in another
        # process; a config always crosses a process boundary unstarted.
        state = dict(self.__dict__)
        state["_deadline"] = None
        return state
