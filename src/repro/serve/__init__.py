"""``repro.serve`` — a sharded, checkpointed, crash-restoring streaming
service over the keyed runtime.

The paper's synthesized online schemes are single-process stream folds;
this package deploys one as a *system*: a :class:`StreamServer` consistent-
hashes the key space (:class:`HashRing`) across N shard worker processes
(:func:`~repro.serve.worker.shard_worker`), each draining batched hand-offs
through the compiled step kernels and checkpointing its partitions to disk.
Workers that die are restored from their last checkpoint and the server
replays the non-durable suffix from its bounded buffer — final aggregates
stay bit-identical to a single-process :class:`~repro.runtime.keyed.KeyedOperator`
run, kills included.  Checkpoints are digest-verified generation lineages
(corrupt files quarantined, fallback to the newest intact one), idle
workers heartbeat so *hung* shards trip a liveness deadline, restarts pay
jittered exponential backoff against a sliding-window budget, and
``on_error="quarantine"`` dead-letters deterministically failing elements
instead of halting — all of it provable on demand with the seeded fault
injection of :mod:`repro.faults` and the ``repro chaos`` harness
(:mod:`repro.evaluation.chaos`).

See :mod:`repro.serve.server` for the delivery contract.  The
``serve-zipf`` workload of ``perfbench/`` measures the server end to end.
"""

from .hashring import HashRing, stable_key_hash
from .server import (
    ServeError,
    ServeResult,
    StreamServer,
    percentile,
    reference_states,
    states_match,
)
from .worker import WorkerConfig, field_extractor, shard_worker

__all__ = [
    "HashRing",
    "ServeError",
    "ServeResult",
    "StreamServer",
    "WorkerConfig",
    "field_extractor",
    "percentile",
    "reference_states",
    "shard_worker",
    "stable_key_hash",
    "states_match",
]
