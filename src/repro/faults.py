"""Deterministic fault injection for the serving runtime (``repro.faults``).

The serve subsystem claims exactly-once delivery under worker crashes; this
module exists to *prove* it under a much wider fault model — and to keep
proving it on every commit.  A :class:`FaultPlan` is compiled from compact
spec strings and threaded through the server and its shard workers via
narrow injection hooks; the ``repro chaos`` verb
(:mod:`repro.evaluation.chaos`) then runs seeded trials with randomized
plans and differentially verifies every surviving trial against the
single-process oracle.

Spec grammar (colon-separated, one fault per spec)::

    kill:SHARD:AFTER            SIGKILL shard SHARD's worker once AFTER
                                elements have been pushed into the server
    stall:SHARD:AFTER[:SECS]    shard SHARD's worker hangs (sleeps SECS,
                                default 30) after consuming AFTER elements —
                                a *hung* worker, not a dead one; only the
                                liveness deadline can catch it.  Fires in
                                the first incarnation only, so the restored
                                replacement makes progress.
    corrupt-checkpoint:SHARD:GEN
                                shard SHARD's checkpoint generation GEN is
                                written corrupted (the digest check must
                                catch it on restore and fall back to an
                                older generation)
    torn-write:NTH              each shard worker's NTH checkpoint write
                                (per incarnation) is torn: the file holds
                                only its first half — what a filesystem
                                that lied about durability leaves behind
    poison:OFFSET               the element at 0-based stream offset OFFSET
                                has its value replaced by a sentinel the
                                scheme step deterministically raises on

Faults are *deterministic given the plan*: the same plan over the same
stream schedules the same kills, stalls, corruptions and poisons, which is
what makes chaos trials reproducible from a seed.

Injection surfaces:

* ``kills_at(pushed)`` — consulted by whoever drives the push loop (the
  chaos harness, or ``repro serve --fault kill:S:AFTER``); ``repro serve``
  pushes whole :func:`split_at` segments that end at
  ``kill_offsets()``, so kills land after exactly the same elements as a
  per-element loop's;
* ``shard_plan(sid)`` — the picklable per-worker slice
  (:class:`ShardFaultPlan`) that rides into the worker process and drives
  stalls and checkpoint damage;
* ``apply_stream(elements)`` — rewrites poisoned offsets of the element
  stream before it reaches the server.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

#: The poison sentinel: routed and batched like any value, but every scheme
#: step (compiled or interpreted) raises deterministically on arithmetic
#: with it.  A plain string so it crosses pipes and process boundaries.
POISON = "__repro-poison__"

_KINDS = ("kill", "stall", "corrupt-checkpoint", "torn-write", "poison")

#: Default sleep of a ``stall`` fault without an explicit SECS.  Long enough
#: that only liveness detection (never the stall ending on its own) can
#: unblock the run, short enough to bound a trial if detection is broken.
DEFAULT_STALL_SECS = 30.0

#: Most elements one :func:`split_at` segment holds, so a push loop over a
#: long or unbounded stream keeps only this many in memory at once.
SEGMENT_SIZE = 4096


class FaultSpecError(ValueError):
    """A fault spec string does not parse or references an invalid target."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault (see the module docstring for the grammar)."""

    kind: str
    shard: int | None = None
    after: int | None = None
    secs: float | None = None
    generation: int | None = None
    nth: int | None = None
    offset: int | None = None

    def spec(self) -> str:
        """The canonical spec string (inverse of :func:`parse_fault`)."""
        if self.kind == "kill":
            return f"kill:{self.shard}:{self.after}"
        if self.kind == "stall":
            return f"stall:{self.shard}:{self.after}:{self.secs:g}"
        if self.kind == "corrupt-checkpoint":
            return f"corrupt-checkpoint:{self.shard}:{self.generation}"
        if self.kind == "torn-write":
            return f"torn-write:{self.nth}"
        return f"poison:{self.offset}"


def _int_field(token: str, what: str, spec: str, minimum: int = 0) -> int:
    try:
        value = int(token)
    except ValueError:
        raise FaultSpecError(f"bad fault spec {spec!r}: {what} must be an integer") from None
    if value < minimum:
        raise FaultSpecError(f"bad fault spec {spec!r}: {what} must be >= {minimum}")
    return value


def parse_fault(spec: str) -> FaultSpec:
    """Parse one spec string; raises :class:`FaultSpecError` on anything
    that does not match the grammar."""
    kind, _, rest = spec.strip().partition(":")
    args = rest.split(":") if rest else []
    if kind == "kill":
        if len(args) != 2:
            raise FaultSpecError(f"bad fault spec {spec!r}: kill takes SHARD:AFTER")
        return FaultSpec(
            "kill",
            shard=_int_field(args[0], "SHARD", spec),
            after=_int_field(args[1], "AFTER", spec, minimum=1),
        )
    if kind == "stall":
        if len(args) not in (2, 3):
            raise FaultSpecError(f"bad fault spec {spec!r}: stall takes SHARD:AFTER[:SECS]")
        secs = DEFAULT_STALL_SECS
        if len(args) == 3:
            try:
                secs = float(args[2])
            except ValueError:
                raise FaultSpecError(f"bad fault spec {spec!r}: SECS must be a number") from None
            if secs <= 0:
                raise FaultSpecError(f"bad fault spec {spec!r}: SECS must be > 0")
        return FaultSpec(
            "stall",
            shard=_int_field(args[0], "SHARD", spec),
            after=_int_field(args[1], "AFTER", spec, minimum=1),
            secs=secs,
        )
    if kind == "corrupt-checkpoint":
        if len(args) != 2:
            raise FaultSpecError(f"bad fault spec {spec!r}: corrupt-checkpoint takes SHARD:GEN")
        return FaultSpec(
            "corrupt-checkpoint",
            shard=_int_field(args[0], "SHARD", spec),
            generation=_int_field(args[1], "GEN", spec, minimum=1),
        )
    if kind == "torn-write":
        if len(args) != 1:
            raise FaultSpecError(f"bad fault spec {spec!r}: torn-write takes NTH")
        return FaultSpec("torn-write", nth=_int_field(args[0], "NTH", spec, minimum=1))
    if kind == "poison":
        if len(args) != 1:
            raise FaultSpecError(f"bad fault spec {spec!r}: poison takes OFFSET")
        return FaultSpec("poison", offset=_int_field(args[0], "OFFSET", spec))
    raise FaultSpecError(f"unknown fault kind {kind!r} in {spec!r}; choices: {', '.join(_KINDS)}")


@dataclass(frozen=True)
class ShardFaultPlan:
    """The picklable per-worker slice of a plan: everything a shard worker
    needs to injure itself on schedule, nothing about other shards."""

    shard: int
    stall_after: int | None = None
    stall_secs: float = DEFAULT_STALL_SECS
    corrupt_generations: frozenset = frozenset()
    torn_writes: frozenset = frozenset()

    def should_stall(self, consumed: int, incarnation: int, stalled: bool) -> bool:
        """Whether the worker hangs now: first incarnation only (a restored
        replacement must make progress), once per life."""
        return (
            self.stall_after is not None
            and incarnation == 0
            and not stalled
            and consumed >= self.stall_after
        )

    def damage(self, text: str, generation: int, ordinal: int) -> str:
        """A checkpoint file's text as this plan's faults leave it.

        Applied before the file is published, so no kill can land between
        an intact write and its injury: which generations are damaged
        depends on the plan alone.  Corruption overwrites a span in the
        middle (breaking either the JSON or the digest — both
        restore-detectable); a torn write keeps the first half.
        """
        if generation in self.corrupt_generations:
            middle = max(0, len(text) // 2 - 4)
            text = text[:middle] + "\x00CHAOS\x00" + text[middle + 7 :]
        if ordinal in self.torn_writes:
            text = text[: max(1, len(text) // 2)]
        return text


def poison_element(element, value_index: int | None = None):
    """Replace an element's value with the :data:`POISON` sentinel, keeping
    the key fields intact so routing is unchanged (tuple elements with
    ``value_index`` pointing at the slot the scheme actually consumes)."""
    if value_index is None or not isinstance(element, tuple):
        return POISON
    slots = list(element)
    slots[value_index] = POISON
    return tuple(slots)


class FaultPlan:
    """A compiled set of faults, queryable per injection surface.

    >>> plan = FaultPlan(["kill:0:500", "stall:1:800:30", "poison:42"])
    >>> plan.kills_at(500)
    [0]
    >>> plan.shard_plan(1).stall_after
    800
    """

    def __init__(self, specs: Iterable[str | FaultSpec] = ()):
        self.faults: list[FaultSpec] = [
            s if isinstance(s, FaultSpec) else parse_fault(s) for s in specs
        ]
        self._kills: dict[int, list[int]] = {}
        for fault in self.faults:
            if fault.kind == "kill":
                self._kills.setdefault(fault.after, []).append(fault.shard)
        self.poison_offsets: frozenset = frozenset(
            f.offset for f in self.faults if f.kind == "poison"
        )

    def __bool__(self) -> bool:
        return bool(self.faults)

    def specs(self) -> list[str]:
        """Canonical spec strings (stable across parse round-trips — what
        the chaos report records per trial)."""
        return [fault.spec() for fault in self.faults]

    def validate(self, shards: int) -> "FaultPlan":
        """Reject specs naming shards the deployment does not have."""
        for fault in self.faults:
            if fault.shard is not None and not 0 <= fault.shard < shards:
                raise FaultSpecError(
                    f"fault {fault.spec()!r} names shard {fault.shard}, out of "
                    f"range for a deployment of {shards} shard(s)"
                )
        return self

    # -- injection surfaces --------------------------------------------------

    def kills_at(self, pushed: int) -> list[int]:
        """Shards whose worker should be SIGKILLed once ``pushed`` elements
        have entered the server (consulted by the push-loop driver)."""
        return self._kills.get(pushed, [])

    def kill_offsets(self) -> list[int]:
        """Every ``pushed`` count at which :meth:`kills_at` names a shard,
        ascending (the stopping points of a segmented push loop)."""
        return sorted(self._kills)

    def shard_plan(self, sid: int) -> ShardFaultPlan | None:
        """The worker-side slice for shard ``sid`` (``None`` when this plan
        never touches that worker — the hooks then cost nothing)."""
        stall_after = None
        stall_secs = DEFAULT_STALL_SECS
        corrupt = set()
        torn = set()
        for fault in self.faults:
            if fault.kind == "stall" and fault.shard == sid:
                stall_after, stall_secs = fault.after, fault.secs
            elif fault.kind == "corrupt-checkpoint" and fault.shard == sid:
                corrupt.add(fault.generation)
            elif fault.kind == "torn-write":
                torn.add(fault.nth)
        if stall_after is None and not corrupt and not torn:
            return None
        return ShardFaultPlan(
            shard=sid,
            stall_after=stall_after,
            stall_secs=stall_secs,
            corrupt_generations=frozenset(corrupt),
            torn_writes=frozenset(torn),
        )

    def apply_stream(self, elements: Iterable, value_index: int | None = 0) -> Iterator:
        """The element stream with poisoned offsets rewritten (a no-op
        pass-through when the plan holds no poison faults)."""
        if not self.poison_offsets:
            yield from elements
            return
        for offset, element in enumerate(elements):
            if offset in self.poison_offsets:
                yield poison_element(element, value_index)
            else:
                yield element

    def allows_refusal(self, on_error: str = "fail") -> bool:
        """Whether a clean :class:`~repro.serve.ServeError` refusal is a
        *correct* outcome under this plan: a poisoned stream in ``fail``
        mode must refuse, and corrupt/torn checkpoint faults may leave a
        shard with no intact generation to restore (also a refusal, never a
        silent fresh start)."""
        if self.poison_offsets and on_error != "quarantine":
            return True
        return any(f.kind in ("corrupt-checkpoint", "torn-write") for f in self.faults)


def split_at(elements: Iterable, offsets: Iterable[int]) -> Iterator[tuple[list, int]]:
    """Cut ``elements`` into consecutive lists that end exactly at each
    positive offset in ``offsets`` and otherwise hold :data:`SEGMENT_SIZE`
    elements, yielding ``(segment, pushed)``: the segment and the running
    count of elements yielded through it.

    A push loop hands each segment to ``StreamServer.push_many`` and then
    fires the kills due at ``pushed`` — the same kills after the same
    elements as pushing one element at a time.
    """
    iterator = iter(elements)
    stops = iter(sorted({offset for offset in offsets if offset > 0}))
    stop = next(stops, None)
    pushed = 0
    while True:
        want = SEGMENT_SIZE if stop is None else min(SEGMENT_SIZE, stop - pushed)
        segment = list(itertools.islice(iterator, want))
        if not segment:
            return
        pushed += len(segment)
        yield segment, pushed
        if pushed == stop:
            stop = next(stops, None)
        if len(segment) < want:
            return
