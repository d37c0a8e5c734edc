"""Per-key partitioned operators for group-by streaming workloads.

Nexmark-style queries rarely want one global aggregate; they want one *per
auction*, *per category*, *per user*.  A :class:`KeyedOperator` wraps a
single online scheme and maintains an independent accumulator tuple per key,
creating partitions on demand as keys first appear — the streaming analogue
of ``GROUP BY`` over an append-only source.

State is O(#keys x scheme arity): exactly the per-group accumulators a batch
``GROUP BY`` would materialize, with O(1) work per element: each batch is
one pass of the scheme's keyed loop (:func:`~repro.ir.compile.compile_keyed_batch`).
When the scheme's first component is a read-out
(:meth:`~repro.core.scheme.OnlineScheme.batch_plan`), partitions carry
only the other components and compute the first when read.
Keyed runs are exact only: group-by batches split into per-key runs far
shorter than the columnar backend needs.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Hashable, Iterable, Iterator

from ..core.scheme import BatchPlan, OnlineScheme
from ..ir.compile import kernel_partial
from ..ir.values import Value


class Partition:
    """One key's accumulator tuple and the elements folded into it.

    ``acc`` is what the keyed loop folds; ``state`` is the scheme's full
    state.  The two are the same tuple unless the operator batches on a
    read-out split (see :func:`_readout_partition`)."""

    __slots__ = ("acc", "count")

    def __init__(self, acc: tuple[Value, ...], count: int):
        self.acc = acc
        self.count = count

    @property
    def state(self) -> tuple[Value, ...]:
        return self.acc


def _readout_partition(to_state: Callable[[tuple], tuple]) -> type:
    """The partition record of a read-out plan: it stores the accumulators
    and materializes the full state, read-out first, on every read."""

    class ReadoutPartition(Partition):
        __slots__ = ()

        @property
        def state(self) -> tuple[Value, ...]:
            return to_state(self.acc)

    return ReadoutPartition


def _identical(a: Value, b: Value) -> bool:
    """Equal values of the same Python types, recursively."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_identical, a, b))
    return a == b


class KeyedValues(Mapping):
    """A read-only live view of a keyed operator's current result per key,
    in key arrival order; each value is read when it is looked up."""

    __slots__ = ("_partitions",)

    def __init__(self, partitions: dict):
        self._partitions = partitions

    def __getitem__(self, key: Hashable) -> Value:
        return self._partitions[key].state[0]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._partitions)

    def __len__(self) -> int:
        return len(self._partitions)

    def __repr__(self) -> str:
        return f"KeyedValues({dict(self)!r})"


class KeyedOperator:
    """One online scheme, one accumulator per key.

    ``key_fn`` extracts the partition key from each element; ``value_fn``
    (default: identity) extracts what is actually pushed into that
    partition's scheme.  E.g. per-category max bid over ``(price, category)``
    events::

        op = KeyedOperator(max_scheme, key_fn=lambda e: e[1],
                           value_fn=lambda e: e[0])
        op.push((Fraction(120), 3))   # -> (3, Fraction(120))
    """

    def __init__(
        self,
        scheme: OnlineScheme,
        key_fn: Callable[[Value], Hashable],
        *,
        value_fn: Callable[[Value], Value] | None = None,
        extra: Mapping[str, Value] | None = None,
        name: str | None = None,
    ):
        self.scheme = scheme
        self.key_fn = key_fn
        self.value_fn = value_fn
        self.extra = dict(extra or {})
        self.name = name or scheme.provenance
        self.partitions: dict[Hashable, Partition] = {}
        self.count = 0
        self._values = KeyedValues(self.partitions)
        self._use_plan(scheme.batch_plan())

    def _use_plan(self, plan: BatchPlan) -> None:
        """Fold on ``plan``; the loop is resolved once, from REPRO_JIT, like
        an OnlineOperator's kernel."""
        self._plan = plan
        self._loop = plan.scheme._resolve_keyed_loop()
        self._partition = _readout_partition(plan.to_state) if plan.split else Partition

    def push(self, element: Value) -> tuple[Hashable, Value]:
        """Route one element to its partition; returns ``(key, new value)``."""
        key = self.key_fn(element)
        self._fold((element,), lambda _: key, self.value_fn)
        return key, self.partitions[key].state[0]

    def push_many(self, elements: Iterable[Value]) -> Mapping[Hashable, Value]:
        """Consume a batch; returns the current result per key as a
        read-only live view (:class:`KeyedValues`) — a defined value (an
        empty view on a fresh operator) even for an empty batch.  The view
        costs nothing to return and follows later batches; take
        :meth:`snapshot` for a frozen copy.

        The same as ``push`` per element, failures included: whatever
        raises first in element order — an extractor or a scheme step —
        the operator has consumed precisely the elements before it, and
        ``count`` stays a resumable stream offset.
        """
        self._fold(elements, self.key_fn, self.value_fn)
        return self._values

    def _fold(self, elements: Iterable[Value], key_fn, value_fn) -> None:
        try:
            consumed = self._loop.run(
                self.partitions, elements, self.extra, key_fn, value_fn, self._partition
            )
        except BaseException as exc:
            self.count += kernel_partial(exc, None)[1]
            raise
        self.count += consumed

    def value(self, key: Hashable, default: Value | None = None) -> Value | None:
        part = self.partitions.get(key)
        return default if part is None else part.state[0]

    def snapshot(self) -> dict[Hashable, Value]:
        """Current result per key (insertion order = key arrival order), as
        a copy that later batches leave alone."""
        return {key: part.state[0] for key, part in self.partitions.items()}

    def keys(self) -> list[Hashable]:
        return list(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)

    def reset(self, key: Hashable | None = None) -> None:
        """Drop one partition (``key``) or all of them (default); ``count``
        always equals the elements held by the remaining partitions."""
        if key is None:
            self.partitions.clear()
            self.count = 0
        else:
            dropped = self.partitions.pop(key, None)
            if dropped is not None:
                self.count -= dropped.count

    def _restore_partitions(self, entries: list) -> None:
        """Adopt ``(key, full state, count)`` entries.  A read-out plan
        holds only where every state's first component is its read-out
        (an eager fold leaves it so); otherwise the operator folds the full
        state, so that each stored component reads back as it was."""
        plan = self._plan
        if plan.split:
            try:
                consistent = all(
                    _identical(state[0], plan.to_state(plan.to_acc(state))[0])
                    for _, state, _ in entries
                )
            except Exception:  # noqa: BLE001 - a read-out that raises is not one
                consistent = False
            if not consistent:
                plan = BatchPlan(self.scheme)
                self._use_plan(plan)
        for key, state, count in entries:
            self.partitions[key] = self._partition(plan.to_acc(state), count)

    # -- checkpointing ----------------------------------------------------

    def checkpoint(self) -> dict:
        """JSON-ready snapshot of the scheme and every partition's state
        (see :mod:`repro.runtime.checkpoint`)."""
        from .checkpoint import keyed_checkpoint

        return keyed_checkpoint(self)

    @classmethod
    def restore(
        cls,
        data: dict,
        key_fn: Callable[[Value], Hashable],
        *,
        value_fn: Callable[[Value], Value] | None = None,
    ) -> "KeyedOperator":
        """Rebuild from :meth:`checkpoint` output.  Key/value extractors are
        code, not data — the caller supplies them again."""
        from .checkpoint import restore_keyed

        return restore_keyed(data, key_fn, value_fn=value_fn)
