"""Per-key partitioned operators for group-by streaming workloads.

Nexmark-style queries rarely want one global aggregate; they want one *per
auction*, *per category*, *per user*.  A :class:`KeyedOperator` wraps a
single online scheme and maintains an independent accumulator tuple per key,
creating partitions on demand as keys first appear — the streaming analogue
of ``GROUP BY`` over an append-only source.

State is O(#keys x scheme arity): exactly the per-group accumulators a batch
``GROUP BY`` would materialize, with O(1) work per element: each batch is
one pass of the scheme's keyed loop (:func:`~repro.ir.compile.compile_keyed_batch`).
Keyed runs are exact only: group-by batches split into per-key runs far
shorter than the columnar backend needs.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping

from ..core.scheme import OnlineScheme
from ..ir.compile import kernel_partial
from ..ir.values import Value

class Partition:
    """One key's accumulator tuple and the elements folded into it."""

    __slots__ = ("state", "count")

    def __init__(self, state: tuple[Value, ...], count: int):
        self.state = state
        self.count = count


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
        # Resolved once, from REPRO_JIT, like an OnlineOperator's kernel.
        self._loop = scheme._resolve_keyed_loop()

    def push(self, element: Value) -> tuple[Hashable, Value]:
        """Route one element to its partition; returns ``(key, new value)``."""
        key = self.key_fn(element)
        self._fold((element,), lambda _: key, self.value_fn)
        return key, self.partitions[key].state[0]

    def push_many(self, elements: Iterable[Value]) -> dict[Hashable, Value]:
        """Consume a batch; returns the full per-key snapshot — a defined
        value (``{}`` on a fresh operator) even for an empty batch.

        The same as ``push`` per element, failures included: whatever
        raises first in element order — an extractor or a scheme step —
        the operator has consumed precisely the elements before it, and
        ``count`` stays a resumable stream offset.
        """
        self._fold(elements, self.key_fn, self.value_fn)
        return self.snapshot()

    def _fold(self, elements: Iterable[Value], key_fn, value_fn) -> None:
        try:
            consumed = self._loop.run(
                self.partitions, elements, self.extra, key_fn, value_fn, Partition
            )
        except BaseException as exc:
            self.count += kernel_partial(exc, None)[1]
            raise
        self.count += consumed

    def value(self, key: Hashable, default: Value | None = None) -> Value | None:
        part = self.partitions.get(key)
        return default if part is None else part.state[0]

    def snapshot(self) -> dict[Hashable, Value]:
        """Current result per key (insertion order = key arrival order)."""
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
