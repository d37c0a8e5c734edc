"""Per-key partitioned operators for group-by streaming workloads.

Nexmark-style queries rarely want one global aggregate; they want one *per
auction*, *per category*, *per user*.  A :class:`KeyedOperator` wraps a
single online scheme and maintains an independent accumulator tuple per key,
creating partitions on demand as keys first appear — the streaming analogue
of ``GROUP BY`` over an append-only source.

State is O(#keys x scheme arity): exactly the per-group accumulators a batch
``GROUP BY`` would materialize, with O(1) work per element.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping

from ..core.scheme import OnlineScheme
from ..ir.values import Value
from .stream import OnlineOperator


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
        backend: str | None = None,
        bounds=None,
    ):
        self.scheme = scheme
        self.key_fn = key_fn
        self.value_fn = value_fn
        self.extra = dict(extra or {})
        self.name = name or scheme.provenance
        self.partitions: dict[Hashable, OnlineOperator] = {}
        self.count = 0
        # Columnar backend choice, forwarded to every partition operator
        # (admission happens once: the scheme caches the columnar kernel,
        # partitions share it).  Partitions resolve the compiled-vs-
        # interpreted plan from ``REPRO_JIT`` when they are created.
        self._backend = backend
        self._bounds = bounds

    def operator(self, key: Hashable) -> OnlineOperator:
        """The partition for ``key``, created fresh on first touch."""
        op = self.partitions.get(key)
        if op is None:
            op = self.partitions[key] = OnlineOperator(
                self.scheme,
                self.extra,
                f"{self.name}[{key!r}]",
                backend=self._backend,
                bounds=self._bounds,
            )
        return op

    def push(self, element: Value) -> tuple[Hashable, Value]:
        """Route one element to its partition; returns ``(key, new value)``."""
        key = self.key_fn(element)
        payload = element if self.value_fn is None else self.value_fn(element)
        value = self.operator(key).push(payload)
        self.count += 1  # only after a successful step, as OnlineOperator does
        return key, value

    def push_many(self, elements: Iterable[Value]) -> dict[Hashable, Value]:
        """Consume a batch; returns the full per-key snapshot — a defined
        value (``{}`` on a fresh operator) even for an empty batch.

        The batch is grouped per key (one pass of key/value extraction,
        preserving each key's element order and first-arrival partition
        order), then every key's run drains through its partition's batch
        kernel via :meth:`OnlineOperator.push_many` — partitions are
        independent, so the snapshot equals element-by-element ``push``.

        Failure semantics are exactly per-push too: whatever raises first
        in element order — a key/value extractor or a scheme step — the
        operator ends up having consumed precisely the elements before
        that one (``count`` stays a resumable stream offset).  A step
        failure is discovered while draining a *group*, so the operator
        rewinds to its pre-batch snapshot and re-drains the common prefix;
        that replay is sound because scheme steps are pure and
        deterministic.
        """
        groups: dict[Hashable, list[Value]] = {}
        order: list[Hashable] = []
        key_fn, value_fn = self.key_fn, self.value_fn
        extract_error: BaseException | None = None
        try:
            for element in elements:
                key = key_fn(element)
                payload = element if value_fn is None else value_fn(element)
                groups.setdefault(key, []).append(payload)
                order.append(key)
        except BaseException as exc:  # the prefix still drains, per-push
            extract_error = exc
        # Rewind snapshot, scoped to the batch: only partitions for keys in
        # this batch can change (a deployment with many accumulated keys
        # must not pay O(#keys) per small batch).
        snapshot = {
            key: (self.partitions[key].state, self.partitions[key].count)
            for key in groups
            if key in self.partitions
        }
        total = self.count
        # Per-key global element positions, to map "partition K failed on
        # its j-th payload" back to a position in the batch.  Built lazily
        # on the first failure — successful batches (the hot path) must not
        # pay a second pass over the elements.
        positions: dict[Hashable, list[int]] | None = None
        failure: tuple | None = None  # (global position, exc)
        for key, payloads in groups.items():
            op = self.operator(key)
            before = op.count
            try:
                op.push_many(payloads)
            except BaseException as exc:
                if positions is None:
                    positions = {}
                    for index, each in enumerate(order):
                        positions.setdefault(each, []).append(index)
                position = positions[key][op.count - before]
                if failure is None or position < failure[0]:
                    failure = (position, exc)
        if failure is not None:
            prefix, exc = failure
            # Rewind the touched partitions to their pre-batch state
            # (dropping ones the probe created), then re-drain the strict
            # prefix — which cannot raise, since every partition survived
            # those payloads.
            for key in groups:
                snap = snapshot.get(key)
                if snap is None:
                    self.partitions.pop(key, None)
                else:
                    self.partitions[key].state, self.partitions[key].count = snap
            taken: dict[Hashable, int] = {}
            prefix_groups: dict[Hashable, list[Value]] = {}
            for key in order[:prefix]:
                i = taken.get(key, 0)
                taken[key] = i + 1
                prefix_groups.setdefault(key, []).append(groups[key][i])
            for key, payloads in prefix_groups.items():
                self.operator(key).push_many(payloads)
            self.count = total + prefix
            raise exc
        self.count = total + len(order)
        if extract_error is not None:
            raise extract_error
        return self.snapshot()

    def value(self, key: Hashable, default: Value | None = None) -> Value | None:
        op = self.partitions.get(key)
        return default if op is None else op.value

    def snapshot(self) -> dict[Hashable, Value]:
        """Current result per key (insertion order = key arrival order)."""
        return {key: op.value for key, op in self.partitions.items()}

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
        backend: str | None = None,
        bounds=None,
    ) -> "KeyedOperator":
        """Rebuild from :meth:`checkpoint` output.  Key/value extractors are
        code, not data — the caller supplies them again (as is the
        ``backend``/``bounds`` choice; that and ``REPRO_JIT`` are process
        decisions rather than state: a checkpoint written under one backend
        restores under any other)."""
        from .checkpoint import restore_keyed

        return restore_keyed(data, key_fn, value_fn=value_fn, backend=backend, bounds=bounds)
