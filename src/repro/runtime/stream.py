"""A small stream-processing runtime for deploying synthesized schemes.

This is the "online streaming application" box of Figure 1: once Opera has
produced an online scheme, downstream code wants to run it over unbounded
element sources without materializing batches.  The runtime provides:

* :class:`OnlineOperator` — a stateful operator wrapping one scheme;
* :class:`StreamPipeline` — several operators advancing in lockstep over one
  source (e.g. a dashboard computing mean, variance and max per tick);
* windowing helpers (:func:`tumbling`, :func:`sliding`) that re-run an
  operator per window — the standard way to use *append-only* online
  algorithms under finite windows without inverse operations.

Operators are deliberately tiny: one scheme step per element, O(1) state.

Batched ingestion (``push_many``, the windows, ``repro run --batch-size``)
runs on :class:`~repro.ir.compile.StepKernel` execution plans: each
scheme's whole chunk loop is compiled to one native closure, with the
interpreter-driven loop as the transparent fallback under ``REPRO_JIT=0``,
the one interpreter switch.  Kernels are semantically invisible — batch
results equal per-element ``push``, bit-for-bit.  A scheme whose first
component is a read-out of the others batches on the others and computes
the read-out once per batch (:meth:`~repro.core.scheme.OnlineScheme.batch_plan`).
"""

from __future__ import annotations

import copy
import itertools
from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

from ..core.scheme import OnlineScheme
from ..ir.compile import kernel_partial
from ..ir.values import Value

#: The batch backends an operator (and ``repro run``/``serve --backend``)
#: accepts; ``None`` means ``"exact"``.
BACKENDS = ("exact", "auto")


class OnlineOperator:
    """A running instance of an online scheme.

    >>> op = OnlineOperator(scheme)
    >>> for x in source:
    ...     current = op.push(x)
    """

    def __init__(
        self,
        scheme: OnlineScheme,
        extra: Mapping[str, Value] | None = None,
        name: str | None = None,
        *,
        backend: str | None = None,
        bounds=None,
    ):
        if backend is not None and backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.scheme = scheme
        self.extra = dict(extra or {})
        self.name = name or scheme.provenance
        self.state: tuple[Value, ...] = scheme.initializer
        self.count = 0
        # The execution backends are resolved once per operator: the
        # compiled native closure (per-element push) and the batch kernel
        # (push_many) by default, interpreter-driven equivalents under
        # REPRO_JIT=0 (or when the program is uncompilable).
        # See :mod:`repro.ir.compile`.  Under backend="auto" the batch
        # kernel is upgraded to the certificate-licensed, bit-identical
        # int64 NumPy columnar plan when admission grants it; otherwise the
        # exact kernel stays — silently, by design: the backend choice
        # never changes what an operator computes.
        # The scalar step is kept alongside the batch kernel on purpose:
        # routing a per-element push through a 1-element kernel batch
        # measured 2.06x slower on count and q_highest_bid.
        # When the first component is a read-out (OnlineScheme.batch_plan),
        # the batch kernel and its columnar admission are those of the
        # accumulators; push still runs the full step.
        self._step = scheme._resolve_step()
        self._plan = scheme.batch_plan()
        self._kernel = self._plan.scheme._resolve_kernel()
        if backend == "auto":
            self._kernel = self._plan.scheme.compiled_columns(bounds) or self._kernel

    @property
    def value(self) -> Value:
        """Current result (``fst`` of the accumulator tuple)."""
        return self.state[0]

    @property
    def backend_in_use(self) -> str:
        """``"columnar"`` when the NumPy columnar kernel was admitted, else
        ``"exact"`` — what actually got admitted, not what was asked.  An
        admitted int64 kernel still runs short batches, and ``Fraction``
        batches of single-scan schemes, on the exact kernel (the per-batch
        cost gate in :mod:`repro.ir.vectorize`)."""
        return "columnar" if getattr(self._kernel, "columnar", False) else "exact"

    def push(self, element: Value) -> Value:
        """Consume one element; returns the updated result."""
        state = self._step(self.state, element, self.extra)
        self.state = state
        self.count += 1
        return state[0]

    def push_many(self, elements: Iterable[Value]) -> Value:
        """Consume a batch; returns the result after the last element.

        Defined for every input, including ``[]``: an empty batch leaves the
        state untouched and returns the current value — ``fst(I)`` on a
        fresh operator, matching rule Lift-Nil of Figure 8.
        """
        # The whole chunk runs inside one StepKernel call — the compiled
        # batch loop (state in locals, no per-element closure re-entry), or
        # the interpreter-driven loop under REPRO_JIT=0.  If an element
        # raises, the kernel's partial-progress record keeps exactly the
        # state and count a per-element loop would have kept.  A read-out
        # is evaluated once per batch, and only when an element was folded:
        # until then the state is whatever it was, restored or initial.
        start = self._plan.to_acc(self.state)
        try:
            acc, consumed = self._kernel.run(start, elements, self.extra)
        except BaseException as exc:
            self._advance(*kernel_partial(exc, start))
            raise
        self._advance(acc, consumed)
        return self.state[0]

    def _advance(self, acc: tuple, consumed: int) -> None:
        if consumed:
            self.state = self._plan.to_state(acc)
            self.count += consumed

    def reset(self) -> None:
        """Back to the initializer, as if freshly constructed."""
        self.state = self.scheme.initializer
        self.count = 0

    def fork(self) -> "OnlineOperator":
        """An independent copy from the current state, running the parent's
        resolved execution plan whatever ``REPRO_JIT`` says by now; pushes
        (and ``extra`` edits) to either never reach the other."""
        clone = copy.copy(self)
        clone.extra = dict(self.extra)
        return clone

    def checkpoint(self) -> dict:
        """JSON-ready snapshot of scheme + state for restart-safe
        deployment (see :mod:`repro.runtime.checkpoint`)."""
        from .checkpoint import operator_checkpoint

        return operator_checkpoint(self)

    @classmethod
    def restore(cls, data: dict) -> "OnlineOperator":
        """Rebuild an operator from :meth:`checkpoint` output; resuming is
        bit-for-bit identical to never having stopped."""
        from .checkpoint import restore_operator

        return restore_operator(data)


class StreamPipeline:
    """Several named operators fed from a single element source."""

    def __init__(self, operators: Mapping[str, OnlineOperator]):
        self.operators = dict(operators)

    def push(self, element: Value) -> dict[str, Value]:
        return {name: op.push(element) for name, op in self.operators.items()}

    def push_many(self, elements: Iterable[Value]) -> dict[str, Value]:
        """Consume a batch; returns the final snapshot — a defined value
        (the current snapshot, initializers on a fresh pipeline) even when
        ``elements`` is empty.

        Each operator drains the materialized chunk through its own batch
        kernel (:meth:`OnlineOperator.push_many`); operators are
        independent, so this reaches the per-element-``push`` snapshot.
        A source that raises partway still has the elements it yielded
        applied to every operator before its error propagates, as a
        per-element loop over it would.
        """
        source_error: BaseException | None = None
        if isinstance(elements, (list, tuple)):
            chunk = elements
        else:
            chunk = []
            try:
                chunk.extend(elements)  # keeps the items read before a raise
            except BaseException as exc:
                source_error = exc
        self._drain(chunk)
        if source_error is not None:
            raise source_error
        return self.snapshot()

    def _drain(self, chunk: Sequence[Value]) -> None:
        """Run ``chunk`` through every operator with per-element-``push``
        failure semantics: operators advance in dict order within each
        element, so when operator *r* raises on element *k*, operators
        before *r* keep ``k + 1`` elements and the rest keep ``k``.  Each
        operator is probed on the whole chunk; on a failure all rewind to
        the pre-batch snapshot and re-drain their per-push prefix — sound
        because scheme steps are pure and deterministic."""
        ops = tuple(self.operators.values())
        if len({id(op) for op in ops}) < len(ops):
            # One operator under several names: plain sequential drains
            # (per-push parity is ill-defined when "slots" share state).
            for op in ops:
                op.push_many(chunk)
            return
        snapshots = [(op.state, op.count) for op in ops]
        # Earliest failing element across operators; on ties the operator
        # evaluated first per element (dict order) wins, as under push.
        failure: tuple | None = None  # (element index, op index, exc)
        for i, op in enumerate(ops):
            try:
                op.push_many(chunk)
            except BaseException as exc:
                consumed = op.count - snapshots[i][1]
                if failure is None or consumed < failure[0]:
                    failure = (consumed, i, exc)
        if failure is None:
            return
        element, raiser, exc = failure
        for op, (state, count) in zip(ops, snapshots):
            op.state = state
            op.count = count
        for i, op in enumerate(ops):
            # Operators before the raiser applied the failing element too
            # (push evaluates them first within that element).  Cannot
            # raise: each is a prefix the operator survived.
            op.push_many(chunk[: element + 1 if i < raiser else element])
        raise exc

    def run(self, source: Iterable[Value]) -> Iterator[dict[str, Value]]:
        """One snapshot per element; an empty source yields nothing (use
        :meth:`snapshot` for the defined pre-stream value)."""
        for element in source:
            yield self.push(element)

    def snapshot(self) -> dict[str, Value]:
        return {name: op.value for name, op in self.operators.items()}

    def reset(self) -> None:
        for op in self.operators.values():
            op.reset()

    def checkpoint(self) -> dict:
        """Snapshot every named operator (scheme + state) in one envelope."""
        from .checkpoint import pipeline_checkpoint

        return pipeline_checkpoint(self)

    @classmethod
    def restore(cls, data: dict, *, backend: str | None = None, bounds=None) -> "StreamPipeline":
        from .checkpoint import restore_pipeline

        return restore_pipeline(data, backend=backend, bounds=bounds)


def tumbling(
    scheme: OnlineScheme,
    source: Iterable[Value],
    size: int,
    extra: Mapping[str, Value] | None = None,
) -> Iterator[Value]:
    """One result per non-overlapping window of ``size`` elements (a
    trailing partial window still yields).

    Each window is one :meth:`OnlineOperator.push_many` batch — the whole
    window runs inside the scheme's compiled batch kernel instead of
    ``size`` per-element closure calls, with identical results.  The
    window is fed lazily (``islice`` straight into the kernel loop), so
    memory stays O(1) no matter the window size; ``op.count`` after the
    drain says whether the source still had elements and whether the
    window filled.
    """
    if size <= 0:
        raise ValueError("window size must be positive")
    op = OnlineOperator(scheme, extra)
    it = iter(source)
    while True:
        op.reset()
        op.push_many(itertools.islice(it, size))
        if op.count == 0:
            return
        yield op.value
        if op.count < size:
            return


def sliding(
    scheme: OnlineScheme,
    source: Iterable[Value],
    size: int,
    extra: Mapping[str, Value] | None = None,
) -> Iterator[Value]:
    """One result per element over the trailing window of ``size`` elements.

    Online schemes are append-only (no retraction), so each emission replays
    the window buffer — O(size) per element, O(1) extra state beyond the
    buffer.  This is exactly how append-only sketches are windowed in stream
    processors without invertibility assumptions.
    """
    if size <= 0:
        raise ValueError("window size must be positive")
    buffer: deque[Value] = deque(maxlen=size)
    # One operator for the whole stream, reset per emission: constructing a
    # fresh operator per element would re-resolve the step backend and
    # re-allocate on every emission.
    op = OnlineOperator(scheme, extra)
    for element in source:
        buffer.append(element)
        op.reset()
        op.push_many(buffer)
        yield op.value


def scan(
    scheme: OnlineScheme,
    source: Iterable[Value],
    extra: Mapping[str, Value] | None = None,
) -> Iterator[Value]:
    """The semantics of Figure 8 as a lazy transformer (prefix results)."""
    op = OnlineOperator(scheme, extra)
    for element in source:
        yield op.push(element)


def compare_with_offline(
    scheme: OnlineScheme,
    offline_results: Sequence[Value],
    source: Sequence[Value],
    extra: Mapping[str, Value] | None = None,
) -> bool:
    """Utility for examples/tests: do prefix results match a batch oracle?"""
    from ..ir.values import values_close

    got = list(scan(scheme, source, extra))
    return len(got) == len(offline_results) and all(
        values_close(a, b) for a, b in zip(got, offline_results)
    )
