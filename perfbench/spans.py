"""An outside-in span recorder: wraps named functions of the program from
the benchmark's own files, so the program itself is not edited.

Each wrapped call opens a span (name, start, end, parent span, operation
id) on entry and closes it on exit.  A span's *self time* is its duration
minus the time its child spans cover; calls are strictly nested in one
thread, so the children's durations never overlap and the subtraction is
exact.  Self time and call counts are aggregated per name as calls close.

Two kinds of span keep memory bounded:

* *kept* spans (layer entry points: a compile, a keyed batch, a serve
  drain) are stored and written out at the end of the run;
* *leaf* spans (per-fragment kernel runs, per-element ring lookups, pipe
  sends) are aggregated only.  They still count as children of the span
  around them, so its self time excludes them.

Patches go on the name *in the module that imports it*: ``from x import f``
binds a copy, so patching ``x.f`` would not reach the caller.  Every patch
is undone by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

#: Marks a patched class attribute that was inherited, not defined there.
_INHERITED = object()
_NONE = (0, 0.0, 0.0)


class _Frame:
    __slots__ = ("name", "start", "child_s", "span")

    def __init__(self, name: str, start: float, span: int):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.span = span  # index into Tracer.spans, or -1 for a leaf


class Tracer:
    """Spans, per-name aggregates, counters and samples of one traced phase."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: Kept spans: ``[name, start, end, parent index or -1, operation]``.
        self.spans: list[list] = []
        #: Per-name ``[calls, self seconds, total seconds]`` over kept and
        #: leaf spans.
        self.totals: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        #: Identifier shared by the spans of one task or batch.
        self.op = 0
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, keep: bool = True) -> _Frame:
        span = -1
        if keep:
            parent = next((f.span for f in reversed(self._stack) if f.span >= 0), -1)
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = _Frame(name, self.clock(), span)
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - a wrapper bug, not data
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        totals = self.totals.get(frame.name)
        if totals is None:
            totals = self.totals[frame.name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration - frame.child_s
        totals[2] += duration
        self._depth[frame.name] -= 1
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.span >= 0:
            record = self.spans[frame.span]
            record[1] = frame.start
            record[2] = end
        return duration

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return self._depth.get(name, 0) > 0

    # -- counts --------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def calls(self, name: str) -> int:
        return self.totals.get(name, _NONE)[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, _NONE)[1]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, _NONE)[2]

    # -- patching ------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        keep: bool = True,
        after: Callable[["Tracer", Any, tuple, dict], None] | None = None,
    ) -> Callable:
        """``fn`` inside a span; ``after(tracer, result, args, kwargs)`` runs
        once the span is closed, to count what the call returned."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute) by
        its traced version until :meth:`restore`."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, **options))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr`` by ``value`` until :meth:`restore`.  On a
        class, an inherited attribute is shadowed, then un-shadowed."""
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def self_total_s(self) -> float:
        return sum(entry[1] for entry in self.totals.values())

    def write(self, path: Path) -> None:
        """Kept spans as JSON lines, then one summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
            out.write(json.dumps({"totals": self.totals, "counters": self.counters}) + "\n")

