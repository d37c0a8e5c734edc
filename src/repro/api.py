"""The compile / load / deploy API (the production face of Figure 1).

Synthesis is expensive and runs once; deployment is cheap and runs forever.
This module splits the two cleanly:

* :func:`compile` — batch function in (Python callable, Python source,
  s-expression text, or an IR :class:`~repro.ir.nodes.Program`),
  :class:`CompiledScheme` out.  Transparently backed by the persistent
  synthesis store (:mod:`repro.store`): the first call synthesizes, every
  later call — in this process or any other, and after a ``repro bench``
  run of the same program — is a store hit;
* :class:`CompiledScheme` — the deployable artifact: save/load it as JSON,
  spin up :class:`~repro.runtime.OnlineOperator` /
  :class:`~repro.runtime.KeyedOperator` instances from it, or call it on a
  whole batch;
* :func:`streamify` — a decorator that turns a batch Python function into a
  callable online operator::

      @streamify
      def mean(xs):
          s = 0
          for x in xs:
              s += x
          return s / len(xs)

      mean(3)   # -> 3      (online update, O(1) state)
      mean(5)   # -> 4
      mean.reset()

The module counts actual synthesizer invocations
(:func:`synthesis_count`), so tests — and suspicious operators — can assert
that a deployment path never pays the compilation cost twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

from .core.config import SynthesisConfig
from .core.report import SynthesisReport
from .core.scheme import OnlineScheme
from .core.synthesize import synthesize
from .frontend import function_to_ir, python_to_ir
from .ir.nodes import Program
from .ir.parser import parse_program
from .ir.values import Value
from .runtime.keyed import KeyedOperator
from .runtime.stream import BACKENDS, OnlineOperator, StreamPipeline
from .store import SchemeStore, resolve_store, synthesis_key

#: Sentinel distinguishing "use the default store" from "no store".
_DEFAULT_STORE = object()

#: Module-level count of actual synthesizer invocations (store misses).
_synthesis_calls = 0


def synthesis_count() -> int:
    """How many times :func:`compile` actually invoked the synthesizer in
    this process.  A store-served compile does not increment it."""
    return _synthesis_calls


class CompileError(RuntimeError):
    """Synthesis failed for the given batch function."""

    def __init__(self, name: str, report: SynthesisReport):
        super().__init__(f"could not compile {name!r}: {report.failure_reason}")
        self.report = report


@dataclass
class CompiledScheme:
    """A deployable compilation artifact: scheme + provenance.

    ``from_store`` records whether this instance was served from the
    persistent store (no synthesis ran) — the observable half of the
    compile-once contract.
    """

    scheme: OnlineScheme
    name: str
    key: str | None = None
    from_store: bool = False
    elapsed_s: float = 0.0
    report: SynthesisReport | None = None
    #: The element arity the scheme was compiled for; ``None`` for a scheme
    #: loaded from a file, which records none.
    element_arity: int | None = None

    @cached_property
    def analysis(self) -> dict | None:
        """Static-analysis report (:mod:`repro.ir.analysis`) under
        shape-only bounds for :attr:`element_arity`, computed on first read
        and not stored.  ``None`` when the element arity is unknown."""
        if self.element_arity is None:
            return None
        from .ir.analysis import AnalysisBounds, FieldBounds

        element = tuple(FieldBounds() for _ in range(self.element_arity))
        bounds = AnalysisBounds(element=element, source="compile")
        return self.scheme.analyze(bounds, name=self.name, search_witness=False)

    @property
    def analysis_verdict(self) -> str | None:
        """``"ok"`` / ``"warn"`` / ``"error"``, or ``None`` when :attr:`analysis` is."""
        return None if self.analysis is None else self.analysis.get("verdict")

    # -- persistence ------------------------------------------------------

    def dumps(self) -> str:
        return self.scheme.dumps()

    def save(self, path) -> None:
        """Write the scheme as versioned JSON (``repro run`` input)."""
        self.scheme.save(path)

    @classmethod
    def load(cls, path, name: str = "") -> "CompiledScheme":
        """Load a scheme file back into a deployable artifact.

        ``from_store`` stays ``False``: a file shipped from elsewhere was
        not served by this host's scheme store (keep the compile-once
        observability honest)."""
        scheme = OnlineScheme.load(path)
        return cls(scheme, name or scheme.provenance)

    # -- deployment -------------------------------------------------------

    def operator(
        self,
        extra: Mapping[str, Value] | None = None,
        name: str | None = None,
        *,
        backend: str | None = None,
        bounds=None,
    ) -> OnlineOperator:
        """A fresh stateful operator over this scheme.

        ``backend="auto"`` upgrades batch ingestion to the certificate-
        licensed NumPy columnar kernel when admission grants the
        bit-identical int64 path under ``bounds``.  Unadmitted schemes keep
        the exact kernel.
        """
        return OnlineOperator(
            self.scheme, extra, name or self.name, backend=backend, bounds=bounds
        )

    def keyed(
        self,
        key_fn: Callable[[Value], Value],
        *,
        value_fn: Callable[[Value], Value] | None = None,
        extra: Mapping[str, Value] | None = None,
        backend: str | None = None,
        bounds=None,
    ) -> KeyedOperator:
        """A per-key partitioned operator (group-by deployments).  Keyed
        operators run exact only: ``backend`` is validated, then ignored like
        ``bounds``; both stay so callers can pass :meth:`operator`'s options."""
        if backend is not None and backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        return KeyedOperator(self.scheme, key_fn, value_fn=value_fn, extra=extra, name=self.name)

    def run(
        self, stream: Iterable[Value], extra: Mapping[str, Value] | None = None
    ) -> Iterator[Value]:
        """Lazy prefix results over ``stream`` (Figure 8 semantics)."""
        return self.scheme.run(stream, extra)

    def __call__(self, stream: Iterable[Value], extra: Mapping[str, Value] | None = None) -> Value:
        """Batch application: the final result over ``stream`` — same answer
        as the original batch function, computed in O(1) memory.  The whole
        stream is folded by the scheme's compiled batch
        :class:`~repro.ir.compile.StepKernel` (one generated loop, not one
        closure call per element); ``REPRO_JIT=0`` falls back to the
        interpreter-driven loop with identical results."""
        return self.scheme.final(stream, extra)


def _coerce_program(fn_or_source, name: str | None) -> tuple[Program, str]:
    """Accept a callable, Python source, s-expression text, or a Program."""
    if isinstance(fn_or_source, Program):
        return fn_or_source, name or "program"
    if callable(fn_or_source):
        return function_to_ir(fn_or_source), name or fn_or_source.__name__
    if isinstance(fn_or_source, str):
        stripped = fn_or_source.lstrip()
        if stripped.startswith("(") or stripped.startswith(";"):
            return parse_program(fn_or_source), name or "program"
        return python_to_ir(fn_or_source), name or "program"
    raise TypeError(
        "compile() takes a Python function, Python/s-expression source text, "
        f"or an IR Program, not {type(fn_or_source).__name__}"
    )


def compile(
    fn_or_source,
    *,
    config: SynthesisConfig | None = None,
    store: SchemeStore | None = _DEFAULT_STORE,  # type: ignore[assignment]
    name: str | None = None,
    force: bool = False,
) -> CompiledScheme:
    """Compile a batch function into a deployable online scheme, once.

    Looks the task up in the persistent store first (:mod:`repro.store`,
    keyed by program x solver ``"opera"`` x config x synthesizer
    implementation, under its budget rule); only a miss pays for synthesis,
    and the report is persisted for every future process.  ``store=None``
    disables persistence; ``force=True`` recompiles and overwrites the
    stored entry.  Raises :class:`CompileError` if synthesis fails, or if
    the store holds a failure under at least ``config.timeout_s``.

    The static-analysis report (:attr:`CompiledScheme.analysis`) is
    computed on first read, so compiling never pays for it.
    """
    global _synthesis_calls
    program, task_name = _coerce_program(fn_or_source, name)
    config = config or SynthesisConfig()
    if store is _DEFAULT_STORE:
        store = resolve_store()

    key = synthesis_key("opera", program, config) if store is not None else None
    if store is not None and not force:
        stored = store.get(key, config.timeout_s, task_name)
        if stored is not None:
            if stored.scheme is None:
                raise CompileError(task_name, stored)
            return CompiledScheme(
                stored.scheme,
                task_name,
                key=key,
                from_store=True,
                report=stored,
                element_arity=config.element_arity,
            )

    _synthesis_calls += 1
    report = synthesize(program, config, task_name)
    if store is not None:
        store.put(key, config.timeout_s, report)
    if report.scheme is None:
        raise CompileError(task_name, report)
    return CompiledScheme(
        report.scheme,
        task_name,
        key=key,
        from_store=False,
        elapsed_s=report.elapsed_s,
        report=report,
        element_arity=config.element_arity,
    )


class StreamFunction:
    """What :func:`streamify` returns: a batch function wearing an online
    operator's interface.

    Compilation is lazy (first push / first attribute that needs the
    scheme), so decorating is free and import order cannot trigger a
    synthesis search.  The wrapped batch function stays reachable as
    ``.batch``.
    """

    def __init__(
        self,
        fn: Callable,
        *,
        config: SynthesisConfig | None = None,
        store: SchemeStore | None = _DEFAULT_STORE,  # type: ignore[assignment]
        extra: Mapping[str, Value] | None = None,
    ):
        self.batch = fn
        self.__name__ = getattr(fn, "__name__", "stream_fn")
        self.__doc__ = fn.__doc__
        self._config = config
        self._store = store
        self._extra = dict(extra or {})
        self._compiled: CompiledScheme | None = None
        self._operator: OnlineOperator | None = None

    @property
    def compiled(self) -> CompiledScheme:
        if self._compiled is None:
            self._compiled = compile(
                self.batch, config=self._config, store=self._store, name=self.__name__
            )
        return self._compiled

    @property
    def scheme(self) -> OnlineScheme:
        return self.compiled.scheme

    def _op(self) -> OnlineOperator:
        if self._operator is None:
            self._operator = self.compiled.operator(self._extra)
        return self._operator

    def __call__(self, element: Value) -> Value:
        """Consume one element; returns the updated batch-function value."""
        return self._op().push(element)

    push = __call__

    def push_many(self, elements: Iterable[Value]) -> Value:
        return self._op().push_many(elements)

    @property
    def value(self) -> Value:
        return self._op().value

    @property
    def count(self) -> int:
        return self._op().count

    def reset(self) -> None:
        if self._operator is not None:
            self._operator.reset()

    def operator(self, extra: Mapping[str, Value] | None = None) -> OnlineOperator:
        """A fresh, independent operator (e.g. one per connection)."""
        return self.compiled.operator(extra if extra is not None else self._extra)

    def keyed(self, key_fn, **kwargs) -> KeyedOperator:
        return self.compiled.keyed(key_fn, **kwargs)

    def __repr__(self) -> str:
        status = "compiled" if self._compiled is not None else "lazy"
        return f"<StreamFunction {self.__name__} ({status})>"


def streamify(
    fn: Callable | None = None,
    *,
    config: SynthesisConfig | None = None,
    store: SchemeStore | None = _DEFAULT_STORE,  # type: ignore[assignment]
    extra: Mapping[str, Value] | None = None,
):
    """Decorator form of :func:`compile`; see :class:`StreamFunction`.

    Usable bare (``@streamify``) or with options
    (``@streamify(config=SynthesisConfig(timeout_s=120))``).
    """
    if fn is not None:
        return StreamFunction(fn, config=config, store=store, extra=extra)

    def decorate(f: Callable) -> StreamFunction:
        return StreamFunction(f, config=config, store=store, extra=extra)

    return decorate


__all__ = [
    "CompileError",
    "CompiledScheme",
    "OnlineOperator",
    "StreamFunction",
    "StreamPipeline",
    "compile",
    "streamify",
    "synthesis_count",
]
