"""Online schemes and their stream semantics (Figures 7 and 8).

An online scheme is a pair ``(I, P')`` of an initializer tuple and an online
program.  This module implements the big-step semantics of Figure 8 —
running a scheme over a finite stream yields the stream of first components —
plus convenience helpers used by the runtime, the equivalence oracle, and the
examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..ir.compile import (
    IRCompileError,
    StepKernel,
    compile_keyed_batch,
    compile_online_step,
    compile_step_batch,
    expr_evaluator,
    jit_enabled,
    kernel_partial,
)
from ..ir.evaluator import step_online
from ..ir.nodes import OnlineProgram
from ..ir.pretty import pretty_online
from ..ir.values import Value

#: Cache marker: the program was tried and cannot be compiled (holes etc.);
#: the scheme then runs on the interpreter without retrying per resolve.
_UNCOMPILABLE = object()
#: Cache marker: the program has no read-out to split off.
_UNSPLIT = object()


def _same(state: tuple) -> tuple:
    return state


class BatchPlan:
    """What the batch tiers of an operator run.  ``scheme`` is the scheme
    the kernel, its columnar upgrade and the keyed loop compile: the scheme
    itself, or, when its first component is a read-out
    (:func:`repro.ir.analysis.split_readout`), a scheme over the other
    components.  ``to_acc`` maps a full state to the state ``scheme`` folds
    and ``to_state`` maps a folded state back, the read-out computed as
    ``g(acc)``; both are the identity without a read-out."""

    __slots__ = ("scheme", "to_acc", "to_state")

    def __init__(self, scheme: "OnlineScheme", to_acc=_same, to_state=_same) -> None:
        self.scheme = scheme
        self.to_acc = to_acc
        self.to_state = to_state

    @property
    def split(self) -> bool:
        return self.to_state is not _same


def _readout_plan(accumulators: "OnlineScheme", readout, order: tuple[int, ...]) -> BatchPlan:
    """The plan of a read-out split.  ``order`` is the full-state index of
    each accumulator: they run in the read-out's evaluation order, a
    scheme's state in program order.  The read-out is resolved, like a
    kernel, from ``REPRO_JIT`` when the plan is made."""
    names = accumulators.program.state_params
    evaluate = expr_evaluator(readout, names)
    if order == tuple(range(1, len(order) + 1)):
        return BatchPlan(
            accumulators,
            lambda state: state[1:],
            lambda acc: (evaluate(dict(zip(names, acc))),) + acc,
        )
    back = itemgetter(*sorted(range(len(order)), key=order.__getitem__))
    return BatchPlan(
        accumulators,
        itemgetter(*order),
        lambda acc: (evaluate(dict(zip(names, acc))),) + back(acc),
    )


@dataclass
class OnlineScheme:
    """``S = (I, P')`` with optional provenance metadata."""

    initializer: tuple[Value, ...]
    program: OnlineProgram
    #: Human-readable note on how the scheme was obtained (for reports).
    #: Excluded from equality: two schemes that compute the same thing are
    #: the same scheme regardless of where they came from.
    provenance: str = field(default="synthesized", compare=False)
    #: Lazily-built native closure for ``program`` (see
    #: :mod:`repro.ir.compile`).  Per-instance, so deserializing a scheme
    #: starts with a cold cache; dropped on pickling (closures are process
    #: artifacts, not data).
    _compiled_step: object = field(default=None, init=False, repr=False, compare=False)
    #: Lazily-built whole-batch kernel (see
    #: :func:`repro.ir.compile.compile_step_batch`); same lifecycle as
    #: ``_compiled_step`` — per-instance, cold after deserialization,
    #: dropped on pickling.
    _compiled_kernel: object = field(default=None, init=False, repr=False, compare=False)
    #: Lazily-built keyed loop (:meth:`_resolve_keyed_loop`); same lifecycle.
    _compiled_keyed: object = field(default=None, init=False, repr=False, compare=False)
    #: Lazily-built columnar kernels, one entry per distinct
    #: ``(bounds, jit_enabled())`` request (see :meth:`compiled_columns`);
    #: same lifecycle as the other caches.
    _columnar_cache: list = field(default_factory=list, init=False, repr=False, compare=False)
    #: Lazily-analysed read-out split (:meth:`batch_plan`): the accumulator
    #: scheme, the read-out and the accumulators' order, or ``_UNSPLIT``.
    _split: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.initializer) != self.program.arity:
            raise ValueError(
                f"initializer arity {len(self.initializer)} != "
                f"program arity {self.program.arity}"
            )

    @property
    def arity(self) -> int:
        return self.program.arity

    # -- execution backends ------------------------------------------------

    def compiled_step(
        self,
    ) -> Callable[[Sequence[Value], Value, Mapping[str, Value] | None], tuple]:
        """The online program as a compiled native closure
        ``step(state, element, extra=None)``, built once and cached.

        Raises :class:`~repro.ir.compile.IRCompileError` if the program
        cannot be compiled (e.g. it still contains sketch holes); the
        interpreter remains available through :meth:`interpreted_step`.
        """
        return self._cached(
            "_compiled_step",
            lambda: compile_online_step(self.program, name=self.provenance),
            "compilable",
        )

    def interpreted_step(
        self,
        state: Sequence[Value],
        element: Value,
        extra: Mapping[str, Value] | None = None,
    ) -> tuple[Value, ...]:
        """One transition on the tree-walking interpreter (the ground truth
        the compiled backend is differential-tested against)."""
        return step_online(self.program, state, element, extra)

    def compiled_kernel(self) -> StepKernel:
        """The whole-batch execution plan as a codegen-backed
        :class:`~repro.ir.compile.StepKernel`, built once and cached.

        Raises :class:`~repro.ir.compile.IRCompileError` when the program
        cannot be batch-compiled (holes, or a shape the loop transformation
        declines); :meth:`_resolve_kernel` then drives the resolved scalar
        step from the generic loop instead.
        """
        return self._cached(
            "_compiled_kernel",
            lambda: compile_step_batch(self.program, name=self.provenance),
            "batch-compilable",
        )

    def _cached(self, attr: str, build: Callable, what: str):
        """``build()`` once per scheme, cached in ``attr``; a program that
        cannot be compiled is remembered and re-raises without retrying."""
        cached = getattr(self, attr)
        if cached is None:
            try:
                cached = build()
            except IRCompileError:
                cached = _UNCOMPILABLE
            setattr(self, attr, cached)
        if cached is _UNCOMPILABLE:
            raise IRCompileError(f"online program of {self.provenance!r} is not {what}")
        return cached

    def compiled_columns(self, bounds=None):
        """The certificate-licensed columnar (NumPy) kernel for this scheme
        under ``bounds``, or ``None`` when the fast path is unavailable.

        ``None`` means: NumPy is not installed, the scheme is not
        scan-decomposable, or admission (see
        :func:`repro.ir.vectorize.admit_columnar`) did not yield the
        ``int64`` certificate.  Callers fall back to
        :meth:`_resolve_kernel` — the columnar path never changes what a
        scheme computes, only how fast the admitted ones run.  Results are
        cached per ``(bounds, jit_enabled())`` request, so the exact kernel
        a columnar one falls back to honours ``REPRO_JIT`` like
        :meth:`_resolve_kernel` does.
        """
        from ..ir.vectorize import columnar_kernel_for, numpy_or_none

        if numpy_or_none() is None:
            # Checked before the cache so REPRO_NO_NUMPY keeps working after
            # a kernel was compiled (the degraded-path tests flip it live).
            return None
        jit = jit_enabled()
        for cached_bounds, cached_jit, kernel in self._columnar_cache:
            if cached_bounds == bounds and cached_jit == jit:
                return kernel
        kernel = columnar_kernel_for(self, bounds)
        self._columnar_cache.append((bounds, jit, kernel))
        return kernel

    def _resolve_step(
        self,
    ) -> Callable[[Sequence[Value], Value, Mapping[str, Value] | None], tuple]:
        """The step callable honouring the ``REPRO_JIT`` escape hatch, with
        automatic interpreter fallback for uncompilable programs."""
        if jit_enabled():
            try:
                return self.compiled_step()
            except IRCompileError:
                pass
        return self.interpreted_step

    def _resolve_kernel(self) -> StepKernel:
        """The batch execution plan with the same contract as
        :meth:`_resolve_step`: the codegen-backed kernel by default, an
        interpreter-driven (or scalar-closure-driven) loop under
        ``REPRO_JIT=0`` or when batch codegen declines — always
        bit-for-bit identical results over exact rationals."""
        if jit_enabled():
            try:
                return self.compiled_kernel()
            except IRCompileError:
                pass
        return StepKernel.from_step(self._resolve_step(), name=self.provenance)

    def _resolve_keyed_loop(self) -> StepKernel:
        """The group-by batch loop (:func:`~repro.ir.compile.compile_keyed_batch`,
        cached) with the contract of :meth:`_resolve_kernel`."""
        if jit_enabled():
            try:
                return self._cached(
                    "_compiled_keyed",
                    lambda: compile_keyed_batch(self.program, self.initializer, self.provenance),
                    "batch-compilable",
                )
            except IRCompileError:
                pass
        return StepKernel.keyed_from_step(self._resolve_step(), self.initializer, self.provenance)

    def batch_plan(self) -> BatchPlan:
        """What an operator's batch tiers (the kernel, its columnar upgrade,
        the keyed loop) and :meth:`final` run: the accumulators of this
        scheme's read-out split, or the scheme itself.  The split is
        analysed once per scheme; nothing about it is persisted."""
        if self._split is None:
            from ..ir.analysis import split_readout

            split = split_readout(self.program, self.initializer)
            if split is None:
                self._split = _UNSPLIT
            else:
                accumulators = OnlineScheme(
                    split.initializer, split.accumulators, provenance=self.provenance
                )
                accumulators._split = _UNSPLIT
                order = tuple(
                    self.program.state_params.index(name)
                    for name in split.accumulators.state_params
                )
                self._split = (accumulators, split.readout, order)
        if self._split is _UNSPLIT:
            return BatchPlan(self)
        return _readout_plan(*self._split)

    def columnar_admission(self, bounds=None):
        """The columnar admission verdict (:func:`repro.ir.vectorize.admit_columnar`)
        for what an ``auto`` operator batches (see :meth:`batch_plan`)."""
        from ..ir.vectorize import admit_columnar

        batch = self.batch_plan().scheme
        return admit_columnar(batch.program, batch.initializer, bounds)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_compiled_step"] = None  # exec'd closures do not pickle
        state["_compiled_kernel"] = None
        state["_compiled_keyed"] = None
        state["_columnar_cache"] = []
        state["_split"] = None
        return state

    # -- semantics ---------------------------------------------------------

    def step(
        self,
        state: Sequence[Value],
        element: Value,
        extra: Mapping[str, Value] | None = None,
    ) -> tuple[Value, ...]:
        """One S-Cons transition: ``(state, element) -> state'``."""
        return self._resolve_step()(state, element, extra)

    def run(
        self,
        stream: Iterable[Value],
        extra: Mapping[str, Value] | None = None,
    ) -> Iterator[Value]:
        """Lazy semantics of Figure 8: yields ``fst`` of each new state.

        For the empty stream this yields the single value ``fst(I)``
        (rule Lift-Nil); otherwise one output per consumed element
        (rule S-Cons via Lift-Cons).
        """
        step = self._resolve_step()
        state = self.initializer
        consumed = False
        for element in stream:
            consumed = True
            state = step(state, element, extra)
            yield state[0]
        if not consumed:
            yield self.initializer[0]

    def run_to_list(
        self,
        stream: Iterable[Value],
        extra: Mapping[str, Value] | None = None,
    ) -> list[Value]:
        return list(self.run(stream, extra))

    def final(
        self,
        stream: Iterable[Value],
        extra: Mapping[str, Value] | None = None,
    ) -> Value:
        """``last([[S]]_stream)`` — the value compared against the offline
        program in Definition 3.3.

        Routed through the batch kernel: the whole stream is folded by one
        compiled loop (see :meth:`_resolve_kernel`) instead of a per-element
        closure call, with identical results.  A read-out
        (:meth:`batch_plan`) is evaluated once, at the end.
        """
        plan = self.batch_plan()
        start = plan.to_acc(self.initializer)
        try:
            acc, consumed = plan.scheme._resolve_kernel().run(start, stream, extra)
        except BaseException as exc:
            # Strip the kernel's partial-progress marker: nothing on this
            # path resumes, and the caught exception must not keep the
            # accumulator state alive (or leak a private side channel).
            kernel_partial(exc, start)
            raise
        return plan.to_state(acc)[0] if consumed else self.initializer[0]

    def trajectory(
        self,
        stream: Iterable[Value],
        extra: Mapping[str, Value] | None = None,
    ) -> list[tuple[Value, ...]]:
        """Full accumulator states after each element (used by the
        inductiveness property tests)."""
        step = self._resolve_step()
        states = [self.initializer]
        state = self.initializer
        for element in stream:
            state = step(state, element, extra)
            states.append(state)
        return states

    def describe(self) -> str:
        init = ", ".join(repr(v) for v in self.initializer)
        return f"initializer: ({init})\nprogram:\n{pretty_online(self.program)}"

    # -- static analysis ---------------------------------------------------

    def analyze(
        self,
        bounds=None,
        name: str | None = None,
        search_witness: bool = True,
    ) -> dict:
        """Run the full static-analysis suite over this scheme.

        Returns the versioned report dict of
        :func:`repro.ir.analysis.report.analyze_online` — verdict
        (``ok``/``warn``/``error``), interval certificates, div-by-zero
        reachability, liveness, well-formedness findings.
        """
        from ..ir.analysis import UNKNOWN_BOUNDS, analyze_online

        return analyze_online(
            self.program,
            self.initializer,
            bounds if bounds is not None else UNKNOWN_BOUNDS,
            name=name,
            search_witness=search_witness,
        )

    def eliminate_dead_state(
        self, element_arity: int | None = None
    ) -> tuple["OnlineScheme", tuple[str, ...]]:
        """Drop dead state components whose updates are provably total.

        Returns ``(scheme, removed_names)``; when nothing is safely
        removable the original scheme object is returned unchanged.  The
        rewrite is fault-preserving by construction (only total updates are
        dropped), so the result is bit-identical on every stream —
        differential tests enforce this on all ground truths.
        """
        from dataclasses import replace

        from ..ir.analysis import eliminate_dead_state as _eds

        program, initializer, removed = _eds(self.program, self.initializer, element_arity)
        if not removed:
            return self, ()
        rewritten = replace(self, initializer=initializer, program=program)
        rewritten.provenance = f"{self.provenance} (dead state removed: {', '.join(removed)})"
        return rewritten, removed

    # -- serialization (compile once, deploy anywhere) --------------------

    def to_dict(self) -> dict:
        """JSON-ready envelope (see :mod:`repro.core.serialize`)."""
        from .serialize import scheme_to_dict

        return scheme_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OnlineScheme":
        from .serialize import scheme_from_dict

        return scheme_from_dict(data)

    def dumps(self, *, indent: int | None = 2) -> str:
        """Serialize to versioned JSON text; exact values (rationals included)
        survive the round trip bit-for-bit."""
        from .serialize import dumps_scheme

        return dumps_scheme(self, indent=indent)

    @classmethod
    def loads(cls, text: str) -> "OnlineScheme":
        """Parse :meth:`dumps` output with strict validation
        (:class:`repro.core.serialize.SchemeFormatError` on anything off)."""
        from .serialize import loads_scheme

        return loads_scheme(text)

    def save(self, path) -> None:
        """Write :meth:`dumps` to ``path`` (text, UTF-8)."""
        from pathlib import Path

        Path(path).write_text(self.dumps() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "OnlineScheme":
        """Read a scheme previously written by :meth:`save`
        (:class:`repro.core.serialize.SchemeFormatError` on a file that is
        not UTF-8 text, or on anything :meth:`loads` refuses)."""
        from pathlib import Path

        from .serialize import SchemeFormatError

        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SchemeFormatError(f"not UTF-8 text: {exc}") from None
        return cls.loads(text)
