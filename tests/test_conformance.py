"""Backend conformance: every execution path against the interpreter.

The tree-walking interpreter is the single semantic oracle.  Each case
folds one stream through one execution path and compares the result with
a fold of :meth:`OnlineScheme.interpreted_step` over the same elements
(``push`` compares every intermediate state), never with another backend.
The comparison is bit-for-bit (values and Python types).  When the
interpreter raises, the path must raise the same exception class
having consumed the same elements, with the state it had before the
failing one: exact or loud.

Case ids name the four axes, ``[jit-backend-scheme-family]``; slice with
``-k``, e.g. ``-k "keyed and variance"`` or ``-k poisoned``.  Adding a
backend or a stream family is one entry in ``BACKENDS`` or ``FAMILIES``;
``BACKENDS`` also says which combinations could only repeat another.
The columnar backends skip when NumPy is absent.

A fifth axis, the wire form, is its own test,
``test_canonical_wire_matches_interpreter``: each scheme the
representation-blind license admits runs every backend over the stream
as a serve worker receives it in the canonical wire form (integral
``Fraction`` values as ints), against the interpreter's fold of the
``Fraction`` stream, compared in checkpoint encoding.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from types import SimpleNamespace

import pytest
from differential import (
    adversarial_stream,
    assert_same_value,
    canonical_stream,
    extras_for,
    integral_stream,
    small_int_stream,
)
from test_ir_compile import random_candidate

from repro.core.scheme import OnlineScheme
from repro.core.serialize import encode_value
from repro.ir.analysis import AnalysisBounds, FieldBounds, element_blind
from repro.ir.nodes import Call, Const, OnlineProgram, Var
from repro.ir.compile import kernel_partial
from repro.ir.vectorize import admit_columnar, numpy_or_none
from repro.runtime import KeyedOperator, OnlineOperator
from repro.runtime.checkpoint import load_checkpoint
from repro.runtime.stream import tumbling
from repro.suites import all_benchmarks

N, WINDOW, KEYS = 10, 4, 3
CHUNKS = (0, 1, 3, 7, 11)  # then the rest
LONGEST = sum(CHUNKS) + 4


def _random_scheme(seed: int) -> tuple[OnlineScheme, int]:
    """Two state components updated by seeded random candidates."""
    rng = random.Random(seed)
    outputs = tuple(random_candidate(rng, ("y1", "y2", "x"), 2) for _ in range(2))
    program = OnlineProgram(("y1", "y2"), "x", outputs)
    return OnlineScheme((0, 1), program, provenance=f"random-{seed}"), 1


def _mixed_constants_scheme() -> tuple[OnlineScheme, int]:
    """Outputs that differ only in a constant's type (``0``/``False``,
    ``1``/``1.0``): a backend that shares one result between them is caught."""
    x, s = Var("x"), Var("s")
    outputs = (
        Call("max", (x, Const(0))),
        Call("max", (x, Const(False))),
        Call("add", (s, Call("mul", (x, Const(1))))),
        Call("add", (s, Call("mul", (x, Const(1.0))))),
    )
    program = OnlineProgram(("m", "f", "s", "t"), "x", outputs)
    return OnlineScheme((0, 0, 0, 0), program, provenance="mixed-constants"), 1


#: name -> (scheme, element arity)
SCHEMES = {b.name: (b.ground_truth, b.element_arity) for b in all_benchmarks()}
SCHEMES.update({f"random-{seed}": _random_scheme(seed) for seed in range(2)})
SCHEMES["mixed-constants"] = _mixed_constants_scheme()


def _chunked(arity):
    elements = small_int_stream(arity, LONGEST)
    elements[::3] = integral_stream(arity, LONGEST)[::3]  # int and Fraction payloads
    return elements, CHUNKS


def _poisoned(arity):
    elements = adversarial_stream(arity, "poisoned", N)
    elements[N // 2] = "poison" if arity <= 1 else ("poison", 1)
    return elements, None


#: family -> arity -> (elements, chunk sizes, or None for one batch)
FAMILIES = {
    "adversarial": lambda arity: (adversarial_stream(arity, "conformance", N), None),
    "integral": lambda arity: (integral_stream(arity, N), None),
    "small-int": lambda arity: (small_int_stream(arity, N), None),
    "empty": lambda arity: ([], None),
    "chunked": _chunked,
    "poisoned": _poisoned,
}


def batches(elements, chunks):
    if chunks is None:
        return [elements]
    starts = [sum(chunks[:i]) for i in range(len(chunks) + 1)]
    return [elements[a:b] for a, b in zip(starts, starts[1:])] + [elements[starts[-1] :]]


def declared_bounds(arity, extra) -> AnalysisBounds:
    """What a source would declare to the columnar backends: the integral
    families' ranges.  Adversarial and poisoned streams break it, so their
    batches must bail to the exact kernel."""
    fields = (FieldBounds(-20, 80, True), FieldBounds(0, 4, True))
    extras = {name: FieldBounds(v, v, True) for name, v in extra.items()}
    return AnalysisBounds(element=fields[: max(arity, 1)], max_elements=LONGEST, extras=extras)


# -- the oracle ---------------------------------------------------------------

#: What a run observed, the elements it consumed (None where the path
#: cannot tell) and the exception class it raised.
Outcome = namedtuple("Outcome", "observed consumed raised", defaults=(None,))


def trajectory_fold(scheme, elements, extra) -> Outcome:
    """Every state the interpreter passes through, up to the first failure."""
    states = [scheme.initializer]
    for i, element in enumerate(elements):
        try:
            states.append(scheme.interpreted_step(states[-1], element, extra))
        except Exception as exc:  # noqa: BLE001 - the class is the contract
            return Outcome(states, i, type(exc))
    return Outcome(states, len(elements))


def interpreted_fold(scheme, elements, extra) -> Outcome:
    states, consumed, raised = trajectory_fold(scheme, elements, extra)
    return Outcome(states[-1], consumed, raised)


def keyed_fold(scheme, elements, extra) -> Outcome:
    """One fold per key, in arrival order, up to the first failing element."""
    parts: dict = {}
    for i, (payload, key) in enumerate(elements):
        state, count = parts.get(key, (scheme.initializer, 0))
        try:
            parts[key] = (scheme.interpreted_step(state, payload, extra), count + 1)
        except Exception as exc:  # noqa: BLE001
            return Outcome([(k, *v) for k, v in parts.items()], i, type(exc))
    return Outcome([(k, *v) for k, v in parts.items()], len(elements))


def window_fold(scheme, elements, extra) -> Outcome:
    """One fold per tumbling window, up to the first failing window."""
    values = []
    for start in range(0, len(elements), WINDOW):
        state, consumed, raised = interpreted_fold(scheme, elements[start : start + WINDOW], extra)
        if raised is not None:
            return Outcome(values, start + consumed, raised)
        values.append(state[0])
    return Outcome(values, len(elements))


# -- the execution paths ------------------------------------------------------


def drain(op, delivery, push=None, observe=lambda op: op.state) -> Outcome:
    """Push each batch of ``delivery``; stop at the first exception, as a
    caller would."""
    for batch in delivery:
        try:
            (push or op.push_many)(batch)
        except Exception as exc:  # noqa: BLE001
            return Outcome(observe(op), op.count, type(exc))
    return Outcome(observe(op), op.count)


def run_push(case) -> Outcome:
    """Every intermediate state, one element at a time."""
    op = OnlineOperator(case.scheme, case.extra)
    assert (op._step == case.scheme.interpreted_step) is not case.jit
    states = [op.state]

    def push(batch):
        op.push(*batch)
        states.append(op.state)

    return drain(op, [[e] for e in case.elements], push, observe=lambda op: states)


def run_push_many(case) -> Outcome:
    op = OnlineOperator(case.scheme, case.extra)
    assert op._kernel.compiled is case.jit
    assert (op._kernel.source is not None) is case.jit
    return drain(op, batches(case.elements, case.chunks))


def run_auto(case) -> Outcome:
    bounds = declared_bounds(case.arity, case.extra)
    op = OnlineOperator(case.scheme, case.extra, backend="auto", bounds=bounds)
    # The exact kernel, a columnar kernel's fallback included, honours REPRO_JIT.
    exact = op._kernel.exact if op.backend_in_use == "columnar" else op._kernel
    assert exact.compiled is case.jit
    return drain(op, batches(case.elements, case.chunks))


def run_auto_ungated(case) -> Outcome:
    case.request.getfixturevalue("ungated")
    return run_auto(case)


def run_columnar(case) -> Outcome:
    """The kernel ``auto`` resolves to, driven bare through the StepKernel
    contract with no operator around it: the int64 kernel where admission
    certifies the scheme, else the exact kernel, and a decline says why."""
    bounds = declared_bounds(case.arity, case.extra)
    admission = admit_columnar(case.scheme.program, case.scheme.initializer, bounds)
    kernel = case.scheme.compiled_columns(bounds)
    assert (kernel is not None) is admission.admitted, admission
    if kernel is None:
        assert admission.verdict == "uncertified" and admission.reason
        kernel = case.scheme._resolve_kernel()
    state, consumed = case.scheme.initializer, 0
    for batch in batches(case.elements, case.chunks):
        try:
            state, n = kernel.run(state, batch, case.extra)
        except Exception as exc:  # noqa: BLE001
            state, n = kernel_partial(exc, state)
            return Outcome(state, consumed + n, type(exc))
        consumed += n
    return Outcome(state, consumed)


def run_keyed(case) -> Outcome:
    op = KeyedOperator(case.scheme, lambda e: e[1], value_fn=lambda e: e[0], extra=case.extra)
    assert op._loop.compiled is case.jit
    assert (op._loop.source is not None) is case.jit
    observe = lambda op: [(k, p.state, p.count) for k, p in op.partitions.items()]  # noqa: E731
    return drain(op, batches(case.elements, case.chunks), observe=observe)


def run_checkpoint(case) -> Outcome:
    """Save and load once, after the batch that reaches mid-stream (one
    batch is split there) or after a failure; then resume.  A plain write:
    ``test_checkpoint_atomic`` covers ``save_checkpoint``'s durable one."""
    path = case.tmp_dir / "conformance.ck.json"
    middle = len(case.elements) // 2
    op, pushed, saved = OnlineOperator(case.scheme, case.extra), 0, False
    for batch in batches(case.elements, case.chunks or (middle,)):
        outcome = drain(op, [batch])
        pushed += len(batch)
        if not saved and (pushed >= middle or outcome.raised):
            path.write_text(json.dumps(op.checkpoint()))
            op, saved = load_checkpoint(path), True
        if outcome.raised:
            return Outcome(op.state, op.count, outcome.raised)
    return Outcome(op.state, op.count)


def run_tumbling(case) -> Outcome:
    values = []
    try:
        for value in tumbling(case.scheme, case.elements, WINDOW, case.extra):
            values.append(value)
    except Exception as exc:  # noqa: BLE001
        return Outcome(values, None, type(exc))
    return Outcome(values, None)


Backend = namedtuple("Backend", "run fold columnar nojit skips")

#: backend -> the path, the interpreter fold it must equal, whether it is
#: columnar (needs NumPy), whether it has a ``nojit`` case, and the families
#: it skips.  Cases that could only repeat another are left out: ``nojit``
#: runs only where ``REPRO_JIT`` selects the code under test, the scalar
#: step, the batch kernel, the keyed loop and the exact kernel a columnar
#: one falls back to (a scheme caches one columnar kernel per jit mode).
#: ``columnar`` drives the kernel that ``auto`` resolves to, so it has no
#: ``nojit`` case.  Checkpoint and tumbling run on the plain batch kernel.
#: ``chunked`` is skipped where batch boundaries are ignored, ``empty``
#: where no scheme code runs on it.
BACKENDS = {
    "push": Backend(run_push, trajectory_fold, False, True, {"chunked", "empty"}),
    "push_many": Backend(run_push_many, interpreted_fold, False, True, set()),
    "auto": Backend(run_auto, interpreted_fold, True, True, {"empty"}),
    "auto-ungated": Backend(run_auto_ungated, interpreted_fold, True, True, {"empty"}),
    "columnar": Backend(run_columnar, interpreted_fold, True, False, {"empty"}),
    "keyed": Backend(run_keyed, keyed_fold, False, True, set()),
    "checkpoint": Backend(run_checkpoint, interpreted_fold, False, False, set()),
    "tumbling": Backend(run_tumbling, window_fold, False, False, {"chunked", "empty"}),
}


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """A checkpoint directory, and the interpreter outcomes by (fold,
    scheme, family): each fold runs once, whatever the backend and jit."""
    return SimpleNamespace(tmp_dir=tmp_path_factory.mktemp("conformance"), folds={})


#: The schemes the canonical wire form may serve, and the families holding
#: integral Fractions (on the others the form changes nothing).
CANONICAL_SCHEMES = [name for name, (scheme, _) in SCHEMES.items()
                     if element_blind(scheme.program)]
CANONICAL_FAMILIES = ("adversarial", "integral", "chunked", "poisoned")


def _cases(names=SCHEMES, families=FAMILIES):
    for jit, jit_id in (("1", "jit"), ("0", "nojit")):
        for backend, spec in BACKENDS.items():
            if jit == "0" and not spec.nojit:
                continue
            for name in names:
                for family in (f for f in families if f not in spec.skips):
                    yield pytest.param(
                        jit, backend, name, family, id=f"{jit_id}-{backend}-{name}-{family}"
                    )


def _run_case(jit_mode, backend, name, family, request, shared, *, canonical=False):
    """One backend's outcome and the interpreter's, over the family's
    stream; with ``canonical``, the backend gets the stream as the
    canonical wire form delivers it and the interpreter the original."""
    run, fold, columnar, _, _ = BACKENDS[backend]
    if columnar and numpy_or_none() is None:
        pytest.skip("NumPy not installed")
    scheme, arity = SCHEMES[name]
    extra = extras_for(scheme)
    elements, chunks = FAMILIES[family](arity)
    if backend == "keyed":
        elements = [(element, i % KEYS) for i, element in enumerate(elements)]
    case = SimpleNamespace(
        scheme=scheme, arity=arity, extra=extra, chunks=chunks, jit=jit_mode,
        elements=canonical_stream(elements) if canonical else elements,
        request=request, tmp_dir=shared.tmp_dir,
    )
    got = run(case)
    base = trajectory_fold if fold is interpreted_fold else fold
    if (base, name, family) not in shared.folds:
        shared.folds[base, name, family] = base(scheme, elements, extra)
    want = shared.folds[base, name, family]
    if fold is interpreted_fold:
        want = want._replace(observed=want.observed[-1])
    where = f"{backend} {name} {family}"
    assert got.raised is want.raised, f"{where}: raised {got.raised} vs {want.raised}"
    assert got.consumed in (None, want.consumed), f"{where}: consumed {got.consumed}"
    return got, want, where


@pytest.mark.parametrize("jit_mode,backend,name,family", list(_cases()), indirect=["jit_mode"])
def test_matches_interpreter(jit_mode, backend, name, family, request, shared):
    got, want, where = _run_case(jit_mode, backend, name, family, request, shared)
    assert_same_value(got.observed, want.observed, where)


@pytest.mark.parametrize(
    "jit_mode,backend,name,family",
    list(_cases(CANONICAL_SCHEMES, CANONICAL_FAMILIES)),
    indirect=["jit_mode"],
)
def test_canonical_wire_matches_interpreter(jit_mode, backend, name, family, request, shared):
    got, want, where = _run_case(
        jit_mode, backend, name, family, request, shared, canonical=True
    )
    assert encode_value(got.observed) == encode_value(want.observed), where


def test_canonical_wire_axis_is_not_vacuous():
    """The licensed schemes include the suite's moment aggregates, and the
    canonical families hold integral Fractions the wire turns into ints."""
    assert {"sum", "count", "mean", "variance"} <= set(CANONICAL_SCHEMES)
    assert not {"last", "min", "max", "range"} & set(CANONICAL_SCHEMES)
    for family in CANONICAL_FAMILIES:
        streams = [FAMILIES[family](arity)[0] for arity in (1, 2)]
        assert any(
            encode_value(canonical_stream(elements)) != encode_value(elements)
            for elements in streams
        ), family


@pytest.mark.skipif(numpy_or_none() is None, reason="NumPy not installed")
def test_columnar_axis_reaches_every_admission_outcome():
    """The columnar backends are not vacuous: under the declared bounds the
    corpus has int64-certified schemes and declined ones."""
    kernels = [
        scheme.compiled_columns(declared_bounds(arity, extras_for(scheme)))
        for scheme, arity in SCHEMES.values()
    ]
    assert sum(kernel is not None for kernel in kernels) >= 10
    assert None in kernels
