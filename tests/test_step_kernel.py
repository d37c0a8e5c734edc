"""Differential tests for batch-compiled step kernels.

The :class:`~repro.ir.compile.StepKernel` plan claims to be *semantically
invisible*: ``push_many`` through a kernel — the codegen-compiled batch
loop or the interpreter-driven fallback, alone or drained per operator
by a pipeline — must
equal sequential per-element ``push`` bit-for-bit over exact rationals
(states, outputs, counts, exception classes, partial progress on failure).
These tests enforce the claim on every ground-truth scheme of the suite,
jit on and off, including keyed and checkpoint-resume paths, over mixed
int/Fraction streams and over the integral ``Fraction(k)`` streams the
built-in sources yield.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from repro.core.scheme import OnlineScheme
from repro.ir.compile import (
    IRCompileError,
    StepKernel,
    compile_online_step,
    compile_step_batch,
    kernel_partial,
)
from repro.ir.dsl import add, eq, ite, mul
from repro.ir.evaluator import EvaluationError
from repro.ir.nodes import OnlineProgram, Var
from repro.runtime import KeyedOperator, OnlineOperator, StreamPipeline
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.suites import all_benchmarks, get_benchmark


def assert_same_value(a, b, where=""):
    """Bit-for-bit: equal values of identical Python types, recursively."""
    assert type(a) is type(b), (
        f"{where}: {type(a).__name__} != {type(b).__name__} ({a!r} vs {b!r})"
    )
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b), f"{where}: {a!r} vs {b!r}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_value(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and a != a:
        assert b != b, f"{where}: nan vs {b!r}"
    else:
        assert a == b, f"{where}: {a!r} != {b!r}"


def ground_truths():
    return [b for b in all_benchmarks() if b.ground_truth is not None]


def stream_for(bench, n=60):
    """Zeros, negatives, denominator-1 fractions, int/Fraction mixes."""
    scalars = []
    for i in range(n):
        if i % 4 == 0:
            scalars.append(i % 5 - 2)
        elif i % 4 == 1:
            scalars.append(Fraction(i % 7 - 3, 1 + i % 3))
        elif i % 4 == 2:
            scalars.append(Fraction(i % 9, 1))
        else:
            scalars.append(0)
    if bench.element_arity <= 1:
        return scalars
    return [(value, (i * 3) % 4) for i, value in enumerate(scalars)]


def integral_fraction_stream(bench, n=60):
    """``Fraction(k)`` values with int keys: the shape of every built-in
    source (``repro.runtime.sources``), which the fast paths unwrap."""
    scalars = [Fraction((i * 37) % 101 - 20) for i in range(n)]
    if bench.element_arity <= 1:
        return scalars
    return [(value, (i * 3) % 4) for i, value in enumerate(scalars)]


def extras_for(scheme):
    return {name: 500 for name in scheme.program.extra_params}


class TestBatchKernelEquivalence:
    def test_push_many_equals_push_on_all_ground_truths(self, jit_mode):
        for bench in ground_truths():
            scheme = bench.ground_truth
            extra = extras_for(scheme)
            for elements in (stream_for(bench), integral_fraction_stream(bench)):
                batched = OnlineOperator(scheme, extra)
                stepped = OnlineOperator(scheme, extra)
                oracle = scheme.initializer
                batched.push_many(elements)
                for element in elements:
                    stepped.push(element)
                    oracle = scheme.interpreted_step(oracle, element, extra)
                assert_same_value(batched.state, stepped.state, bench.name)
                assert_same_value(batched.state, oracle, bench.name)
                assert batched.count == stepped.count == len(elements)
                assert batched._kernel.compiled is jit_mode

    def test_chunked_push_many_equals_one_shot(self):
        for bench in ground_truths()[::5]:
            scheme = bench.ground_truth
            elements = stream_for(bench)
            extra = extras_for(scheme)
            whole = OnlineOperator(scheme, extra)
            chunked = OnlineOperator(scheme, extra)
            whole.push_many(elements)
            i = 0
            for size in (0, 1, 3, 7, 11, len(elements)):
                chunked.push_many(elements[i : i + size])
                i += size
            chunked.push_many(elements[i:])
            assert_same_value(whole.state, chunked.state, bench.name)
            assert whole.count == chunked.count

    def test_kernel_against_scalar_step_directly(self):
        for bench in ground_truths():
            scheme = bench.ground_truth
            kernel = compile_step_batch(scheme.program, name=bench.name)
            step = compile_online_step(scheme.program, name=bench.name)
            extra = extras_for(scheme)
            for elements in (stream_for(bench), integral_fraction_stream(bench)):
                state = oracle = scheme.initializer
                for element in elements:
                    state = step(state, element, extra)
                    oracle = scheme.interpreted_step(oracle, element, extra)
                batch_state, consumed = kernel.run(
                    scheme.initializer, elements, extra
                )
                assert consumed == len(elements)
                assert_same_value(batch_state, state, bench.name)
                assert_same_value(batch_state, oracle, bench.name)
            assert kernel.compiled
            assert kernel.source is not None

    def test_empty_batch_is_identity(self):
        scheme = get_benchmark("variance").ground_truth
        op = OnlineOperator(scheme)
        before = op.state
        assert op.push_many([]) == op.value
        assert op.state == before and op.count == 0
        kernel = scheme.compiled_kernel()
        assert kernel.run(scheme.initializer, [], None) == (scheme.initializer, 0)

    def test_generator_input(self):
        scheme = get_benchmark("mean").ground_truth
        from_list = OnlineOperator(scheme)
        from_gen = OnlineOperator(scheme)
        elements = [Fraction(i, 3) for i in range(20)]
        from_list.push_many(elements)
        from_gen.push_many(iter(elements))
        assert_same_value(from_gen.state, from_list.state)

    def test_source_iterator_error_keeps_counts_exact(self):
        # The elements iterable itself raising between elements must record
        # only fully-applied elements.
        def two_then_boom():
            yield 1
            yield 2
            raise RuntimeError("source died")

        op = OnlineOperator(get_benchmark("sum").ground_truth)
        with pytest.raises(RuntimeError):
            op.push_many(two_then_boom())
        assert op.state == (3,) and op.count == 2

    def test_partial_progress_on_mid_batch_error(self, jit_mode):
        # The If branch referencing an unbound extra only evaluates when
        # x == 3 — the kernel must fail exactly there, with the state and
        # count of the elements before it, like per-element push does.
        program = OnlineProgram(
            ("s",), "x", (ite(eq(Var("x"), 3), add("s", "missing"), add("s", "x")),)
        )
        scheme = OnlineScheme((0,), program, provenance="partial-test")
        elements = [1, 2, 3, 4]
        stepped = OnlineOperator(scheme)
        with pytest.raises(EvaluationError):
            for element in elements:
                stepped.push(element)
        batched = OnlineOperator(scheme)
        with pytest.raises(EvaluationError):
            batched.push_many(elements)
        assert batched.state == stepped.state == (3,)
        assert batched.count == stepped.count == 2

    def test_error_on_first_element_preserves_state(self):
        program = OnlineProgram(("s",), "x", (add("s", "missing"),))
        scheme = OnlineScheme((0,), program, provenance="eager-missing")
        op = OnlineOperator(scheme)
        with pytest.raises(EvaluationError):
            op.push_many([1, 2, 3])
        assert op.state == (0,) and op.count == 0

    def test_kernel_partial_consumes_marker(self):
        exc = EvaluationError("boom")
        assert kernel_partial(exc, (7,)) == ((7,), 0)
        exc.__repro_partial__ = ((1,), 4)
        assert kernel_partial(exc, (7,)) == ((1,), 4)
        assert kernel_partial(exc, (7,)) == ((7,), 0)  # consumed

    def test_declined_shapes_fall_back_to_step_loop(self):
        # Element parameter shadowing a state parameter: batch codegen
        # declines, the resolver wraps the scalar step, results still match.
        program = OnlineProgram(("x", "n"), "x", (add("x", "n"), add("n", 1)))
        with pytest.raises(IRCompileError):
            compile_step_batch(program)
        scheme = OnlineScheme((0, 0), program, provenance="shadowed")
        kernel = scheme._resolve_kernel()
        assert not kernel.compiled
        batched = OnlineOperator(scheme)
        stepped = OnlineOperator(scheme)
        elements = [5, 7, 9]
        batched.push_many(elements)
        for element in elements:
            stepped.push(element)
        assert_same_value(batched.state, stepped.state)

    def test_holes_fall_back_to_interpreter_loop(self):
        from repro.ir.nodes import Hole

        program = OnlineProgram(("s",), "x", (add("s", Hole(0)),))
        scheme = OnlineScheme((0,), program, provenance="holey")
        kernel = scheme._resolve_kernel()
        assert not kernel.compiled
        with pytest.raises(EvaluationError):
            OnlineOperator(scheme).push_many([1])

    def test_pickle_drops_kernel_cache(self):
        scheme = get_benchmark("variance").ground_truth
        scheme.compiled_kernel()
        assert scheme._compiled_kernel is not None
        clone = pickle.loads(pickle.dumps(scheme))
        assert clone._compiled_kernel is None and clone._compiled_step is None
        elements = [Fraction(i, 2) for i in range(9)]
        a = OnlineOperator(scheme)
        b = OnlineOperator(clone)
        a.push_many(elements)
        b.push_many(elements)
        assert_same_value(a.state, b.state)

    def test_invalidate_compiled_clears_kernel(self):
        scheme = get_benchmark("mean").ground_truth
        scheme.compiled_kernel()
        scheme.invalidate_compiled()
        assert scheme._compiled_kernel is None and scheme._compiled_step is None

    def test_final_routes_through_kernel(self):
        for name in ("mean", "variance", "q_category_volume"):
            bench = get_benchmark(name)
            scheme = bench.ground_truth
            elements = stream_for(bench, n=25)
            extra = extras_for(scheme)
            assert_same_value(
                scheme.final(elements, extra),
                list(scheme.run(elements, extra))[-1],
                name,
            )
        assert scheme.final([]) == scheme.initializer[0]


    def test_from_step_wrapper_contract(self):
        scheme = get_benchmark("mean").ground_truth
        kernel = StepKernel.from_step(scheme.interpreted_step)
        state, consumed = kernel.run(scheme.initializer, [1, 2, 3], None)
        expected, _ = scheme.compiled_kernel().run(scheme.initializer, [1, 2, 3], None)
        assert_same_value(state, expected)
        assert consumed == 3 and not kernel.compiled


class TestKeyedBatch:
    def _events(self, n=48):
        return [(Fraction(1 + (i * 7) % 11, 1 + i % 2), i % 5) for i in range(n)]

    def test_grouped_push_many_equals_push(self, jit_mode):
        scheme = get_benchmark("q_avg_price").ground_truth
        make = lambda: KeyedOperator(  # noqa: E731
            scheme, key_fn=lambda e: e[1], value_fn=lambda e: e[0]
        )
        events = self._events()
        batched, stepped = make(), make()
        snapshot = batched.push_many(events)
        for event in events:
            stepped.push(event)
        assert snapshot == stepped.snapshot()
        assert list(batched.partitions) == list(stepped.partitions)  # arrival order
        for key, part in stepped.partitions.items():
            assert_same_value(batched.partitions[key].state, part.state, f"key {key}")
            assert batched.partitions[key].count == part.count
        assert batched.count == stepped.count == len(events)

    def test_extractor_error_processes_prefix(self):
        scheme = get_benchmark("q_bid_volume").ground_truth
        boom_at = 5

        def key_fn(event):
            if event[1] == "boom":
                raise ValueError("bad key")
            return event[1]

        events = [(Fraction(i), i % 2) for i in range(boom_at)]
        events.append((Fraction(99), "boom"))
        events.extend((Fraction(i), i % 2) for i in range(boom_at, 10))
        keyed = KeyedOperator(scheme, key_fn=key_fn, value_fn=lambda e: e[0])
        with pytest.raises(ValueError):
            keyed.push_many(events)
        # Elements before the raising one are all applied, later ones not.
        reference = KeyedOperator(scheme, key_fn=key_fn, value_fn=lambda e: e[0])
        for event in events[:boom_at]:
            reference.push(event)
        assert keyed.snapshot() == reference.snapshot()
        assert keyed.count == boom_at

    def test_step_failure_has_per_push_parity(self, jit_mode):
        # Batch [a:1, b:2, a:boom, b:4]: the step raises on key a's second
        # payload (global element index 2).  Per-push parity: b's later
        # element 4 must NOT be consumed even though b's group drains
        # independently, and count must stay a resumable stream offset.
        scheme = OnlineScheme(
            (0,),
            OnlineProgram(
                ("s",), "x",
                (ite(eq(Var("x"), 99), add("s", "missing"), add("s", "x")),),
            ),
            provenance="boom-at-99",
        )
        events = [("a", 1), ("b", 2), ("a", 99), ("b", 4), ("c", 5)]
        batched = KeyedOperator(
            scheme, key_fn=lambda e: e[0], value_fn=lambda e: e[1]
        )
        with pytest.raises(EvaluationError):
            batched.push_many(events)
        stepped = KeyedOperator(
            scheme, key_fn=lambda e: e[0], value_fn=lambda e: e[1]
        )
        with pytest.raises(EvaluationError):
            for event in events:
                stepped.push(event)
        assert batched.snapshot() == stepped.snapshot() == {"a": 1, "b": 2}
        assert batched.count == stepped.count == 2
        assert list(batched.partitions) == ["a", "b"]  # no 'c' partition

    def test_checkpoint_resume_with_batches(self, tmp_path, jit_mode):
        scheme = get_benchmark("q_avg_price").ground_truth
        events = self._events()
        key_fn = lambda e: e[1]  # noqa: E731
        value_fn = lambda e: e[0]  # noqa: E731
        keyed = KeyedOperator(scheme, key_fn=key_fn, value_fn=value_fn)
        keyed.push_many(events[:20])
        path = tmp_path / "keyed.ck.json"
        save_checkpoint(keyed, path)
        resumed = load_checkpoint(path, key_fn=key_fn, value_fn=value_fn)
        assert all(p._kernel.compiled is jit_mode for p in resumed.partitions.values())
        resumed.push_many(events[20:])
        uninterrupted = KeyedOperator(scheme, key_fn=key_fn, value_fn=value_fn)
        for event in events:
            uninterrupted.push(event)
        assert resumed.snapshot() == uninterrupted.snapshot()
        assert resumed.count == uninterrupted.count

    def test_operator_checkpoint_resume_with_batches(self, tmp_path):
        scheme = get_benchmark("variance").ground_truth
        elements = [Fraction(i % 9, 1 + i % 4) for i in range(30)]
        op = OnlineOperator(scheme)
        op.push_many(elements[:13])
        path = tmp_path / "op.ck.json"
        save_checkpoint(op, path)
        resumed = load_checkpoint(path)
        resumed.push_many(elements[13:])
        uninterrupted = OnlineOperator(scheme)
        for element in elements:
            uninterrupted.push(element)
        assert_same_value(resumed.state, uninterrupted.state)
        assert resumed.count == uninterrupted.count


class TestPipelineBatch:
    """``StreamPipeline.push_many`` drains each operator's batch kernel and
    must leave every operator where per-element ``push`` would."""

    def _schemes(self):
        return {
            name: get_benchmark(name).ground_truth
            for name in ("mean", "max", "variance", "count")
        }

    def _pipeline(self):
        return StreamPipeline(
            {name: OnlineOperator(scheme) for name, scheme in self._schemes().items()}
        )

    def _elements(self, n=50):
        return [Fraction(i % 11 - 4, 1 + i % 3) for i in range(n)]

    def test_batch_equals_per_element_push(self, jit_mode):
        elements = self._elements()
        batched = self._pipeline()
        stepped = self._pipeline()
        snapshot = batched.push_many(elements)
        for element in elements:
            last = stepped.push(element)
        assert snapshot == last == stepped.snapshot()
        for name, op in batched.operators.items():
            assert_same_value(op.state, stepped.operators[name].state, name)
            assert op.count == stepped.operators[name].count

    def test_operators_keep_their_own_extras(self):
        # Two operators binding the same extra name to different values.
        p1 = OnlineProgram(("s",), "x", (add("s", mul("x", "k")),), ("k",))
        p2 = OnlineProgram(("t",), "x", (add("t", add("x", "k")),), ("k",))
        pipeline = StreamPipeline(
            {
                "a": OnlineOperator(OnlineScheme((0,), p1), {"k": 10}),
                "b": OnlineOperator(OnlineScheme((0,), p2), {"k": Fraction(1, 2)}),
            }
        )
        assert pipeline.push_many([1, 2, 3]) == {"a": 60, "b": Fraction(15, 2)}

    def test_mixed_jit_operators_equal_per_element_push(self, monkeypatch):
        # Operators resolve their plan at construction, so one pipeline can
        # hold a compiled and an interpreted operator side by side.
        elements = self._elements()
        monkeypatch.setenv("REPRO_JIT", "1")
        mean = OnlineOperator(get_benchmark("mean").ground_truth)
        monkeypatch.setenv("REPRO_JIT", "0")
        mixed = StreamPipeline(
            {"mean": mean, "max": OnlineOperator(get_benchmark("max").ground_truth)}
        )
        monkeypatch.setenv("REPRO_JIT", "1")
        assert mean._kernel.compiled and not mixed.operators["max"]._kernel.compiled
        stepped = StreamPipeline(
            {
                "mean": OnlineOperator(get_benchmark("mean").ground_truth),
                "max": OnlineOperator(get_benchmark("max").ground_truth),
            }
        )
        snapshot = mixed.push_many(elements)
        for element in elements:
            stepped.push(element)
        assert snapshot == stepped.snapshot()

    def test_single_operator_pipeline(self):
        elements = self._elements(10)
        pipeline = StreamPipeline(
            {"mean": OnlineOperator(get_benchmark("mean").ground_truth)}
        )
        reference = OnlineOperator(get_benchmark("mean").ground_truth)
        reference.push_many(elements)
        assert pipeline.push_many(elements) == {"mean": reference.value}

    def test_operator_swap_sees_only_later_batches(self):
        elements = self._elements(20)
        pipeline = self._pipeline()
        pipeline.push_many(elements)
        pipeline.operators["sum"] = OnlineOperator(
            get_benchmark("sum").ground_truth
        )
        snapshot = pipeline.push_many(elements)
        ref_mean = OnlineOperator(get_benchmark("mean").ground_truth)
        for element in elements + elements:  # the mean op saw both batches
            ref_mean.push(element)
        ref_sum = OnlineOperator(get_benchmark("sum").ground_truth)
        for element in elements:  # the swapped-in op saw only the second
            ref_sum.push(element)
        assert snapshot["mean"] == ref_mean.value
        assert snapshot["sum"] == ref_sum.value
        assert pipeline.operators["sum"].count == len(elements)

    def test_partial_progress_on_error(self, jit_mode):
        # Second program raises at x == 3 (element index 2).  Per-push
        # parity: the first operator — evaluated earlier within that
        # element — applied it too (count 3), the raiser stopped before it
        # (count 2).
        ok = OnlineScheme(
            (0,), OnlineProgram(("a",), "x", (add("a", "x"),)), provenance="ok"
        )
        bad = OnlineScheme(
            (0,),
            OnlineProgram(
                ("b",), "x",
                (ite(eq(Var("x"), 3), add("b", "missing"), add("b", "x")),),
            ),
            provenance="bad",
        )
        pipeline = StreamPipeline(
            {"ok": OnlineOperator(ok), "bad": OnlineOperator(bad)}
        )
        with pytest.raises(EvaluationError):
            pipeline.push_many([1, 2, 3, 4])
        assert pipeline.operators["ok"].state == (6,)
        assert pipeline.operators["ok"].count == 3
        assert pipeline.operators["bad"].state == (3,)
        assert pipeline.operators["bad"].count == 2

    def test_duplicate_operator_object_drains_sequentially(self):
        # One operator under two names: per-push parity is ill-defined when
        # the names share state, so each name drains the batch in turn.
        elements = self._elements(12)
        op = OnlineOperator(get_benchmark("mean").ground_truth)
        pipeline = StreamPipeline({"a": op, "b": op})
        snapshot = pipeline.push_many(elements)
        reference = OnlineOperator(get_benchmark("mean").ground_truth)
        reference.push_many(elements)
        reference.push_many(elements)  # drained once per name
        assert snapshot == {"a": reference.value, "b": reference.value}
        assert op.count == reference.count

    def test_error_semantics_identical_across_backends(self, jit_mode):
        # Per-push failure parity: whatever backend runs, a mid-batch error
        # leaves every operator exactly where sequential push would — so a
        # checkpoint taken after catching the error is bit-for-bit
        # identical across jit modes.
        def build():
            return StreamPipeline(
                {
                    "var": OnlineOperator(
                        get_benchmark("variance").ground_truth
                    ),
                    "bad": OnlineOperator(
                        OnlineScheme(
                            (0,),
                            OnlineProgram(
                                ("b",), "x",
                                (ite(eq(Var("x"), 3), add("b", "missing"),
                                     add("b", "x")),),
                            ),
                            provenance="bad",
                        ),
                    ),
                }
            )

        pipeline = build()
        with pytest.raises(EvaluationError):
            pipeline.push_many([1, 2, 3, 4])
        reference = build()
        with pytest.raises(EvaluationError):
            for element in [1, 2, 3, 4]:
                reference.push(element)
        for name in ("var", "bad"):
            assert_same_value(
                pipeline.operators[name].state,
                reference.operators[name].state,
                f"{name} jit={jit_mode}",
            )
            assert (
                pipeline.operators[name].count
                == reference.operators[name].count
            )
        # 'var' is evaluated before the raiser within element index 2.
        assert reference.operators["var"].count == 3
        assert reference.operators["bad"].count == 2

    def test_failing_source_applies_its_prefix(self, jit_mode):
        # A source raising between elements: the elements it yielded before
        # the error are applied to every operator, as a per-element loop
        # over the same source would, and the source's error propagates.
        def two_then_boom():
            yield 1
            yield 2
            raise RuntimeError("source died")

        def build():
            return StreamPipeline(
                {
                    name: OnlineOperator(get_benchmark(name).ground_truth)
                    for name in ("sum", "count")
                }
            )

        pipeline = build()
        with pytest.raises(RuntimeError, match="source died"):
            pipeline.push_many(two_then_boom())
        reference = build()
        with pytest.raises(RuntimeError, match="source died"):
            for element in two_then_boom():
                reference.push(element)
        for name in ("sum", "count"):
            assert pipeline.operators[name].state == reference.operators[name].state
            assert pipeline.operators[name].count == reference.operators[name].count == 2
        assert pipeline.operators["sum"].state == (3,)

    def test_operator_error_before_source_error_wins(self):
        # The operator fails on element 1, before the source would have:
        # per-push order raises the operator's error, not the source's.
        bad = OnlineScheme(
            (0,),
            OnlineProgram(
                ("b",), "x",
                (ite(eq(Var("x"), 2), add("b", "missing"), add("b", "x")),),
            ),
            provenance="bad",
        )

        def two_then_boom():
            yield 1
            yield 2
            raise RuntimeError("source died")

        pipeline = StreamPipeline(
            {"sum": OnlineOperator(get_benchmark("sum").ground_truth),
             "bad": OnlineOperator(bad)}
        )
        with pytest.raises(EvaluationError):
            pipeline.push_many(two_then_boom())
        assert pipeline.operators["sum"].state == (3,)
        assert pipeline.operators["sum"].count == 2
        assert pipeline.operators["bad"].count == 1
