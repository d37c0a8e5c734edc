"""Differential tests for batch-compiled step kernels.

The :class:`~repro.ir.compile.StepKernel` plan claims to be *semantically
invisible*: ``push_many`` through a kernel — the codegen-compiled batch
loop or the interpreter-driven fallback, alone or drained per operator
by a pipeline — must
equal sequential per-element ``push`` bit-for-bit over exact rationals
(states, outputs, counts, exception classes, partial progress on failure).
``test_conformance.py`` checks every ground-truth scheme's ``push_many``
against the interpreter; these tests pin the kernel contract itself:
empty and generator batches, mid-batch errors, declined shapes, caches,
keyed batches and pipelines.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from differential import (
    adversarial_stream,
    assert_same_value,
    extras_for,
    interpreted,
    rate_scheme,
)

from repro.core.scheme import OnlineScheme
from repro.ir.compile import (
    IRCompileError,
    StepKernel,
    compile_step_batch,
    kernel_partial,
)
from repro.ir.dsl import add, eq, ite, mul
from repro.ir.evaluator import EvaluationError
from repro.ir.nodes import OnlineProgram, Var
from repro.runtime import KeyedOperator, OnlineOperator, StreamPipeline
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.suites import get_benchmark


def fails_at(value) -> OnlineScheme:
    """A running sum whose step raises (an unbound extra) on ``value``."""
    program = OnlineProgram(
        ("s",), "x", (ite(eq(Var("x"), value), add("s", "missing"), add("s", "x")),)
    )
    return OnlineScheme((0,), program, provenance=f"fails-at-{value}")


def two_then_boom():
    """A source that yields 1 and 2, then dies."""
    yield 1
    yield 2
    raise RuntimeError("source died")


class TestBatchKernelEquivalence:
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
        from_gen = OnlineOperator(scheme)
        elements = [Fraction(i, 3) for i in range(20)]
        from_gen.push_many(iter(elements))
        assert_same_value(from_gen.state, interpreted(scheme, elements))

    def test_source_iterator_error_keeps_counts_exact(self):
        # The elements iterable itself raising between elements must record
        # only fully-applied elements.
        op = OnlineOperator(get_benchmark("sum").ground_truth)
        with pytest.raises(RuntimeError):
            op.push_many(two_then_boom())
        assert op.state == (3,) and op.count == 2

    def test_partial_progress_on_mid_batch_error(self, jit_mode):
        # The If branch referencing an unbound extra only evaluates when
        # x == 3 — the kernel must fail exactly there, with the state and
        # count of the elements before it, like per-element push does.
        scheme = fails_at(3)
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
        # The keyed loop declines the same shape and wraps the same step.
        keyed = KeyedOperator(scheme, key_fn=lambda e: e % 2)
        assert not keyed._loop.compiled
        keyed.push_many(elements)
        assert_same_value(keyed.partitions[1].state, stepped.state)

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
        op = OnlineOperator(clone)
        op.push_many(elements)
        assert_same_value(op.state, interpreted(scheme, elements))

    def test_final_routes_through_kernel(self):
        for name in ("mean", "variance", "q_category_volume"):
            bench = get_benchmark(name)
            scheme = bench.ground_truth
            elements = adversarial_stream(bench.element_arity, name, n=25)
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
        # element 4 must NOT be consumed, and count must stay a resumable
        # stream offset.
        scheme = fails_at(99)
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

    def test_extras_are_read_on_the_first_element_only(self, jit_mode):
        # An unbound extra: an empty batch never looks it up, and the first
        # element fails after its key and value, having applied nothing.
        keyed = KeyedOperator(rate_scheme(), key_fn=lambda e: e[1], value_fn=lambda e: e[0])
        assert keyed.push_many([]) == {}
        with pytest.raises(EvaluationError, match="rate"):
            keyed.push_many([(2, "a"), (3, "b")])
        assert keyed.count == 0 and len(keyed) == 0
        keyed.extra["rate"] = 3
        assert keyed.push_many([(2, "a"), (3, "a")]) == {"a": 15}

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
        assert resumed._loop.compiled is jit_mode
        resumed.push_many(events[20:])
        for key, part in resumed.partitions.items():
            assert_same_value(part.state, interpreted(scheme, [v for v, k in events if k == key]))
        assert resumed.count == len(events) and len(resumed) == len({k for _, k in events})

    def test_operator_checkpoint_resume_with_batches(self, tmp_path):
        scheme = get_benchmark("variance").ground_truth
        elements = [Fraction(i % 9, 1 + i % 4) for i in range(30)]
        op = OnlineOperator(scheme)
        op.push_many(elements[:13])
        path = tmp_path / "op.ck.json"
        save_checkpoint(op, path)
        resumed = load_checkpoint(path)
        resumed.push_many(elements[13:])
        assert_same_value(resumed.state, interpreted(scheme, elements))
        assert resumed.count == len(elements)


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
        mean = interpreted(get_benchmark("mean").ground_truth, elements)[0]
        assert pipeline.push_many(elements) == {"mean": mean}

    def test_operator_swap_sees_only_later_batches(self):
        elements = self._elements(20)
        pipeline = self._pipeline()
        pipeline.push_many(elements)
        pipeline.operators["sum"] = OnlineOperator(
            get_benchmark("sum").ground_truth
        )
        snapshot = pipeline.push_many(elements)
        # The mean op saw both batches, the swapped-in op only the second.
        mean = interpreted(get_benchmark("mean").ground_truth, elements + elements)
        assert snapshot["mean"] == mean[0]
        assert snapshot["sum"] == interpreted(get_benchmark("sum").ground_truth, elements)[0]
        assert pipeline.operators["sum"].count == len(elements)

    def test_partial_progress_on_error(self, jit_mode):
        # Second program raises at x == 3 (element index 2).  Per-push
        # parity: the first operator — evaluated earlier within that
        # element — applied it too (count 3), the raiser stopped before it
        # (count 2).
        ok = OnlineScheme(
            (0,), OnlineProgram(("a",), "x", (add("a", "x"),)), provenance="ok"
        )
        pipeline = StreamPipeline(
            {"ok": OnlineOperator(ok), "bad": OnlineOperator(fails_at(3))}
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
                    "bad": OnlineOperator(fails_at(3)),
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
        pipeline = StreamPipeline(
            {"sum": OnlineOperator(get_benchmark("sum").ground_truth),
             "bad": OnlineOperator(fails_at(2))}
        )
        with pytest.raises(EvaluationError):
            pipeline.push_many(two_then_boom())
        assert pipeline.operators["sum"].state == (3,)
        assert pipeline.operators["sum"].count == 2
        assert pipeline.operators["bad"].count == 1
