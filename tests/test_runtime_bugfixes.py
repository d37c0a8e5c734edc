"""Regression tests for the runtime/CLI bugfix batch that rode along with
the hole-sharding PR: pipeline batched ingestion, sliding-window operator
reuse, unbounded source specs, exact-rational spec values, and
``REPRO_JIT=0`` reaching keyed partitions."""

from fractions import Fraction

import pytest

from repro.cli import main
from repro.core.scheme import OnlineScheme
from repro.runtime import KeyedOperator, OnlineOperator, StreamPipeline
from repro.runtime import stream as stream_mod
from repro.runtime.checkpoint import restore_keyed
from repro.runtime.sources import counter, from_spec
from repro.runtime.stream import sliding
from repro.suites import get_benchmark


def _scheme(name):
    scheme = get_benchmark(name).ground_truth
    assert scheme is not None
    return scheme


class TestPipelinePushMany:
    def _sample(self):
        return [Fraction(i % 7) - 2 for i in range(40)]

    def _fresh(self):
        return StreamPipeline(
            {
                "mean": OnlineOperator(_scheme("mean")),
                "max": OnlineOperator(_scheme("max")),
                "variance": OnlineOperator(_scheme("variance")),
            }
        )

    def test_batch_equals_per_push(self):
        elements = self._sample()
        batched = self._fresh()
        stepped = self._fresh()
        snapshot = batched.push_many(elements)
        for element in elements:
            expected = stepped.push(element)
        assert snapshot == expected
        for name, op in batched.operators.items():
            assert op.state == stepped.operators[name].state
            assert op.count == stepped.operators[name].count

    def test_batch_uses_per_operator_push_many(self, monkeypatch):
        """The whole point of the fix: the batch must drain through each
        operator's hoisted push_many loop, not element-by-element push."""
        pipeline = self._fresh()
        for op in pipeline.operators.values():
            monkeypatch.setattr(
                op, "push", lambda element: pytest.fail("push_many bypassed")
            )
        pipeline.push_many(self._sample())

    def test_generator_batch_is_materialized_once(self):
        elements = self._sample()
        from_generator = self._fresh().push_many(iter(elements))
        from_list = self._fresh().push_many(elements)
        assert from_generator == from_list

    def test_empty_batch_semantics(self):
        pipeline = self._fresh()
        snapshot = pipeline.push_many([])
        assert snapshot == pipeline.snapshot()
        assert all(op.count == 0 for op in pipeline.operators.values())


class TestSlidingReuse:
    def test_single_operator_for_whole_stream(self, monkeypatch):
        constructed = []
        real_operator = stream_mod.OnlineOperator

        class CountingOperator(real_operator):
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(stream_mod, "OnlineOperator", CountingOperator)
        results = list(sliding(_scheme("mean"), counter(25), 4))
        assert len(results) == 25
        assert len(constructed) == 1  # was one per element before the fix

    def test_results_match_batch_recomputation(self):
        scheme = _scheme("variance")
        elements = [Fraction(i % 5) for i in range(12)]
        got = list(sliding(scheme, elements, 4))
        for i, value in enumerate(got):
            window = elements[max(0, i - 3) : i + 1]
            assert value == scheme.final(window)


class TestSourceSpecs:
    def test_unbounded_specs_rejected(self):
        for spec in ("constant:3", "counter"):
            with pytest.raises(ValueError, match="unbounded"):
                from_spec(spec)

    def test_unbounded_allowed_explicitly(self):
        import itertools

        stream = from_spec("constant:3", allow_unbounded=True)
        assert list(itertools.islice(stream, 4)) == [Fraction(3)] * 4

    def test_bounded_specs_still_work(self):
        assert list(from_spec("counter:4")) == [0, 1, 2, 3]
        assert list(from_spec("constant:3:2")) == [Fraction(3)] * 2
        assert len(list(from_spec("sawtooth:10:5"))) == 10

    def test_list_and_constant_yield_exact_fractions(self):
        values = list(from_spec("list:1,2,5/2"))
        assert values == [Fraction(1), Fraction(2), Fraction(5, 2)]
        assert all(type(v) is Fraction for v in values)
        repeated = list(from_spec("constant:7:3"))
        assert all(type(v) is Fraction for v in repeated)


class TestCliMaxElements:
    def _scheme_file(self, tmp_path):
        path = tmp_path / "mean.scheme.json"
        _scheme("mean").save(path)
        return str(path)

    def test_unbounded_source_is_an_error_without_guard(self, tmp_path, capsys):
        code = main(["run", self._scheme_file(tmp_path), "--source", "constant:3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unbounded" in err and "--max-elements" in err

    def test_max_elements_bounds_an_unbounded_source(self, tmp_path, capsys):
        code = main(
            ["run", self._scheme_file(tmp_path), "--source", "constant:3",
             "--max-elements", "5"]
        )
        assert code == 0
        assert "consumed 5 elements; result: 3" in capsys.readouterr().out

    def test_max_elements_truncates_bounded_sources_too(self, tmp_path, capsys):
        code = main(
            ["run", self._scheme_file(tmp_path), "--source", "counter:100",
             "--max-elements", "10"]
        )
        assert code == 0
        assert "consumed 10 elements" in capsys.readouterr().out

    def test_negative_max_elements_rejected(self, tmp_path, capsys):
        code = main(
            ["run", self._scheme_file(tmp_path), "--source", "counter:10",
             "--max-elements", "-1"]
        )
        assert code == 2
        assert "--max-elements" in capsys.readouterr().err


class TestKeyedJit:
    """The keyed loop resolves from ``REPRO_JIT`` when the operator is
    created, fresh or restored from a checkpoint."""

    def _keyed(self):
        truth = _scheme("mean")  # a copy: cold compile caches
        scheme = OnlineScheme(truth.initializer, truth.program, provenance=truth.provenance)
        return scheme, KeyedOperator(scheme, key_fn=lambda e: e[1], value_fn=lambda e: e[0])

    def test_jit_false_reaches_partitions(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        scheme, keyed = self._keyed()
        keyed.push((Fraction(10), "a"))
        assert not keyed._loop.compiled
        # The interpreter-driven loop compiled nothing, not even the scalar step.
        assert scheme._compiled_step is None and scheme._compiled_keyed is None

    def test_default_still_compiles(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        scheme, keyed = self._keyed()
        keyed.push((Fraction(10), "a"))
        assert keyed._loop.compiled
        assert keyed._loop is scheme._compiled_keyed

    def test_jit_false_survives_checkpoint_restore(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "1")
        _, keyed = self._keyed()
        keyed.push((Fraction(10), "a"))  # checkpointed by a compiled run
        monkeypatch.setenv("REPRO_JIT", "0")
        restored = restore_keyed(
            keyed.checkpoint(), key_fn=lambda e: e[1], value_fn=lambda e: e[0]
        )
        assert not restored._loop.compiled
        restored.push((Fraction(4), "b"))  # new partitions fold on the same loop
        assert restored.snapshot() == {"a": 10, "b": 4}
        assert restored.scheme._compiled_step is None

    def test_results_identical_both_backends(self, monkeypatch):
        # The loop resolves when the operator is made, so each run makes
        # its own under its own setting.
        events = [(Fraction(i), i % 3) for i in range(30)]
        monkeypatch.setenv("REPRO_JIT", "1")
        compiled = self._keyed()[1].push_many(events)
        monkeypatch.setenv("REPRO_JIT", "0")
        assert self._keyed()[1].push_many(events) == compiled
