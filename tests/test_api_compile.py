"""Tests for the compile/load/deploy API (repro.api) and the new CLI verbs.

The central property under test is the compile-once contract: the second
compile of the same task (or a compile after a suite run of the same
program) is served from the persistent store without invoking the
synthesizer, observed via repro.api.synthesis_count().
"""

from fractions import Fraction

import pytest

from repro import api
from repro.baselines import OperaFull
from repro.cli import main
from repro.core import SynthesisConfig
from repro.evaluation import run_suite
from repro.ir.pretty import program_to_sexpr
from repro.store import SchemeStore
from repro.suites import get_benchmark

MEAN_SRC = """
def mean(xs):
    s = 0
    for x in xs:
        s += x
    return s / len(xs)
"""

MEAN_SEXPR = "(lambda (xs) (div (foldl add 0 xs) (length xs)))"


def _mean_fn(xs):
    s = 0
    for x in xs:
        s += x
    return s / len(xs)


@pytest.fixture
def store(tmp_path):
    return SchemeStore(tmp_path)


class TestCompile:
    def test_compile_once_second_is_store_served(self, store):
        before = api.synthesis_count()
        first = api.compile(MEAN_SRC, store=store, name="mean")
        assert not first.from_store
        assert api.synthesis_count() == before + 1

        second = api.compile(MEAN_SRC, store=store, name="mean")
        assert second.from_store
        assert api.synthesis_count() == before + 1  # no synthesis ran
        assert second.scheme == first.scheme
        assert second.key == first.key

    def test_cross_process_shape(self, store):
        # A "new process" is just a fresh store handle over the same root.
        api.compile(MEAN_SRC, store=store, name="mean")
        fresh = SchemeStore(store.root)
        before = api.synthesis_count()
        served = api.compile(MEAN_SRC, store=fresh, name="mean")
        assert served.from_store and api.synthesis_count() == before

    def test_accepts_callable_sexpr_and_program(self, store):
        by_fn = api.compile(_mean_fn, store=store)
        assert by_fn.name == "_mean_fn"
        by_sexpr = api.compile(MEAN_SEXPR, store=store)
        by_program = api.compile(
            get_benchmark("mean").program, store=store, name="mean"
        )
        # Input forms differ syntactically (store entries are per canonical
        # program), but all compile to equivalent online behaviour.
        stream = [Fraction(v) for v in (2, 4, 9)]
        assert by_fn(stream) == by_sexpr(stream) == by_program(stream) == 5

    def test_same_function_source_is_one_store_entry(self, store):
        api.compile(MEAN_SRC, store=store, name="a")
        before = api.synthesis_count()
        # Task identity is the canonical program, not the name.
        hit = api.compile(MEAN_SRC, store=store, name="b")
        assert hit.from_store and api.synthesis_count() == before

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            api.compile(42, store=None)

    def test_store_none_always_synthesizes(self):
        before = api.synthesis_count()
        api.compile(MEAN_SRC, store=None)
        api.compile(MEAN_SRC, store=None)
        assert api.synthesis_count() == before + 2

    def test_force_recompiles(self, store):
        api.compile(MEAN_SRC, store=store)
        before = api.synthesis_count()
        forced = api.compile(MEAN_SRC, store=store, force=True)
        assert api.synthesis_count() == before + 1
        assert not forced.from_store

    def test_config_change_misses(self, store):
        api.compile(MEAN_SRC, store=store)
        before = api.synthesis_count()
        api.compile(
            MEAN_SRC, store=store, config=SynthesisConfig(unroll_depth=4)
        )
        assert api.synthesis_count() == before + 1

    def test_compile_error_carries_report(self):
        with pytest.raises(api.CompileError) as exc_info:
            api.compile(
                MEAN_SRC, store=None, config=SynthesisConfig(timeout_s=1e-9)
            )
        assert exc_info.value.report.failure_reason

    def test_stored_failure_raises_without_synthesis(self, store):
        config = SynthesisConfig(timeout_s=1e-9)
        with pytest.raises(api.CompileError):
            api.compile(MEAN_SRC, store=store, config=config)
        before = api.synthesis_count()
        with pytest.raises(api.CompileError) as stored:
            api.compile(MEAN_SRC, store=store, config=config)
        assert api.synthesis_count() == before  # served from the store
        assert stored.value.report.failure_reason
        with pytest.raises(api.CompileError):
            api.compile(MEAN_SRC, store=store, config=config, force=True)
        assert api.synthesis_count() == before + 1
        # A larger budget than the failure ran under is worth a retry.
        assert not api.compile(MEAN_SRC, store=store).from_store
        assert api.synthesis_count() == before + 2

    def test_suite_run_makes_compile_a_hit(self, store):
        bench = get_benchmark("mean")
        run_suite(OperaFull(), [bench], SynthesisConfig(timeout_s=20), store=store)
        before = api.synthesis_count()
        compiled = api.compile(bench.program, store=store, name="my_mean")
        assert compiled.from_store and api.synthesis_count() == before
        assert compiled.name == compiled.report.task == "my_mean"
        assert compiled([Fraction(2), Fraction(4)]) == 3

    def test_compiled_scheme_batch_call(self, store):
        compiled = api.compile(MEAN_SRC, store=store)
        stream = [Fraction(v) for v in (2, 4, 6)]
        assert compiled(stream) == 4
        assert list(compiled.run(stream)) == [2, 3, 4]

    def test_save_load(self, store, tmp_path):
        compiled = api.compile(MEAN_SRC, store=store)
        path = tmp_path / "mean.scheme.json"
        compiled.save(path)
        loaded = api.CompiledScheme.load(path)
        assert loaded.scheme == compiled.scheme
        # A file load is not a store hit; the flag stays honest.
        assert not loaded.from_store


class TestStreamify:
    def test_decorator_is_lazy_then_compiles_once(self, store):
        before = api.synthesis_count()

        @api.streamify(store=store)
        def mean(xs):
            s = 0
            for x in xs:
                s += x
            return s / len(xs)

        assert api.synthesis_count() == before  # decoration is free
        assert mean(2) == 2
        assert mean(4) == 3
        assert mean.value == 3 and mean.count == 2
        assert api.synthesis_count() == before + 1

        mean.reset()
        assert mean.count == 0
        assert mean.push(10) == 10

    def test_matches_batch_function(self, store):
        @api.streamify(store=store)
        def total(xs):
            s = 0
            for x in xs:
                s += x
            return s

        values = [Fraction(v) for v in (1, 2, 3, 4)]
        online = [total(v) for v in values]
        assert online[-1] == total.batch(values)

    def test_independent_operators(self, store):
        @api.streamify(store=store)
        def total(xs):
            s = 0
            for x in xs:
                s += x
            return s

        a, b = total.operator(), total.operator()
        a.push(5)
        assert a.value == 5 and b.value == 0

    def test_second_stream_function_hits_store(self, store):
        def total(xs):
            s = 0
            for x in xs:
                s += x
            return s

        api.streamify(total, store=store)(1)
        before = api.synthesis_count()
        again = api.streamify(total, store=store)
        assert again(1) == 1
        assert api.synthesis_count() == before  # store-served

    def test_extra_params(self, store):
        @api.streamify(store=store, extra={"rate": Fraction(2)})
        def scaled(xs, rate):
            s = 0
            for x in xs:
                s += x * rate
            return s

        assert scaled(3) == 6
        assert scaled(4) == 14


class TestCli:
    def compile_twice(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        argv = [
            "compile", "examples/batch_mean.py", "-o", str(out),
            "--store-dir", str(tmp_path / "store"), "--timeout", "60",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        return out, first, second

    def test_compile_run_end_to_end(self, tmp_path, capsys):
        """The acceptance pipeline: repro compile ... && repro run ... with
        the second compile served from the scheme store."""
        out, first, second = self.compile_twice(tmp_path, capsys)
        assert "scheme store: miss" in first
        assert "scheme store: hit" in second and "without synthesis" in second
        assert out.exists()

        before = api.synthesis_count()
        assert main(["run", str(out), "--source", "counter:100"]) == 0
        run_out = capsys.readouterr().out
        assert "consumed 100 elements" in run_out
        assert "99/2" in run_out  # mean of 0..99
        assert api.synthesis_count() == before  # run never synthesizes

    def test_run_keyed(self, tmp_path, capsys):
        out, _, _ = self.compile_twice(tmp_path, capsys)
        code = main([
            "run", str(out), "--source", "bids:40",
            "--key-field", "1", "--value-field", "0",
        ])
        assert code == 0
        run_out = capsys.readouterr().out
        assert "over" in run_out and "keys" in run_out

    def test_run_checkpoint_resume(self, tmp_path, capsys):
        out, _, _ = self.compile_twice(tmp_path, capsys)
        ck = tmp_path / "ck.json"
        assert main(["run", str(out), "--source", "counter:50",
                     "--checkpoint", str(ck)]) == 0
        capsys.readouterr()
        assert main(["run", str(out), "--source", "counter:50:50",
                     "--resume", str(ck)]) == 0
        resumed = capsys.readouterr().out
        assert "consumed 100 elements" in resumed
        assert "99/2" in resumed  # identical to the uninterrupted run

    def test_run_rejects_bad_scheme(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["run", str(bad), "--source", "counter:5"]) == 2

    def test_run_rejects_bad_source(self, tmp_path, capsys):
        out, _, _ = self.compile_twice(tmp_path, capsys)
        assert main(["run", str(out), "--source", "warp:10"]) == 2

    def test_compile_stdout_without_output_is_pure_json(self, tmp_path, capsys):
        # `repro compile f.py > s.json` must produce a loadable scheme file:
        # diagnostics go to stderr when the JSON goes to stdout.
        from repro.core.scheme import OnlineScheme

        argv = [
            "compile", "examples/batch_mean.py",
            "--store-dir", str(tmp_path), "--timeout", "60",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        scheme = OnlineScheme.loads(captured.out)
        assert scheme.final([2, 4, 6]) == 4
        assert "scheme store:" in captured.err

    def test_run_rejects_pipeline_checkpoint(self, tmp_path, capsys):
        from repro.runtime import StreamPipeline, save_checkpoint
        from repro.core.scheme import OnlineScheme as _OS

        out, _, _ = self.compile_twice(tmp_path, capsys)
        pipeline = StreamPipeline({"mean": api.CompiledScheme.load(out).operator()})
        ck = tmp_path / "pipe.ck.json"
        save_checkpoint(pipeline, ck)
        assert main(["run", str(out), "--source", "counter:5",
                     "--resume", str(ck)]) == 2
        assert "cannot resume" in capsys.readouterr().err
        assert isinstance(_OS.load(out), _OS)

    def test_keyed_resume_without_flag_mentions_key_field(self, tmp_path, capsys):
        out, _, _ = self.compile_twice(tmp_path, capsys)
        ck = tmp_path / "keyed.ck.json"
        assert main(["run", str(out), "--source", "bids:20",
                     "--key-field", "1", "--value-field", "0",
                     "--checkpoint", str(ck)]) == 0
        capsys.readouterr()
        assert main(["run", str(out), "--source", "bids:20",
                     "--resume", str(ck)]) == 2
        err = capsys.readouterr().err
        assert "--key-field" in err  # CLI vocabulary, not key_fn=

    def test_resume_applies_fresh_extra_bindings(self, tmp_path, capsys):
        from repro.core.scheme import OnlineScheme
        from repro.ir.dsl import add, mul
        from repro.ir.nodes import OnlineProgram
        from repro.runtime import OnlineOperator, save_checkpoint

        scheme = OnlineScheme(
            (0,),
            OnlineProgram(("s",), "x", (add("s", mul("x", "rate")),), ("rate",)),
        )
        spath = tmp_path / "rate.scheme.json"
        scheme.save(spath)
        op = OnlineOperator(scheme, extra={"rate": 1})
        op.push_many([1, 2])  # state 3 under rate=1
        ck = tmp_path / "rate.ck.json"
        save_checkpoint(op, ck)
        assert main(["run", str(spath), "--source", "list:10",
                     "--resume", str(ck), "--extra", "rate=2"]) == 0
        run_out = capsys.readouterr().out
        assert "result: 23" in run_out  # 3 + 10*2, not 3 + 10*1

    def test_compile_after_bench_is_a_hit(self, tmp_path, capsys):
        """``bench`` and ``compile`` share one store: an s-expression file of
        a suite program compiles without synthesis after a suite run."""
        root = str(tmp_path / "store")
        assert main(["bench", "stats", "--task", "mean", "--timeout", "20",
                     "--cache-dir", root]) == 0
        assert "cache: 0 hits, 1 misses" in capsys.readouterr().out
        sexp = tmp_path / "mean.sexp"
        sexp.write_text(program_to_sexpr(get_benchmark("mean").program), encoding="utf-8")
        assert main(["compile", str(sexp), "-o", str(tmp_path / "s.json"),
                     "--store-dir", root]) == 0
        out = capsys.readouterr().out
        assert "scheme store: hit — mean served without synthesis" in out
        assert "scheme store: 1 hits, 0 misses" in out

    def test_cache_stats_clear_gc(self, tmp_path, capsys):
        root = tmp_path / "store"
        self.compile_twice(tmp_path, capsys)
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        stats = capsys.readouterr().out
        assert "1 entries" in stats

        assert main(["cache", "gc", "--older-than", "30d",
                     "--cache-dir", str(root)]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_gc_requires_age(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2

    def test_cache_gc_rejects_bad_age(self, tmp_path, capsys):
        assert main(["cache", "gc", "--older-than", "soon",
                     "--cache-dir", str(tmp_path)]) == 2
