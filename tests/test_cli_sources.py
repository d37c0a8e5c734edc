"""Tests for the CLI and the synthetic stream sources."""

import re
from fractions import Fraction

import pytest

from repro.cli import build_parser, main
from repro.runtime.sources import (
    bids,
    constant,
    counter,
    gaussian_like,
    merge_round_robin,
    pairs,
    random_walk,
    sawtooth,
)


class TestSources:
    def test_constant(self):
        assert list(constant(5, 3)) == [5, 5, 5]

    def test_counter(self):
        assert list(counter(4)) == [0, 1, 2, 3]

    def test_sawtooth_deterministic(self):
        assert list(sawtooth(10, noise=2, seed=1)) == list(
            sawtooth(10, noise=2, seed=1)
        )

    def test_sawtooth_period(self):
        values = list(sawtooth(34, period=17))
        assert values[0] == values[17]

    def test_random_walk_steps_bounded(self):
        values = list(random_walk(50, step=2))
        diffs = [b - a for a, b in zip([Fraction(0)] + values, values)]
        assert all(abs(d) <= 2 for d in diffs)

    def test_gaussian_like_exact(self):
        assert all(isinstance(v, Fraction) for v in gaussian_like(20))

    def test_bids_shape(self):
        for price, category in bids(20, low=10, high=20, categories=3):
            assert 10 <= price <= 20
            assert 1 <= category <= 3

    def test_pairs_near_line(self):
        for x, y in pairs(20, slope=Fraction(2), intercept=Fraction(1), noise=0):
            assert y == 2 * x + 1

    def test_merge_round_robin(self):
        merged = list(merge_round_robin(iter([1, 2]), iter([10])))
        assert merged == [1, 10, 2]


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["list", "--domain", "stats"])
        assert args.command == "list"

    def test_list_runs(self, capsys):
        assert main(["list", "--domain", "auction"]) == 0
        out = capsys.readouterr().out
        assert "q_highest_bid" in out

    def test_synthesize_benchmark(self, capsys):
        assert main(["synthesize", "--benchmark", "sum", "--timeout", "30"]) == 0
        out = capsys.readouterr().out
        assert "initializer" in out

    def test_synthesize_requires_input(self, capsys):
        assert main(["synthesize"]) == 2

    def test_synthesize_python_file(self, tmp_path, capsys):
        src = tmp_path / "prog.py"
        src.write_text(
            "def total(xs):\n    s = 0\n    for x in xs:\n        s += x\n    return s\n"
        )
        assert main(["synthesize", "--python", str(src), "--timeout", "30"]) == 0

    def test_synthesize_sexpr_file(self, tmp_path, capsys):
        src = tmp_path / "prog.sexp"
        src.write_text("(lambda (xs) (foldl add 0 xs))")
        assert main(["synthesize", "--sexpr", str(src), "--timeout", "30"]) == 0

    def test_bench_single_task(self, capsys):
        code = main(
            ["bench", "--solver", "opera", "--task", "max", "--timeout", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1 solved" in out

    def test_bench_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--solver", "z3"])

    @pytest.mark.parametrize("argv, message", [
        (["run"], "invalid choice: 'columnar'"),
        # Serve workers fold exact only: there is no --backend to choose.
        (["serve", "--key-field", "0", "--checkpoint-dir", "ck"],
         "unrecognized arguments: --backend columnar"),
    ], ids=["run", "serve"])
    def test_backend_columnar_is_an_invalid_choice(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "s.json", "--source", "counter:10", "--backend", "columnar"])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--benchmark", "no-such-task"], "error: unknown benchmark 'no-such-task'"),
        (["--python", "{tmp}/missing.py"], "error: cannot read {tmp}/missing.py"),
        (["--sexpr", "{tmp}/bad.sexp"], "error: cannot parse {tmp}/bad.sexp"),
    ])
    def test_synthesize_bad_input_is_an_error(self, argv, message, tmp_path, capsys):
        (tmp_path / "bad.sexp").write_text("(lambda (xs")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(["synthesize", *argv]) == 2
        assert message.format(tmp=tmp_path) in capsys.readouterr().err

    def test_bench_task_splits_on_commas(self, capsys):
        code = main(["bench", "--domain", "stats", "--task", "sum,max",
                     "--timeout", "20", "--no-cache"])
        assert code == 0
        assert "opera: 2/2 solved" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["--domain", "stats", "--task", "sum,no-such-task"],
         "error: unknown task(s) in domain stats: no-such-task"),
        *[([artifact, "--task", "sum"], f"error: --task does not apply to bench {artifact}")
          for artifact in ("table1", "table2", "fig11", "fig13")],
    ])
    def test_bench_bad_task_is_an_error(self, argv, message, capsys):
        assert main(["bench", *argv, "--no-cache"]) == 2
        assert message in capsys.readouterr().err


class TestKeyedLoadGenSources:
    """The seeded keyed/infinite load-generator specs that feed `repro
    serve`."""

    def test_zipf_keys_shape_and_bounds(self):
        from repro.runtime.sources import zipf_keys

        for value, key in zipf_keys(100, keys=8, low=5, high=9):
            assert isinstance(value, Fraction) and 5 <= value <= 9
            assert isinstance(key, int) and 1 <= key <= 8

    def test_zipf_keys_deterministic_per_seed(self):
        from repro.runtime.sources import zipf_keys

        assert list(zipf_keys(50, keys=10, seed=4)) == list(
            zipf_keys(50, keys=10, seed=4)
        )
        assert list(zipf_keys(50, keys=10, seed=4)) != list(
            zipf_keys(50, keys=10, seed=5)
        )

    def test_zipf_keys_skewed_toward_low_ranks(self):
        from collections import Counter

        from repro.runtime.sources import zipf_keys

        counts = Counter(key for _, key in zipf_keys(3000, keys=10, skew=1.2))
        assert counts[1] > counts[10]  # rank 1 is the hot key
        assert counts[1] > 3000 / 10  # and hotter than uniform

    def test_zipf_keys_infinite_without_n(self):
        import itertools

        from repro.runtime.sources import zipf_keys

        assert len(list(itertools.islice(zipf_keys(), 25))) == 25

    def test_zipf_keys_rejects_no_keys(self):
        from repro.runtime.sources import zipf_keys

        with pytest.raises(ValueError):
            next(zipf_keys(1, keys=0))

    def test_bids_infinite_without_n(self):
        import itertools

        assert len(list(itertools.islice(bids(), 25))) == 25

    def test_bids_seed_is_second_positional(self):
        # bids:N:SEED — the spec grammar varies traffic via the seed.
        assert list(bids(10, 1)) == list(bids(10, seed=1))
        assert list(bids(10, 1)) != list(bids(10, 2))

    def test_specs_build_keyed_sources(self):
        from repro.runtime.sources import from_spec

        records = list(from_spec("zipf-keys:20:5:9"))
        assert len(records) == 20
        assert all(1 <= key <= 5 for _, key in records)
        assert records == list(from_spec("zipf-keys:20:5:9"))

    def test_unbounded_specs_need_opt_in(self):
        from repro.runtime.sources import from_spec

        for spec in ("zipf-keys", "bids", "zipf-keys:"):
            with pytest.raises(ValueError, match="unbounded"):
                from_spec(spec)
        import itertools

        stream = from_spec("zipf-keys", allow_unbounded=True)
        assert len(list(itertools.islice(stream, 7))) == 7

    def test_spec_grammar_documents_every_source(self):
        from repro.runtime.sources import SPEC_GRAMMAR, SPEC_SOURCES

        for name in SPEC_SOURCES:
            assert name in SPEC_GRAMMAR
        assert "list:" in SPEC_GRAMMAR

    def test_run_help_shows_spec_grammar(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "zipf-keys" in out and "source specs" in out

    def test_serve_help_shows_spec_grammar(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "zipf-keys" in out and "source specs" in out


class TestSpecValidation:
    @pytest.mark.parametrize("spec", [
        "zipf-keys:100:10:1.5", "bids:10:3/2", "gaussian:5:0.5", "pairs:5:2:1:2:7/3",
    ])
    def test_non_integer_seed_is_a_value_error(self, spec):
        from repro.runtime.sources import from_spec

        with pytest.raises(ValueError, match="seed must be an integer"):
            from_spec(spec)

    @pytest.mark.parametrize("spec,message", [
        ("sawtooth:10:0", "the period must be a non-zero number, got '0'"),
        ("sawtooth:10:17:-1", "the noise must be an integer >= 0"),
        ("random_walk:10:1/2", "the step must be an integer >= 0, got '1/2'"),
        ("counter:-1", "the element count must be an integer >= 0"),
        ("pairs:5:1/2:1:1/2", "the noise must be an integer >= 0"),
        ("zipf-keys:10:0", "the keys must be an integer >= 1"),
        ("bids:10:1:600", "low 600 exceeds high 500"),
        ("gaussian:5:1:2", "takes at most 2 arguments, got 3"),
        ("constant", "source 'constant': the value is required"),
    ])
    def test_bad_arguments_are_refused_up_front(self, spec, message):
        # The generators are lazy: without the check these would fail at
        # the first element, mid-run.  The analysis bounds parse the spec
        # the same way, so they refuse it with the same message.
        from repro.ir.analysis import bounds_from_spec
        from repro.runtime.sources import from_spec

        for parse in (from_spec, bounds_from_spec):
            with pytest.raises(ValueError, match=re.escape(message)):
                parse(spec)

    def test_registry_defaults_match_the_generators(self):
        # Specs take their defaults from the registry; a Python caller of
        # the generator gets the signature's.  The two must agree.
        import inspect

        from repro.runtime.sources import SPEC_SOURCES

        for name, source in SPEC_SOURCES.items():
            if name in ("list", "constant"):  # iter, and a Fraction-coercing wrapper
                continue
            signature = inspect.signature(source.generate).parameters
            assert [p.name for p in source.params] == list(signature), name
            for param in source.params:
                default = signature[param.name].default
                if param.required:
                    assert default is inspect.Parameter.empty, (name, param)
                else:
                    assert str(default) == str(param.default), (name, param)

    #: A spec, then field flags naming a field its elements lack: ``counter``
    #: yields scalars, ``bids`` (price, category) pairs.
    BAD_FIELDS = [
        "counter:10 --key-field 0",
        "bids:10 --key-field 2",
        "bids:10 --key-field 1 --value-field 7",
    ]

    @pytest.mark.parametrize(
        "spec", ["sawtooth:10:0", "random_walk:10:1/2", "constant", *BAD_FIELDS]
    )
    def test_run_with_bad_arguments_exits_2(self, spec, tmp_path, capsys):
        from repro.suites import get_benchmark

        path = tmp_path / "mean.scheme.json"
        get_benchmark("mean").ground_truth.save(path)
        source, *flags = spec.split()
        assert main(["run", str(path), "--source", source, *flags]) == 2
        captured = capsys.readouterr()
        name = source.split(":")[0]
        if flags:  # the last flag and its value name the missing field
            want = f"error: {flags[-2]} {flags[-1]}: source {name!r} yields "
        else:
            want = f"error: source {name!r}: the "
        assert captured.err.startswith(want)
        assert "consumed" not in captured.out

    @pytest.mark.parametrize("spec", BAD_FIELDS)
    def test_serve_with_bad_fields_exits_2(self, spec, tmp_path, capsys):
        from repro.suites import get_benchmark

        path = tmp_path / "mean.scheme.json"
        get_benchmark("mean").ground_truth.save(path)
        source, *flags = spec.split()
        argv = ["serve", str(path), "--source", source, *flags,
                "--checkpoint-dir", str(tmp_path / "ck")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        name = source.split(":")[0]
        assert captured.err.startswith(f"error: {flags[-2]} {flags[-1]}: source {name!r} yields ")
        assert "consumed" not in captured.out
        assert not (tmp_path / "ck").exists()  # refused before any worker started

    def test_run_with_non_integer_seed_exits_2(self, tmp_path, capsys):
        from repro.suites import get_benchmark

        path = tmp_path / "max.scheme.json"
        get_benchmark("max").ground_truth.save(path)
        assert main(["run", str(path), "--source", "zipf-keys:100:10:1.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be an integer" in err


class TestKeyedRunBounds:
    """``--value-field J`` pushes only field J into the scheme, so the run
    certifies against that field's bounds, not the whole record's."""

    SOURCE = "zipf-keys:2000:20:3:1.2:1:1000"

    def test_bounds_are_projected_onto_the_value_field(self):
        from repro.cli.deploy import _spec_analysis_bounds
        from repro.ir.analysis import bounds_from_spec

        whole = bounds_from_spec(self.SOURCE)
        args = build_parser().parse_args(
            ["run", "s.json", "--source", self.SOURCE, "--key-field", "1", "--value-field", "0"])
        assert _spec_analysis_bounds(args).element == whole.element[:1]
        args.value_field = 5
        with pytest.raises(ValueError, match="--value-field 5: source 'zipf-keys' yields"):
            _spec_analysis_bounds(args)
        args.value_field = None
        assert _spec_analysis_bounds(args).element == whole.element

    def test_keyed_auto_run_is_refused(self, tmp_path, capsys):
        # Keyed runs fold exact only; asking for columnar is a usage error,
        # not a flag that silently does nothing.
        from repro.suites import get_benchmark

        path = tmp_path / "max.scheme.json"
        get_benchmark("max").ground_truth.save(path)
        assert main(["run", str(path), "--source", self.SOURCE, "--key-field", "1",
                     "--value-field", "0", "--backend", "auto"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --backend auto")
        assert "consumed" not in captured.out
