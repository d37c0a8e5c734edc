"""Tests for the CLI and the synthetic stream sources."""

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
