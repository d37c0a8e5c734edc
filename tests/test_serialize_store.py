"""Tests for scheme serialization (repro.core.serialize) and the persistent
scheme store (repro.store)."""

import json
from fractions import Fraction

import pytest
from differential import mean_scheme

from repro.core import SynthesisConfig
from repro.core.scheme import OnlineScheme
from repro.core.serialize import (
    SchemeFormatError,
    decode_value,
    encode_value,
    loads_scheme,
)
from repro.ir.dsl import add, mul
from repro.ir.nodes import OnlineProgram
from repro.ir.parser import ParseError, parse_online_program
from repro.ir.pretty import online_program_to_sexpr
from repro.store import SchemeStore, scheme_key
from repro.suites import all_benchmarks, get_benchmark


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            0,
            -17,
            10**40,  # beyond 53-bit JSON float precision
            Fraction(1, 3),
            Fraction(-22, 7),
            2.5,
            float("inf"),
            True,
            False,
            (Fraction(1, 2), 3, (True, -1)),
            [1, Fraction(3, 4)],
        ],
    )
    def test_round_trip_exact(self, value):
        decoded = decode_value(json.loads(json.dumps(encode_value(value))))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_nan_round_trips(self):
        decoded = decode_value(encode_value(float("nan")))
        assert isinstance(decoded, float) and decoded != decoded

    def test_fraction_stays_fraction(self):
        # The whole point: exact rationals must never degrade to floats.
        decoded = decode_value(encode_value(Fraction(1, 3)))
        assert isinstance(decoded, Fraction)
        assert decoded * 3 == 1

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "3",
            3,
            ["int", 3],
            ["int", "x"],
            ["rat", "1", "0"],  # zero denominator
            ["rat", "1"],
            ["float", "spam"],
            ["tuple", "nope"],
            ["mystery", "1"],
            [],
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(SchemeFormatError):
            decode_value(bad)

    def test_unserializable_value_rejected(self):
        with pytest.raises(SchemeFormatError):
            encode_value(object())


class TestOnlineProgramSexpr:
    def test_round_trip(self):
        program = mean_scheme().program
        assert parse_online_program(online_program_to_sexpr(program)) == program

    def test_extra_params_round_trip(self):
        program = OnlineProgram(
            ("s",), "x", (add("s", mul("x", "rate")),), ("rate",)
        )
        assert parse_online_program(online_program_to_sexpr(program)) == program

    @pytest.mark.parametrize(
        "text",
        [
            "(lambda (xs) xs)",  # not an online form
            "(online (state y) (elem x))",  # missing outputs
            "(online (state y) (elem x) (outputs y y))",  # arity mismatch
            "(online (state y y) (elem x) (outputs y y))",  # duplicate name
            "(online (state y) (elem x y) (outputs y))",  # two elem names
            "(online (state y) (elem y) (outputs y))",  # state/elem collide
            "(online (state y) (elem x) (outputs z))",  # unbound variable
            "(online (state y) (elem x) (outputs (foldl add 0 xs)))",  # offline
            "(online (state y) (elem x) (weird) (outputs y))",  # unknown section
            "(online (state y) (elem x) (outputs y)) trailing",
        ],
    )
    def test_strict_validation(self, text):
        with pytest.raises(ParseError):
            parse_online_program(text)


class TestSchemeRoundTrip:
    def test_mean_round_trip(self):
        scheme = mean_scheme()
        assert OnlineScheme.loads(scheme.dumps()) == scheme

    def test_every_suite_ground_truth_round_trips_exactly(self):
        """The headline property: serialization preserves every hand-written
        scheme in the benchmark suite bit-for-bit, rationals included."""
        schemes = [b.ground_truth for b in all_benchmarks() if b.ground_truth]
        assert len(schemes) >= 40  # the suite ships ground truths
        for scheme in schemes:
            restored = OnlineScheme.loads(scheme.dumps())
            assert restored == scheme
            for got, want in zip(restored.initializer, scheme.initializer):
                assert type(got) is type(want)

    def test_save_load_file(self, tmp_path):
        scheme = get_benchmark("variance").ground_truth
        path = tmp_path / "variance.scheme.json"
        scheme.save(path)
        assert OnlineScheme.load(path) == scheme

    def test_dumps_is_stable(self):
        assert mean_scheme().dumps() == mean_scheme().dumps()

    def test_provenance_survives(self):
        scheme = mean_scheme()
        scheme.provenance = "opera:mean"
        assert OnlineScheme.loads(scheme.dumps()).provenance == "opera:mean"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(format="other/format"),
            lambda d: d.update(version=99),
            lambda d: d.update(initializer=[["int", "0"]]),  # arity mismatch
            lambda d: d.update(program="(lambda (xs) xs)"),
            lambda d: d.update(program=17),
            lambda d: d.update(initializer="zero"),
            lambda d: d.update(provenance=3),
            lambda d: d.pop("program"),
        ],
    )
    def test_strict_load_validation(self, mutate):
        data = mean_scheme().to_dict()
        mutate(data)
        with pytest.raises(SchemeFormatError):
            OnlineScheme.from_dict(data)

    def test_loads_rejects_non_json(self):
        with pytest.raises(SchemeFormatError):
            loads_scheme("not json {")

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(SchemeFormatError):
            OnlineScheme.from_dict(["nope"])


class TestSchemeStore:
    def program(self):
        return get_benchmark("mean").program

    def test_miss_then_hit(self, tmp_path):
        store = SchemeStore(tmp_path)
        key = scheme_key(self.program(), SynthesisConfig())
        assert store.get(key) is None
        store.put(key, mean_scheme(), task="mean")
        assert store.get(key) == mean_scheme()
        assert (store.hits, store.misses) == (1, 1)

    def test_key_depends_on_program(self):
        config = SynthesisConfig()
        assert scheme_key(self.program(), config) != scheme_key(
            get_benchmark("variance").program, config
        )

    def test_key_depends_on_config(self):
        program = self.program()
        assert scheme_key(program, SynthesisConfig()) != scheme_key(
            program, SynthesisConfig(unroll_depth=4)
        )

    def test_key_ignores_timeout(self):
        # The budget decides whether synthesis finishes, not what it finds.
        program = self.program()
        assert scheme_key(program, SynthesisConfig(timeout_s=1)) == scheme_key(
            program, SynthesisConfig(timeout_s=600)
        )

    def test_key_depends_on_implementation(self, monkeypatch):
        program = self.program()
        before = scheme_key(program, SynthesisConfig())
        import repro.fingerprint as fp

        monkeypatch.setattr(fp, "implementation_digest", lambda: "different")
        assert scheme_key(program, SynthesisConfig()) != before

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = SchemeStore(tmp_path)
        key = scheme_key(self.program(), SynthesisConfig())
        store.put(key, mean_scheme())
        path = store._path(key)
        path.write_text("{broken json", encoding="utf-8")
        assert store.get(key) is None
        path.write_text('{"scheme": {"format": "wrong"}}', encoding="utf-8")
        assert store.get(key) is None

    def test_unwritable_store_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        store = SchemeStore(blocker / "sub")  # parent is a file: mkdir fails
        store.put("ab" * 32, mean_scheme())
        assert store.get("ab" * 32) is None

    def test_stats_clear_gc(self, tmp_path):
        store = SchemeStore(tmp_path)
        for i in range(3):
            store.put(f"{i:02d}" + "e" * 62, mean_scheme())
        count, size = store.entry_stats()
        assert count == 3 and size > 0
        assert store.gc(max_age_s=3600) == 0  # all fresh
        assert store.gc(max_age_s=-1) == 3  # everything is older than -1s
        store.put("ff" + "e" * 62, mean_scheme())
        assert store.clear() == 1
        assert store.entry_stats() == (0, 0)


class TestResultCacheImplDigest:
    def test_task_key_depends_on_implementation(self, monkeypatch):
        from repro.evaluation import ResultCache

        bench = get_benchmark("mean")
        before = ResultCache.task_key("opera", bench, SynthesisConfig())
        import repro.fingerprint as fp

        monkeypatch.setattr(fp, "implementation_digest", lambda: "different")
        after = ResultCache.task_key("opera", bench, SynthesisConfig())
        assert before != after

    def test_implementation_digest_is_stable_hex(self):
        from repro.fingerprint import implementation_digest

        digest = implementation_digest()
        assert digest == implementation_digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
