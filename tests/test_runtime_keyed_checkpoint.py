"""Tests for the keyed runtime, checkpoint/restore, and the defined
empty-batch semantics of operators and pipelines."""

from fractions import Fraction

import pytest
from differential import mean_scheme, rate_scheme, sum_scheme

from repro.core.scheme import OnlineScheme
from repro.ir.dsl import add
from repro.ir.nodes import OnlineProgram
from repro.ir import run_offline
from repro.runtime import (
    CheckpointError,
    KeyedOperator,
    OnlineOperator,
    StreamPipeline,
    load_checkpoint,
    save_checkpoint,
    sources,
)
from repro.suites import get_benchmark


class TestDefinedEmptyBatches:
    def test_push_many_empty_on_fresh_operator(self):
        # Rule Lift-Nil: the defined value for zero elements is fst(I).
        op = OnlineOperator(mean_scheme())
        assert op.push_many([]) == 0
        assert op.count == 0

    def test_push_many_empty_preserves_state(self):
        op = OnlineOperator(sum_scheme())
        op.push_many([1, 2, 3])
        assert op.push_many([]) == 6
        assert op.count == 3

    def test_pipeline_push_many_empty(self):
        pipeline = StreamPipeline(
            {"sum": OnlineOperator(sum_scheme()), "mean": OnlineOperator(mean_scheme())}
        )
        assert pipeline.push_many([]) == {"sum": 0, "mean": 0}

    def test_pipeline_push_many(self):
        pipeline = StreamPipeline({"sum": OnlineOperator(sum_scheme())})
        assert pipeline.push_many([1, 2, 3]) == {"sum": 6}

    def test_pipeline_run_empty_source_yields_nothing(self):
        pipeline = StreamPipeline({"sum": OnlineOperator(sum_scheme())})
        assert list(pipeline.run([])) == []
        assert pipeline.snapshot() == {"sum": 0}

    def test_keyed_push_many_empty(self):
        keyed = KeyedOperator(sum_scheme(), key_fn=lambda e: e[1])
        assert keyed.push_many([]) == {}


class TestKeyedOperator:
    def events(self, n=60):
        return [(Fraction((i * 13) % 31), i % 4) for i in range(n)]

    def test_push_returns_key_and_value(self):
        keyed = KeyedOperator(
            sum_scheme(), key_fn=lambda e: e[1], value_fn=lambda e: e[0]
        )
        assert keyed.push((Fraction(3), "a")) == ("a", 3)
        assert keyed.push((Fraction(4), "a")) == ("a", 7)
        assert keyed.push((Fraction(5), "b")) == ("b", 5)
        assert keyed.count == 3
        assert len(keyed) == 2

    def test_matches_per_key_batch_recomputation(self):
        """The group-by contract: each partition's final value equals the
        batch program run over just that key's elements."""
        bench = get_benchmark("mean")
        keyed = KeyedOperator(
            bench.ground_truth, key_fn=lambda e: e[1], value_fn=lambda e: e[0]
        )
        events = self.events()
        snapshot = keyed.push_many(events)
        assert set(snapshot) == {0, 1, 2, 3}
        for key in snapshot:
            per_key = [price for price, k in events if k == key]
            assert snapshot[key] == run_offline(bench.program, per_key)

    def test_matches_bids_source(self):
        # Nexmark flavour: per-category highest bid over the bids source.
        bench = get_benchmark("q_highest_bid")
        keyed = KeyedOperator(
            bench.ground_truth, key_fn=lambda e: e[1], value_fn=lambda e: e[0]
        )
        bids = list(sources.bids(200))
        keyed.push_many(bids)
        for key in keyed.keys():
            per_key = [price for price, cat in bids if cat == key]
            assert keyed.value(key) == run_offline(bench.program, per_key)

    def test_whole_element_by_default(self):
        # Without value_fn the partition's scheme sees the element itself.
        keyed = KeyedOperator(sum_scheme(), key_fn=lambda e: "k")
        keyed.push(Fraction(2))
        keyed.push(Fraction(3))
        assert keyed.value("k") == 5

    def test_value_default_for_unknown_key(self):
        keyed = KeyedOperator(sum_scheme(), key_fn=lambda e: e)
        assert keyed.value("missing") is None
        assert keyed.value("missing", default=0) == 0

    def test_reset_one_key_and_all(self):
        keyed = KeyedOperator(sum_scheme(), key_fn=lambda e: e % 2)
        keyed.push_many([1, 2, 3, 4])
        keyed.reset(0)
        assert keyed.keys() == [1]
        # count tracks the elements held by the remaining partitions.
        assert keyed.count == 2
        keyed.reset("never seen")  # unknown keys are a no-op
        assert keyed.count == 2
        keyed.reset()
        assert keyed.keys() == [] and keyed.count == 0

    def test_extra_params_reach_partitions(self):
        keyed = KeyedOperator(
            rate_scheme(), key_fn=lambda e: e[1], value_fn=lambda e: e[0],
            extra={"rate": 3},
        )
        keyed.push((2, "a"))
        keyed.push((5, "a"))
        assert keyed.value("a") == 21

    @pytest.mark.parametrize(
        "push", [KeyedOperator.push, lambda op, e: op.push_many([e])], ids=["push", "push_many"]
    )
    def test_failed_first_push_of_a_new_key_leaves_no_partition(self, push):
        keyed = KeyedOperator(sum_scheme(), key_fn=lambda e: e[1], value_fn=lambda e: e[0])
        keyed.push((1, "k"))
        before = keyed.checkpoint()
        with pytest.raises(TypeError):
            push(keyed, ("x", "new"))
        assert keyed.count == 1
        assert keyed.snapshot() == {"k": 1}
        assert len(keyed) == 1
        assert keyed.checkpoint()["partitions"] == before["partitions"]


class TestCheckpointRestore:
    def test_operator_resume_identical_outputs(self):
        stream = [Fraction(v) for v in range(100)]
        op = OnlineOperator(mean_scheme(), name="mean")
        for x in stream[:60]:
            op.push(x)
        data = op.checkpoint()

        resumed = OnlineOperator.restore(data)
        reference = op  # keep pushing the original
        tail_resumed = [resumed.push(x) for x in stream[60:]]
        tail_reference = [reference.push(x) for x in stream[60:]]
        assert tail_resumed == tail_reference
        assert resumed.count == reference.count == 100
        assert resumed.name == "mean"

    def test_round_trips_through_json_file(self, tmp_path):
        op = OnlineOperator(rate_scheme(), extra={"rate": Fraction(1, 3)})
        op.push_many([1, 2, 3])
        path = tmp_path / "op.ck.json"
        save_checkpoint(op, path)
        resumed = load_checkpoint(path)
        assert resumed.state == op.state
        assert resumed.extra == {"rate": Fraction(1, 3)}
        assert type(resumed.extra["rate"]) is Fraction
        assert resumed.push(3) == op.push(3)

    def test_pipeline_checkpoint(self, tmp_path):
        pipeline = StreamPipeline(
            {"sum": OnlineOperator(sum_scheme()), "mean": OnlineOperator(mean_scheme())}
        )
        pipeline.push_many([1, 2, 3])
        path = tmp_path / "pipe.ck.json"
        save_checkpoint(pipeline, path)
        resumed = load_checkpoint(path)
        assert resumed.snapshot() == pipeline.snapshot()
        assert resumed.push(5) == pipeline.push(5)

    def test_keyed_checkpoint(self, tmp_path):
        events = [(Fraction(i), i % 3) for i in range(30)]
        keyed = KeyedOperator(
            sum_scheme(), key_fn=lambda e: e[1], value_fn=lambda e: e[0]
        )
        keyed.push_many(events[:20])
        path = tmp_path / "keyed.ck.json"
        save_checkpoint(keyed, path)

        resumed = load_checkpoint(
            path, key_fn=lambda e: e[1], value_fn=lambda e: e[0]
        )
        keyed.push_many(events[20:])
        resumed.push_many(events[20:])
        assert resumed.snapshot() == keyed.snapshot()
        assert resumed.count == keyed.count

    def test_string_keys_checkpoint(self, tmp_path):
        # Partition keys are routinely strings (user IDs, category names).
        keyed = KeyedOperator(
            sum_scheme(), key_fn=lambda e: e[1], value_fn=lambda e: e[0]
        )
        keyed.push_many([(1, "alice"), (2, "bob"), (3, "alice")])
        path = tmp_path / "str-keys.ck.json"
        save_checkpoint(keyed, path)
        resumed = load_checkpoint(
            path, key_fn=lambda e: e[1], value_fn=lambda e: e[0]
        )
        assert resumed.snapshot() == {"alice": 4, "bob": 2}

    def test_failed_push_does_not_advance_count(self):
        # An element that blows up mid-step must not be counted as folded,
        # or a later checkpoint would overstate the consumed prefix.
        broken = OnlineScheme(
            (0,), OnlineProgram(("s",), "x", (add("s", "unbound_name"),))
        )
        keyed = KeyedOperator(broken, key_fn=lambda e: 0)
        with pytest.raises(Exception):
            keyed.push(1)
        assert keyed.count == 0

    def test_keyed_restore_requires_key_fn(self, tmp_path):
        keyed = KeyedOperator(sum_scheme(), key_fn=lambda e: 0)
        path = tmp_path / "keyed.ck.json"
        save_checkpoint(keyed, path)
        with pytest.raises(CheckpointError, match="key_fn"):
            load_checkpoint(path)

    def test_key_fn_rejected_for_plain_operator(self, tmp_path):
        op = OnlineOperator(sum_scheme())
        path = tmp_path / "op.ck.json"
        save_checkpoint(op, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, key_fn=lambda e: 0)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(kind="repro/unknown"),
            lambda d: d.update(version=99),
            lambda d: d.update(state=[["int", "0"], ["int", "0"], ["int", "0"]]),
            lambda d: d.update(state="zero"),
            lambda d: d.update(count=-1),
            lambda d: d.update(count="many"),
            lambda d: d.update(scheme={"format": "wrong"}),
        ],
    )
    def test_tampered_checkpoints_rejected(self, mutate, tmp_path):
        op = OnlineOperator(mean_scheme())
        op.push_many([1, 2, 3])
        data = op.checkpoint()
        mutate(data)
        path = tmp_path / "bad.ck.json"
        save_checkpoint(data, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestSourceSpecs:
    def test_counter(self):
        assert list(sources.from_spec("counter:5")) == [0, 1, 2, 3, 4]

    def test_counter_with_start(self):
        assert list(sources.from_spec("counter:3:10")) == [10, 11, 12]

    def test_list_literal(self):
        values = list(sources.from_spec("list:1,2,5/2"))
        assert values == [1, 2, Fraction(5, 2)]

    def test_bids_are_pairs(self):
        bids = list(sources.from_spec("bids:10"))
        assert len(bids) == 10
        assert all(isinstance(b, tuple) and len(b) == 2 for b in bids)

    @pytest.mark.parametrize("bad", ["nope:3", "list:", "counter:x:y:z:w:v"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            list(sources.from_spec(bad))
