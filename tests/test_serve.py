"""Tests for the ``repro.serve`` subsystem: hash ring, sharded server,
crash-restore differential, backpressure, resume and CLI."""

import hashlib
import json
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.scheme import OnlineScheme
from repro.ir.dsl import add, mul
from repro.ir.nodes import OnlineProgram
from repro.runtime import sources
from repro.serve import (
    HashRing,
    ServeError,
    StreamServer,
    field_extractor,
    reference_states,
    stable_key_hash,
    states_match,
)
from repro.serve import hashring


def sum_scheme() -> OnlineScheme:
    return OnlineScheme((0,), OnlineProgram(("s",), "x", (add("s", "x"),)))


def rate_scheme() -> OnlineScheme:
    return OnlineScheme(
        (0,), OnlineProgram(("s",), "x", (add("s", mul("x", "rate")),), ("rate",))
    )


def keyed_stream(n, keys=16, seed=3):
    return list(sources.zipf_keys(n, keys=keys, seed=seed))


def serve(elements, tmp_path, *, push="many", shards=2, **kwargs):
    """One fresh serve run of the sum scheme; ``push`` picks the ingestion
    path: ``"one"`` (per-element push), ``"many"`` (one push_many) or
    ``"chunks"`` (push_many over uneven slices)."""
    options = {"checkpoint_every": 50, "batch_size": 8, **kwargs}
    with StreamServer(
        sum_scheme(), shards=shards, checkpoint_dir=tmp_path, key_field=1,
        value_field=0, fresh=True, **options,
    ) as server:
        if push == "one":
            for element in elements:
                server.push(element)
        elif push == "chunks":
            start = 0
            for size in (1, 7, 0, 30, 3):
                server.push_many(elements[start:start + size])
                start += size
            server.push_many(iter(elements[start:]))
        else:
            server.push_many(elements)
        return server.drain()


#: Keys that compare equal across types: ints, bools, integral and
#: half-integral Fractions and floats, short strings, and tuples of them.
SCALAR_KEYS = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
    st.integers(-6, 6).map(lambda n: n / 2),
    st.floats(allow_nan=False),
    st.sampled_from(["a", "b", "1"]),
)
KEYS = st.recursive(SCALAR_KEYS, lambda inner: st.lists(inner, max_size=3).map(tuple),
                    max_leaves=6)


class TestHashRing:
    def test_stable_hash_is_process_independent(self):
        # BLAKE2b over repr: a fixed value, not PYTHONHASHSEED-salted.
        assert stable_key_hash(17) == 0x20398D138E4D7BB4

    def test_routing_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        for key in range(200):
            assert a.shard_for(key) == b.shard_for(key)

    def test_all_shards_receive_keys(self):
        ring = HashRing(4)
        owners = {ring.shard_for(k) for k in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_distribution_roughly_even(self):
        ring = HashRing(4, replicas=64)
        counts = {s: 0 for s in range(4)}
        for key in range(4000):
            counts[ring.shard_for(key)] += 1
        assert min(counts.values()) > 400  # perfectly even would be 1000

    def test_resize_only_remaps_removed_shards_keys(self):
        # The consistent-hashing contract: removing shard 3 moves ONLY the
        # keys shard 3 owned; everything else keeps its owner.
        ring = HashRing(4)
        before = {k: ring.shard_for(k) for k in range(1000)}
        ring.remove_shard(3)
        for key, owner in before.items():
            if owner != 3:
                assert ring.shard_for(key) == owner
            else:
                assert ring.shard_for(key) != 3

    def test_add_shard_only_steals_keys(self):
        ring = HashRing(3)
        before = {k: ring.shard_for(k) for k in range(1000)}
        ring.add_shard(3)
        moved = {k for k, owner in before.items() if ring.shard_for(k) != owner}
        for key in moved:
            assert ring.shard_for(key) == 3

    def test_int_str_and_tuple_hashes_are_blake2b_of_repr(self):
        # Canonical hashing leaves these keys' placement where it was.
        for key in (0, -5, 2**70, "user", "", ("user", 17), (1, ("a", 2))):
            digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8)
            assert stable_key_hash(key) == int.from_bytes(digest.digest(), "big")

    def test_equal_keys_of_different_types_hash_equal(self):
        for group in (
            (3, Fraction(3), 3.0),
            (0, False, 0.0, -0.0, Fraction(0)),
            (1, True),
            (Fraction(1, 2), 0.5),
            ((0, "a"), (False, "a"), (0.0, "a")),
            ((1, (Fraction(5, 2), True)), (True, (2.5, 1))),
        ):
            assert len({stable_key_hash(key) for key in group}) == 1, group
        assert stable_key_hash(Fraction(1, 3)) != stable_key_hash(1 / 3)  # not equal

    @settings(max_examples=150, deadline=None)
    @given(st.lists(KEYS, min_size=1, max_size=25), st.integers(0, 25),
           st.booleans())
    def test_memo_matches_a_fresh_ring(self, keys, change_at, grow):
        # The memo must never change an answer: every routed key agrees
        # with a brand-new ring over the same shards, across a topology
        # change and with the memo cap crossed over and over (cap 4).
        ring = HashRing(3)
        with mock.patch.object(hashring, "MEMO_LIMIT", 4):
            for step, key in enumerate(keys * 2):
                if step == change_at:
                    ring.add_shard(3) if grow else ring.remove_shard(1)
                assert ring.shard_for(key) == HashRing(ring.shards).shard_for(key)
                assert len(ring._memo) <= 4
        for a in keys:
            for b in keys:
                if a == b:
                    assert ring.shard_for(a) == ring.shard_for(b), (a, b)
                    assert stable_key_hash(a) == stable_key_hash(b), (a, b)

    def test_memo_is_cleared_on_topology_change(self):
        ring = HashRing(2)
        owners = {key: ring.shard_for(key) for key in range(100)}
        assert len(ring._memo) == 100
        ring.add_shard(2)
        assert not ring._memo
        ring.shard_for(0)
        ring.remove_shard(2)
        assert not ring._memo
        assert {key: ring.shard_for(key) for key in range(100)} == owners

    def test_unhashable_keys_route_uncached(self):
        ring = HashRing(4)
        assert ring.shard_for([1, 2]) == ring.shard_for([1, 2])
        assert not ring._memo

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing([1, 1])
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)
        ring = HashRing(1)
        with pytest.raises(ValueError):
            ring.remove_shard(0)  # never remove the last shard


class TestServerDifferential:
    def test_clean_run_matches_single_process(self, tmp_path):
        scheme = sum_scheme()
        elements = keyed_stream(600)
        with StreamServer(
            scheme, shards=3, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=100, batch_size=16, max_inflight=4,
        ) as server:
            server.push_many(elements)
            result = server.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)
        assert result.count == 600
        assert sum(result.shard_counts.values()) == 600
        assert result.restarts == 0

    def test_kill_restore_is_bit_identical(self, tmp_path):
        # The tentpole contract: SIGKILL a worker mid-stream; the restored
        # worker resumes from its checkpoint, the server replays the
        # non-durable suffix, and the final states are exactly the
        # single-process run's.
        scheme = sum_scheme()
        elements = keyed_stream(1200)
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=100, batch_size=16, max_inflight=4,
        ) as server:
            for i, element in enumerate(elements):
                server.push(element)
                if i == 500:
                    server.kill_shard(0)
                if i == 900:
                    server.kill_shard(1)
            result = server.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)
        assert result.restarts == 2

    def test_kill_just_before_drain(self, tmp_path):
        scheme = sum_scheme()
        elements = keyed_stream(400)
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=50, batch_size=8, max_inflight=2,
        ) as server:
            server.push_many(elements)
            server.kill_shard(1)
            result = server.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)
        assert result.restarts >= 1

    def test_backpressure_with_tiny_inflight_window(self, tmp_path):
        # max_inflight=1 forces push() to block on every batch; the run
        # must still complete and stay exact.
        scheme = sum_scheme()
        elements = keyed_stream(300)
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=1000, batch_size=4, max_inflight=1,
        ) as server:
            server.push_many(elements)
            result = server.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)

    def test_extra_params_reach_every_shard(self, tmp_path):
        scheme = rate_scheme()
        elements = keyed_stream(200)
        extra = {"rate": 3}
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            extra=extra, checkpoint_every=50, batch_size=8,
        ) as server:
            server.push_many(elements)
            result = server.drain()
        oracle = reference_states(
            scheme, elements, key_field=1, value_field=0, extra=extra
        )
        assert states_match(result, oracle)

    def test_latencies_recorded(self, tmp_path):
        scheme = sum_scheme()
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            batch_size=8,
        ) as server:
            server.push_many(keyed_stream(200))
            result = server.drain()
        assert result.latencies_s and all(t >= 0 for t in result.latencies_s)
        assert result.p99_latency_s() >= 0


    def test_equal_keys_of_different_types_share_a_shard(self, tmp_path):
        # Regression: 3 and Fraction(3) (and 0/False inside tuples) used to
        # hash to different shards; the merge then kept one partition and
        # silently dropped the other's elements.
        for elements in (
            [(1, 3), (2, Fraction(3)), (4, 3)],
            [(1, (0, "a")), (2, (False, "a")), (5, (0.0, "a"))],
        ):
            result = serve(elements, tmp_path)
            oracle = reference_states(sum_scheme(), elements, key_field=1, value_field=0)
            assert states_match(result, oracle), result.states
            assert len(result.states) == 1

    def test_split_partitions_are_refused_on_merge(self, tmp_path):
        # A ring that splits equal keys across shards must make the merge
        # fail loudly instead of collapsing the two partitions into one.
        class SplitRing:
            memo: dict = {}

            @staticmethod
            def shard_for(key):
                return 1 if isinstance(key, Fraction) else 0

        with StreamServer(
            sum_scheme(), shards=2, checkpoint_dir=tmp_path, key_field=1,
            value_field=0,
        ) as server:
            server.ring = SplitRing()
            server.push_many([(1, 3), (2, Fraction(3))])
            with pytest.raises(ServeError, match="collapsed"):
                server.drain()

    @pytest.mark.parametrize("push", ["one", "chunks"])
    def test_push_and_push_many_hand_off_identical_batches(self, tmp_path, push):
        elements = keyed_stream(500)
        want = serve(elements, tmp_path / "many")
        got = serve(elements, tmp_path / push, push=push)
        assert got.shard_counts == want.shard_counts
        assert len(got.latencies_s) == len(want.latencies_s)
        assert got.states == want.states and got.count == want.count == 500

    def test_push_after_drain_is_refused(self, tmp_path):
        with StreamServer(
            sum_scheme(), shards=1, checkpoint_dir=tmp_path, key_field=1,
        ) as server:
            server.drain()
            with pytest.raises(ServeError, match="not accepting"):
                server.push((1, 1))
            with pytest.raises(ServeError, match="not accepting"):
                server.push_many([])

    def test_field_extractor_is_a_picklable_itemgetter(self):
        get = pickle.loads(pickle.dumps(field_extractor("1")))
        assert get(("v", "k")) == "k"
        assert field_extractor(None) is None
        assert field_extractor(len) is len


class TestServerResume:
    def test_second_server_resumes_checkpoints(self, tmp_path):
        scheme = sum_scheme()
        elements = keyed_stream(800)
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=10, batch_size=8,
        ) as first:
            first.push_many(elements[:400])
            first.drain()
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            checkpoint_every=10, batch_size=8,
        ) as second:
            second.push_many(elements[400:])
            result = second.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)

    def test_fresh_wipes_previous_deployment(self, tmp_path):
        scheme = sum_scheme()
        elements = keyed_stream(200)
        for _ in range(2):  # second run must NOT resume the first's counts
            with StreamServer(
                scheme, shards=2, checkpoint_dir=tmp_path, key_field=1,
                value_field=0, fresh=True,
            ) as server:
                server.push_many(elements)
                result = server.drain()
        oracle = reference_states(scheme, elements, key_field=1, value_field=0)
        assert states_match(result, oracle)

    def test_shard_count_mismatch_rejected(self, tmp_path):
        scheme = sum_scheme()
        with StreamServer(
            scheme, shards=2, checkpoint_dir=tmp_path, key_field=1, value_field=0,
        ) as server:
            server.push_many(keyed_stream(50))
            server.drain()
        with pytest.raises(ServeError, match="2-shard"):
            StreamServer(
                scheme, shards=3, checkpoint_dir=tmp_path, key_field=1,
                value_field=0,
            ).start()

    def test_different_scheme_rejected(self, tmp_path):
        with StreamServer(
            sum_scheme(), shards=2, checkpoint_dir=tmp_path, key_field=1,
            value_field=0,
        ) as server:
            server.push_many(keyed_stream(50))
            server.drain()
        with pytest.raises(ServeError, match="different\\s+scheme"):
            StreamServer(
                rate_scheme(), shards=2, checkpoint_dir=tmp_path, key_field=1,
                value_field=0, extra={"rate": 1},
            ).start()

    def test_v2_manifest_is_refused(self, tmp_path):
        # v2 directories hashed keys before canonicalization: equal keys of
        # different types may sit on another shard than v3 routes them to.
        (tmp_path / "manifest.json").write_text(json.dumps({
            "format": "repro/serve-manifest", "version": 2,
            "scheme": sum_scheme().to_dict(), "shards": 2, "checkpoint_every": 1000,
        }))
        with pytest.raises(ServeError, match="manifest version 2"):
            StreamServer(
                sum_scheme(), shards=2, checkpoint_dir=tmp_path, key_field=1,
            ).start()

    def test_restart_budget_gives_up(self, tmp_path):
        scheme = sum_scheme()
        with StreamServer(
            scheme, shards=1, checkpoint_dir=tmp_path, key_field=1, value_field=0,
            batch_size=4, restart_budget=0,
        ) as server:
            server.push_many(keyed_stream(40))
            server.kill_shard(0)
            with pytest.raises(ServeError, match="restart budget"):
                server.drain()

    def test_config_validation(self, tmp_path):
        for kwargs in (
            {"shards": 0},
            {"batch_size": 0},
            {"max_inflight": 0},
            {"checkpoint_every": 0},
        ):
            with pytest.raises(ValueError):
                StreamServer(
                    sum_scheme(), checkpoint_dir=tmp_path, key_field=1,
                    **{"shards": 2, **kwargs},
                )


class TestServeCli:
    @pytest.fixture()
    def scheme_file(self, tmp_path):
        path = tmp_path / "sum.scheme.json"
        path.write_text(json.dumps(sum_scheme().to_dict()), encoding="utf-8")
        return str(path)

    def test_serve_verify(self, scheme_file, tmp_path, capsys):
        code = main([
            "serve", scheme_file, "--source", "zipf-keys:300:10:5",
            "--key-field", "1", "--value-field", "0", "--shards", "2",
            "--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "50",
            "--batch-size", "16", "--verify",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: OK" in out
        assert "consumed 300 elements" in out

    def test_serve_kill_shard_recovers(self, scheme_file, tmp_path, capsys):
        code = main([
            "serve", scheme_file, "--source", "zipf-keys:400:10:5",
            "--key-field", "1", "--value-field", "0", "--shards", "2",
            "--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "50",
            "--batch-size", "8", "--kill-shard", "0:200", "--verify",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "killed shard 0" in out
        assert "1 restart(s)" in out
        assert "verify: OK" in out

    def test_serve_kills_land_after_exact_offsets(self, scheme_file, tmp_path, capsys):
        # --kill-shard and --fault kills fire after exactly AFTER elements
        # (in that order at a shared offset); one past the end never fires.
        code = main([
            "serve", scheme_file, "--source", "zipf-keys:400:10:5",
            "--key-field", "1", "--value-field", "0", "--shards", "2",
            "--checkpoint-dir", str(tmp_path / "ck"), "--checkpoint-every", "50",
            "--batch-size", "8", "--kill-shard", "1:120", "--kill-shard", "0:300",
            "--fault", "kill:0:120", "--kill-shard", "1:401", "--verify",
        ])
        out = capsys.readouterr().out
        assert code == 0
        killed = [line for line in out.splitlines() if line.startswith("killed")]
        assert killed == [
            "killed shard 1 after 120 elements (crash-restore will replay)",
            "killed shard 0 after 120 elements (crash-restore will replay)",
            "killed shard 0 after 300 elements (crash-restore will replay)",
        ]
        assert "consumed 400 elements" in out
        assert "3 restart(s)" in out
        assert "verify: OK" in out

    def test_serve_rejects_bad_kill_spec(self, scheme_file, tmp_path, capsys):
        assert main([
            "serve", scheme_file, "--source", "zipf-keys:10",
            "--key-field", "1", "--checkpoint-dir", str(tmp_path / "ck"),
            "--kill-shard", "9:5",
        ]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_serve_rejects_unbounded_source(self, scheme_file, tmp_path, capsys):
        assert main([
            "serve", scheme_file, "--source", "zipf-keys",
            "--key-field", "1", "--checkpoint-dir", str(tmp_path / "ck"),
        ]) == 2
        assert "--max-elements" in capsys.readouterr().err
