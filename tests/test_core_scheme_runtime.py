"""Tests for online-scheme semantics (Figure 8) and the streaming runtime."""

from fractions import Fraction

import pytest
from differential import mean_scheme, sum_scheme

from repro.core.scheme import OnlineScheme
from repro.ir.dsl import add, mul
from repro.ir.nodes import OnlineProgram, Var
from repro.runtime import (
    OnlineOperator,
    StreamPipeline,
    compare_with_offline,
    scan,
    sliding,
    tumbling,
)


class TestSchemeSemantics:
    def test_example_3_2(self):
        # [[S]]([0,1,2,3]) = [0, 0.5, 1, 1.5]
        scheme = mean_scheme()
        assert scheme.run_to_list([0, 1, 2, 3]) == [
            0,
            Fraction(1, 2),
            1,
            Fraction(3, 2),
        ]

    def test_lift_nil(self):
        # Rule Lift-Nil: empty stream yields [fst(I)].
        assert mean_scheme().run_to_list([]) == [0]

    def test_final_of_empty(self):
        assert mean_scheme().final([]) == 0

    def test_step_is_pure(self):
        scheme = sum_scheme()
        state = scheme.initializer
        scheme.step(state, 5)
        assert state == (0,)  # no mutation

    def test_trajectory_length(self):
        scheme = sum_scheme()
        assert len(scheme.trajectory([1, 2, 3])) == 4

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OnlineScheme((0, 0), OnlineProgram(("s",), "x", (Var("s"),)))

    def test_extra_params(self):
        scheme = OnlineScheme(
            (0,),
            OnlineProgram(("s",), "x", (add("s", mul("x", "rate")),), ("rate",)),
        )
        assert scheme.final([1, 2, 3], {"rate": 2}) == 12


class TestOperator:
    def test_push_updates_value(self):
        op = OnlineOperator(sum_scheme())
        assert op.push(3) == 3
        assert op.push(4) == 7
        assert op.value == 7
        assert op.count == 2

    def test_reset(self):
        op = OnlineOperator(sum_scheme())
        op.push_many([1, 2, 3])
        op.reset()
        assert op.value == 0
        assert op.count == 0

    def test_fork_is_independent(self):
        op = OnlineOperator(sum_scheme(), {"k": 1})
        op.push(10)
        clone = op.fork()
        clone.push(5)
        clone.extra["k"] = 2
        assert op.value == 10 and op.count == 1 and op.extra == {"k": 1}
        assert clone.value == 15 and clone.count == 2


class TestPipeline:
    def test_lockstep(self):
        pipeline = StreamPipeline(
            {"sum": OnlineOperator(sum_scheme()), "mean": OnlineOperator(mean_scheme())}
        )
        out = pipeline.push(4)
        assert out == {"sum": 4, "mean": 4}
        out = pipeline.push(6)
        assert out == {"sum": 10, "mean": 5}
        assert pipeline.snapshot() == {"sum": 10, "mean": 5}

    def test_run_yields_per_element(self):
        pipeline = StreamPipeline({"sum": OnlineOperator(sum_scheme())})
        results = list(pipeline.run([1, 2, 3]))
        assert [r["sum"] for r in results] == [1, 3, 6]


class TestWindows:
    def test_tumbling(self):
        results = list(tumbling(sum_scheme(), [1, 2, 3, 4, 5, 6], size=2))
        assert results == [3, 7, 11]

    def test_tumbling_partial_tail(self):
        results = list(tumbling(sum_scheme(), [1, 2, 3], size=2))
        assert results == [3, 3]

    def test_tumbling_bad_size(self):
        with pytest.raises(ValueError):
            list(tumbling(sum_scheme(), [1], size=0))

    def test_sliding(self):
        results = list(sliding(sum_scheme(), [1, 2, 3, 4], size=2))
        assert results == [1, 3, 5, 7]

    def test_scan_matches_run(self):
        stream = [1, 2, 3, 4]
        assert list(scan(sum_scheme(), stream)) == sum_scheme().run_to_list(stream)

    def test_compare_with_offline(self):
        stream = [1, 2, 3]
        offline = [1, 3, 6]
        assert compare_with_offline(sum_scheme(), offline, stream)
        assert not compare_with_offline(sum_scheme(), [1, 3, 7], stream)
