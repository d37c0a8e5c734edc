"""The static-analysis framework (:mod:`repro.ir.analysis`), differentially.

The analyses make checkable claims; these tests check them against the
actual runtime rather than against the analyzer's own opinion of itself:

* interval certificates: every state value observed while stepping a scheme
  over adversarial in-bounds streams lies inside the certified interval
  (so in particular int64 certificates are honest);
* division-by-zero: a site the analyzer calls ``safe`` never sees a zero
  denominator at runtime, and a ``reachable`` witness replays to a real
  zero denominator on the concrete interpreter;
* dead-state elimination: the rewrite is bit-identical (types included) on
  every ground-truth scheme and on synthetic schemes with dead components,
  compiled and interpreted, keyed and unkeyed, through checkpoint round
  trips;
* the read-out split: exactly the ground truths whose first component is a
  total function of the other components' new values split, and operators
  batching on the accumulators show the interpreter fold's full state
  after empty, failing and restored batches, keyed and unkeyed;
* static pruning: the enumerator finds the identical expression with the
  identical generated/kept/checked counts whether pruning is on or off;
* the report/exit-code contract the CLI builds on.

Soundness is enforced on all 51 ground truths plus >= 200 randomly
enumerated candidate programs per seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from differential import adversarial_stream, assert_same_value, canonical_stream, integral_stream
from test_ir_compile import ORACLE_ERRORS, random_candidate

from repro.cli import main as cli_main
from repro.core import SynthesisConfig
from repro.core.enumerative import EnumStats, enumerate_expression
from repro.core.rfs import RFS
from repro.core.scheme import OnlineScheme
from repro.ir.analysis import (
    AnalysisBounds,
    FieldBounds,
    analyze_intervals,
    analyze_liveness,
    analyze_online,
    audit_program,
    bounds_from_spec,
    element_blind,
    eliminate_dead_state,
    exit_code,
    find_divzero_witness,
    int64_certified,
    scalar_bounds,
    split_readout,
    statically_redundant,
)
from repro.ir.analysis.domain import INF, ANum, Interval, join_iv, of_value, widen_iv
from repro.ir.analysis.divzero import watched_step
from repro.ir.dsl import XS, add, fmap, fold_sum_of, ite, lam, mul, powi
from repro.ir.nodes import (
    Call,
    Const,
    Hole,
    If,
    Lambda,
    Let,
    ListVar,
    MakeTuple,
    OnlineProgram,
    Proj,
    Var,
)
from repro.core.serialize import encode_value
from repro.ir.pretty import pretty
from repro.ir.traversal import free_vars, substitute
from repro.runtime import KeyedOperator, OnlineOperator
from repro.runtime.checkpoint import restore_keyed
from repro.suites import all_benchmarks, get_benchmark

#: Bounds that cover every value ``adversarial_stream`` can emit (its pool
#: spans ints in [-3, 7] and fractions in [-9/4, 22/7]; arity-2 second
#: fields span [0, 3]) — streams drawn from it are in-bounds by
#: construction, which is what makes the soundness checks meaningful.
def _stream_bounds(arity: int, max_elements: int = 60) -> AnalysisBounds:
    if arity <= 1:
        fields = (FieldBounds(Fraction(-3), Fraction(7)),)
    else:
        fields = (
            FieldBounds(Fraction(-3), Fraction(7)),
            FieldBounds(Fraction(0), Fraction(3)),
        )
    return AnalysisBounds(element=fields, max_elements=max_elements)


def _extras_for(program: OnlineProgram) -> dict:
    return {
        name: value
        for name, value in zip(program.extra_params, (2, Fraction(1, 2), 0, -3) * 4)
    }


# ---------------------------------------------------------------------------
# Abstract domain
# ---------------------------------------------------------------------------


class TestDomain:
    def test_interval_basics(self):
        iv = Interval(Fraction(-2), Fraction(5))
        assert iv.bounded and iv.contains_zero() and iv.contains(Fraction(3))
        assert not iv.contains(Fraction(6))
        assert Interval(Fraction(1), Fraction(1)).singleton

    def test_join_and_widen(self):
        a = Interval(Fraction(0), Fraction(1))
        b = Interval(Fraction(-3), Fraction(2))
        j = join_iv(a, b)
        assert j.lo == Fraction(-3) and j.hi == Fraction(2)
        w = widen_iv(a, Interval(Fraction(0), Fraction(10**7)))
        assert w.hi >= Fraction(10**7)  # widened past, never below

    def test_infinite_endpoints_do_not_overflow(self):
        # Fraction + float inf would raise OverflowError on huge fractions;
        # the domain's endpoint arithmetic must stay symbolic.
        huge = ANum(Interval(Fraction(10**400), INF), integral=True, exact=True)
        from repro.ir.analysis.domain import num_add, num_mul, num_sub

        for fn in (num_add, num_sub, num_mul):
            out = fn(huge, huge)
            assert isinstance(out, ANum)  # no OverflowError

    def test_of_value_and_int64(self):
        assert int64_certified(of_value(3))
        assert int64_certified(of_value(Fraction(4, 2)))
        assert not int64_certified(of_value(Fraction(1, 3)))  # not integral
        assert not int64_certified(of_value(2**63))  # out of range
        unbounded = ANum(Interval(-INF, INF), integral=True, exact=True)
        assert not int64_certified(unbounded)


# ---------------------------------------------------------------------------
# Bounds derivation
# ---------------------------------------------------------------------------


class TestBounds:
    def test_bids_spec(self):
        b = bounds_from_spec("bids:1000")
        assert b.max_elements == 1000
        price, category = b.element
        assert (price.lo, price.hi, price.integral) == (50, 500, True)
        assert (category.lo, category.hi) == (1, 5)

    def test_counter_and_list(self):
        c = bounds_from_spec("counter:10")
        assert (c.element[0].lo, c.element[0].hi) == (0, 9)
        lst = bounds_from_spec("list:3,1,-2")
        assert (lst.element[0].lo, lst.element[0].hi) == (-2, 3)
        assert lst.max_elements == 3

    def test_max_elements_only_tightens(self):
        b = bounds_from_spec("bids:1000", max_elements=10)
        assert b.max_elements == 10
        b = bounds_from_spec("bids:10", max_elements=1000)
        assert b.max_elements == 10

    def test_max_elements_caps_count_dependent_ranges(self):
        # The cap applies before the range is derived from the count: an
        # unbounded counter under --max-elements 100 yields 0..99.
        c = bounds_from_spec("counter", max_elements=100)
        assert (c.element[0].lo, c.element[0].hi, c.max_elements) == (0, 99, 100)
        c = bounds_from_spec("counter:1000:5", max_elements=10)
        assert (c.element[0].lo, c.element[0].hi) == (5, 14)
        w = bounds_from_spec("random_walk:500", max_elements=4)
        assert (w.element[0].lo, w.element[0].hi) == (-12, 12)

    def test_unknown_source_raises(self):
        with pytest.raises(ValueError):
            bounds_from_spec("nope:1")

    #: Each source at its defaults, with explicit arguments, and with
    #: fractional ones where its generator takes them.  The int64
    #: certificate trusts these bounds, so every element must lie inside.
    SOUNDNESS_SPECS = (
        "list:3,1/2,-2",
        "constant:3:10",
        "constant:-5/2:10",
        "counter:40",
        "counter:40:-7",
        "counter:40:5/2",
        "sawtooth:60",
        "sawtooth:60:5:3",
        "sawtooth:60:5/2",
        "sawtooth:60:7/2:1",
        "sawtooth:60:-4",
        "random_walk:80",
        "random_walk:80:2:5",
        "gaussian:200",
        "gaussian:200:3",
        "bids:200",
        "bids:200:3:10:20:4",
        "pairs:60",
        "pairs:60:-3:2:0",
        "pairs:60:1/2:1/3:1",
        "zipf-keys:300",
        "zipf-keys:300:7:3:3/2:5:9",
        # The valid specs the CLI tests run.
        "list:10",
        "counter:5",
        "counter:50:50",
        "gaussian:20",
        "bids:20",
        "bids:100",
        "zipf-keys:10",
        "zipf-keys:20:5:9",
        "zipf-keys:300:10:5",
        "zipf-keys:400:10:5",
        "zipf-keys:6000:20:7",
        "zipf-keys:2000:20:3:1.2:1:1000",
    )

    def test_source_elements_lie_inside_their_bounds(self):
        from itertools import islice

        from repro.runtime.sources import SPEC_SOURCES, from_spec

        cases = [(spec, None) for spec in self.SOUNDNESS_SPECS]
        cases += [("counter", 30), ("bids", 40), ("random_walk:500", 25)]
        cases += [("constant:3", 5), ("zipf-keys", 50)]
        names = {spec.partition(":")[0] for spec, _ in cases}
        assert names == {"list", *SPEC_SOURCES}  # every source has bounds
        for spec, cap in cases:
            bounds = bounds_from_spec(spec, max_elements=cap)
            elements = list(islice(from_spec(spec, allow_unbounded=True), cap))
            assert len(elements) <= bounds.max_elements, spec
            for element in elements:
                fields = element if isinstance(element, tuple) else (element,)
                assert len(fields) == len(bounds.element), (spec, element)
                for value, field in zip(fields, bounds.element):
                    assert field.lo <= value <= field.hi, (spec, value, field)
                    assert not field.integral or value.denominator == 1, (spec, value)


# ---------------------------------------------------------------------------
# Well-formedness audit
# ---------------------------------------------------------------------------


class TestWellformed:
    def test_clean_scheme_has_no_errors(self):
        scheme = get_benchmark("variance").ground_truth
        findings = audit_program(scheme.program, scheme.initializer)
        assert not [f for f in findings if f["level"] == "error"]

    def test_builtin_arity_mismatch_is_error(self):
        prog = OnlineProgram(("s",), "x", (Call("add", (Var("s"),)),))
        report = analyze_online(prog, (0,), scalar_bounds(), search_witness=False)
        assert report["verdict"] == "error"
        assert any("add expects 2" in f["message"] for f in report["findings"])

    def test_hole_and_unknown_builtin_are_errors(self):
        holey = OnlineProgram(("s",), "x", (Hole(0),))
        assert analyze_online(holey, (0,), search_witness=False)["verdict"] == "error"
        unknown = OnlineProgram(("s",), "x", (Call("frobnicate", (Var("s"),)),))
        assert analyze_online(unknown, (0,), search_witness=False)["verdict"] == "error"

    @pytest.mark.parametrize(
        "output",
        [
            add(ListVar("xs"), 1),
            mul(2, XS),
            ite(fmap(lam("v", add("v", 1)), XS), 1, 2),
        ],
        ids=["list-operand", "list-second-operand", "list-condition"],
    )
    def test_list_constructs_are_not_online(self, output):
        prog = OnlineProgram(("s",), "x", (output,))
        report = analyze_online(prog, (0,), scalar_bounds(), search_witness=False)
        assert report["verdict"] == "error"
        assert any(
            f["level"] == "error" and "not an online expression" in f["message"]
            for f in report["findings"]
        )

    def test_error_reports_skip_deeper_analyses(self):
        # The interval engine assumes well-formedness; a broken scheme must
        # still produce a structurally complete report instead of a crash.
        prog = OnlineProgram(("s",), "x", (Call("add", (Var("s"),)),))
        report = analyze_online(prog, (0,), search_witness=True)
        assert report["intervals"]["state"] == []
        assert report["divzero"]["verdict"] == "unknown"


# ---------------------------------------------------------------------------
# Interval certification
# ---------------------------------------------------------------------------


class TestIntervals:
    def test_revenue_over_bids_is_int64_certified(self):
        scheme = get_benchmark("q_revenue").ground_truth
        report = scheme.analyze(bounds_from_spec("bids:1000"), search_witness=False)
        assert report["intervals"]["int64_safe"]
        assert all(s["int64"] for s in report["intervals"]["state"])

    def test_count_certificate_tracks_max_elements(self):
        scheme = get_benchmark("count").ground_truth
        report = scheme.analyze(scalar_bounds(max_elements=500), search_witness=False)
        (entry,) = report["intervals"]["state"]
        assert entry["int64"] and entry["certificate"] in ("affine", "fixpoint")
        assert Fraction(entry["hi"]) <= 500

    def test_unbounded_stream_is_not_certified(self):
        scheme = get_benchmark("sum").ground_truth
        report = scheme.analyze(scalar_bounds(), search_witness=False)
        (entry,) = report["intervals"]["state"]
        assert not entry["int64"]


# ---------------------------------------------------------------------------
# Division-by-zero reachability
# ---------------------------------------------------------------------------


class TestDivZero:
    def test_sum_is_safe(self):
        scheme = get_benchmark("sum").ground_truth
        report = scheme.analyze(scalar_bounds(), search_witness=True)
        assert report["divzero"]["verdict"] == "safe"

    def test_variance_witness_replays_to_a_zero_denominator(self):
        scheme = get_benchmark("variance").ground_truth
        bounds = scalar_bounds(Fraction(-10), Fraction(10), integral=True, max_elements=6)
        witness = find_divzero_witness(scheme.program, scheme.initializer, bounds)
        assert witness is not None
        # Replay: stepping the concrete interpreter over the witness stream
        # must record a zero denominator at exactly the reported site.
        state = scheme.initializer
        for i, elem in enumerate(witness.elements):
            hits: list = []
            try:
                state = watched_step(scheme.program, state, elem, witness.extras, hits)
            except ORACLE_ERRORS:
                pass
            if i == witness.element_index:
                assert witness.site in hits
                break
        else:
            pytest.fail("witness index beyond its own stream")

    def test_reachable_is_warn_not_error(self):
        scheme = get_benchmark("variance").ground_truth
        report = scheme.analyze(
            scalar_bounds(Fraction(-10), Fraction(10), integral=True, max_elements=6)
        )
        assert report["divzero"]["verdict"] == "reachable"
        assert report["verdict"] == "warn"  # safe_div absorbs: deployable
        assert exit_code(report) == 0
        assert exit_code(report, strict=True) == 1


# ---------------------------------------------------------------------------
# Liveness + dead-state elimination
# ---------------------------------------------------------------------------


def _mean_with_junk() -> OnlineScheme:
    """Mean plus a max-tracking component nothing reads (total update)."""
    prog = OnlineProgram(
        ("m", "n", "junk"),
        "x",
        (
            Call(
                "div",
                (
                    Call("add", (Call("mul", (Var("m"), Var("n"))), Var("x"))),
                    Call("add", (Var("n"), Const(1))),
                ),
            ),
            Call("add", (Var("n"), Const(1))),
            Call("max", (Var("junk"), Var("x"))),
        ),
    )
    return OnlineScheme((0, 0, 0), prog, provenance="test")


class TestDeadStateElimination:
    def test_removes_dead_total_component(self):
        scheme = _mean_with_junk()
        rewritten, removed = scheme.eliminate_dead_state(element_arity=1)
        assert removed == ("junk",)
        assert rewritten.program.state_params == ("m", "n")
        assert rewritten.arity == 2

    def test_retains_dead_component_with_faulting_update(self):
        # sqrt can raise on huge exact rationals (float conversion), so the
        # update is not provably total: removal would change fault behaviour.
        prog = OnlineProgram(
            ("s", "junk"),
            "x",
            (Call("add", (Var("s"), Var("x"))), Call("sqrt", (Var("junk"),))),
        )
        report = analyze_liveness(prog, (0, 0), element_arity=1)
        assert report.removable == ()
        assert 1 in report.retained
        new_prog, _, removed = eliminate_dead_state(prog, (0, 0), element_arity=1)
        assert removed == () and new_prog is prog

    def test_unknown_element_shape_blocks_elimination(self):
        # element_arity=None: the element kind is unknown, so no update can
        # be proved total and nothing may be removed.
        scheme = _mean_with_junk()
        _, removed = scheme.eliminate_dead_state(element_arity=None)
        assert removed == ()

    def test_bit_identical_jit_on_and_off(self, jit_mode):
        scheme = _mean_with_junk()
        rewritten, removed = scheme.eliminate_dead_state(element_arity=1)
        assert removed
        stream = adversarial_stream(1, f"dse:{int(jit_mode)}")
        assert_same_value(
            scheme.run_to_list(stream), rewritten.run_to_list(stream), "dse"
        )

    def test_every_ground_truth_unchanged_or_identical(self):
        # Ground truths are hand-minimal (no dead state today), but the
        # invariant is the rewrite's, not the corpus's: whatever it returns
        # must be bit-identical on adversarial streams.
        for bench in all_benchmarks():
            scheme = bench.ground_truth
            rewritten, _removed = scheme.eliminate_dead_state(bench.element_arity)
            stream = adversarial_stream(bench.element_arity, f"dse:{bench.name}")
            extras = _extras_for(scheme.program)
            assert_same_value(
                scheme.run_to_list(stream, extras),
                rewritten.run_to_list(stream, extras),
                bench.name,
            )

    def test_keyed_and_checkpoint_round_trip(self):
        scheme = _mean_with_junk()
        rewritten, _ = scheme.eliminate_dead_state(element_arity=1)
        stream = adversarial_stream(2, "dse:keyed", n=50)
        key_fn = lambda e: e[1]  # noqa: E731
        value_fn = lambda e: e[0]  # noqa: E731

        def run(s):
            op = KeyedOperator(s, key_fn, value_fn=value_fn)
            op.push_many(stream[:23])
            resumed = restore_keyed(op.checkpoint(), key_fn, value_fn=value_fn)
            resumed.push_many(stream[23:])
            return resumed

        original, reduced = run(scheme), run(rewritten)
        assert sorted(original.partitions) == sorted(reduced.partitions)
        for key in original.partitions:
            assert_same_value(original.value(key), reduced.value(key), f"key {key}")

    def test_dse_round_trips_through_serialization(self):
        rewritten, _ = _mean_with_junk().eliminate_dead_state(element_arity=1)
        clone = OnlineScheme.loads(rewritten.dumps())
        assert clone == rewritten


# ---------------------------------------------------------------------------
# The read-out split
# ---------------------------------------------------------------------------


def _split_of(name: str):
    scheme = get_benchmark(name).ground_truth
    return split_readout(scheme.program, scheme.initializer)


def _fold(scheme, state, elements):
    for element in elements:
        state = scheme.interpreted_step(state, element)
    return state


class TestReadoutSplit:
    #: The suite ground truths whose first component is a read-out.
    SPLIT = {
        "covariance", "dispersion_index", "frac_above", "geometric_mean",
        "harmonic_mean", "kurtosis", "mean_abs", "q_avg_price", "q_avg_revenue",
        "q_hit_rate", "regression_slope", "variance", "variance_onepass",
        "variance_sample", "weighted_mean",
    }

    def test_which_ground_truths_split(self):
        assert {b.name for b in all_benchmarks() if _split_of(b.name)} == self.SPLIT

    def test_accumulators_run_in_readout_order(self):
        # variance reads sq' then n'; the unread s' comes last, so the
        # first update to raise on an element is the one an eager step
        # meets first.
        split = _split_of("variance")
        assert split.accumulators.state_params == ("sq", "n", "s")
        assert pretty(split.readout) == "sq / n"
        assert split.initializer == (0, 0, 0)

    @pytest.mark.parametrize("name", ["std", "rms"])
    def test_partial_readout_is_refused(self, name):
        # sqrt converts to float, which can overflow: not provably total.
        assert _split_of(name) is None

    def test_readout_reading_an_extra_is_refused(self):
        # q_avg_converted's y1 = s' / n' * rate: rate may change between
        # batches, and a keyed read is lazy.
        assert _split_of("q_avg_converted") is None

    @pytest.mark.parametrize("name", ["sum_sq_dev", "q_top2"])
    def test_first_component_of_old_state_is_refused(self, name):
        assert _split_of(name) is None

    def test_update_reading_the_first_component_is_refused(self):
        mean = (
            Call("div", (Call("add", (Var("s"), Var("x"))), Call("add", (Var("n"), Const(1))))),
            Call("add", (Var("s"), Var("x"))),
            Call("add", (Var("n"), Const(1))),
        )
        assert split_readout(OnlineProgram(("m", "s", "n"), "x", mean), (0, 0, 0))
        reads_m = OnlineProgram(
            ("m", "s", "n", "t"), "x", mean + (Call("add", (Var("t"), Var("m"))),)
        )
        assert split_readout(reads_m, (0, 0, 0, 0)) is None

    def test_min_max_pass_through_is_refused(self):
        # max/min hand a bool element through and arithmetic on it raises,
        # so range fails eagerly on a bool element; folding only max and
        # min would carry it silently (on [True, 5, 0], back to numbers).
        scheme = get_benchmark("range").ground_truth
        assert _split_of("range") is None
        with pytest.raises(TypeError):
            scheme.interpreted_step(scheme.initializer, True)

    def test_random_splits_fold_like_the_interpreter(self, jit_mode):
        # y1 = g(y2', y3') over random updates, on streams mixing numbers
        # with bools, strings and tuples: every split program's batches
        # must reach the interpreter's state, count and exception class.
        pool = (0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2), True, False, "s", (1, 2))
        split = 0
        for seed in range(400):
            rng = random.Random(f"readout:{seed}")
            updates = [random_candidate(rng, ("y2", "y3", "x"), 2) for _ in range(2)]
            g = random_candidate(rng, ("y2", "y3"), 2)
            first = substitute(g, dict(zip(("y2", "y3"), updates)))
            program = OnlineProgram(("y1", "y2", "y3"), "x", (first, *updates))
            init = tuple(rng.choice((0, 1, Fraction(1, 2))) for _ in range(3))
            if split_readout(program, init) is None:
                continue
            split += 1
            scheme = OnlineScheme(init, program, provenance=f"readout-{seed}")
            stream = [rng.choice(pool) for _ in range(12)]
            want, consumed, raised = init, 0, None
            for element in stream:
                try:
                    want = scheme.interpreted_step(want, element)
                except ORACLE_ERRORS as exc:
                    raised = type(exc)
                    break
                consumed += 1
            op, got = OnlineOperator(scheme), None
            for start, stop in ((0, 3), (3, 7), (7, 12)):
                try:
                    op.push_many(stream[start:stop])
                except ORACLE_ERRORS as exc:
                    got = type(exc)
                    break
            assert (got, op.count) == (raised, consumed), seed
            assert_same_value(op.state, want, f"seed {seed}")
        assert split >= 100

    def test_unkeyed_state_is_the_interpreter_fold(self, jit_mode):
        scheme = get_benchmark("variance").ground_truth
        elements = adversarial_stream(1, "readout", n=14)
        op = OnlineOperator(scheme)
        assert op._plan.split and op._kernel.compiled is jit_mode
        op.push_many([])
        assert_same_value(op.state, scheme.initializer, "empty batch")
        op.push_many(elements[:5])
        assert_same_value(op.state, _fold(scheme, scheme.initializer, elements[:5]), "batch")
        with pytest.raises(TypeError):
            op.push_many(elements[5:9] + ["poison"] + elements[9:])
        assert op.count == 9
        assert_same_value(op.state, _fold(scheme, scheme.initializer, elements[:9]), "failed")
        op.reset()
        op.push_many([])
        assert_same_value(op.state, scheme.initializer, "reset")
        # A restored first component that is not the read-out reads back
        # as stored until an element is folded.
        checkpoint = op.checkpoint()
        checkpoint["state"] = [encode_value(v) for v in (Fraction(7, 3), 4, 1, 2)]
        restored = OnlineOperator.restore(checkpoint)
        restored.push_many([])
        assert_same_value(restored.state, (Fraction(7, 3), 4, 1, 2), "restored")
        restored.push_many(elements[:3])
        want = _fold(scheme, (Fraction(7, 3), 4, 1, 2), elements[:3])
        assert_same_value(restored.state, want, "resumed")
        assert scheme.final(elements) == _fold(scheme, scheme.initializer, elements)[0]

    def test_keyed_state_is_the_interpreter_fold(self, jit_mode):
        scheme = get_benchmark("variance").ground_truth
        stream = [(v, i % 3) for i, v in enumerate(adversarial_stream(1, "keyed", n=20))]
        key_fn, value_fn = (lambda e: e[1]), (lambda e: e[0])

        def check(op, elements, start=None, where=""):
            for key, part in op.partitions.items():
                init = scheme.initializer if start is None else start[key]
                values = [v for v, k in elements if k == key]
                assert_same_value(part.state, _fold(scheme, init, values), f"{where} {key}")
                assert op.value(key) == part.state[0]

        op = KeyedOperator(scheme, key_fn, value_fn=value_fn)
        assert op._plan.split and op._loop.compiled is jit_mode
        view = op.push_many([])
        assert len(view) == 0 and dict(view) == {}
        op.push_many(stream[:7])
        check(op, stream[:7], where="batch")
        with pytest.raises(TypeError):
            op.push_many(stream[7:10] + [("poison", 1)] + stream[10:])
        assert op.count == 10
        check(op, stream[:10], where="failed")
        # The view is live and read-only; snapshot() is a frozen copy.
        frozen = op.snapshot()
        assert dict(view) == frozen and not hasattr(view, "__setitem__")
        op.push_many(stream[10:])
        check(op, stream, where="resumed")
        assert dict(view) == op.snapshot() != frozen
        consistent = restore_keyed(op.checkpoint(), key_fn, value_fn=value_fn)
        assert consistent._plan.split
        check(consistent, stream, where="restored")
        # One inconsistent partition: the restored operator folds full states.
        checkpoint = op.checkpoint()
        checkpoint["partitions"][0][1][0] = encode_value(Fraction(7, 3))
        restored = restore_keyed(checkpoint, key_fn, value_fn=value_fn)
        assert not restored._plan.split
        starts = {key: part.state for key, part in restored.partitions.items()}
        assert starts[0][0] == Fraction(7, 3)
        restored.push_many(stream)
        check(restored, stream, starts, where="inconsistent")
        op.reset(0)
        assert 0 not in view and op.count == sum(p.count for p in op.partitions.values())
        op.reset()
        assert len(view) == 0 and op.count == 0


# ---------------------------------------------------------------------------
# The representation-blind license
# ---------------------------------------------------------------------------


def _typed(value):
    """``value`` with each leaf tagged by its type, and floats by their bits
    (``-0.0`` is not ``0.0``), like the checkpoint encoding; unlike it, a
    number of any size compares."""
    if isinstance(value, tuple):
        return tuple(map(_typed, value))
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def _typed_fold(program, initializer, elements) -> tuple:
    """The interpreter's states over ``elements``, type-tagged, up to the
    first failure, and the class of that failure."""
    scheme = OnlineScheme(initializer, program)
    state, states = initializer, []
    for element in elements:
        try:
            state = scheme.interpreted_step(state, element)
        except ORACLE_ERRORS as exc:
            return states, type(exc)
        states.append(_typed(state))
    return states, None


class TestElementBlind:
    x, s = Var("x"), Var("s")

    def _licensed(self, *outputs) -> bool:
        return element_blind(OnlineProgram(("s",) * len(outputs), "x", outputs))

    @pytest.mark.parametrize("name", ["sum", "count", "mean", "variance"])
    def test_normalizing_ground_truths_are_licensed(self, name):
        assert element_blind(get_benchmark(name).ground_truth.program)

    def test_projection_inside_arithmetic_is_licensed(self):
        assert self._licensed(add(self.s, Proj(self.x, 0)))
        assert self._licensed(ite(Call("lt", (Proj(self.x, 1), Const(0))), self.s, mul(self.s, 2)))

    @pytest.mark.parametrize("name", ["last", "min", "max", "range"])
    def test_element_storing_ground_truths_are_refused(self, name):
        assert not element_blind(get_benchmark(name).ground_truth.program)

    @pytest.mark.parametrize(
        "output",
        [
            Var("x"),
            If(Call("lt", (Var("x"), Const(0))), Var("x"), Var("s")),
            MakeTuple((Var("x"), Var("s"))),
            Call("max", (Var("x"), Var("s"))),
            Let("y", Var("x"), Var("y")),
            Call(Lambda(("x",), add("x", 1)), (Var("s"),)),
            Proj(Var("x"), 0),
        ],
        ids=["bare", "if-branch", "tuple", "max", "let", "shadowing-lambda", "bare-projection"],
    )
    def test_observable_occurrences_are_refused(self, output):
        assert not self._licensed(output)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_licensed_updates_fold_alike(self, seed):
        # The license proposes, this checks: every licensed random update
        # folds the canonical stream to the Fraction stream's states, types
        # included, and fails on the same element if it fails.
        rng = random.Random(seed)
        streams = [
            integral_stream(1, 12) + adversarial_stream(1, f"blind-{seed}", 12),
            integral_stream(2, 12) + adversarial_stream(2, f"blind-{seed}", 12),
        ]
        licensed = 0
        while licensed < 150:
            outputs = tuple(random_candidate(rng, ("y1", "y2", "x"), 3) for _ in range(2))
            program = OnlineProgram(("y1", "y2"), "x", outputs)
            if "x" not in set().union(*map(free_vars, outputs)) or not element_blind(program):
                continue
            licensed += 1
            for stream in streams:
                want = _typed_fold(program, (0, 1), stream)
                got = _typed_fold(program, (0, 1), canonical_stream(stream))
                assert got == want, pretty(outputs[0]) + " | " + pretty(outputs[1])


# ---------------------------------------------------------------------------
# Soundness, differentially
# ---------------------------------------------------------------------------


def _check_soundness(program, initializer, bounds, streams, extras):
    """Interval containment + divzero-safety of one analyzed program against
    concrete runs; returns the number of (stream, step) points checked."""
    analysis = analyze_intervals(program, tuple(initializer), bounds)
    report = analyze_online(program, initializer, bounds, search_witness=False)
    dz_safe = report["divzero"]["verdict"] == "safe"
    points = 0
    for stream in streams:
        state = tuple(initializer)
        for elem in stream:
            hits: list = []
            faulted = False
            try:
                nxt = watched_step(program, state, elem, extras, hits)
            except ORACLE_ERRORS:
                faulted = True
            if dz_safe:
                assert not hits, f"divzero-safe site saw zero denominator: {hits}"
            if faulted:
                break
            for name, av, value in zip(program.state_params, analysis.state, nxt):
                if (
                    isinstance(av, ANum)
                    and isinstance(value, (int, Fraction))
                    and not isinstance(value, bool)
                ):
                    assert av.iv.lo <= value <= av.iv.hi, (
                        f"{name}={value} escapes certified [{av.iv.lo}, {av.iv.hi}]"
                    )
                    points += 1
            state = nxt
    return points


class TestSoundness:
    def test_all_ground_truths(self):
        for bench in all_benchmarks():
            scheme = bench.ground_truth
            bounds = _stream_bounds(bench.element_arity)
            streams = [adversarial_stream(bench.element_arity, f"snd:{bench.name}")]
            _check_soundness(
                scheme.program,
                scheme.initializer,
                bounds,
                streams,
                _extras_for(scheme.program),
            )

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_candidates(self, seed):
        """>= 200 random candidate programs per seed: certificates must
        contain every observed value, divzero-safe verdicts must hold."""
        rng = random.Random(seed)
        names = ("y1", "y2", "x")
        bounds = _stream_bounds(1, max_elements=30)
        pool = [0, 1, -1, 2, -3, 7, Fraction(1, 3), Fraction(-2, 5), Fraction(22, 7)]
        checked = 0
        while checked < 200:
            program = OnlineProgram(
                ("y1", "y2"),
                "x",
                (
                    random_candidate(rng, names, rng.randint(1, 4)),
                    random_candidate(rng, names, rng.randint(1, 3)),
                ),
            )
            report = analyze_online(program, (0, 0), bounds, search_witness=False)
            checked += 1
            if report["verdict"] == "error":
                continue  # statically broken: nothing to run
            streams = [
                [rng.choice(pool) for _ in range(30)] for _ in range(3)
            ]
            _check_soundness(program, (0, 0), bounds, streams, {})


# ---------------------------------------------------------------------------
# Static pruning
# ---------------------------------------------------------------------------


class TestPrune:
    def test_redundancy_rules(self):
        e = Var("s")
        assert statically_redundant(Call("div", (e, Const(1))))
        assert statically_redundant(Call("min", (e, e)))
        assert statically_redundant(Call("max", (e, e)))
        assert statically_redundant(Call("neg", (Call("neg", (e,)),)))
        assert statically_redundant(If(Const(True), e, Var("x")))
        assert statically_redundant(If(Call("lt", (e, e)), e, e))
        assert statically_redundant(Proj(Const(3), 0))  # scalar projection
        assert statically_redundant(Proj(MakeTuple((e, e)), 0))
        assert statically_redundant(Call("sqrt", (MakeTuple((e, e)),)))

    def test_sound_non_rules(self):
        # Excluded on purpose: float degradation makes these behaviourally
        # distinct from their "simplified" forms in corner environments.
        e = Var("s")
        assert not statically_redundant(Call("add", (e, Const(0))))
        assert not statically_redundant(Call("mul", (e, Const(1))))
        assert not statically_redundant(Call("sub", (e, e)))
        assert not statically_redundant(Call("div", (e, Const(1.0))))  # float 1
        assert not statically_redundant(Call("div", (e, Const(True))))  # bool
        # min/max return one of their arguments: on tuples, a tuple (an
        # argmax at x=(5, 10), y=(3, 20)), so projecting from them is live.
        assert not statically_redundant(Proj(Call("max", (Var("x"), Var("y"))), 1))
        assert not statically_redundant(Proj(Call("min", (Var("x"), Var("y"))), 0))

    def test_enumeration_identical_with_and_without_pruning(self, monkeypatch):
        """Pruning is why the config fingerprint need not know about it:
        same candidate generated/kept/checked counts, same found
        expression, with the static check in place or stubbed out."""
        import repro.core.enumerative as enumerative

        spec = fold_sum_of("v", powi("v", 2), XS)
        rfs = RFS(entries={"s": spec}, list_param="xs")
        config = SynthesisConfig(timeout_s=60.0, enumeration_max_size=7)
        results = {}
        for prune in (True, False):
            if not prune:
                monkeypatch.setattr(enumerative, "statically_redundant", lambda expr: False)
            stats = EnumStats()
            found = enumerate_expression(rfs, spec, config, stats=stats)
            results[prune] = (found, stats.generated, stats.kept, stats.checked, stats.pruned)
        assert results[True][0] is not None, "enumeration should solve sum-of-squares"
        assert results[True][:4] == results[False][:4]
        assert results[True][4] > 0  # pruning actually did something
        assert results[False][4] == 0


# ---------------------------------------------------------------------------
# Report + CLI contract
# ---------------------------------------------------------------------------


class TestReportContract:
    def test_exit_codes(self):
        assert exit_code({"verdict": "ok"}) == 0
        assert exit_code({"verdict": "warn"}) == 0
        assert exit_code({"verdict": "warn"}, strict=True) == 1
        assert exit_code({"verdict": "error"}) == 1
        assert exit_code({}) == 1  # malformed report: fail closed

    def test_report_is_json_serializable(self):
        scheme = get_benchmark("variance").ground_truth
        report = scheme.analyze(bounds_from_spec("gaussian:50"))
        round_tripped = json.loads(json.dumps(report))
        assert round_tripped["format"] == "repro/analysis"
        assert round_tripped["verdict"] in ("ok", "warn", "error")

    def test_compile_attaches_and_caches_analysis(self, tmp_path, monkeypatch):
        """Compiling never analyzes; the report is computed on first read,
        once per compiled scheme, and is not written to the store."""
        from repro import api
        from repro.store import SchemeStore

        calls = []
        analyze = OnlineScheme.analyze

        def counting(scheme, *args, **kwargs):
            calls.append(scheme)
            return analyze(scheme, *args, **kwargs)

        monkeypatch.setattr(OnlineScheme, "analyze", counting)
        store = SchemeStore(tmp_path)
        src = "def total(xs):\n    s = 0\n    for x in xs:\n        s += x\n    return s\n"
        first = api.compile(src, store=store, name="total")
        second = api.compile(src, store=store, name="total")
        assert second.from_store
        assert calls == []
        assert first.analysis_verdict in ("ok", "warn")
        assert first.analysis is first.analysis
        assert len(calls) == 1
        bounds = AnalysisBounds(element=(FieldBounds(),), source="compile")
        expected = analyze(first.scheme, bounds, name="total", search_witness=False)
        assert first.analysis == expected
        assert second.analysis == expected
        assert len(calls) == 2
        for path in tmp_path.rglob("*.json"):
            assert "analysis" not in json.loads(path.read_text())
        path = tmp_path / "total.scheme.json"
        first.save(path)
        assert api.CompiledScheme.load(path).analysis is None  # no element arity


class TestCLI:
    def _scheme_file(self, tmp_path, name="mean"):
        path = tmp_path / f"{name}.scheme.json"
        get_benchmark(name).ground_truth.save(path)
        return str(path)

    def test_analyze_ok_scheme_exits_zero(self, tmp_path, capsys):
        assert cli_main(["analyze", self._scheme_file(tmp_path)]) == 0
        assert "mean.scheme" in capsys.readouterr().out

    def test_analyze_strict_promotes_warn(self, tmp_path, capsys):
        path = self._scheme_file(tmp_path, "variance")
        assert cli_main(["analyze", path, "--source", "gaussian:20"]) == 0
        assert (
            cli_main(["analyze", path, "--source", "gaussian:20", "--strict"]) == 1
        )
        capsys.readouterr()

    def test_analyze_usage_errors_exit_two(self, tmp_path, capsys):
        assert cli_main(["analyze"]) == 2  # neither scheme nor --suite
        assert cli_main(["analyze", str(tmp_path / "missing.json")]) == 2
        path = self._scheme_file(tmp_path)
        assert cli_main(["analyze", path, "--source", "nope:1"]) == 2
        capsys.readouterr()
        # Bounds parse specs as the run does, so a spec `repro run` refuses
        # is refused here with the same message, not a traceback.
        assert cli_main(["analyze", "--suite", "stats", "--source", "zipf-keys:10:0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: source 'zipf-keys': the keys must be an integer >= 1, got '0'\n"

    def test_analyze_writes_report_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = self._scheme_file(tmp_path)
        assert cli_main(["analyze", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["format"] == "repro/analysis"
        capsys.readouterr()

    @pytest.mark.parametrize("name, verdict", [
        ("max", "certified-int64"), ("variance", "uncertified"),
        # The verdict is on what an operator batches: q_avg_price's
        # accumulators (s, n), not its rational read-out s / n.
        ("q_avg_price", "certified-int64"),
    ])
    def test_backend_report_has_two_verdicts(self, tmp_path, capsys, name, verdict):
        out = tmp_path / "report.json"
        path = self._scheme_file(tmp_path, name)
        assert cli_main(["analyze", path, "--source", "counter:100", "--backend-report",
                         "--out", str(out)]) == 0
        fragment = json.loads(out.read_text())["backend"]
        assert sorted(fragment) == ["columnar", "reason"]
        assert fragment["columnar"] == verdict
        assert bool(fragment["reason"]) is (verdict == "uncertified")
        assert f"backend {name}.scheme: {verdict}" in capsys.readouterr().out

    def test_run_preflight_refuses_error_verdict(self, tmp_path, capsys):
        broken = OnlineScheme(
            (0,), OnlineProgram(("s",), "x", (Call("add", (Var("s"),)),))
        )
        path = tmp_path / "broken.scheme.json"
        broken.save(path)
        code = cli_main(["run", str(path), "--source", "counter:5"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--no-analyze" in err

    def test_run_preflight_passes_clean_scheme(self, tmp_path, capsys):
        path = self._scheme_file(tmp_path)
        assert cli_main(["run", path, "--source", "counter:5"]) == 0
        assert cli_main(["run", path, "--source", "counter:5", "--no-analyze"]) == 0
        capsys.readouterr()
