"""Tests for the certificate-licensed columnar backend.

The columnar kernel (:mod:`repro.ir.vectorize`) claims a strict contract:
``int64``-certified schemes are bit-for-bit identical to the exact
rationals, and every unadmitted scheme or out-of-contract batch
transparently runs on the exact :class:`~repro.ir.compile.StepKernel` with
its usual partial-progress semantics.  ``test_conformance.py`` holds every
ground-truth scheme to that contract under ``auto`` (gated and ungated);
these tests pin admission verdicts, bailouts, the cost gate, pipeline
interaction, caches and cross-backend checkpoint/restore.

The whole module degrades to exact-path assertions when NumPy is absent
(admission itself is pure structural analysis and never needs NumPy).
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from differential import (
    assert_same_value,
    extras_for,
    interpreted,
    small_int_stream,
)

from repro.core.scheme import OnlineScheme
from repro.ir.analysis import AnalysisBounds, FieldBounds, bounds_from_spec
from repro.ir.compile import StepKernel
from repro.ir.dsl import add, eq, ite
from repro.ir.nodes import OnlineProgram, Var
from repro.ir import vectorize
from repro.ir.vectorize import admit_columnar, numpy_or_none
from repro.runtime import OnlineOperator, StreamPipeline
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.suites import get_benchmark

HAVE_NUMPY = numpy_or_none() is not None

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")


def count_exact_calls(monkeypatch, operator) -> list:
    """Record every batch a columnar operator hands to its exact kernel
    (gated and bailed-out batches alike).  That kernel is the scheme's
    shared one, so exact operators built meanwhile are recorded too."""
    exact = operator._kernel.exact
    run = exact.run
    calls: list = []

    def recording(state, elements, extra=None):
        calls.append(list(elements))
        return run(state, elements, extra)

    monkeypatch.setattr(exact, "run", recording)
    return calls


def bounds_for(elements, arity: int, extra=None) -> AnalysisBounds:
    """Tight bounds for exactly the numbers a test pushes, the way a source
    spec declares them."""
    rows = [(v,) for v in elements] if arity <= 1 else list(elements)
    fields = []
    for column in zip(*rows):
        integral = all(Fraction(v).denominator == 1 for v in column)
        fields.append(FieldBounds(lo=min(column), hi=max(column), integral=integral))
    extras = {name: FieldBounds(lo=v, hi=v, integral=True) for name, v in (extra or {}).items()}
    return AnalysisBounds(
        element=tuple(fields), max_elements=len(rows), extras=extras, source="test"
    )


class TestAdmission:
    """Verdicts are pure structural + static analysis — no NumPy needed."""

    def _admit(self, name, elements=None):
        bench = get_benchmark(name)
        scheme = bench.ground_truth
        elements = elements if elements is not None else small_int_stream(bench.element_arity)
        bounds = bounds_for(elements, bench.element_arity, extras_for(scheme))
        return admit_columnar(scheme.program, scheme.initializer, bounds)

    def test_int64_certified_schemes(self):
        for name in ("sum", "count", "last", "min", "max", "range", "q_bid_volume"):
            admission = self._admit(name)
            assert admission.verdict == "certified-int64", (name, admission.reason)
            assert admission.admitted

    def test_float_optin_schemes(self):
        # Rational state (variance, q_avg_price) or float-only builtins
        # (skewness, rms): no int64 certificate, so the exact path.
        for name in ("variance", "skewness", "rms", "q_avg_price"):
            admission = self._admit(name)
            assert admission.verdict == "uncertified", (name, admission.reason)
            assert not admission.admitted and admission.reason, name

    def test_product_refused_without_certificate(self):
        # 60 factors of magnitude up to 7 blow through int64.
        admission = self._admit("product")
        assert admission.verdict == "uncertified"
        assert not admission.admitted
        assert admission.reason.startswith("state component 'p'"), admission.reason

    def test_structural_decliners(self):
        for name in ("mean", "q_top2"):
            admission = self._admit(name)
            assert admission.verdict == "uncertified", name
            assert not admission.admitted and admission.reason

    def test_admission_without_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert numpy_or_none() is None
        admission = self._admit("sum")
        assert admission.verdict == "certified-int64"

    def test_unknown_backend_rejected(self):
        from repro.api import CompiledScheme

        scheme = get_benchmark("sum").ground_truth
        for backend in ("vectorized", "columnar"):
            with pytest.raises(ValueError):
                OnlineOperator(scheme, backend=backend)
            with pytest.raises(ValueError, match="unknown backend"):
                CompiledScheme(scheme, "sum").keyed(lambda e: e, backend=backend)


@needs_numpy
@pytest.mark.usefixtures("ungated")
class TestDifferentialGroundTruths:
    """Forks on the columnar kernel."""

    def test_fork_keeps_backend(self):
        bench = get_benchmark("sum")
        elements = small_int_stream(bench.element_arity)
        op = OnlineOperator(bench.ground_truth, backend="auto", bounds=bounds_for(elements, 1))
        op.push_many(elements[:10])
        clone = op.fork()
        assert clone.backend_in_use == "columnar"
        assert_same_value(clone.state, op.state)


@needs_numpy
@pytest.mark.usefixtures("ungated")
class TestBailouts:
    """Out-of-contract batches delegate wholesale to the exact kernel."""

    def test_out_of_bounds_batch_falls_back_exactly(self):
        scheme = get_benchmark("sum").ground_truth
        small = list(range(10))
        bounds = bounds_for(small, 1)
        columnar = OnlineOperator(scheme, backend="auto", bounds=bounds)
        assert columnar.backend_in_use == "columnar"
        wild = small + [10**30]  # outside the certified interval
        columnar.push_many(wild)
        assert_same_value(columnar.state, interpreted(scheme, wild))
        # Later in-bounds batches still agree (the huge state itself now
        # forces the exact path — silently, with identical results).
        columnar.push_many(small)
        assert_same_value(columnar.state, interpreted(scheme, wild + small))

    def test_non_numeric_payload_has_exact_error_parity(self):
        # The interpreter raises TypeError on "boom", after two elements.
        scheme = get_benchmark("sum").ground_truth
        columnar = OnlineOperator(scheme, backend="auto", bounds=bounds_for([1, 2, 4], 1))
        with pytest.raises(TypeError):
            columnar.push_many([1, 2, "boom", 4])
        assert_same_value(columnar.state, interpreted(scheme, [1, 2]))
        assert columnar.count == 2

    def test_rational_payloads_are_converted_not_bailed(self, monkeypatch):
        # Fraction elements with denominator 1 (what CLI sources yield) must
        # still run columnar on a multi-component plan (a single scan over
        # Fractions is gated to exact) — the numerator path converts them.
        scheme = get_benchmark("range").ground_truth
        elements = [Fraction((i * 7) % 20, 1) for i in range(20)]
        bounds = bounds_for(elements, 1)
        columnar = OnlineOperator(scheme, backend="auto", bounds=bounds)
        calls = count_exact_calls(monkeypatch, columnar)
        columnar.push_many(elements)
        assert columnar.backend_in_use == "columnar"
        assert calls == []
        assert_same_value(columnar.state, interpreted(scheme, elements))

    def test_no_numpy_degrades_to_exact(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        bench = get_benchmark("sum")
        scheme = bench.ground_truth
        elements = small_int_stream(bench.element_arity)
        bounds = bounds_for(elements, 1)
        assert scheme.compiled_columns(bounds) is None
        op = OnlineOperator(scheme, backend="auto", bounds=bounds)
        assert op.backend_in_use == "exact"
        reference = OnlineOperator(scheme)
        op.push_many(elements)
        reference.push_many(elements)
        assert_same_value(op.state, reference.state)


@needs_numpy
class TestFusionInteraction:
    def test_pipeline_with_columnar_operator_declines_fusion(self):
        elements = [(i * 7) % 11 - 3 for i in range(40)]
        bounds = bounds_for(elements, 1)
        mixed = StreamPipeline(
            {
                "sum": OnlineOperator(
                    get_benchmark("sum").ground_truth, backend="auto", bounds=bounds
                ),
                "count": OnlineOperator(get_benchmark("count").ground_truth),
            }
        )
        stepped = StreamPipeline(
            {
                "sum": OnlineOperator(get_benchmark("sum").ground_truth),
                "count": OnlineOperator(get_benchmark("count").ground_truth),
            }
        )
        assert mixed.operators["sum"].backend_in_use == "columnar"
        snapshot = mixed.push_many(elements)
        for element in elements:
            stepped.push(element)
        assert snapshot == stepped.snapshot()
        # The pipeline batch runs each operator's own kernel: the columnar
        # operator kept its licensed path.
        assert mixed.operators["sum"].backend_in_use == "columnar"
        for name, op in mixed.operators.items():
            assert op.state == stepped.operators[name].state
            assert op.count == stepped.operators[name].count


@needs_numpy
@pytest.mark.usefixtures("ungated")
class TestCrossBackendCheckpoint:
    """Checkpoints are backend-agnostic: the backend is a process decision,
    the state is exact data — restore under any backend, bit-identical."""

    @pytest.mark.parametrize(
        "first,second",
        [("auto", None), (None, "auto")],
        ids=["columnar-to-exact", "exact-to-columnar"],
    )
    def test_operator_roundtrip(self, tmp_path, first, second):
        bench = get_benchmark("sum")
        scheme = bench.ground_truth
        elements = small_int_stream(bench.element_arity)
        bounds = bounds_for(elements, 1)
        op = OnlineOperator(scheme, backend=first, bounds=bounds)
        op.push_many(elements[:25])
        path = tmp_path / "op.ck.json"
        save_checkpoint(op, path)
        resumed = load_checkpoint(path, backend=second, bounds=bounds)
        assert resumed.backend_in_use == ("columnar" if second == "auto" else "exact")
        resumed.push_many(elements[25:])
        assert_same_value(resumed.state, interpreted(scheme, elements))
        assert resumed.count == len(elements)

    def test_pipeline_restore_forwards_backend_and_bounds(self, tmp_path):
        # A pipeline's operators restore under the backend and bounds the
        # caller passes, exactly as a lone operator's checkpoint does.
        scheme = get_benchmark("sum").ground_truth
        bounds = bounds_from_spec("counter:100")
        pipeline = StreamPipeline({"sum": OnlineOperator(scheme, backend="auto", bounds=bounds)})
        pipeline.push_many(list(range(40)))
        path = tmp_path / "pipeline.ck.json"
        save_checkpoint(pipeline, path)
        for resumed in (
            load_checkpoint(path, backend="auto", bounds=bounds),
            StreamPipeline.restore(pipeline.checkpoint(), backend="auto", bounds=bounds),
        ):
            assert resumed.operators["sum"].backend_in_use == "columnar"
            assert resumed.push_many(list(range(40, 100))) == {"sum": sum(range(100))}


@needs_numpy
class TestKernelCache:
    def test_compiled_columns_is_cached_per_request(self, monkeypatch):
        bench = get_benchmark("sum")
        scheme = bench.ground_truth
        bounds = bounds_for(small_int_stream(bench.element_arity), 1)
        monkeypatch.setenv("REPRO_JIT", "1")
        k1 = scheme.compiled_columns(bounds)
        k2 = scheme.compiled_columns(bounds)
        assert k1 is not None and k1 is k2
        assert k1.exact.compiled
        # Another jit mode is another slot: its exact fallback follows
        # REPRO_JIT, as a plain operator's kernel does.
        monkeypatch.setenv("REPRO_JIT", "0")
        interpreted_kernel = scheme.compiled_columns(bounds)
        assert interpreted_kernel is not k1
        assert not interpreted_kernel.exact.compiled
        assert not OnlineOperator(scheme)._kernel.compiled
        monkeypatch.setenv("REPRO_JIT", "1")
        assert scheme.compiled_columns(bounds) is k1

    def test_pickle_drops_columnar_cache(self):
        bench = get_benchmark("sum")
        scheme = bench.ground_truth
        bounds = bounds_for(small_int_stream(bench.element_arity), 1)
        assert scheme.compiled_columns(bounds) is not None
        clone = pickle.loads(pickle.dumps(scheme))
        assert clone._columnar_cache == []

    def test_uncertified_scheme_compiles_to_none(self):
        scheme = get_benchmark("mean").ground_truth
        assert scheme.compiled_columns(None) is None


@needs_numpy
@pytest.mark.usefixtures("ungated")
class TestMaskedAccumulation:
    def test_conditional_additive_update_matches_exact(self):
        # s' = if x == 3 then s else s + x — the additive decomposition
        # folds the condition into the cumsum term itself (no mask slot).
        from repro.ir.vectorize import plan_columns

        program = OnlineProgram(
            ("s",), "x", (ite(eq(Var("x"), 3), Var("s"), add("s", "x")),)
        )
        scheme = OnlineScheme((0,), program, provenance="masked-sum")
        plan = plan_columns(program, scheme.initializer)
        assert plan.components[0].kind == "cumsum"
        elements = [1, 2, 3, 4, 3, 5]

        def bailed(*args):
            raise AssertionError("the batch left the columnar body")

        # The interval analysis does not certify this If-join, so the
        # column body is built directly rather than through admission.
        kernel = vectorize.compile_columns(
            program, scheme.initializer, exact=StepKernel(bailed, compiled=False),
            bounds=bounds_for(elements, 1),
        )
        state, consumed = kernel.run(scheme.initializer, elements)
        # The x == 3 payloads (indices 2 and 4) must not accumulate.
        assert consumed == len(elements)
        assert_same_value(state, interpreted(scheme, elements))
        assert state == (12,)

    def test_masked_max_accumulation_matches_exact(self):
        # m' = if x > 0 then max(m, x) else m — a genuinely masked cummax
        # (maximum has no additive decomposition, so the If becomes the
        # component's mask and masked-out slots take the scan's neutral).
        from repro.ir.dsl import gt, maximum
        from repro.ir.vectorize import plan_columns

        program = OnlineProgram(
            ("m",), "x",
            (ite(gt(Var("x"), 0), maximum(Var("m"), Var("x")), Var("m")),),
        )
        scheme = OnlineScheme((0,), program, provenance="masked-max")
        plan = plan_columns(program, scheme.initializer)
        component = plan.components[0]
        assert component.kind == "cummax" and component.mask is not None
        elements = [-7, 3, -9, 5, 2, -11, 4]
        bounds = bounds_for(elements, 1)
        columnar = OnlineOperator(scheme, backend="auto", bounds=bounds)
        assert columnar.backend_in_use == "columnar"
        columnar.push_many(elements)
        # Negative payloads must not participate: the max is 5, not -7.
        assert columnar.state[0] == interpreted(scheme, elements)[0] == 5


def _gate_threshold(scheme):
    plan = vectorize.plan_columns(scheme.program, scheme.initializer)
    if len(plan.components) == 1:
        return vectorize._MIN_SCAN_BATCH
    return vectorize._MIN_MULTI_BATCH


@needs_numpy
class TestCostGate:
    """``auto`` keeps short batches, and Fraction batches on a single scan,
    on the exact kernel; what reaches the columnar body is unchanged."""

    BOUNDS = AnalysisBounds(
        element=(FieldBounds(lo=1, hi=1000, integral=True),), max_elements=10**6, source="test"
    )

    @pytest.mark.parametrize("name", ["count", "max", "range"])
    @pytest.mark.parametrize("payload", [int, Fraction], ids=["int", "Fraction"])
    def test_threshold_edges_are_bit_identical(self, monkeypatch, name, payload):
        scheme = get_benchmark(name).ground_truth
        threshold = _gate_threshold(scheme)
        single_scan = threshold == vectorize._MIN_SCAN_BATCH
        for n in (threshold - 1, threshold, threshold + 1):
            elements = [payload((i * 37) % 1000 + 1) for i in range(n)]
            auto = OnlineOperator(scheme, backend="auto", bounds=self.BOUNDS)
            assert auto.backend_in_use == "columnar"
            calls = count_exact_calls(monkeypatch, auto)
            auto.push_many(elements)
            auto.push_many(elements[::-1])
            monkeypatch.undo()
            want = interpreted(scheme, elements + elements[::-1])
            assert_same_value(auto.state, want, f"{name} n={n}")
            assert auto.count == 2 * n
            gated = n < threshold or (payload is Fraction and single_scan)
            assert len(calls) == (2 if gated else 0), (name, payload, n)

    @pytest.mark.parametrize("odd", [
        Fraction(1, 2),          # non-integral rational
        Fraction(2**70),         # numerator beyond int64
        2.5,                     # a float among ints
    ], ids=["non-integral", "beyond-int64", "float"])
    def test_out_of_contract_payload_sends_whole_batch_to_exact(self, monkeypatch, odd):
        scheme = get_benchmark("range").ground_truth
        n = 2 * vectorize._MIN_MULTI_BATCH
        payload = int if isinstance(odd, float) else Fraction
        elements = [payload(i % 1000 + 1) for i in range(n)]
        elements[-3] = odd
        auto = OnlineOperator(scheme, backend="auto", bounds=self.BOUNDS)
        calls = count_exact_calls(monkeypatch, auto)
        auto.push_many(elements)
        assert calls == [elements]
        assert_same_value(auto.state, interpreted(scheme, elements))
        assert auto.count == n

    def test_faulting_payload_keeps_partial_progress(self, monkeypatch):
        scheme = get_benchmark("range").ground_truth
        n = 2 * vectorize._MIN_MULTI_BATCH
        elements = [Fraction(i % 1000 + 1) for i in range(n)]
        elements[-3] = "boom"
        exact = OnlineOperator(scheme)
        with pytest.raises(Exception) as exact_exc:
            exact.push_many(elements)
        auto = OnlineOperator(scheme, backend="auto", bounds=self.BOUNDS)
        calls = count_exact_calls(monkeypatch, auto)
        with pytest.raises(Exception) as auto_exc:
            auto.push_many(elements)
        assert calls == [elements]
        assert type(auto_exc.value) is type(exact_exc.value)
        assert_same_value(auto.state, exact.state)
        assert auto.count == exact.count == n - 3

    @pytest.mark.parametrize("self_first", [True, False], ids=["max(m,x)", "max(x,m)"])
    def test_result_objects_follow_the_exact_tie_rule(self, self_first):
        # The max component ends on the start object or on an element
        # object, by the exact kernel's tie rule: max(a, b) is b only when
        # b > a.  The best value comes first in one type and last in the
        # other, and the start (an int) ties it when top == 500, so each
        # choice shows in the result's type.  The invariant component keeps
        # its Fraction start object.
        from repro.ir.dsl import maximum

        m, x = Var("m"), Var("x")
        update = maximum(m, x) if self_first else maximum(x, m)
        program = OnlineProgram(("m", "n", "k"), "x", (update, add("n", 1), Var("k")))
        scheme = OnlineScheme((500, 0, Fraction(7)), program, provenance="max-ties")
        n = 2 * vectorize._MIN_MULTI_BATCH
        for top in (499, 500, 501):
            for early, late in ((Fraction, int), (int, Fraction)):
                elements = [
                    (early if i < n // 2 else late)(top - (i * 7) % 50) for i in range(n)
                ]
                assert elements.count(top) >= 2
                auto = OnlineOperator(scheme, backend="auto", bounds=self.BOUNDS)
                assert auto.backend_in_use == "columnar"
                auto.push_many(elements)
                want = interpreted(scheme, elements)
                assert_same_value(auto.state, want, f"top={top} late={late}")


    @pytest.mark.parametrize("start, payload", [
        (Fraction(500), lambda i: i + 1),
        (Fraction(500), lambda i: Fraction(i + 1)),
        (0, lambda i: (Fraction if i % 2 else int)(i + 1)),
    ], ids=["Fraction-start", "Fraction-payloads", "int-first-mixed"])
    def test_untyped_result_with_fractions_runs_exact(self, monkeypatch, start, payload):
        # A masked max may end on its start object or on an element, which
        # the plan cannot tell statically: with a Fraction start state or
        # any Fraction payload, the batch must run exact to keep the type.
        from repro.ir.dsl import gt, maximum

        m, x = Var("m"), Var("x")
        masked = ite(gt(x, 0), maximum(m, x), m)
        program = OnlineProgram(("m", "n"), "x", (masked, add("n", 1)))
        scheme = OnlineScheme((start, 0), program, provenance="masked-max-n")
        n = 2 * vectorize._MIN_MULTI_BATCH
        elements = [payload(i) for i in range(n)]
        auto = OnlineOperator(scheme, backend="auto", bounds=self.BOUNDS)
        assert auto.backend_in_use == "columnar"
        calls = count_exact_calls(monkeypatch, auto)
        auto.push_many(elements)
        assert calls == [elements]
        assert_same_value(auto.state, interpreted(scheme, elements))
