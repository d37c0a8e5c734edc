"""Differential tests for the certificate-licensed columnar backend.

The columnar kernel (:mod:`repro.ir.vectorize`) claims a strict contract:
``int64``-certified schemes are bit-for-bit identical to the exact
rationals, float64 opt-ins diverge by IEEE-754 rounding only, and every
unadmitted scheme or out-of-contract batch transparently runs on the exact
:class:`~repro.ir.compile.StepKernel` with its usual partial-progress
semantics.  These tests enforce the claim on every ground-truth scheme of
the suite — jit on and off, chunked and empty batches, keyed partitions,
bailouts, pipeline interaction, and cross-backend checkpoint/restore.

The whole module degrades to exact-path assertions when NumPy is absent
(admission itself is pure structural analysis and never needs NumPy).
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from repro.core.scheme import OnlineScheme
from repro.ir.analysis import AnalysisBounds, FieldBounds, bounds_from_spec
from repro.ir.dsl import add, eq, ite
from repro.ir.nodes import OnlineProgram, Var
from repro.ir.values import values_close
from repro.ir.vectorize import admit_columnar, numpy_or_none
from repro.runtime import KeyedOperator, OnlineOperator, StreamPipeline
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.suites import all_benchmarks, get_benchmark

HAVE_NUMPY = numpy_or_none() is not None

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")


def assert_same_value(a, b, where=""):
    """Bit-for-bit: equal values of identical Python types, recursively."""
    assert type(a) is type(b), (
        f"{where}: {type(a).__name__} != {type(b).__name__} ({a!r} vs {b!r})"
    )
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b), f"{where}: {a!r} vs {b!r}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_value(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and a != a:
        assert b != b, f"{where}: nan vs {b!r}"
    else:
        assert a == b, f"{where}: {a!r} != {b!r}"


def assert_close_state(columnar_state, exact_state, where=""):
    """Float64 contract: every component within IEEE rounding of the exact
    rational result (exact values coerced through float for comparison)."""
    assert len(columnar_state) == len(exact_state), where
    for i, (got, want) in enumerate(zip(columnar_state, exact_state)):
        want_f = float(want) if isinstance(want, Fraction) else want
        assert values_close(got, want_f), (
            f"{where}[{i}]: {got!r} not close to {want!r}"
        )


def ground_truths():
    return [b for b in all_benchmarks() if b.ground_truth is not None]


def int_stream(bench, n=60):
    """Small integers (bounded, int64-certifiable for the simple schemes)."""
    scalars = [(i * 7) % 11 - 3 for i in range(n)]
    if bench.element_arity <= 1:
        return scalars
    return [(value, (i * 3) % 4 + 1) for i, value in enumerate(scalars)]


def bounds_for(elements, arity, extra_params=()):
    """Tight concrete bounds for exactly the data a test will push — the
    same shape the bench harness feeds admission."""
    rows = [(v,) for v in elements] if arity <= 1 else list(elements)
    fields = []
    for i in range(max(arity, 1)):
        col = [row[i] for row in rows]
        integral = all(
            isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1)
            for v in col
        )
        fields.append(FieldBounds(lo=min(col), hi=max(col), integral=integral))
    extras = {name: FieldBounds(lo=500, hi=500, integral=True) for name in extra_params}
    return AnalysisBounds(
        element=tuple(fields), max_elements=len(rows), extras=extras, source="test"
    )


def extras_for(scheme):
    return {name: 500 for name in scheme.program.extra_params}


class TestAdmission:
    """Verdicts are pure structural + static analysis — no NumPy needed."""

    def _admit(self, name, elements=None):
        bench = get_benchmark(name)
        scheme = bench.ground_truth
        elements = elements if elements is not None else int_stream(bench)
        bounds = bounds_for(elements, bench.element_arity, scheme.program.extra_params)
        return admit_columnar(scheme.program, scheme.initializer, bounds)

    def test_int64_certified_schemes(self):
        for name in ("sum", "count", "last", "min", "max", "range", "q_bid_volume"):
            admission = self._admit(name)
            assert admission.verdict == "certified-int64", (name, admission.reason)
            assert admission.domain == "int64" and admission.admitted

    def test_float_optin_schemes(self):
        for name in ("variance", "skewness", "rms", "q_avg_price"):
            admission = self._admit(name)
            assert admission.verdict == "float-optin-only", (name, admission.reason)
            assert admission.domain == "float64" and admission.reason

    def test_product_refused_without_certificate(self):
        # 60 factors of magnitude up to 7 blow through int64; float64 would
        # overflow to inf (divergence, not rounding), so no domain admits it.
        admission = self._admit("product")
        assert admission.verdict == "uncertified"
        assert not admission.admitted
        assert "product accumulation" in admission.reason

    def test_structural_decliners(self):
        for name in ("mean", "q_top2"):
            admission = self._admit(name)
            assert admission.verdict == "uncertified", name
            assert admission.domain is None and admission.reason

    def test_admission_without_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert numpy_or_none() is None
        admission = self._admit("sum")
        assert admission.verdict == "certified-int64"

    def test_unknown_backend_rejected(self):
        scheme = get_benchmark("sum").ground_truth
        with pytest.raises(ValueError):
            OnlineOperator(scheme, backend="vectorized")


@needs_numpy
class TestDifferentialGroundTruths:
    """Columnar vs exact over every ground-truth scheme of the suite."""

    def test_columnar_differential_all_ground_truths(self, jit_mode):
        int64_seen = float64_seen = declined = 0
        for bench in ground_truths():
            scheme = bench.ground_truth
            elements = int_stream(bench)
            extra = extras_for(scheme)
            bounds = bounds_for(
                elements, bench.element_arity, scheme.program.extra_params
            )
            exact = OnlineOperator(scheme, extra)
            columnar = OnlineOperator(scheme, extra, backend="columnar", bounds=bounds)
            exact.push_many(elements)
            columnar.push_many(elements)
            assert columnar.count == exact.count == len(elements)
            if columnar.backend_in_use == "exact":
                declined += 1
                assert_same_value(columnar.state, exact.state, bench.name)
                continue
            domain = columnar._kernel.domain
            if domain == "int64":
                int64_seen += 1
                assert_same_value(columnar.state, exact.state, bench.name)
            else:
                float64_seen += 1
                assert_close_state(columnar.state, exact.state, bench.name)
        # The suite exercises all three admission outcomes.
        assert int64_seen >= 10 and float64_seen >= 10 and declined >= 1

    def test_auto_backend_never_changes_results(self):
        # "auto" only takes the bit-identical int64 path; float-optin
        # schemes must stay exact without the explicit "columnar" opt-in.
        for name in ("sum", "variance", "mean"):
            bench = get_benchmark(name)
            scheme = bench.ground_truth
            elements = int_stream(bench)
            bounds = bounds_for(elements, bench.element_arity)
            exact = OnlineOperator(scheme)
            auto = OnlineOperator(scheme, backend="auto", bounds=bounds)
            exact.push_many(elements)
            auto.push_many(elements)
            assert_same_value(auto.state, exact.state, name)
        assert OnlineOperator(
            get_benchmark("variance").ground_truth, backend="auto",
            bounds=bounds_for(int_stream(get_benchmark("variance")), 1),
        ).backend_in_use == "exact"

    def test_chunked_and_empty_batches(self):
        for name in ("sum", "max", "variance", "skewness"):
            bench = get_benchmark(name)
            scheme = bench.ground_truth
            elements = int_stream(bench)
            bounds = bounds_for(elements, bench.element_arity)
            make = lambda: OnlineOperator(  # noqa: E731
                scheme, backend="columnar", bounds=bounds
            )
            whole, chunked = make(), make()
            whole.push_many(elements)
            i = 0
            for size in (0, 1, 3, 7, 11):
                chunked.push_many(elements[i : i + size])
                i += size
            chunked.push_many(elements[i:])
            if whole._kernel.domain == "int64":
                # int64 is exact arithmetic: chunking cannot matter at all.
                assert_same_value(whole.state, chunked.state, name)
            else:
                # float64 resumes a chunk as start + cumsum(chunk), which
                # rounds differently from one uninterrupted scan — the
                # divergence stays within the documented IEEE error model.
                for got, want in zip(chunked.state, whole.state):
                    assert values_close(got, want), (name, got, want)
            assert whole.count == chunked.count == len(elements)

    def test_scalar_push_matches_push_many_in_float64(self):
        # Float64 operators route scalar push through the same kernel so a
        # trajectory never mixes exact and IEEE arithmetic.
        bench = get_benchmark("variance")
        scheme = bench.ground_truth
        elements = int_stream(bench, n=40)
        bounds = bounds_for(elements, 1)
        batched = OnlineOperator(scheme, backend="columnar", bounds=bounds)
        stepped = OnlineOperator(scheme, backend="columnar", bounds=bounds)
        assert batched.backend_in_use == "columnar"
        batched.push_many(elements)
        for element in elements:
            stepped.push(element)
        assert_same_value(batched.state, stepped.state)
        assert batched.count == stepped.count

    def test_keyed_columnar_differential(self):
        scheme = get_benchmark("q_bid_volume").ground_truth
        events = [((i * 7) % 11 + 1, i % 5) for i in range(48)]
        values = [e[0] for e in events]
        bounds = bounds_for(values, 1)
        key_fn = lambda e: e[1]  # noqa: E731
        value_fn = lambda e: e[0]  # noqa: E731
        exact = KeyedOperator(scheme, key_fn=key_fn, value_fn=value_fn)
        columnar = KeyedOperator(
            scheme, key_fn=key_fn, value_fn=value_fn,
            backend="columnar", bounds=bounds,
        )
        for event in events:
            exact.push(event)
        columnar.push_many(events)
        assert columnar.snapshot() == exact.snapshot()
        for key, part in columnar.partitions.items():
            assert part.backend_in_use == "columnar", key
            assert_same_value(part.state, exact.partitions[key].state, f"key {key}")

    def test_fork_keeps_backend(self):
        bench = get_benchmark("sum")
        elements = int_stream(bench)
        op = OnlineOperator(
            bench.ground_truth, backend="columnar", bounds=bounds_for(elements, 1)
        )
        op.push_many(elements[:10])
        clone = op.fork()
        assert clone.backend_in_use == "columnar"
        assert_same_value(clone.state, op.state)


@needs_numpy
class TestBailouts:
    """Out-of-contract batches delegate wholesale to the exact kernel."""

    def test_out_of_bounds_batch_falls_back_exactly(self):
        scheme = get_benchmark("sum").ground_truth
        small = list(range(10))
        bounds = bounds_for(small, 1)
        exact = OnlineOperator(scheme)
        columnar = OnlineOperator(scheme, backend="columnar", bounds=bounds)
        assert columnar.backend_in_use == "columnar"
        wild = small + [10**30]  # outside the certified interval
        exact.push_many(wild)
        columnar.push_many(wild)
        assert_same_value(columnar.state, exact.state)
        # Later in-bounds batches still agree (the huge state itself now
        # forces the exact path — silently, with identical results).
        exact.push_many(small)
        columnar.push_many(small)
        assert_same_value(columnar.state, exact.state)

    def test_non_numeric_payload_has_exact_error_parity(self):
        scheme = get_benchmark("sum").ground_truth
        elements = [1, 2, "boom", 4]
        bounds = bounds_for([1, 2, 4], 1)
        exact = OnlineOperator(scheme)
        columnar = OnlineOperator(scheme, backend="columnar", bounds=bounds)
        exact_exc = columnar_exc = None
        try:
            exact.push_many(elements)
        except Exception as exc:  # noqa: BLE001 - parity check
            exact_exc = exc
        try:
            columnar.push_many(elements)
        except Exception as exc:  # noqa: BLE001 - parity check
            columnar_exc = exc
        assert exact_exc is not None and columnar_exc is not None
        assert type(columnar_exc) is type(exact_exc)
        assert_same_value(columnar.state, exact.state)
        assert columnar.count == exact.count

    def test_rational_payloads_are_converted_not_bailed(self):
        # Fraction elements with denominator 1 (what CLI sources yield) must
        # still run columnar — the element conversion pass handles them.
        scheme = get_benchmark("sum").ground_truth
        elements = [Fraction(i, 1) for i in range(20)]
        bounds = bounds_for(elements, 1)
        exact = OnlineOperator(scheme)
        columnar = OnlineOperator(scheme, backend="columnar", bounds=bounds)
        exact.push_many(elements)
        columnar.push_many(elements)
        assert columnar.backend_in_use == "columnar"
        assert_same_value(columnar.state, exact.state)

    def test_no_numpy_degrades_to_exact(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        bench = get_benchmark("sum")
        scheme = bench.ground_truth
        elements = int_stream(bench)
        bounds = bounds_for(elements, 1)
        assert scheme.compiled_columns(bounds, allow_float=True) is None
        op = OnlineOperator(scheme, backend="columnar", bounds=bounds)
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
                    get_benchmark("sum").ground_truth,
                    backend="columnar", bounds=bounds,
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
class TestCrossBackendCheckpoint:
    """Checkpoints are backend-agnostic: the backend is a process decision,
    the state is exact data — restore under any backend, bit-identical."""

    @pytest.mark.parametrize(
        "first,second",
        [("columnar", None), (None, "columnar")],
        ids=["columnar-to-exact", "exact-to-columnar"],
    )
    def test_operator_roundtrip(self, tmp_path, first, second):
        bench = get_benchmark("sum")
        scheme = bench.ground_truth
        elements = int_stream(bench)
        bounds = bounds_for(elements, 1)
        op = OnlineOperator(scheme, backend=first, bounds=bounds)
        op.push_many(elements[:25])
        path = tmp_path / "op.ck.json"
        save_checkpoint(op, path)
        resumed = load_checkpoint(path, backend=second, bounds=bounds)
        assert resumed.backend_in_use == (
            "columnar" if second == "columnar" else "exact"
        )
        resumed.push_many(elements[25:])
        reference = OnlineOperator(scheme)
        for element in elements:
            reference.push(element)
        assert_same_value(resumed.state, reference.state)
        assert resumed.count == reference.count

    @pytest.mark.parametrize(
        "first,second",
        [("columnar", None), (None, "columnar")],
        ids=["columnar-to-exact", "exact-to-columnar"],
    )
    def test_keyed_roundtrip(self, tmp_path, first, second):
        scheme = get_benchmark("q_bid_volume").ground_truth
        events = [((i * 7) % 11 + 1, i % 4) for i in range(40)]
        bounds = bounds_for([e[0] for e in events], 1)
        key_fn = lambda e: e[1]  # noqa: E731
        value_fn = lambda e: e[0]  # noqa: E731
        keyed = KeyedOperator(
            scheme, key_fn=key_fn, value_fn=value_fn, backend=first, bounds=bounds
        )
        keyed.push_many(events[:18])
        path = tmp_path / "keyed.ck.json"
        save_checkpoint(keyed, path)
        resumed = load_checkpoint(
            path, key_fn=key_fn, value_fn=value_fn, backend=second, bounds=bounds
        )
        resumed.push_many(events[18:])
        reference = KeyedOperator(scheme, key_fn=key_fn, value_fn=value_fn)
        for event in events:
            reference.push(event)
        assert resumed.snapshot() == reference.snapshot()
        assert resumed.count == reference.count
        if second == "columnar":
            for part in resumed.partitions.values():
                assert part.backend_in_use == "columnar"

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
    def test_compiled_columns_is_cached_per_request(self):
        bench = get_benchmark("sum")
        scheme = bench.ground_truth
        bounds = bounds_for(int_stream(bench), 1)
        k1 = scheme.compiled_columns(bounds)
        k2 = scheme.compiled_columns(bounds)
        assert k1 is not None and k1 is k2
        # A different admission request is a different kernel slot.
        other = scheme.compiled_columns(bounds, allow_float=True)
        assert other is not None

    def test_pickle_and_invalidate_drop_columnar_cache(self):
        bench = get_benchmark("sum")
        scheme = bench.ground_truth
        bounds = bounds_for(int_stream(bench), 1)
        assert scheme.compiled_columns(bounds) is not None
        clone = pickle.loads(pickle.dumps(scheme))
        assert clone._columnar_cache == []
        scheme.invalidate_compiled()
        assert scheme._columnar_cache == []

    def test_uncertified_scheme_compiles_to_none(self):
        scheme = get_benchmark("mean").ground_truth
        assert scheme.compiled_columns(None, allow_float=True) is None


@needs_numpy
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
        bounds = bounds_for(elements, 1)
        admission = admit_columnar(program, scheme.initializer, bounds)
        assert admission.admitted, admission.reason
        exact = OnlineOperator(scheme)
        columnar = OnlineOperator(scheme, backend="columnar", bounds=bounds)
        assert columnar.backend_in_use == "columnar"
        exact.push_many(elements)
        columnar.push_many(elements)
        # The x == 3 payloads (indices 2 and 4) must not accumulate.
        assert columnar.state[0] == exact.state[0] == 12

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
        exact = OnlineOperator(scheme)
        columnar = OnlineOperator(
            scheme, backend="columnar", bounds=bounds
        )
        assert columnar.backend_in_use == "columnar"
        exact.push_many(elements)
        columnar.push_many(elements)
        # Negative payloads must not participate: the max is 5, not -7.
        assert columnar.state[0] == exact.state[0] == 5
