"""Differential tests: the codegen backend vs the definitional interpreter.

The compiled execution paths of :mod:`repro.ir.compile` claim bit-for-bit
equivalence with :mod:`repro.ir.evaluator` over exact rationals — same
values, same Python types (``int`` vs ``Fraction`` vs ``bool``), same
exception classes on ill-formed input.  ``test_conformance.py`` holds every
ground-truth scheme to that claim on every execution path; these tests
enforce it on:

* serialize -> load round-tripped schemes and keyed/checkpoint-resume runs;
* hundreds of randomly enumerated candidate expressions per seed (the
  population the equivalence oracle compiles);
* the error contract (holes, unbound names, arity mismatches, projections);
* the arithmetic fast-path helpers against the registry impls, including
  the big-number float-degrade boundary.
"""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest
from differential import adversarial_stream, assert_same_value
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SynthesisConfig
from repro.core.equivalence import check_expr_equivalence
from repro.core.rfs import RFS
from repro.core.scheme import OnlineScheme
from repro.ir.compile import (
    _FAST_IMPLS,
    IRCompileError,
    _fast_add,
    _fast_div,
    _fast_max,
    _fast_min,
    _fast_mul,
    _fast_neg,
    _fast_pow,
    _fast_sub,
    compile_expr,
    compile_online_step,
    expr_evaluator,
    jit_enabled,
)
from repro.cli.common import CommandError
from repro.cli.deploy import _preflight_analyze
from repro.ir.analysis import UNKNOWN_BOUNDS, audit_program
from repro.ir.analysis.liveness import NORMALIZING_BUILTINS
from repro.ir.builtins import all_builtins, get_builtin
from repro.ir.evaluator import EvaluationError, evaluate, step_online
from repro.ir.nodes import (
    Call,
    Const,
    Fold,
    Hole,
    If,
    Lambda,
    ListVar,
    MakeTuple,
    Map,
    OnlineProgram,
    Proj,
    Var,
)
from repro.runtime import KeyedOperator, OnlineOperator
from repro.runtime.checkpoint import restore_keyed
from repro.suites import get_benchmark

#: Exception classes the oracle treats as a failing candidate; "raises
#: equivalently" means both backends raise the same class from this set.
ORACLE_ERRORS = (EvaluationError, ArithmeticError, TypeError, ValueError)


def run_differential(scheme, stream, extra):
    """Step the compiled and interpreted backends side by side."""
    compiled = scheme.compiled_step()
    interp = scheme.interpreted_step
    s_c = s_i = scheme.initializer
    for i, element in enumerate(stream):
        s_i = interp(s_i, element, extra)
        s_c = compiled(s_c, element, extra)
        assert_same_value(s_i, s_c, f"step {i}")
    return s_i


class TestGroundTruthSchemes:
    def test_scheme_step_uses_compiled_by_default(self):
        scheme = get_benchmark("variance").ground_truth
        if jit_enabled():
            assert scheme._resolve_step() is scheme.compiled_step()

    def test_run_and_final_match_interpreter(self, monkeypatch):
        scheme = get_benchmark("variance").ground_truth
        stream = adversarial_stream(1, "run")
        monkeypatch.setenv("REPRO_JIT", "0")
        interpreted = scheme.run_to_list(stream)
        monkeypatch.setenv("REPRO_JIT", "1")
        compiled = scheme.run_to_list(stream)
        assert_same_value(interpreted, compiled, "run_to_list")
        assert_same_value(
            scheme.final(stream),
            interpreted[-1],
            "final",
        )


class TestRoundTripAndPickle:
    def test_serialized_scheme_compiles_identically(self):
        for name in ("variance", "skewness", "q_category_max", "q_avg_converted"):
            bench = get_benchmark(name)
            original = bench.ground_truth
            loaded = OnlineScheme.loads(original.dumps())
            assert loaded._compiled_step is None  # cold cache on a new object
            stream = adversarial_stream(bench.element_arity, f"rt:{name}")
            extra = {p: 3 for p in original.program.extra_params}
            expected = run_differential(original, stream, extra)
            got = run_differential(loaded, stream, extra)
            assert_same_value(expected, got, name)

    def test_pickle_drops_compiled_closure(self):
        scheme = get_benchmark("variance").ground_truth
        scheme.compiled_step()  # warm the cache
        clone = pickle.loads(pickle.dumps(scheme))
        assert clone._compiled_step is None
        assert clone == scheme
        # and the clone compiles freshly to the same behaviour
        stream = adversarial_stream(1, "pickle")
        assert_same_value(
            run_differential(scheme, stream, {}),
            run_differential(clone, stream, {}),
            "pickled clone",
        )


class TestRuntimeOperators:
    def test_operator_jit_flag_is_bit_for_bit(self, monkeypatch):
        scheme = get_benchmark("variance").ground_truth
        stream = adversarial_stream(1, "op")
        monkeypatch.setenv("REPRO_JIT", "1")
        fast = OnlineOperator(scheme)
        monkeypatch.setenv("REPRO_JIT", "0")
        slow = OnlineOperator(scheme)
        assert fast._step is scheme.compiled_step()
        assert slow._step == scheme.interpreted_step
        for x in stream:
            assert_same_value(fast.push(x), slow.push(x), "push")
        assert_same_value(fast.state, slow.state, "state")
        assert fast.count == slow.count

    def test_fork_preserves_jit_choice(self, monkeypatch):
        # A fork runs its parent's resolved plan, whatever REPRO_JIT says now.
        scheme = get_benchmark("variance").ground_truth
        monkeypatch.setenv("REPRO_JIT", "0")
        interpreted = OnlineOperator(scheme)
        monkeypatch.setenv("REPRO_JIT", "1")
        compiled = OnlineOperator(scheme)
        assert interpreted.fork()._step == scheme.interpreted_step
        assert not interpreted.fork()._kernel.compiled
        monkeypatch.setenv("REPRO_JIT", "0")
        assert compiled.fork()._step is scheme.compiled_step()
        assert compiled.fork()._kernel.compiled

    def test_push_many_commits_partial_progress_on_error(self):
        scheme = get_benchmark("sum").ground_truth
        op = OnlineOperator(scheme)
        with pytest.raises(TypeError):
            op.push_many([1, 2, (3, 4), 5])  # tuple: numeric op on non-number
        assert op.count == 2
        assert op.value == 3

    def test_keyed_checkpoint_resume_differential(self, monkeypatch):
        bench = get_benchmark("q_category_max")
        scheme = bench.ground_truth
        stream = adversarial_stream(2, "keyed", n=80)
        key_fn = lambda e: e[1]  # noqa: E731
        extra = {p: 2 for p in scheme.program.extra_params}

        def full_run(jit_env):
            monkeypatch.setenv("REPRO_JIT", jit_env)
            op = KeyedOperator(scheme, key_fn, extra=extra)
            op.push_many(stream)
            return op.snapshot()

        def interrupted_run():
            monkeypatch.setenv("REPRO_JIT", "1")
            op = KeyedOperator(scheme, key_fn, extra=extra)
            op.push_many(stream[:37])
            resumed = restore_keyed(op.checkpoint(), key_fn)
            resumed.push_many(stream[37:])
            return resumed.snapshot()

        compiled, interpreted, resumed = full_run("1"), full_run("0"), interrupted_run()
        assert list(compiled) == list(interpreted) == list(resumed)
        for key in compiled:
            assert_same_value(compiled[key], interpreted[key], f"key {key!r}")
            assert_same_value(compiled[key], resumed[key], f"resumed key {key!r}")


# -- randomly enumerated candidates ------------------------------------------

_BINOPS = ("add", "sub", "mul", "div", "min", "max", "pow")
_UNOPS = ("neg", "abs", "sqrt", "not", "sign")
_PREDICATES = ("lt", "le", "gt", "ge", "eq", "ne", "and", "or")


def random_candidate(rng: random.Random, names, depth: int):
    """Random expressions over the online-candidate grammar (the population
    ``check_expr_equivalence`` compiles: no lambdas, no combinators)."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.55:
            return Var(rng.choice(names))
        if roll < 0.8:
            return Const(rng.choice((0, 1, 2, -1, 3)))
        if roll < 0.95:
            return Const(rng.choice((Fraction(1, 2), Fraction(-2, 3), Fraction(5, 1))))
        return Const(rng.choice((True, False)))
    roll = rng.random()
    sub = lambda: random_candidate(rng, names, depth - 1)  # noqa: E731
    if roll < 0.45:
        return Call(rng.choice(_BINOPS), (sub(), sub()))
    if roll < 0.6:
        return Call(rng.choice(_UNOPS), (sub(),))
    if roll < 0.75:
        return If(Call(rng.choice(_PREDICATES), (sub(), sub())), sub(), sub())
    if roll < 0.85:
        return MakeTuple((sub(), sub()))
    return Proj(sub(), rng.randint(0, 2))


def random_env(rng: random.Random, names):
    pool = (0, 1, -2, Fraction(1, 3), Fraction(-7, 2), Fraction(4, 2), (1, 2), True)
    return {name: rng.choice(pool) for name in names}


@pytest.mark.parametrize("seed", [2024, 2025, 2026])
def test_random_candidates_differential(seed):
    """>= 200 random candidates per seed: compiled evaluation must produce
    the same value (type included) or raise the same exception class as the
    interpreter on every environment."""
    rng = random.Random(seed)
    names = ("y1", "y2", "x")
    envs = [random_env(rng, names) for _ in range(8)]
    checked = 0
    while checked < 200:
        expr = random_candidate(rng, names, rng.randint(1, 4))
        fn = compile_expr(expr, names, name=f"candidate:{seed}:{checked}")
        for env in envs:
            args = [env[n] for n in names]
            try:
                expected = evaluate(expr, env)
                raised = None
            except ORACLE_ERRORS as exc:
                raised = type(exc)
            if raised is None:
                got = fn(*args)
                assert_same_value(expected, got, f"seed {seed} #{checked}")
            else:
                with pytest.raises(raised):
                    fn(*args)
        checked += 1


def test_oracle_agrees_with_and_without_jit(monkeypatch):
    """check_expr_equivalence must accept/reject identically either way."""
    rfs = RFS(entries={"s": Call("length", (ListVar("xs"),))}, list_param="xs")
    config = SynthesisConfig(timeout_s=10)
    good = Call("add", (Var("s"), Const(1)))  # len(xs ++ [x]) == s + 1
    bad = Call("add", (Var("s"), Var("x")))
    spec = Call("length", (ListVar("xs"),))
    results = {}
    for env_value in ("1", "0"):
        monkeypatch.setenv("REPRO_JIT", env_value)
        results[env_value] = (
            check_expr_equivalence(spec, good, rfs, config),
            check_expr_equivalence(spec, bad, rfs, config),
        )
    assert results["1"] == results["0"]
    assert results["1"][0] is True
    assert results["1"][1] is False


class TestExprEvaluator:
    """The one entry point synthesis evaluates through: always a callable,
    equal to the interpreter, compiled only when the JIT is on."""

    EXPR = Call("add", (Call("mul", (Var("a"), Var("b"))), Call("length", (ListVar("xs"),))))
    ENV = {"a": Fraction(3, 2), "b": 4, "xs": [1, 2, 3], "unused": 7}

    def test_equals_interpreter(self, jit_mode):
        fn = expr_evaluator(self.EXPR, ("a", "b", "xs", "a"))
        assert fn(self.ENV) == evaluate(self.EXPR, self.ENV) == 9
        assert expr_evaluator(Const(5), ())({}) == 5
        assert expr_evaluator(Var("a"), ("a",))(self.ENV) == Fraction(3, 2)

    def test_memo_keeps_constant_types(self, jit_mode):
        # Const(0) and Const(False), Const(1) and Const(1.0) are different
        # nodes, as their results differ in type: an evaluator compiled for
        # one must not answer for the other.
        for a, b in ((False, 0), (1.0, 1), (True, Fraction(1))):
            for value in (a, b):
                pair = expr_evaluator(MakeTuple((Var("a"), Const(value))), ("a",))
                assert type(pair({"a": 2})[1]) is type(value), value
                assert type(expr_evaluator(Const(value), ())({})) is type(value), value

    def test_shared_subexpressions_keep_constant_types(self):
        # add(x, 1) and add(x, 1.0) are different nodes; the step's common-
        # subexpression memo must not share one temporary between them.
        outputs = (Call("add", (Var("x"), Const(1))), Call("add", (Var("x"), Const(1.0))))
        program = OnlineProgram(("s", "t"), "x", outputs)
        got = compile_online_step(program)((0, 0), 2)
        assert got == step_online(program, (0, 0), 2) and type(got[1]) is float

    def test_jit_off_never_compiles(self, monkeypatch):
        import repro.ir.compile as compile_module

        def refuse(*args):
            raise AssertionError("compiled under REPRO_JIT=0")

        monkeypatch.setenv("REPRO_JIT", "0")
        monkeypatch.setattr(compile_module, "_compile_cached", refuse)
        assert expr_evaluator(self.EXPR, ("a", "b", "xs"))(self.ENV) == 9

    def test_declined_compile_falls_back(self):
        """A hole or a free name outside ``params`` cannot compile; the
        interpreter then raises exactly as it would have."""
        for expr in (Call("add", (Hole(0), Const(1))), Var("free")):
            fn = expr_evaluator(expr, ("a",))
            with pytest.raises(EvaluationError):
                fn({"a": 1})


# -- the error contract -------------------------------------------------------


class TestErrorContract:
    def test_hole_fails_at_compile_time(self):
        with pytest.raises(IRCompileError):
            compile_expr(Call("add", (Hole(0), Const(1))), ("x",))
        program = OnlineProgram(("y",), "x", (Hole(0),))
        with pytest.raises(IRCompileError):
            compile_online_step(program)
        # ...and the scheme transparently falls back to the interpreter,
        # which raises exactly as it always did.
        scheme = OnlineScheme((0,), program)
        assert scheme._resolve_step() == scheme.interpreted_step
        with pytest.raises(EvaluationError):
            scheme.step((0,), 1)

    def test_unbound_variable_fails_at_compile_time(self):
        with pytest.raises(IRCompileError):
            compile_expr(Var("nope"), ("x",))

    def test_state_arity_mismatch(self):
        scheme = get_benchmark("variance").ground_truth
        with pytest.raises(EvaluationError):
            scheme.compiled_step()((1, 2), 3)
        with pytest.raises(EvaluationError):
            scheme.interpreted_step((1, 2), 3)

    def test_extra_used_only_in_untaken_branch(self):
        """An extra referenced only inside a never-taken If branch must not
        be required eagerly: the interpreter only looks names up when the
        branch runs, and compiled steps must match (fetch-at-use-site)."""
        program = OnlineProgram(
            ("s",),
            "x",
            (
                If(
                    Call("gt", (Var("x"), Const(0))),
                    Call("add", (Var("s"), Var("x"))),
                    Var("opt"),  # only reachable when x <= 0
                ),
            ),
        )
        compiled = compile_online_step(program)
        # x > 0: both backends succeed without the binding
        assert_same_value(
            step_online(program, (0,), 5, {}), compiled((0,), 5, {}), "taken"
        )
        assert_same_value(
            step_online(program, (0,), 5, None), compiled((0,), 5, None), "none"
        )
        # x <= 0: both raise; with the binding, both use it
        with pytest.raises(EvaluationError):
            compiled((0,), -1, {})
        with pytest.raises(EvaluationError):
            step_online(program, (0,), -1, {})
        assert_same_value(
            step_online(program, (0,), -1, {"opt": Fraction(1, 2)}),
            compiled((0,), -1, {"opt": Fraction(1, 2)}),
            "bound branch",
        )

    def test_missing_extra_binding(self):
        bench = get_benchmark("count_above")  # needs extra param 't'
        scheme = bench.ground_truth
        for step in (scheme.compiled_step(), scheme.interpreted_step):
            with pytest.raises(EvaluationError):
                step(scheme.initializer, 1, {})
            with pytest.raises(EvaluationError):
                step(scheme.initializer, 1, None)

    def test_lambda_arity_mismatch_inside_map(self):
        two_arg = Lambda(("a", "b"), Call("add", (Var("a"), Var("b"))))
        expr = Map(two_arg, Var("xs"))
        fn = compile_expr(expr, ("xs",))
        assert fn([]) == []  # empty list: the closure is never invoked
        with pytest.raises(EvaluationError):
            fn([1, 2])
        with pytest.raises(EvaluationError):
            evaluate(expr, {"xs": [1, 2]})

    def test_direct_call_arity_mismatch(self):
        expr = Call(Lambda(("a",), Var("a")), (Const(1), Const(2)))
        fn = compile_expr(expr, ())
        with pytest.raises(EvaluationError):
            fn()
        with pytest.raises(EvaluationError):
            evaluate(expr, {})

    def test_projection_errors(self):
        expr = Proj(Var("x"), 5)
        fn = compile_expr(expr, ("x",))
        for value in (3, (1, 2)):
            with pytest.raises(EvaluationError):
                fn(value)
            with pytest.raises(EvaluationError):
                evaluate(expr, {"x": value})

    def test_numeric_op_on_non_numbers(self):
        expr = Call("add", (Var("x"), Var("y")))
        fn = compile_expr(expr, ("x", "y"))
        with pytest.raises(TypeError):
            fn((1, 2), (3, 4))  # tuple + tuple must not concatenate
        with pytest.raises(TypeError):
            evaluate(expr, {"x": (1, 2), "y": (3, 4)})

    def test_unknown_builtin_fails_at_compile_time(self):
        with pytest.raises(IRCompileError):
            compile_expr(Call("frobnicate", (Var("x"),)), ("x",))


#: Callees outside the IR contract, which no producer builds: a ``Call``
#: applies a builtin name or a ``Lambda``, a combinator a ``Lambda``.  Here
#: ``f`` is bound to a Python callable, which is still not a callee.
OUT_OF_CONTRACT = {
    "call-var": Call(Var("f"), (Var("x"),)),
    "map-var": Map(Var("f"), ListVar("xs")),
    "fold-builtin-name": Fold("add", Const(0), ListVar("xs")),
}
CONTRACT_ENV = {"f": abs, "x": -1, "xs": [1, -2]}


@pytest.mark.parametrize("name", sorted(OUT_OF_CONTRACT))
class TestCalleeContract:
    def test_interpreter_refuses(self, name):
        with pytest.raises(EvaluationError, match="cannot apply"):
            evaluate(OUT_OF_CONTRACT[name], CONTRACT_ENV)

    def test_codegen_refuses(self, name):
        with pytest.raises(IRCompileError, match="cannot apply"):
            compile_expr(OUT_OF_CONTRACT[name], tuple(CONTRACT_ENV))

    def test_evaluator_raises_the_interpreter_error(self, name, jit_mode):
        fn = expr_evaluator(OUT_OF_CONTRACT[name], tuple(CONTRACT_ENV))
        with pytest.raises(EvaluationError, match="cannot apply"):
            fn(CONTRACT_ENV)

    def test_online_step_falls_back_to_the_interpreter_error(self, name, jit_mode):
        program = OnlineProgram(("s",), "x", (OUT_OF_CONTRACT[name],), ("f", "xs"))
        with pytest.raises(IRCompileError, match="cannot apply"):
            compile_online_step(program)
        extra = {"f": CONTRACT_ENV["f"], "xs": CONTRACT_ENV["xs"]}
        with pytest.raises(EvaluationError, match="cannot apply"):
            OnlineScheme((0,), program).step((0,), 1, extra)

    def test_audit_and_preflight_refuse(self, name):
        program = OnlineProgram(("s",), "x", (OUT_OF_CONTRACT[name],), ("f", "xs"))
        errors = [f for f in audit_program(program, (0,)) if f["level"] == "error"]
        assert any(f["message"].startswith("cannot apply") for f in errors)
        with pytest.raises(CommandError) as refused:
            _preflight_analyze(OnlineScheme((0,), program), "s.json", UNKNOWN_BOUNDS)
        assert refused.value.code == 1


# -- fast-path helpers vs registry impls --------------------------------------

_GRID = (
    0,
    1,
    -1,
    2,
    -7,
    10**6,
    True,
    False,
    Fraction(1, 3),
    Fraction(-2, 5),
    Fraction(7, 1),
    Fraction(0, 3),
    0.5,
    -2.25,
    float("inf"),
    # Denominator-1 Fractions around the fast paths' 2**18-bit guard, where
    # unwrapping to int must not move the registry's 2**20-bit float degrade.
    Fraction(1 << ((1 << 18) - 2)),
    Fraction(-(1 << ((1 << 18) - 1))),
    Fraction(1 << (1 << 18)),
    Fraction(1 << ((1 << 19) - 1)),
    # ints that put a 2**18-bit operand exactly at / one bit past the degrade
    (1 << ((1 << 20) - (1 << 18))) - 1,
    1 << ((1 << 20) - (1 << 18)),
    # num and den one bit past the Fraction guard: two of them degrade
    Fraction((1 << (1 << 18)) + 1, 1 << (1 << 18)),
)

#: pow bases at the fast path's guards: ints of 2**16 and 2**16 + 1 bits,
#: Fraction numerators/denominators of 2**15 and 2**15 + 1 bits.
_POW_BASES = (
    1 << ((1 << 16) - 1),
    -(1 << ((1 << 16) - 1)),
    1 << (1 << 16),
    Fraction(1 << ((1 << 15) - 1)),
    Fraction(1 << (1 << 15)),
    Fraction(1 << ((1 << 15) - 1), 3),
    Fraction(3, 1 << ((1 << 15) - 1)),
    Fraction(1 << (1 << 15), 3),
    # 2**16 bits in all: exact at exponent 64; one more bit and it is float
    Fraction(1 << ((1 << 15) - 1), (1 << ((1 << 15) - 1)) + 1),
    Fraction(1 << (1 << 15), (1 << ((1 << 15) - 1)) + 1),
)
_POW_EXPONENTS = (0, 1, 2, 3, -1, -2, 63, 64, 65, True, Fraction(2), Fraction(1, 2), 0.5)

_FAST_BINARY = [
    (_fast_add, "add"),
    (_fast_sub, "sub"),
    (_fast_mul, "mul"),
    (_fast_div, "div"),
    (_fast_pow, "pow"),
    (_fast_min, "min"),
    (_fast_max, "max"),
]


def _short(v):
    """A repr that stays printable for numbers of 2**19 bits."""
    if isinstance(v, (int, Fraction)) and max(abs(v.numerator), v.denominator) >> 64:
        bits = f"{v.numerator.bit_length()}/{v.denominator.bit_length()} bits"
        return f"<{type(v).__name__} of {bits}>"
    return repr(v)


def assert_fast_matches(fast, name, a, b):
    """``fast(a, b)`` equals the registry impl in value and type, or raises
    the same class; ``min``/``max`` return the very object it returns."""
    impl = get_builtin(name).impl
    try:
        expected = impl(a, b)
        raised = None
    except ORACLE_ERRORS as exc:
        expected, raised = None, type(exc)
    if raised is not None:
        with pytest.raises(raised):
            fast(a, b)
        return
    got = fast(a, b)
    if name in ("min", "max"):
        assert got is expected, f"{name}({_short(a)}, {_short(b)}): not the native object"
    else:
        assert_same_value(expected, got, f"{name}({_short(a)}, {_short(b)})")


def _pairs(name):
    if name not in ("div", "pow"):
        return [(a, b) for a in _GRID for b in _GRID]
    # The huge operands probe the add/sub/mul degrade guard, which div does
    # not have (and would spend seconds in gcds on); pow's own guards are
    # probed by the dedicated bases and exponents.
    small = [v for v in _GRID if not isinstance(v, (int, Fraction)) or abs(v) < 1 << 64]
    pairs = [(a, b) for a in small for b in small]
    if name == "pow":
        pairs += [(a, b) for a in _POW_BASES + tuple(small) for b in _POW_EXPONENTS]
    return pairs


@pytest.mark.parametrize("fast,name", _FAST_BINARY)
def test_fast_binary_ops_match_registry(fast, name):
    for a, b in _pairs(name):
        assert_fast_matches(fast, name, a, b)


@pytest.mark.parametrize("fast,native", [(_fast_min, min), (_fast_max, max)])
def test_fast_min_max_return_the_native_object(fast, native):
    for a, b in [
        (5, Fraction(5)),
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(2, 6), Fraction(1, 3)),
        (7, 7),
        (0, Fraction(0)),
        (Fraction(-1, 2), -1),
        (Fraction(-1, 2), Fraction(-2, 3)),
        (1 << 70, Fraction((1 << 71) - 1, 2)),
        # equal values held by distinct objects: ties must keep the first
        (10**30, int(str(10**30))),
        (Fraction(10**30, 7), Fraction(int(str(10**30)), 7)),
        (10**30, Fraction(int(str(10**30)))),
    ]:
        assert fast(a, b) is native(a, b), (a, b)
        assert fast(b, a) is native(b, a), (b, a)


_MIXED_NUMBER = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**12),
    st.builds(Fraction, st.integers(-(10**30), 10**30)),
    st.floats(allow_nan=False, width=64),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FAST_BINARY), _MIXED_NUMBER, _MIXED_NUMBER)
def test_fast_binary_ops_match_registry_property(op, a, b):
    fast, name = op
    assert_fast_matches(fast, name, a, b)


def test_fast_neg_matches_registry():
    impl = get_builtin("neg").impl
    for a in _GRID:
        if isinstance(a, bool):
            continue  # -True is 'defined' by Python; impl and fast agree anyway
        assert_same_value(impl(a), _fast_neg(a), f"neg({_short(a)})")


def test_fast_ops_respect_big_number_degrade():
    """Past a combined 2**20 bits the registry wrapper degrades to floats;
    the fast paths must take the same route (via the wrapper fallback)."""
    impl = get_builtin("mul").impl
    big = 1 << (1 << 20)
    assert_same_value(impl(big, big), _fast_mul(big, big), "mul(big, big)")
    assert_same_value(impl(big, 3), _fast_mul(big, 3), "mul(big, 3)")
    huge_frac = Fraction(big, 7)
    assert_same_value(
        impl(huge_frac, Fraction(1, 3)),
        _fast_mul(huge_frac, Fraction(1, 3)),
        "mul(huge_frac, 1/3)",
    )


def test_fast_div_safe_conventions():
    assert _fast_div(5, 0) == 0
    assert _fast_div(Fraction(1, 2), 0) == 0
    assert _fast_div(Fraction(1, 2), Fraction(0, 3)) == 0
    assert_same_value(_fast_div(1, 3), Fraction(1, 3), "1/3")
    assert_same_value(_fast_div(6, 3), 2, "6/3 normalizes to int")
    assert_same_value(_fast_div(Fraction(1, 2), -2), Fraction(-1, 4), "sign")


# -- representation blindness -------------------------------------------------
#
# The serve license (repro.ir.analysis.liveness.element_blind) lets workers
# fold ``k`` where the stream holds ``Fraction(k)`` when the element only
# reaches these builtins; each implementation must then give the same type
# and value for either form.

#: 3 + (2**20 - 3) bits: ``5`` and this sit exactly at the registry's 2**20-bit
#: float degrade, whichever form ``5`` takes.
_AT_DEGRADE = (1 << ((1 << 20) - 3)) - 1
#: 2**16 bits: its 64th power sits exactly at safe_pow's 2**22-bit degrade.
_POW_AT_DEGRADE = 1 << ((1 << 16) - 1)
_BLIND_INTS = (0, 1, -1, 5, -7, 64, 2**70, _POW_AT_DEGRADE)
_BLIND_OTHERS = (
    3, -2, Fraction(1, 3), Fraction(-7, 2), 0.5, -0.0, float("inf"), True, "s", (1, 2),
    _AT_DEGRADE, -_AT_DEGRADE, Fraction(_AT_DEGRADE),
) + _BLIND_INTS + tuple(Fraction(k) for k in _BLIND_INTS)


def _blind_impls():
    """Every implementation a licensed element can reach: the registry
    impl, the fast-path helper and the code the compiler emits."""
    for builtin in all_builtins():
        name = builtin.name
        if name not in NORMALIZING_BUILTINS and builtin.kind != "predicate":
            continue
        params = ("a", "b")[: builtin.arity]
        call = Call(name, tuple(map(Var, params)))
        yield pytest.param(name, builtin.arity, builtin.impl, id=name)
        compiled = compile_expr(call, params)
        yield pytest.param(name, builtin.arity, compiled, id=f"compiled-{name}")
        if name in _FAST_IMPLS:
            yield pytest.param(name, builtin.arity, _FAST_IMPLS[name], id=f"fast-{name}")


def _outcome(fn, *args):
    """The result's type and value (a float by its bits), or the class of
    the exception raised."""
    try:
        value = fn(*args)
    except ORACLE_ERRORS as exc:
        return type(exc)
    return type(value), value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("name,arity,impl", list(_blind_impls()))
def test_integral_fraction_and_int_are_interchangeable(name, arity, impl):
    # div has no bit-size degrade to probe, and spends seconds in the gcds
    # of 2**20-bit operands.
    others = [
        y for y in _BLIND_OTHERS
        if name != "div" or not isinstance(y, (int, Fraction)) or abs(y) < 1 << (1 << 16)
    ]
    for k in _BLIND_INTS:
        if arity == 1:
            assert _outcome(impl, Fraction(k)) == _outcome(impl, k), f"{name}({_short(k)})"
            continue
        for y in others:
            where = f"{name} of {_short(k)} and {_short(y)}"
            assert _outcome(impl, Fraction(k), y) == _outcome(impl, k, y), where
            assert _outcome(impl, y, Fraction(k)) == _outcome(impl, y, k), where


def test_bit_size_boundary_is_exact_for_either_form():
    """The pairs the interchangeability test turns on: while ``_bit_size``
    counted ``Fraction(5)`` one bit more than ``5``, these degraded to 0."""
    add, mul, pow_ = (get_builtin(n).impl for n in ("add", "mul", "pow"))
    assert add(Fraction(5), _AT_DEGRADE) == add(5, _AT_DEGRADE) == _AT_DEGRADE + 5
    assert mul(Fraction(5), _AT_DEGRADE) == _AT_DEGRADE * 5
    assert pow_(Fraction(_POW_AT_DEGRADE), 64) == _POW_AT_DEGRADE**64
