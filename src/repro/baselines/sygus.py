"""SyGuS-solver baselines (Section 7.1's comparison points).

There is no off-the-shelf tool for offline-to-online conversion, so — like
the paper, which adapted CVC5 and Sketch — we pose the problem to two
general-purpose grammar-based synthesizers:

* the target grammar is the online-program language of Figure 7;
* the specification is the relational function signature asserted on lists of
  fixed length (the paper's "oracle constraints"), checked by testing;
* the function signature (number and meaning of accumulators) is supplied,
  mirroring "we manually specify their signature";
* crucially, *neither* baseline gets Opera's decomposition or symbolic
  reasoning: both must synthesize the whole output tuple at once.

``Cvc5Style`` models CVC5's strength on this encoding: systematic bottom-up
enumeration with observational-equivalence pruning (smallest-first, complete
up to its size bound).  ``SketchStyle`` models the counterexample-guided
sketch-completion regime: depth-bounded top-down hole filling without
semantic deduplication, which explores far fewer distinct behaviours per
second.  The qualitative outcome — both solve only the small tasks, CVC5
more than Sketch — is the property Table 2 and Figure 11 measure.
"""

from __future__ import annotations

import itertools
import random
import time

from ..core.config import SynthesisConfig
from ..core.enumerative import build_bank
from ..core.equivalence import check_scheme_equivalence
from ..core.exceptions import SynthesisError, SynthesisTimeout, UnsupportedProgram
from ..core.initializer import build_initializer
from ..core.report import HoleOutcome, SynthesisReport
from ..core.rfs import RFS, construct_rfs
from ..core.scheme import OnlineScheme
from ..core.simplify import simplify_expr
from ..ir.evaluator import EvaluationError, evaluate
from ..ir.nodes import Call, Const, Expr, MakeTuple, Program, Var
from ..ir.traversal import ast_size, used_builtins
from ..ir.values import Value


def _tuple_spec(rfs: RFS) -> Expr:
    return MakeTuple(tuple(rfs.entries.values()))


class Cvc5Style:
    """Whole-program bottom-up enumeration with OE pruning."""

    name = "cvc5"

    def synthesize(
        self, program: Program, config: SynthesisConfig, task_name: str
    ) -> SynthesisReport:
        config.start_clock()
        started = time.monotonic()
        report = SynthesisReport(task=task_name, success=False, elapsed_s=0.0)
        try:
            rfs = construct_rfs(program, add_length=False)
            initializer = build_initializer(rfs)
            spec = _tuple_spec(rfs)
            expr = self._enumerate_tuple(rfs, spec, config)
            if expr is None:
                raise SynthesisTimeout("bottom-up search exhausted its budget")
            scheme = OnlineScheme(
                initializer,
                _program_from_tuple(rfs, expr),
                provenance=f"cvc5:{task_name}",
            )
            if not check_scheme_equivalence(program, scheme, config):
                raise SynthesisTimeout("candidate failed full-stream validation")
            report.scheme = scheme
            report.success = True
            report.record_hole(HoleOutcome(0, "enumerative", ast_size(spec), ast_size(expr)))
        except (SynthesisError, EvaluationError) as exc:
            report.failure_reason = f"{type(exc).__name__}: {exc}"
        finally:
            report.elapsed_s = time.monotonic() - started
        return report

    def _enumerate_tuple(self, rfs: RFS, spec: Expr, config: SynthesisConfig) -> Expr | None:
        """Joint synthesis: per-component banks, cross-product assembly.

        Components are enumerated bottom-up with shared sub-expression pools;
        a full candidate is accepted only if every component matches its RFS
        entry's value vector (the fixed-length oracle constraint).
        """
        from ..core.enumerative import enumerate_expression

        # A whole-tuple spec with OE pruning on the tuple signature; the
        # enumerator's tuple productions assemble the outputs.
        try:
            return enumerate_expression(rfs, spec, config, salt="cvc5")
        except SynthesisTimeout:
            return None


class SketchStyle:
    """Depth-bounded top-down completion without semantic deduplication."""

    name = "sketch"

    def __init__(self, max_depth: int = 3, max_candidates: int = 200_000):
        self.max_depth = max_depth
        self.max_candidates = max_candidates

    def synthesize(
        self, program: Program, config: SynthesisConfig, task_name: str
    ) -> SynthesisReport:
        config.start_clock()
        started = time.monotonic()
        report = SynthesisReport(task=task_name, success=False, elapsed_s=0.0)
        try:
            rfs = construct_rfs(program, add_length=False)
            initializer = build_initializer(rfs)
            spec = _tuple_spec(rfs)
            expr = self._complete(rfs, spec, config)
            if expr is None:
                raise SynthesisTimeout("sketch completion exhausted its budget")
            scheme = OnlineScheme(
                initializer,
                _program_from_tuple(rfs, expr),
                provenance=f"sketch:{task_name}",
            )
            if not check_scheme_equivalence(program, scheme, config):
                raise SynthesisTimeout("candidate failed full-stream validation")
            report.scheme = scheme
            report.success = True
            report.record_hole(HoleOutcome(0, "enumerative", ast_size(spec), ast_size(expr)))
        except (SynthesisTimeout, UnsupportedProgram, EvaluationError) as exc:
            report.failure_reason = f"{type(exc).__name__}: {exc}"
        finally:
            report.elapsed_s = time.monotonic() - started
        return report

    def _complete(self, rfs: RFS, spec: Expr, config: SynthesisConfig) -> Expr | None:
        bank = build_bank(rfs, spec, config, salt="sketch")
        if bank is None:
            return None
        terminals: list[Expr] = [Var(name) for name in rfs.names]
        terminals.append(Var("x"))
        terminals.extend(Var(name) for name in rfs.extra_params)
        terminals.extend([Const(0), Const(1)])
        ops = sorted(
            (used_builtins(spec) | {"add", "sub", "mul", "div"})
            & {"add", "sub", "mul", "div", "min", "max"}
        )
        rng = random.Random(config.seed)

        def candidates(depth: int):
            """All expressions of exactly the given depth (no dedup)."""
            if depth == 0:
                yield from terminals
                return
            smaller = list(self._upto(depth - 1, terminals, ops))
            for op in ops:
                for left, right in itertools.product(smaller, smaller):
                    yield Call(op, (left, right))

        produced = 0
        arity = len(rfs)
        for depth in range(1, self.max_depth + 1):
            pool = list(self._upto(depth, terminals, ops))
            rng.shuffle(pool)
            for combo in itertools.product(pool, repeat=arity):
                if config.expired() or produced > self.max_candidates:
                    return None
                produced += 1
                candidate = MakeTuple(combo)
                if self._matches(candidate, bank):
                    return candidate
        return None

    def _upto(self, depth: int, terminals: list[Expr], ops: list[str]):
        pool = list(terminals)
        for _ in range(depth):
            extended = list(pool)
            for op in ops:
                for left in terminals:
                    for right in pool:
                        extended.append(Call(op, (left, right)))
            pool = extended[:400]  # Sketch-style bounded unrolling
        return pool

    @staticmethod
    def _matches(candidate: Expr, bank) -> bool:
        for env, expected in zip(bank.envs, bank.spec_signature):
            try:
                value: Value = evaluate(candidate, env)
            except (EvaluationError, ArithmeticError, TypeError, ValueError):
                return False
            if value != expected:
                return False
        return True


def _program_from_tuple(rfs: RFS, expr: Expr):
    from ..ir.nodes import OnlineProgram, Proj

    if isinstance(expr, MakeTuple) and expr.arity == len(rfs):
        outputs = tuple(simplify_expr(e) for e in expr.items)
    else:
        outputs = tuple(simplify_expr(Proj(expr, i)) for i in range(len(rfs)))
    return OnlineProgram(
        state_params=rfs.names,
        elem_param="x",
        outputs=outputs,
        extra_params=rfs.extra_params,
    )
