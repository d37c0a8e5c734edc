"""Enumerative expression synthesis (the ``EnumSynthesize`` fallback of
Algorithm 4).

Bottom-up enumeration over the online expression grammar of Figure 7, with
the two standard accelerations:

* **observational equivalence pruning** — candidates are deduplicated by
  their value vector on a bank of random RFS-consistent environments, so the
  search space stays polynomial in practice;
* **mined seeds** — the templatized building blocks produced by
  ``MineExpressions`` enter the terminal pool at cost 1 (this is how "the
  templatized expressions are added to the grammar" in the paper), letting
  the search assemble large solutions like Welford's update from a handful of
  mined monomials.

Correctness of an accepted candidate is established by the testing oracle
(equivalence modulo the RFS, Definition 5.3), exactly as in Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..ir.analysis.prune import statically_redundant
from ..ir.compile import expr_evaluator
from ..ir.evaluator import EvaluationError, evaluate
from ..ir.nodes import Call, Const, Expr, If, MakeTuple, Proj, Var
from ..ir.traversal import ast_size, used_builtins
from ..ir.values import Value, is_number
from .config import SynthesisConfig
from .decompose import ELEM_PARAM
from .equivalence import (
    check_expr_equivalence,
    make_rng,
    random_element,
    random_extras,
    random_list,
    rfs_binder,
)
from .exceptions import EnumerationCapExceeded, SynthesisTimeout
from .rfs import RFS

#: Binary arithmetic always available to the online grammar.
_CORE_BINOPS = ("add", "sub", "mul", "div")
#: Offline-program builtins that may be inherited by the grammar.
_INHERITABLE = ("min", "max", "abs", "sqrt", "exp", "log", "pow")
_PREDICATES = ("lt", "le", "gt", "ge", "eq")


@dataclass
class Bank:
    """Test environments plus the specification's value vector."""

    envs: list[dict[str, Value]]
    spec_signature: tuple


def _signature(expr: Expr, envs: Sequence[dict[str, Value]]) -> tuple | None:
    values = []
    for env in envs:
        try:
            # Interpreted: a fresh candidate meets only the bank's few envs,
            # fewer evaluations than compiling it would pay back.
            value = evaluate(expr, env)
        except (EvaluationError, ArithmeticError, TypeError, ValueError):
            return None
        if isinstance(value, float):
            value = round(value, 9)
        # NaN hashes are id-based since Python 3.10; canonicalize so
        # NaN-valued behaviours deduplicate deterministically (and the
        # static prune's value-identity reasoning stays exact).
        values.append(_canon_nan(value))
    try:
        return tuple(values) if all(_hashable(v) for v in values) else None
    except TypeError:
        return None


def _canon_nan(value: Value) -> Value:
    if isinstance(value, float) and value != value:
        return "nan"
    if isinstance(value, tuple):
        return tuple(_canon_nan(v) for v in value)
    return value


def _hashable(value: Value) -> bool:
    return isinstance(value, (int, float, bool, tuple, str)) or is_number(value)


def build_bank(rfs: RFS, spec: Expr, config: SynthesisConfig, salt: str) -> Bank | None:
    """Random RFS-consistent environments and the spec's target values."""
    rng = make_rng(config, f"enum:{salt}")
    bind = rfs_binder(rfs)
    spec_fn = expr_evaluator(spec, (*rfs.extra_params, rfs.list_param))
    envs: list[dict[str, Value]] = []
    targets: list[Value] = []
    attempts = 0
    wanted = max(8, config.equivalence_tests // 2)
    while len(envs) < wanted and attempts < wanted * 6:
        attempts += 1
        xs = random_list(rng, config.equivalence_max_len, arity=config.element_arity)
        x = random_element(rng, config.element_arity)
        extras = random_extras(rng, rfs.extra_params)
        bindings = bind(xs, extras)
        if bindings is None:
            continue
        offline_env: dict[str, Value] = dict(extras)
        offline_env[rfs.list_param] = list(xs) + [x]
        try:
            target = spec_fn(offline_env)
        except EvaluationError:
            continue
        env = dict(bindings)
        env[ELEM_PARAM] = x
        envs.append(env)
        if isinstance(target, float):
            target = round(target, 9)
        targets.append(target)
    if not envs:
        return None
    try:
        signature = tuple(targets)
        hash(signature)
    except TypeError:
        return None
    return Bank(envs, signature)


@dataclass
class EnumStats:
    generated: int = 0
    kept: int = 0
    checked: int = 0
    #: Candidates discarded by the static redundancy test before their
    #: oracle-env evaluation (see :mod:`repro.ir.analysis.prune`).
    pruned: int = 0


def enumerate_expression(
    rfs: RFS,
    spec: Expr,
    config: SynthesisConfig,
    seeds: Iterable[Expr] = (),
    salt: str = "",
    stats: EnumStats | None = None,
) -> Expr | None:
    """Size-bounded bottom-up search for an online expression matching the
    specification modulo the RFS.

    The terminal pool is the RFS variables, the stream element and the
    extra parameters, then the small constants 0, 1, 2 and the mined
    ``seeds``.  Raises :class:`EnumerationCapExceeded` once more than
    ``config.enumeration_max_kept`` distinct behaviours are kept.
    """
    stats = stats if stats is not None else EnumStats()
    bank = build_bank(rfs, spec, config, salt)
    if bank is None:
        return None

    terminals: list[Expr] = [Var(name) for name in rfs.names]
    terminals.append(Var(ELEM_PARAM))
    terminals.extend(Var(name) for name in rfs.extra_params)
    for extra in (Const(0), Const(1), Const(2), *seeds):
        if extra not in terminals:
            terminals.append(extra)

    offline_ops = used_builtins(spec)
    binops = list(_CORE_BINOPS) + [
        op for op in _INHERITABLE if op in offline_ops and op not in ("abs", "sqrt", "exp", "log")
    ]
    unops = [op for op in ("neg", "abs", "sqrt", "exp", "log") if op in offline_ops or op == "neg"]
    want_conditionals = bool(offline_ops & set(_PREDICATES))
    predicates = [op for op in _PREDICATES if op in offline_ops]
    tuple_arities = sorted({len(v) for v in bank.spec_signature if isinstance(v, tuple)})
    want_tuples = bool(tuple_arities)
    # Pair-shaped stream elements need projections even for scalar outputs.
    want_projections = want_tuples or any(
        isinstance(env.get(ELEM_PARAM), tuple) for env in bank.envs
    )

    # by_size[s] = distinct-behaviour expressions of each size; ``seen``
    # stores signature *hashes* only (storing millions of value tuples was a
    # memory hazard on long runs; a 64-bit hash collision merely prunes one
    # candidate).
    by_size: dict[int, list[Expr]] = {1: []}
    seen: set[int] = set()
    bool_by_size: dict[int, list[Expr]] = {}
    bool_seen: set[int] = set()
    spec_hash = hash(bank.spec_signature)

    def consider(expr: Expr, size: int) -> Expr | None:
        stats.generated += 1
        if stats.generated % 2048 == 0 and config.expired():
            raise SynthesisTimeout("enumeration budget exhausted")
        if stats.kept > config.enumeration_max_kept:
            raise EnumerationCapExceeded("enumeration memory budget exhausted")
        if statically_redundant(expr):
            # Provably faults everywhere or duplicates a banked signature:
            # skipping the env sweep cannot change what the search finds.
            stats.pruned += 1
            return None
        signature = _signature(expr, bank.envs)
        if signature is None:
            return None
        h = hash(signature)
        if h in seen:
            return None
        seen.add(h)
        by_size.setdefault(size, []).append(expr)
        stats.kept += 1
        if h == spec_hash and signature == bank.spec_signature:
            stats.checked += 1
            if check_expr_equivalence(spec, expr, rfs, config, salt=f"enum:{salt}"):
                return expr
        return None

    for term in terminals:
        found = consider(term, 1)
        if found is not None:
            return found

    # Within each size tier the cheap, high-yield productions run first
    # (projections, conditionals, tuples); the binary-operator flood — by far
    # the largest population — runs last so it cannot starve them.
    for size in range(2, config.enumeration_max_size + 1):
        if config.expired():
            raise SynthesisTimeout("enumeration budget exhausted")
        # Projections of tuple-valued expressions.
        if want_projections:
            for expr in by_size.get(size - 1, []):
                for index in (0, 1, 2):
                    found = consider(Proj(expr, index), size)
                    if found is not None:
                        return found
        # Unary operators.
        for op in unops:
            for expr in by_size.get(size - 1, []):
                found = consider(Call(op, (expr,)), size)
                if found is not None:
                    return found
        # pow with small constant exponents.
        for exponent in (2, 3):
            for expr in by_size.get(size - 2, []):
                found = consider(Call("pow", (expr, Const(exponent))), size)
                if found is not None:
                    return found
        # Conditionals: first extend the predicate pool, then build Ifs from
        # smaller (already complete) expression tiers.
        if want_conditionals:
            for op in predicates:
                for left_size in range(1, size - 1):
                    right_size = size - 1 - left_size
                    for left in by_size.get(left_size, []):
                        for right in by_size.get(right_size, []):
                            cond = Call(op, (left, right))
                            csig = _signature(cond, bank.envs)
                            if csig is None or hash(csig) in bool_seen:
                                continue
                            bool_seen.add(hash(csig))
                            bool_by_size.setdefault(size, []).append(cond)
            for cond_size in range(2, size - 2):
                branch_budget = size - 1 - cond_size
                for cond in bool_by_size.get(cond_size, []):
                    for then_size in range(1, branch_budget):
                        else_size = branch_budget - then_size
                        for then in by_size.get(then_size, []):
                            for orelse in by_size.get(else_size, []):
                                found = consider(If(cond, then, orelse), size)
                                if found is not None:
                                    return found
        # Tuples (paired accumulators / whole-program tuple specs).
        if want_tuples:
            for arity in tuple_arities:
                for parts in _compositions(size - 1, arity):
                    for combo in _pool_product(by_size, parts):
                        found = consider(MakeTuple(combo), size)
                        if found is not None:
                            return found
        # Binary operators (the flood).
        for left_size in range(1, size - 1):
            right_size = size - 1 - left_size
            for left in by_size.get(left_size, []):
                for right in by_size.get(right_size, []):
                    for op in binops:
                        found = consider(Call(op, (left, right)), size)
                        if found is not None:
                            return found
            if config.expired():
                raise SynthesisTimeout("enumeration budget exhausted")
    return None


def _compositions(total: int, parts: int):
    """All ways to split ``total`` into ``parts`` positive integers."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _pool_product(by_size: dict[int, list[Expr]], parts: tuple[int, ...]):
    """Cartesian product of the size-indexed expression pools."""
    import itertools

    pools = [by_size.get(p, []) for p in parts]
    if any(not pool for pool in pools):
        return
    yield from itertools.product(*pools)


def seeds_from_template(template) -> list[Expr]:
    """Grammar seeds from a mined template: its basis monomials."""
    seeds = []
    for term in template.basis_exprs():
        if not isinstance(term, Const) and ast_size(term) > 1:
            seeds.append(term)
    return seeds
