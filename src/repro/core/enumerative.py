"""Enumerative expression synthesis (the ``EnumSynthesize`` fallback of
Algorithm 4).

Bottom-up enumeration over the online expression grammar of Figure 7,
declared once per hole as a :class:`Grammar` and walked size tier by size
tier.  :func:`tier` spells a tier as cartesian products over the smaller,
complete pools, so :func:`count_tier` knows its exact size before any of it
runs (GRAPE's ``grape-count`` before ``grape-enum``).  A tier above
:data:`BUDGET` is not walked: the hole fails at once with ``search space of
N programs at size S exceeds budget B``, the same reason in every process.
Two standard accelerations keep the walked tiers small:

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

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..ir.analysis.prune import statically_redundant
from ..ir.compile import expr_evaluator
from ..ir.evaluator import EvaluationError, evaluate
from ..ir.nodes import Call, Const, Expr, If, MakeTuple, Proj, Var
from ..ir.pretty import pretty
from ..ir.traversal import ast_size, used_builtins
from ..ir.values import Value, is_number
from .config import SynthesisConfig
from .decompose import ELEM_PARAM
from .equivalence import (
    EQUIVALENCE_MAX_LEN,
    check_expr_equivalence,
    make_rng,
    random_element,
    random_extras,
    random_list,
    rfs_binder,
)
from .exceptions import HoleSynthesisFailure, SynthesisTimeout
from .rfs import RFS

#: Most expressions one size tier may build: above every tier that solves a
#: suite task (the largest, 333,946, is Opera-NoSymbolic covariance's size 7)
#: and below kurtosis' size 7 (1,073,859), the paper's one expected failure.
BUDGET = 500_000

#: Binary arithmetic always available to the online grammar.
_CORE_BINOPS = ("add", "sub", "mul", "div")
#: Offline-program builtins the grammar inherits when the spec uses them.
_INHERITED_BINOPS = ("min", "max", "pow")
_UNOPS = ("neg", "abs", "sqrt", "exp", "log")
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
        xs = random_list(rng, EQUIVALENCE_MAX_LEN, arity=config.element_arity)
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


@dataclass(frozen=True)
class Grammar:
    """One hole's productions.  A size tier applies them in field order,
    with the binary operators (by far the largest population) last so
    they cannot starve the cheap, high-yield productions."""

    terminals: tuple[Expr, ...]
    #: Indices projected out of the previous tier (empty: no projections).
    projections: tuple[int, ...]
    unops: tuple[str, ...]
    #: Constant exponents of ``pow(e, k)``.
    exponents: tuple[int, ...]
    #: Comparison builtins; ``If`` is in the grammar exactly when they are.
    predicates: tuple[str, ...]
    tuple_arities: tuple[int, ...]
    binops: tuple[str, ...]
    max_size: int


def build_grammar(
    rfs: RFS, spec: Expr, bank: Bank, config: SynthesisConfig, seeds: Iterable[Expr] = ()
) -> Grammar:
    """The grammar of one hole: the RFS variables, the stream element and the
    extra parameters, then the small constants 0, 1, 2 and the mined
    ``seeds`` as terminals; the operators the offline program uses."""
    terminals: list[Expr] = [Var(name) for name in rfs.names]
    terminals.append(Var(ELEM_PARAM))
    terminals.extend(Var(name) for name in rfs.extra_params)
    for extra in (Const(0), Const(1), Const(2), *seeds):
        if extra not in terminals:
            terminals.append(extra)
    offline_ops = used_builtins(spec)
    tuple_arities = tuple(sorted({len(v) for v in bank.spec_signature if isinstance(v, tuple)}))
    # Pair-shaped stream elements need projections even for scalar outputs.
    projected = bool(tuple_arities) or any(
        isinstance(env.get(ELEM_PARAM), tuple) for env in bank.envs
    )
    return Grammar(
        terminals=tuple(terminals),
        projections=(0, 1, 2) if projected else (),
        unops=tuple(op for op in _UNOPS if op == "neg" or op in offline_ops),
        exponents=(2, 3),
        predicates=tuple(op for op in _PREDICATES if op in offline_ops),
        tuple_arities=tuple_arities,
        binops=_CORE_BINOPS + tuple(op for op in _INHERITED_BINOPS if op in offline_ops),
        max_size=config.enumeration_max_size,
    )


def tier(grammar: Grammar, size: int, pools: defaultdict, predicates: defaultdict) -> list:
    """The productions of one size tier, in walk order, each a triple
    ``(build, blocks, is_predicate)``: ``build`` applies to each element of
    each block's cartesian product.  ``pools`` and ``predicates`` map a size
    to its kept expressions; a tier reads only smaller, complete sizes."""
    if size == 1:
        return [(lambda term: term, [(grammar.terminals,)], False)]
    last = pools[size - 1]
    pairs = [(pools[left], pools[size - 1 - left]) for left in range(1, size - 1)]
    return [
        (Proj, [(last, grammar.projections)], False),
        (lambda op, e: Call(op, (e,)), [(grammar.unops, last)], False),
        (lambda k, e: Call("pow", (e, Const(k))), [(grammar.exponents, pools[size - 2])], False),
        (_binary, [(*pair, (op,)) for op in grammar.predicates for pair in pairs], True),
        (
            If,
            [
                ((cond,), pools[then], pools[size - 1 - cond_size - then])
                for cond_size in range(2, size - 2)
                for cond in predicates[cond_size]
                for then in range(1, size - 1 - cond_size)
            ],
            False,
        ),
        (
            lambda *items: MakeTuple(items),
            [
                tuple(pools[part] for part in parts)
                for arity in grammar.tuple_arities
                for parts in _compositions(size - 1, arity)
            ],
            False,
        ),
        (_binary, [(*pair, grammar.binops) for pair in pairs], False),
    ]


def _binary(left: Expr, right: Expr, op: str) -> Expr:
    return Call(op, (left, right))


def count_tier(productions: list[tuple]) -> int:
    """Exactly how many expressions walking ``productions`` builds."""
    return sum(math.prod(map(len, block)) for _, blocks, _ in productions for block in blocks)


@dataclass
class EnumStats:
    #: Expressions built, candidates and predicates alike.
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
    """Size-bounded bottom-up search over :func:`build_grammar`'s grammar for
    an online expression matching the specification modulo the RFS.

    Returns ``None`` when every tier up to the size bound was walked in
    vain; raises :class:`HoleSynthesisFailure` before walking a tier of
    more than :data:`BUDGET` expressions.
    """
    stats = stats if stats is not None else EnumStats()
    bank = build_bank(rfs, spec, config, salt)
    if bank is None:
        return None
    grammar = build_grammar(rfs, spec, bank, config, seeds)

    # pools[s] = distinct-behaviour expressions of size s; ``seen`` stores
    # signature *hashes* only (storing millions of value tuples was a memory
    # hazard on long runs; a 64-bit hash collision merely prunes one
    # candidate).
    pools: defaultdict[int, list[Expr]] = defaultdict(list)
    seen: set[int] = set()
    predicates: defaultdict[int, list[Expr]] = defaultdict(list)
    predicate_seen: set[int] = set()
    spec_hash = hash(bank.spec_signature)

    def consider(expr: Expr, size: int) -> Expr | None:
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
        pools[size].append(expr)
        stats.kept += 1
        if h == spec_hash and signature == bank.spec_signature:
            stats.checked += 1
            if check_expr_equivalence(spec, expr, rfs, config, salt=f"enum:{salt}"):
                return expr
        return None

    def bank_predicate(cond: Expr, size: int) -> None:
        signature = _signature(cond, bank.envs)
        if signature is not None and hash(signature) not in predicate_seen:
            predicate_seen.add(hash(signature))
            predicates[size].append(cond)

    for size in range(1, grammar.max_size + 1):
        if config.expired():
            raise SynthesisTimeout("enumeration budget exhausted")
        productions = tier(grammar, size, pools, predicates)
        count = count_tier(productions)
        if count > BUDGET:
            reason = f"search space of {count} programs at size {size} exceeds budget {BUDGET}"
            raise HoleSynthesisFailure(0, pretty(spec), reason)
        for build, blocks, is_predicate in productions:
            sink = bank_predicate if is_predicate else consider
            for block in blocks:
                if not all(block):
                    continue  # an empty factor: nothing to build or copy
                for parts in itertools.product(*block):
                    stats.generated += 1
                    if stats.generated % 2048 == 0 and config.expired():
                        raise SynthesisTimeout("enumeration budget exhausted")
                    found = sink(build(*parts), size)
                    if found is not None:
                        return found
    return None


def _compositions(total: int, parts: int):
    """All ways to split ``total`` into ``parts`` positive integers, in
    lexicographic order (that of their cut points)."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def seeds_from_template(template) -> list[Expr]:
    """Grammar seeds from a mined template: its basis monomials."""
    seeds = []
    for term in template.basis_exprs():
        if not isinstance(term, Const) and ast_size(term) > 1:
            seeds.append(term)
    return seeds
